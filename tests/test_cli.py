import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclab import cli, enumerate_nc, enumerate_ncl, linked, ncl_count
from nclab.partitions import _block_text, _nc_walk


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PI_TEXT = "{1,2,4}{2,3}{4,5,6}{6,7}{8,9,11}{9,10}"
ALPHA_TEXT = "{1,3,7}{2}{4,5}{6}{8,10,11}{9}"
BETA_TEXT = "{1,2,3,4,5,6,7}{8,9,10,11}"


class TestEnumerate:
    def test_nc_3(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "nc", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert lines[-1] == "count=5"
        assert lines[0] == "{1}{2}{3}"

    def test_ncl_3(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "ncl", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "count=6"
        assert "{1,2}{2,3}" in lines

    def test_zero_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "nc", "0")
        assert code == 2
        assert "at least 1" in err

    def test_json_lines(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "nc", "2", "--json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records == [
            {"n": 2, "blocks": [[1], [2]]},
            {"n": 2, "blocks": [[1, 2]]},
            {"count": 2},
        ]

    @pytest.mark.parametrize("kind", ["nc", "ncl"])
    def test_json_lines_are_the_json_form(self, capsys, kind):
        # every object line is the compact encoding of its `to_json_dict`
        enumerate_ = enumerate_nc if kind == "nc" else enumerate_ncl
        for n in range(1, 8):
            code, out, _ = run_cli(capsys, "enumerate", kind, str(n), "--json")
            assert code == 0
            want = [json.dumps(obj.to_json_dict(), separators=(",", ":"))
                    for obj in enumerate_(n)]
            assert out.splitlines()[:-1] == want

    @pytest.mark.parametrize("n", range(1, 10))
    def test_nc_walk_forms(self, n):
        # the walk's text and JSON rows, joined as the CLI joins them, are
        # the forms of the `enumerate_nc` objects, line by line and in order
        objs = list(enumerate_nc(n))
        texts = ["".join(row) for row in _nc_walk(n, _block_text)]
        assert texts == [p.to_text() for p in objs]
        head = f'{{"n":{n},"blocks":['
        jsons = [head + ",".join(row) + "]}" for row in _nc_walk(n, cli._block_json)]
        assert jsons == [json.dumps(p.to_json_dict(), separators=(",", ":")) for p in objs]

    def test_limit_guard(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "nc", "13")
        assert code == 2
        assert "size limit 12" in err

    def test_limit_flag_overrides(self, capsys):
        code, out, _ = run_cli(capsys, "--limit", "13", "count", "nc", "13")
        assert code == 0

    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("NCLAB_LIMIT", "5")
        code, _, err = run_cli(capsys, "enumerate", "nc", "6")
        assert code == 2
        assert "size limit 5" in err


class TestMap:
    def test_to_pair_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "map", "to-pair", PI_TEXT)
        assert code == 0
        assert out == f"{ALPHA_TEXT}\n{BETA_TEXT}\n"

    def test_from_pair_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "map", "from-pair", ALPHA_TEXT, BETA_TEXT)
        assert code == 0
        assert out == f"{PI_TEXT}\n"

    def test_round_trip_bytes(self, capsys):
        _, pair_out, _ = run_cli(capsys, "map", "to-pair", PI_TEXT)
        alpha, beta = pair_out.splitlines()
        _, back, _ = run_cli(capsys, "map", "from-pair", alpha, beta)
        assert back.strip() == PI_TEXT

    def test_to_pair_details(self, capsys):
        code, out, _ = run_cli(capsys, "map", "to-pair", PI_TEXT, "--details")
        assert code == 0
        assert out == (
            "unlinking: {1,2,4}{3}{5,6}{7}{8,9,11}{10}\n"
            "permutation: (1,2,3,4,5,6,7)(8,9,10,11)\n"
            f"alpha: {ALPHA_TEXT}\n"
            f"beta: {BETA_TEXT}\n"
        )

    def test_from_pair_precondition_exit3(self, capsys):
        code, _, err = run_cli(capsys, "map", "from-pair", "{1}{2}{3}", "{1,2,3}")
        assert code == 3
        assert "block {1,2,3}: min/max not together in alpha" in err

    def test_from_pair_not_refining_exit3(self, capsys):
        code, out, err = run_cli(capsys, "map", "from-pair", "{1,2}{3,4}", "{1,2,3}{4}")
        assert code == 3
        assert out == ""
        assert err == "error: {1,2}{3,4} does not endpoint-refine {1,2,3}{4}\n"

    @pytest.mark.parametrize("alpha, beta, message", [
        ("{1,3}{2,4}", "{1,2,3,4}", "left partition {1,3}{2,4} is crossing"),
        ("{1}{2}", "{1,2,3}", "ground sets differ (2 vs 3 elements)"),
    ], ids=["crossing", "ground-sets"])
    def test_typed_domain_errors_exit3(self, capsys, alpha, beta, message):
        code, out, err = run_cli(capsys, "map", "from-pair", alpha, beta)
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_unparseable_is_usage(self, capsys):
        code, _, err = run_cli(capsys, "map", "to-pair", "{1,2")
        assert code == 2

    def test_invalid_object_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "map", "to-pair", "{1,3}{2,3}")
        assert code == 3
        assert "minimum of neither" in err

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "map", "to-pair", PI_TEXT, "--json")
        record = json.loads(out)
        assert record["alpha"]["blocks"][0] == [1, 3, 7]
        assert record["beta"]["n"] == 11
        code, out, _ = run_cli(
            capsys, "map", "from-pair", ALPHA_TEXT, BETA_TEXT, "--json"
        )
        record = json.loads(out)
        assert record["linked"] is True
        assert record["blocks"][1] == [2, 3]

    def test_wrong_arity(self, capsys):
        code, _, err = run_cli(capsys, "map", "to-pair", ALPHA_TEXT, BETA_TEXT)
        assert code == 2

    def test_from_pair_details(self, capsys):
        code, out, _ = run_cli(
            capsys, "map", "from-pair", ALPHA_TEXT, BETA_TEXT, "--details"
        )
        assert code == 0
        assert out == (
            "permutation: (1,2,3,4,5,6,7)(8,9,10,11)\n"
            "unlinking: {1,2,4}{3}{5,6}{7}{8,9,11}{10}\n"
            f"linked: {PI_TEXT}\n"
        )

    def test_details_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "map", "to-pair", PI_TEXT, "--details", "--json"
        )
        record = json.loads(out)
        assert record["permutation"]["image"][:3] == [2, 3, 4]
        assert record["unlinking"]["blocks"][0] == [1, 2, 4]

    def test_to_pair_details_json_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "map", "to-pair", PI_TEXT, "--details", "--json")
        assert code == 0
        assert out == (
            '{"unlinking":{"n":11,"blocks":[[1,2,4],[3],[5,6],[7],[8,9,11],[10]]},'
            '"permutation":{"n":11,"image":[2,3,4,5,6,7,1,9,10,11,8]},'
            '"alpha":{"n":11,"blocks":[[1,3,7],[2],[4,5],[6],[8,10,11],[9]]},'
            '"beta":{"n":11,"blocks":[[1,2,3,4,5,6,7],[8,9,10,11]]}}\n'
        )

    def test_from_pair_details_json_bytes(self, capsys):
        code, out, _ = run_cli(
            capsys, "map", "from-pair", ALPHA_TEXT, BETA_TEXT, "--details", "--json"
        )
        assert code == 0
        assert out == (
            '{"permutation":{"n":11,"image":[2,3,4,5,6,7,1,9,10,11,8]},'
            '"unlinking":{"n":11,"blocks":[[1,2,4],[3],[5,6],[7],[8,9,11],[10]]},'
            '"n":11,"blocks":[[1,2,4],[2,3],[4,5,6],[6,7],[8,9,11],[9,10]],'
            '"linked":true}\n'
        )


class TestCount:
    def test_ncl_5(self, capsys):
        code, out, _ = run_cli(capsys, "count", "ncl", "5")
        assert code == 0
        assert out == "90\n"

    def test_below_full_4(self, capsys):
        code, out, _ = run_cli(capsys, "count", "below-ll", "{1,2,3,4}")
        assert code == 0
        assert out == "5\n"

    def test_above(self, capsys):
        code, out, _ = run_cli(capsys, "count", "above-ll", "{1,4}{2,3}")
        assert code == 0
        assert out == "2\n"

    def test_coloured_equals_ncl(self, capsys):
        _, a, _ = run_cli(capsys, "count", "coloured", "6")
        _, b, _ = run_cli(capsys, "count", "ncl", "6")
        assert a == b == f"{ncl_count(6)}\n"

    def test_nc(self, capsys):
        code, out, _ = run_cli(capsys, "count", "nc", "4")
        assert out == "14\n"

    def test_crossing_input_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "count", "below-ll", "{1,3}{2,4}")
        assert code == 3

    def test_non_integer_size(self, capsys):
        code, _, err = run_cli(capsys, "count", "nc", "x")
        assert code == 2

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "count", "ncl", "5", "--json")
        assert json.loads(out) == {"count": 90}


class TestOversizedLabels:
    # the label is bounded by the size limit before anything of its size
    # is built, so the reject is a short usage error
    @pytest.mark.parametrize("argv", [
        ("count", "below-ll", "{1,10000000}"),
        ("map", "to-pair", "{1,2}{2,10000000}"),
        ("map", "from-pair", "{1}{2}", "{1,10000000}"),
    ])
    def test_rejected_before_construction(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "exceeds the size limit" in err
        assert len(err.encode()) < 1024


LONG = "9" * 5000  # past CPython's 4300-digit limit on int <-> str conversion


class TestRejectedNumbers:
    # zero denominators and over-long numbers are usage errors, caught
    # before any conversion, with a short one-line message
    @pytest.mark.parametrize("argv, message", [
        (("moments", "--t", "1,1/0", "--n", "2"), "zero denominator"),
        (("transform", "--moments", "1,2/0", "--to", "s"), "zero denominator"),
        (("count", "below-ll", "{1," + LONG + "}"), "5000 digits"),
        (("map", "to-pair", "{1,2}{2," + LONG + "}"), "5000 digits"),
        (("moments", "--t", "1," + LONG, "--n", "2"), "5000 digits"),
        (("moments", "--t", "1,1/" + LONG, "--n", "2"), "5000 digits"),
        (("transform", "--moments", "1,-" + LONG, "--to", "t"), "5000 digits"),
    ])
    def test_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err
        assert err.count("\n") == 1
        assert len(err.encode()) < 1024

    def test_longest_accepted_rational(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--t", "1,1/" + "1" * 4300, "--n", "2")
        assert code == 0
        assert out == "1, " + str(1 + Fraction(1, int("1" * 4300))) + "\n"


class TestEnumerateDigests:
    # sha256 of the whole stdout, pinned from the line-by-line writer that
    # the chunked one replaced; `enumerate nc 9` (4863 lines) spans chunks
    @pytest.mark.parametrize("argv, digest", [
        (("enumerate", "nc", "9"),
         "8236d715e28a4fe1f335dbb61c5e631f2b5b5738120222b707223ab6379edc33"),
        (("enumerate", "nc", "8", "--json"),
         "af577966adcfce041d501d76a3df129ef5b6b975babde8e8ba9fe2577fa1ac1b"),
        (("enumerate", "ncl", "6"),
         "21e06156517bee4cda3d11f63ee2183313149461da909cf560d469f9fa8a581c"),
        (("enumerate", "ncl", "6", "--json"),
         "99d7a7ddc7827c31e8ba0aaa1fca64520036bc3039b71d529bb85bfb10a6caf6"),
        # pinned from the recursive `enumerate_nc`, the per-pair
        # `enumerate_ncl` and the per-object JSON encoder
        (("enumerate", "nc", "10"),
         "b96bcb4bb9779fced4fb33c30962ea8cb08d0a5be397b75473378a3a186e70bf"),
        (("enumerate", "ncl", "8"),
         "a62cd33c4975e5d3379ddd3adbcdea509e6514a9cf2d5910b425493e78dc0177"),
        (("enumerate", "ncl", "8", "--json"),
         "982db1e5d7b38194d3ed9e68bf3a1725efccc87eefea35df916c8e68b4f9b59d"),
        # pinned from the writer that built a `Partition` per line, before
        # the CLI wrote the lines of `_nc_walk`
        (("enumerate", "nc", "12"),
         "e78cc69225b3aeafb261b14792e8632a2a44ffd8c89cdeb00ab0e0b17e7d826a"),
        (("enumerate", "nc", "11", "--json"),
         "f59ca74c4ad2247fbd0eb8defa262032a5214fd2548be6afa110e184b6d81c36"),
    ])
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSymbolicDigests:
    # sha256 of the whole stdout, pinned from the per-partition expansion
    # that the sum over NC(n) by block type replaced
    @pytest.mark.parametrize("n, as_json, digest", [
        (1, False, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
        (1, True, "717b8852c2466d83577bd28848d72e7da3e1816240f8e8b518e3cd2dbd3a297f"),
        (2, False, "9dea9779cacaf7b5abb3563d0770446dbadf9669252fa3b2d38812093f7229eb"),
        (2, True, "d1a0badfa56e3c7da278ae84ebf4f7bfb2ed7f3e4def60ca637de4da11839299"),
        (3, False, "b1ff9c82f4fc9d15349edf76ea6b6b4bf479c1b5a5203b2b8e55f34ba9344f19"),
        (3, True, "afe69cbff3361ee1b9694ad990908d3bece7d0bf49fd6f89663ce24aadc42fbb"),
        (4, False, "37e3efb1e8d75901637500c2de28fff6700afbdb8d7805b251ef196799bc7b1f"),
        (4, True, "3fa4fec7ede1355b54cf3c8cdedaabdc57e76edf5c4e3286dbe9272e6777ad51"),
        (5, False, "a606ccd5314a2907d6cdb83768710de7ffe5a7d7c4b08e056691218d2ae6d824"),
        (5, True, "ff56adeda2d66d6aa4b8f4822a9ade70710f8390433131a58d93163d37aab538"),
        (6, False, "92fca38ef785a74fbd0b26c5081560207ea2f53db89c9149c49c4179959fbc19"),
        (6, True, "9773722bdd2a7ebac44316d5f1afd83aa8c95aaa5d6031a6f0bf94df67d113d8"),
        (7, False, "92d067bf58b0aac834b261b02450f9c2e735191c233b6e42fa815ebad3f8a256"),
        (7, True, "3ec0abf22ab33d9b7b2148c06af6d8a70d27796aaa0ef0dcc43d855561002015"),
        (8, False, "255e7852c7b0e6c4714ef27c3074b75bd97a011d28a144ec62e9ead7cc34abc2"),
        (8, True, "e0eed4885ec94cad6d5ef064dadf39cdeb4c4b0d23c114879f3e4b9ea91bde26"),
        (9, False, "4dfcefa8f9c1969a6d173ac7d78116bd59b8231a7d36b45f67ecafb077fe18f7"),
        (9, True, "61639f7622cf1fe40e8d4ff8fa2c6d8c87d1f8e06356f1132874cea2ae6fea95"),
        (10, False, "98266dd10e712c3d92dad2d3fa9d5030a5e76acdb7b3f05b70fb598dd0f80b2b"),
        (10, True, "9271c6ba209565ba463228f6abf177159b20f7f47aba9cd921064315ec23bf65"),
        (11, False, "7e1db8e0bb38c87edd80ed90983f625b42cf404cd0f79114d75ac04476044d21"),
        (11, True, "41e956704528aaeb5d0d29d1003b929128041c789d935c8f257cdc503a10883e"),
    ])
    def test_stdout_digest(self, capsys, n, as_json, digest):
        argv = ("moments", "--symbolic", str(n)) + (("--json",) if as_json else ())
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerifyDigests:
    # sha256 of the whole stdout, pinned before the acceptance suite came
    # to run the verify checks; it fixes the identity names, their order,
    # scopes and checked counts, which benchmark parsers read
    @pytest.mark.parametrize("as_json, digest", [
        (False, "d7806fed4d9c2b21c7d949918933c4753e1e341980e8626922dd2e0eca8b5354"),
        (True, "0aa5fbad7fec66e9b35302626b2f8974c824ccb96308b7978973466500954119"),
    ])
    def test_stdout_digest(self, capsys, as_json, digest):
        argv = ("verify", "all", "6") + (("--json",) if as_json else ())
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _flag_sets(*flags):
    """Every subset of ``flags``, the empty one first."""
    sets = [[]]
    for flag in flags:
        sets += [s + [flag] for s in sets]
    return sets


def _transform_grid():
    rng = random.Random(17)
    for depth in (1, 2, 4, 8):
        moments = ",".join(["1"] + [f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"
                                    for _ in range(depth - 1)])
        for to in ("r", "s", "t"):
            for order in dict.fromkeys((None, 0, 1, depth - 1, depth, depth + 1)):
                argv = ["transform", "--moments", moments, "--to", to]
                if order is not None:
                    argv += ["--order", str(order)]
                yield from (argv + flags for flags in _flag_sets("--json"))
    for to in ("r", "s", "t"):  # m1 != 1
        yield from (["transform", "--moments", "2,5,14", "--to", to] + flags
                    for flags in _flag_sets("--json"))


def _count_grid():
    for kind in ("nc", "ncl", "coloured"):
        for size in ("1", "2", "5", "12", "0", "13", "x"):
            yield from (["count", kind, size] + flags for flags in _flag_sets("--json"))
    for kind in ("below-ll", "above-ll"):
        for text in ("{1}", "{1,2,3,4}", "{1,4}{2,3}", "{1,2,3}{4}", "{1,6}{2,3,5}{4}",
                     "{1,3}{2,4}", "{1,3}{2", "{1,2}{2,3}"):
            yield from (["count", kind, text] + flags for flags in _flag_sets("--json"))


def _moments_grid():
    for source in ("--t", "--cumulants"):
        for values in ("1", "1,1", "1,1/2,3", "1,-1,2/3,0,5"):
            for n in ("1", "4", "8"):
                yield from (["moments", source, values, "--n", n] + flags
                            for flags in _flag_sets("--json"))
    for n in ("1", "3", "6"):
        yield from (["moments", "--symbolic", n] + flags for flags in _flag_sets("--json"))
    for argv in (["--t", "2,1", "--n", "3"], ["--cumulants", "2", "--n", "2"],
                 ["--t", "1", "--cumulants", "1", "--n", "2"], ["--t", "1"],
                 ["--symbolic", "3", "--n", "2"], ["--n", "3"]):
        yield from (["moments"] + argv + flags for flags in _flag_sets("--json"))


def _map_grid():
    rng = random.Random(17)
    for n in range(1, 7):
        objs = list(enumerate_ncl(n))
        for p in rng.sample(objs, min(3, len(objs))):
            alpha, beta = linked.to_pair(p)
            for flags in _flag_sets("--details", "--json"):
                yield ["map", "to-pair", str(p)] + flags
                yield ["map", "from-pair", str(alpha), str(beta)] + flags
    for objects in (["from-pair", "{1,3}{2,4}", "{1,2,3,4}"],  # crossing
                    ["from-pair", "{1}{2}{3}", "{1,2,3}"],  # min and max apart
                    ["from-pair", "{1,2}{3,4}", "{1,2,3}{4}"],  # not refining
                    ["to-pair", "{1,3}{2,4}"], ["to-pair", "{1,3}{2,3}"],
                    ["to-pair", "{1}", "{1}"], ["from-pair", "{1}"]):
        yield from (["map"] + objects + flags for flags in _flag_sets("--details", "--json"))


def _verify_grid():
    for suite in ("bijection", "counts", "moments", "all"):
        for n in ("1", "4"):
            yield from (["verify", suite, n] + flags for flags in _flag_sets("--json"))


class TestRequestGridDigests:
    # sha256 over (argv, exit code, stdout, stderr) of every request of a
    # seeded grid, pinned before the handlers shared one writer
    @pytest.mark.parametrize("grid, digest", [
        (_transform_grid,
         "0653e40edc82496bef26171858941a848ca0d928143508ef0bb2e8bd3288d82c"),
        (_count_grid,
         "3151fcd5cb990da35efbfa39a7981585d5fa566f58a86e093e037c6210975178"),
        (_moments_grid,
         "f8e2a346f8bfc33bf765ed7da9194bf22e12f1f440a1210bad6fe6459ebc1c38"),
        (_map_grid,
         "d86bce8583e3f5e8ddc7bd621b73ee252e1b5c1057d2e66426a7dbf749c24349"),
        (_verify_grid,
         "9dfd167d9dc18de141e4a1b430a4f09e208d15fef9952053787744d1412f98ae"),
    ], ids=["transform", "count", "moments", "map", "verify"])
    def test_grid_digest(self, capsys, grid, digest):
        h = hashlib.sha256()
        for argv in grid():
            code, out, err = run_cli(capsys, *argv)
            h.update(json.dumps([argv, code, out, err]).encode() + b"\n")
        assert h.hexdigest() == digest


class TestBoundedArgparseEcho:
    # argparse quotes a rejected argument whole; the message is clipped
    @pytest.mark.parametrize("argv, message", [
        (("enumerate", "nc", "x" * 50000), "argument n: invalid int value: 'xxx"),
        (("enumerate", "n" * 40000, "3"), "argument kind: invalid choice: 'nnn"),
        (("count", "nc", "3", "--" + "y" * 80000), "unrecognized arguments: --yyy"),
    ])
    def test_long_argument(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert message in captured.err
        assert "characters)" in captured.err
        assert len(captured.err.encode()) < 1024

    @pytest.mark.parametrize("argv, last_line", [
        (("enumerate", "nc", "x"),
         "nclab enumerate: error: argument n: invalid int value: 'x'"),
        (("enumerate", "foo", "3"),
         "nclab enumerate: error: argument kind: invalid choice: 'foo' "
         "(choose from 'nc', 'ncl')"),
        (("enumerate", "nc", "3", "--bogus"),
         "nclab: error: unrecognized arguments: --bogus"),
    ])
    def test_short_message_unchanged(self, capsys, argv, last_line):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage: nclab")
        assert captured.err.endswith("\n" + last_line + "\n")


# (argv, exit code, sha256 over (argv, exit code, stdout, stderr)) of the
# help texts and of a grid of usage rejections, pinned at 80 columns while
# argparse still read every command line: the parser built from the grammar
# table, and the canonical command lines read without it, leave them unchanged
ARGPARSE_BYTES = [
    (["-h"], 0, "32f02a2e1cc458c5aba2d513453844aba354f2206f091e6189effde64b3c9ad4"),
    (["enumerate", "-h"], 0,
     "c503a7f3cd05f1b379b883de348b5cc1c9dfad5d6728b30a298cb208ddc03e57"),
    (["map", "-h"], 0, "2ebf32cdb00d37794f9b73546dcb3a02d98c88c0137c7cae1ee6db771033d102"),
    (["count", "-h"], 0, "39d2d6422f921edb3b31a9bd3f1441da1e162074df101813d487e65d7ceabc00"),
    (["moments", "-h"], 0,
     "ee446fad48908fd6c02aca086939a12b5e80aacecb038a9a9cce5821871c25e7"),
    (["transform", "-h"], 0,
     "415433f2a2c5985f27213bafc7b0ddc2f0230a1588bf0e1b651cc785b3573540"),
    (["verify", "--help"], 0,
     "b93597673e2c22ce2d94ec298e952cfacf249f6afa38540272cda42228069cbd"),
    ([], 2, "3b5434077c9984d6158409da85903b613439695857c16e57a61b441e17e14a0f"),
    (["frobnicate", "3"], 2,
     "f51fef555d6cc51ce37e97ff8928f88c3289aaf60075468091cc25286a496f3f"),
    (["transform", "--moments", "1,2"], 2,
     "26aabc8a8ac852b855c7fb9f02c605d23ab11da396f8f0b970c1e483428c6b91"),
    (["transform", "--moments", "1,2", "--to", "x"], 2,
     "d96ea3491124325cfdc446ea73717311390f139caefe8a988b6635485de03eb6"),
    (["verify", "all", "x"], 2,
     "f999676af4f36efaab7d74a35b9b02aae813af16e9727458ee3a596ce5e71415"),
    (["--js", "enumerate", "nc", "3"], 2,
     "677e52b8a17c672e10183f583e306ed915f535fac182ff71c26d53d04cffb1cf"),
    (["moments", "--sym", "x"], 2,
     "92e9853f6193dc80c3c7f4b0636df3a84c50fcdb1b77788dbf45bcd372aff2aa"),
    (["verify", "all", "--n=3"], 2,
     "1eb31a1ce6ca0c8e7c442007d9be2af758ab8ab431ecbc16d68bca49e894986b"),
    (["map", "to-pair", "{1}", "--json", "{1}"], 2,
     "edacf007bf059748356f3245fb9b67f68df0fde6b888eed34fafc075b8138f97"),
    (["map", "--json", "to-pair"], 2,
     "8bb0e8ab819333a0697915afb66ddc7163dc1e4303fb8055762fb9fe0f391255"),
    (["transform", "--to", "s", "--to", "q", "--moments", "1"], 2,
     "69c56eaaf5898646dde2ad1022cacd1984e0421f484ab2398ac6ca632ad79ffb"),
    (["verify", "--", "all"], 2,
     "abfd146d260ea37734476508b66898287f88b0eb4f7a219d7e210e28f31d60ea"),
    (["count", "nc", "3", "--limit", "5"], 2,
     "709db3debe6252f07894c334378e8864ad15071dc4ea78a48d70ef21aa996eee"),
]


class TestArgparseBytes:
    @pytest.mark.parametrize("argv, code, digest", ARGPARSE_BYTES,
                             ids=[" ".join(argv) or "(none)" for argv, _, _ in ARGPARSE_BYTES])
    def test_digest(self, capsys, monkeypatch, argv, code, digest):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == code
        record = [argv, exc.value.code, captured.out, captured.err]
        assert hashlib.sha256(json.dumps(record).encode()).hexdigest() == digest


@cache
def _argparse_parser():
    return cli.build_parser()


def _argparse_vars(argv):
    """vars() of argparse's namespace for ``argv``, or None where it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(_argparse_parser().parse_args(argv))
        except SystemExit:
            return None


def _words(settings):
    """Values for an argument: its choices or integers, and some it rejects."""
    if "choices" in settings:
        return st.sampled_from(settings["choices"] + ["x", ""])
    if settings.get("type") is int:
        return st.integers(0, 30).map(str) | st.sampled_from(["x", "1.5", " 3", "\u0663", ""])
    return st.text("{}0123456789,/ ab=", max_size=8)


@st.composite
def _canonical_argvs(draw):
    """A command line in the canonical form, drawn from the grammar table."""
    (limit, limit_settings), = cli._GRAMMAR[None][1]
    argv = [limit, draw(_words(limit_settings))] if draw(st.booleans()) else []
    command = draw(st.sampled_from([c for c in cli._GRAMMAR if c is not None]))
    argv.append(command)
    arguments = cli._GRAMMAR[command][1]
    for name, settings in arguments:
        if not name.startswith("-"):
            count = draw(st.integers(1, 3)) if settings.get("nargs") == "+" else 1
            argv += [draw(_words(settings)) for _ in range(count)]
    options = [arg for arg in arguments if arg[0].startswith("-")]
    for name, settings in draw(st.permutations(options))[:draw(st.integers(0, len(options)))]:
        argv.append(name)
        if settings.get("action") != "store_true":
            argv.append(draw(_words(settings)))
    return argv


_INSERTED = ["-h", "--help", "--", "-1", "-3/2", "--json", "--limit", "5", "nc", "--bogus", "-x"]


@st.composite
def _perturbed_argvs(draw):
    """A canonical command line with up to three of the changes that send
    it to argparse: help, abbreviations, --opt=value, repeated or moved
    words, negative numbers, "--", --limit after the command, and words
    inserted or deleted."""
    argv = draw(_canonical_argvs())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        word = argv[at] if at < len(argv) else ""
        kind = draw(st.sampled_from(["insert", "delete", "abbreviate", "equals", "repeat",
                                     "negative", "move", "limit-last"]))
        if kind == "insert":
            argv.insert(at, draw(st.sampled_from(_INSERTED)))
        elif kind == "delete" and word:
            del argv[at]
        elif kind == "abbreviate" and word.startswith("--") and len(word) > 3:
            argv[at] = word[:draw(st.integers(3, len(word) - 1))]
        elif kind == "equals" and word.startswith("--") and at + 1 < len(argv):
            argv[at:at + 2] = [f"{word}={argv[at + 1]}"]
        elif kind == "repeat":
            argv[at:at] = argv[at:at + 2]
        elif kind == "negative" and word and not word.startswith("-"):
            argv[at] = "-" + word
        elif kind == "move" and word:
            argv.insert(draw(st.integers(0, len(argv) - 1)), argv.pop(at))
        elif kind == "limit-last" and argv[:1] == ["--limit"]:
            argv = argv[2:] + argv[:2]
    return argv


class TestFastArgs:
    # argparse's parser of the grammar is the oracle of the fast parser: it
    # takes a command line only as argparse reads it, and takes every
    # canonical one that argparse accepts
    @settings(max_examples=600, deadline=None)
    @given(_canonical_argvs(), _perturbed_argvs())
    def test_argparse_is_the_oracle(self, canonical, perturbed):
        fast = cli._fast_args(canonical)
        assert (fast and vars(fast)) == _argparse_vars(canonical)
        fast = cli._fast_args(perturbed)
        assert fast is None or vars(fast) == _argparse_vars(perturbed)

    @pytest.mark.parametrize("argv", [
        ["enumerate", "nc", "3", "--js"], ["moments", "--sym", "3"],
        ["moments", "--n=3", "--t", "1"], ["count", "nc", "3", "--json", "--json"],
        ["map", "--json", "to-pair", "{1}"], ["map", "to-pair", "{1}", "--json", "{1}"],
        ["count", "nc", "-3"], ["enumerate", "--", "nc", "3"],
        ["count", "nc", "3", "--limit", "5"], ["count", "-h"],
        ["--limit", "-5", "count", "nc", "3"],
    ], ids=" ".join)
    def test_fallback(self, argv):
        assert cli._fast_args(argv) is None

    @pytest.mark.parametrize("grid", [_transform_grid, _count_grid, _moments_grid, _map_grid,
                                      _verify_grid], ids=lambda grid: grid.__name__)
    def test_grid_requests_never_fall_back(self, grid):
        taken = 0
        for argv in grid():
            expected = _argparse_vars(argv)
            fast = cli._fast_args(argv)
            if expected is not None:
                assert fast is not None, argv
                assert vars(fast) == expected
                taken += 1
        assert taken


class TestBoundedEcho:
    # a rejected argument is quoted by a bounded prefix and its length, so
    # stderr does not grow with the input
    @pytest.mark.parametrize("argv, message", [
        (("count", "below-ll", "{1,2" * 20000), "cannot parse partition text"),
        (("map", "from-pair", "{1}", "{1" * 30000), "cannot parse partition text"),
        (("moments", "--t", "1," + "1.1" * 15000, "--n", "2"), "cannot parse rational"),
        (("transform", "--moments", "1," + "x" * 80000, "--to", "s"),
         "cannot parse rational"),
        (("count", "nc", "x" * 50000), "nc needs an integer size"),
        (("count", "coloured", "9" * 40000), "coloured needs an integer size"),
    ])
    def test_long_argument(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert "characters)" in err
        assert err.count("\n") == 1
        assert len(err.encode()) < 1024

    @pytest.mark.parametrize("argv, err_line", [
        (("count", "below-ll", "{1,2"), "error: cannot parse partition text '{1,2'"),
        (("moments", "--t", "1,1.5", "--n", "2"),
         "error: cannot parse rational '1.5' (use p or p/q, no decimals)"),
        (("count", "nc", "x"), "error: nc needs an integer size, got 'x'"),
    ])
    def test_short_argument_quoted_whole(self, capsys, argv, err_line):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == err_line + "\n"


EPS = Fraction(1, 10**4000)


class TestPastTheDigitLimit:
    # (argv, values, JSON record of the values): answers with integers of
    # more than CPython's default limit of 4300 digits for int <-> str.  The
    # values come from math.comb and the low-order moment and cumulant
    # formulas, not from nclab.
    CASES = {
        "count": (("--limit", "10000", "count", "nc", "8000"),
                  [comb(16000, 8000) // 8001],
                  lambda values: {"count": values[0]}),
        "moments": (("moments", "--t", f"1,1/{10**4000}", "--n", "3"),
                    [1, 1 + EPS, EPS**2 + 3 * EPS + 1],
                    lambda values: {"moments": [str(v) for v in values]}),
        "transform": (("transform", "--moments", f"1,1/{10**4000},0,0", "--to", "r"),
                      [1, EPS - 1, 2 - 3 * EPS, 10 * EPS - 2 * EPS**2 - 5],
                      lambda values: {"order": 4, "coeffs": ["0", *map(str, values)]}),
    }

    @pytest.mark.parametrize("json_form", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("case", CASES)
    def test_written_in_full(self, capsys, case, json_form):
        argv, values, record = self.CASES[case]
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, *argv, *(["--json"] if json_form else []))
        assert sys.get_int_max_str_digits() == limit
        assert (code, err) == (0, "")
        sys.set_int_max_str_digits(0)
        try:
            if json_form:
                assert json.loads(out) == record(values)
            else:
                assert out == ", ".join(map(str, values)) + "\n"
        finally:
            sys.set_int_max_str_digits(limit)


class TestMoments:
    def test_catalan_from_t(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--t", "1,1", "--n", "4")
        assert code == 0
        assert out == "1, 2, 5, 14\n"

    def test_symbolic_4(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--symbolic", "4")
        assert code == 0
        assert out == "t3 + 3*t2*t1 + t1^3 + 4*t2 + 6*t1^2 + 6*t1 + 1\n"

    def test_bad_t0_exit4(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--t", "2,1", "--n", "3")
        assert code == 4
        assert "t_0 must be 1" in err

    def test_from_cumulants(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--cumulants", "1,1,1,1", "--n", "4")
        assert out == "1, 2, 5, 14\n"

    def test_cumulants_normalization_exit4(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--cumulants", "2", "--n", "2")
        assert code == 4

    def test_rational_input(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--t", "1,1/2", "--n", "2")
        assert out == "1, 3/2\n"

    def test_decimal_rejected(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--t", "1,0.5", "--n", "2")
        assert code == 2
        assert "no decimals" in err

    def test_source_required(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--n", "3")
        assert code == 2

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--t", "1,1", "--n", "3", "--json")
        assert json.loads(out) == {"moments": ["1", "2", "5"]}

    def test_symbolic_json(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--symbolic", "2", "--json")
        assert json.loads(out) == {
            "terms": [
                {"coeff": "1", "monomial": {"1": 1}},
                {"coeff": "1", "monomial": {}},
            ]
        }

    def test_symbolic_excludes_sources(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--symbolic", "3", "--t", "1")
        assert code == 2


class TestTransform:
    def test_to_t_constant_ones(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "--moments", "1,1,1,1", "--to", "t")
        assert out == "1, 0, 0, 0\n"

    def test_to_t_catalan(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "--moments", "1,2,5,14", "--to", "t")
        assert out == "1, 1, 0, 0\n"

    def test_to_s_catalan(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "--moments", "1,2,5,14", "--to", "s")
        assert out == "1, -1, 1, -1\n"

    def test_to_r_catalan(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "--moments", "1,2,5,14", "--to", "r")
        assert out == "1, 1, 1, 1\n"

    def test_normalization_exit4(self, capsys):
        code, _, err = run_cli(capsys, "transform", "--moments", "2,1", "--to", "t")
        assert code == 4

    def test_json_series_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", "--moments", "1,2,5,14", "--to", "t", "--json"
        )
        assert json.loads(out) == {"order": 3, "coeffs": ["1", "1", "0", "0"]}

    def test_json_r_series_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", "--moments", "1,2,5,14", "--to", "r", "--json"
        )
        assert json.loads(out) == {"order": 4, "coeffs": ["0", "1", "1", "1", "1"]}

    def test_order_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", "--moments", "1,2,5,14", "--to", "t", "--order", "1"
        )
        assert out == "1, 1\n"
        code, _, err = run_cli(
            capsys, "transform", "--moments", "1,2", "--to", "t", "--order", "5"
        )
        assert code == 2


class TestVerify:
    def test_all_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all", "4")
        assert code == 0
        assert "summary:" in out
        assert "FAIL" not in out

    def test_bijection_reports_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "bijection", "5")
        assert code == 0
        total = sum(ncl_count(n) for n in range(1, 6))
        assert f"round-trips={total}" in out

    def test_counts_echoes_sequence(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "counts", "6")
        assert code == 0
        assert "counts=1,2,6,22,90,394" in out

    def test_json_records(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "bijection", "3", "--json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert all(r.get("pass") for r in records[:-1])
        assert records[-1]["summary"]["failed"] == 0

    def test_verify_moments_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "moments", "3")
        assert code == 0
        assert "four-routes" in out

    def test_failure_path_exits_1(self, capsys, monkeypatch):
        # sabotage a pinned expectation: the runner must notice and exit 1
        from nclab import verify

        monkeypatch.setitem(verify.LOW_ORDER_MOMENT_TEXTS, 2, "t1 + 2")
        code, out, _ = run_cli(capsys, "verify", "moments", "2")
        assert code == 1
        assert "FAIL" in out

    def test_failure_path_json(self, capsys, monkeypatch):
        from nclab import verify

        monkeypatch.setattr(verify, "NCL_COUNT_PREFIX", (1, 3, 6, 22, 90, 394, 1806))
        code, out, _ = run_cli(capsys, "verify", "counts", "2", "--json")
        assert code == 1
        records = [json.loads(line) for line in out.splitlines()]
        assert records[-1]["summary"]["failed"] == 1
        failing = [r for r in records[:-1] if not r.get("pass", True)]
        assert failing and failing[0]["failures"]

    def test_interval_products_compares_the_sets(self, capsys, monkeypatch):
        # a wrong refinement in place of a right one keeps every count
        from nclab import partitions

        refinements = partitions.endpoint_refinements
        full, wrong, right = (partitions.Partition.from_text(t)
                              for t in ("{1,2,3}", "{1,2}{3}", "{1,3}{2}"))

        def swapped(b):
            for a in refinements(b):
                yield wrong if b == full and a == right else a

        monkeypatch.setattr(partitions, "endpoint_refinements", swapped)
        code, out, _ = run_cli(capsys, "verify", "counts", "4")
        assert code == 1
        failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")]
        assert failed == ["counts.interval-products"]
        assert "    {1,2,3}: blockwise enumeration mismatch\n" in out


class TestSubprocess:
    def test_module_invocation(self):
        for module in ("nclab.cli", "nclab"):
            proc = subprocess.run(
                [sys.executable, "-m", module, "count", "ncl", "4"],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0
            assert proc.stdout == "22\n"

    def test_usage_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nclab.cli", "enumerate", "bad", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize("argv", [["-h"], ["count", "nc", "3", "--limit", "5"]],
                             ids=" ".join)
    def test_argparse_bytes(self, argv):
        # help and a usage error, in a process that reads canonical command
        # lines without argparse
        proc = subprocess.run([sys.executable, "-m", "nclab", *argv], capture_output=True,
                              text=True, env={**os.environ, "COLUMNS": "80"})
        code, digest = next((code, digest) for pinned, code, digest in ARGPARSE_BYTES
                            if pinned == argv)
        assert proc.returncode == code
        record = [argv, proc.returncode, proc.stdout, proc.stderr]
        assert hashlib.sha256(json.dumps(record).encode()).hexdigest() == digest

    def test_determinism(self):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "nclab.cli", "enumerate", "ncl", "4", "--json"],
                capture_output=True,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
