"""The package surface, and what each kind of CLI request loads.

The start-up checks run real ``python -m nclab`` processes under
``-X importtime``, which names on stderr every module a process imports,
and subtract what a bare interpreter imports on its own.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nclab

SRC = Path(__file__).resolve().parent.parent / "src"

EXPORTS = [
    "InvalidLinkedPartitionError", "InvalidPairError",
    "InvalidPartitionError", "LinkedPartition", "MomentSequence",
    "NormalizationError", "ParseError", "Partition", "Permutation", "Polynomial",
    "SizeError", "TruncatedSeries", "act", "block_cycles", "catalan", "classify_blocks",
    "coloured_count", "count_endpoint_coarsenings", "count_endpoint_refinements",
    "cumulant_poly", "cumulant_product_identity",
    "cumulants_from_moments", "cumulants_from_moments_by_enumeration",
    "cumulants_from_t", "cumulants_from_t_by_enumeration", "endpoint_coarsenings",
    "endpoint_floor", "endpoint_refinements", "endpoint_refines", "enumerate_nc",
    "enumerate_ncl", "enumerate_ncl_direct", "from_pair", "generated_partition",
    "is_noncrossing", "make_linked", "make_partition", "make_permutation",
    "moment_poly", "moment_poly_cumulants", "moment_poly_inner_outer", "moment_poly_linked",
    "moment_poly_pairs", "moment_series", "moments_from_cumulants",
    "moments_from_cumulants_by_enumeration", "moments_from_t",
    "moments_from_t_by_enumeration", "ncl_count", "refines", "s_transform",
    "schroder", "t_transform", "to_pair", "unlink",
]


class TestSurface:
    def test_all_and_version(self):
        assert nclab.__all__ == EXPORTS
        assert nclab.__version__ == "0.1.0"

    def test_every_name_resolves_to_its_module(self):
        for name in EXPORTS:
            value = getattr(nclab, name)
            assert value.__name__ == name
            assert value.__module__.startswith("nclab.")

    def test_star_import_binds_all(self):
        namespace: dict = {}
        exec("from nclab import *", namespace)
        assert set(EXPORTS) <= set(namespace)
        assert all(namespace[name] is getattr(nclab, name) for name in EXPORTS)

    def test_normalization_error_is_one_class(self):
        # the CLI catches the class that `_base` defines, without `series`
        from nclab import _base, series

        assert nclab.NormalizationError is series.NormalizationError is _base.NormalizationError
        assert issubclass(nclab.NormalizationError, ValueError)

    def test_dir_covers_all(self):
        assert set(EXPORTS) <= set(dir(nclab))

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            nclab.no_such_name  # noqa: B018
        with pytest.raises(ImportError):
            exec("from nclab import no_such_name", {})


ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
IMPORTED_RE = r"^import time:\s+\d+ \|\s+\d+ \|\s*(\S+)$"


def imported(*args: str) -> set[str]:
    """The modules a ``python -X importtime ARGS...`` process imports."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=ENV)
    assert "Traceback" not in proc.stderr, proc.stderr
    return set(re.findall(IMPORTED_RE, proc.stderr, re.M))


@pytest.fixture(scope="module")
def loaded_by():
    """Command -> the modules its process imports beyond a bare interpreter's."""
    baseline = imported("-c", "pass")
    return lambda *argv: imported("-m", "nclab", *argv) - baseline


SERIES_COMMANDS = [
    ("moments", "--t", "1,1/2,3", "--n", "8"),
    ("moments", "--cumulants", "1,2,-1/3", "--n", "6", "--json"),
    ("transform", "--moments", "1,2,5,14", "--to", "t"),
    ("transform", "--moments", "1,2,5,14", "--to", "r", "--json"),
    ("transform", "--moments", "2,5", "--to", "s"),  # normalization failure
]
BLOCK_COMMANDS = [
    ("enumerate", "nc", "4"),
    ("enumerate", "ncl", "4", "--json"),
    ("map", "to-pair", "{1,2}{2,3}", "--details"),
    ("map", "from-pair", "{1,3}{2}", "{1,2,3}", "--json"),
    ("count", "ncl", "6"),
    ("count", "below-ll", "{1,2,3}{4}"),
    ("count", "above-ll", "{1,3}{2"),  # usage error
    ("map", "to-pair", "{1,3}{2,4}"),  # domain error
]


@pytest.mark.parametrize("argv", SERIES_COMMANDS, ids=" ".join)
def test_series_commands_load_series_only(loaded_by, argv):
    modules = loaded_by(*argv)
    assert "nclab.series" in modules
    assert not modules & {"nclab.partitions", "nclab.linked", "nclab.polynomials",
                          "nclab.verify", "dataclasses"}
    assert ("json" in modules) == ("--json" in argv)


@pytest.mark.parametrize("argv", BLOCK_COMMANDS, ids=" ".join)
def test_block_commands_load_no_series(loaded_by, argv):
    modules = loaded_by(*argv)
    assert "nclab.partitions" in modules
    assert not modules & {"nclab.series", "nclab.polynomials", "nclab.verify",
                          "dataclasses"}
    assert ("json" in modules) == ("--json" in argv)


SYMBOLIC_COMMANDS = [
    ("moments", "--symbolic", "6"),
    ("moments", "--symbolic", "9", "--json"),
]
VERIFY_COMMANDS = [
    ("verify", "bijection", "3"),
    ("verify", "counts", "3", "--json"),
]


@pytest.mark.parametrize("argv", SYMBOLIC_COMMANDS, ids=" ".join)
def test_symbolic_commands_load_no_enumerator(loaded_by, argv):
    modules = loaded_by(*argv)
    assert "nclab.polynomials" in modules
    assert not modules & {"nclab.partitions", "nclab.linked", "nclab.series",
                          "nclab.verify"}
    assert ("json" in modules) == ("--json" in argv)


@pytest.mark.parametrize("argv", VERIFY_COMMANDS, ids=" ".join)
def test_verify_suites_load_what_they_use(loaded_by, argv):
    modules = loaded_by(*argv)
    assert {"nclab.verify", "nclab.partitions", "nclab.linked"} <= modules
    assert not modules & {"nclab.series", "nclab.polynomials"}
    assert ("json" in modules) == ("--json" in argv)


# One successful request per command, in the canonical form that the CLI
# reads without argparse
CANONICAL_REQUESTS = [
    ("enumerate", "nc", "3"),
    ("map", "from-pair", "{1,3}{2}", "{1,2,3}", "--details", "--json"),
    ("--limit", "13", "count", "nc", "13"),
    ("moments", "--t", "1,1/2,3", "--n", "8"),
    ("transform", "--moments", "1,2,5,14", "--to", "t", "--order", "2"),
    ("verify", "counts", "2", "--json"),
]
ARGPARSE_MODULES = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("argv", CANONICAL_REQUESTS, ids=" ".join)
def test_canonical_requests_skip_argparse(argv):
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "nclab", *argv],
                          capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    modules = set(re.findall(IMPORTED_RE, proc.stderr, re.M))
    assert "nclab.cli" in modules
    assert not modules & ARGPARSE_MODULES


def test_cli_import_skips_argparse():
    modules = imported("-c", "import nclab.cli")
    assert "nclab.cli" in modules
    assert not modules & ARGPARSE_MODULES


def test_bare_import_loads_no_submodule():
    baseline = imported("-c", "pass")
    modules = imported("-c", "import nclab") - baseline
    assert "nclab" in modules
    assert not {m for m in modules if m.startswith("nclab.")}
    assert "dataclasses" not in modules
