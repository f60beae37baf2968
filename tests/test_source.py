"""Checks on the library source itself."""

import ast
import re
from pathlib import Path

import nclab
from nclab import cli, verify
from nclab._base import Frozen, SizeError, _require_int

SRC = Path(__file__).resolve().parent.parent / "src" / "nclab"
README = SRC.parent.parent / "README.md"


def test_no_assert_statements():
    # invariants need real checks: `python -O` strips assert statements
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")), f"no modules under {SRC}"
    assert found == []


def test_no_dataclasses_import():
    # dataclasses loads inspect, ast and dis on import, which slows the
    # start-up of every CLI request
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_value_semantics_only_in_the_record_bases():
    # equality and hashing come from `_base.Record` and `_base.Frozen`, read
    # from each class's `_fields`; a class of its own would bypass that list
    allowed = {("_base.py", "Record"), ("_base.py", "Frozen")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ClassDef) or (path.name, node.name) in allowed:
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [item.name]
                elif isinstance(item, ast.Assign):
                    names = [t.id for t in item.targets if isinstance(t, ast.Name)]
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    names = [item.target.id]
                else:
                    continue
                found += [f"{path.name}:{node.name}.{name}" for name in names
                          if name in ("__eq__", "__hash__")]
    assert found == []


# Public members that no other code of the library calls, each kept for a
# reason of its own.
UNCALLED = {
    "partitions.py:BlockFamily.from_text": "reads back what to_text writes",
    "partitions.py:BlockFamily.from_json_dict": "reads back what to_json_dict writes",
    "partitions.py:Permutation.from_json_dict": "reads back what to_json_dict writes",
    "partitions.py:classify_blocks":
        "the checked reading of a pair's special blocks; the pair routes, which "
        "take their pairs from endpoint_refinements, read the unchecked _special_blocks",
    "partitions.py:is_noncrossing":
        "the public test for NC(n); library code reads the cached _noncrossing",
    "series.py:TruncatedSeries.compose": "checks comp_inverse",
    "series.py:TruncatedSeries.reciprocal":
        "the series operation; the routes run its integer core on graded steps",
    "series.py:TruncatedSeries.comp_inverse":
        "the series operation; the routes run its integer core on graded steps",
    "series.py:moment_series": "the moment series that s_transform is defined on",
}


def test_public_members_have_a_caller():
    # a public function or method stays only if other library code uses it
    # or UNCALLED says why.  A use is a name or attribute of the same name
    # outside the member's own body, so a namesake counts too; the lazy
    # export table in __init__ is text, so exporting a name is no use
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    members = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                members.append((f"{module}:{node.name}", node))
            elif isinstance(node, ast.ClassDef):
                members += [(f"{module}:{node.name}.{item.name}", item) for item in node.body
                            if isinstance(item, ast.FunctionDef)]
    uses: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append(node)
    uncalled = []
    for key, node in members:
        if node.name.startswith("_"):
            continue
        inside = {id(child) for child in ast.walk(node)}
        if all(id(use) in inside for use in uses.get(node.name, [])):
            uncalled.append(key)
    assert sorted(set(uncalled) - set(UNCALLED)) == []
    assert sorted(set(UNCALLED) - set(uncalled)) == []  # called now: drop the entry


def _top_level_calls():
    """(module file name, enclosing top-level function or None, call node)
    for every call in the library."""
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            owner = top.name if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    yield path.name, owner, node


def test_one_stdout_writer():
    # a result is written by `cli._emit`, which picks its JSON or text form
    # once; only `enumerate` streams its objects past it, in chunks
    prints, writes = set(), set()
    for module, owner, call in _top_level_calls():
        if (isinstance(call.func, ast.Name) and call.func.id == "print"
                and not any(kw.arg == "file" for kw in call.keywords)):
            prints.add(f"{module}:{owner}")
        elif ast.unparse(call.func) == "sys.stdout.write":
            writes.add(f"{module}:{owner}")
    assert prints == {"cli.py:_emit"}
    assert writes == {"cli.py:_cmd_enumerate"}


def test_no_module_table_lookups():
    # what a module needs it imports; an error class is caught by class, not
    # looked up among the loaded modules
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.modules":
                found.append(f"{path.name}:{node.lineno}")
            elif (isinstance(node, ast.ImportFrom) and node.module == "sys"
                    and any(alias.name == "modules" for alias in node.names)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_one_integer_check():
    # every size, index, depth and order goes through `_base._require_int`,
    # whose default class is SizeError; no module raises SizeError itself,
    # and the checks it replaced do not come back
    assert _require_int.__defaults__ == (1, SizeError)
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        found += [f"{path.name}:{name}" for name in
                  re.findall(r"\b_require_(?:positive|size|index)\b", text)]
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, ast.Call):
                made = node.func
            elif isinstance(node, ast.Raise):
                made = node.exc
            else:
                continue
            if isinstance(made, ast.Name) and made.id == "SizeError":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _package_imports(path: Path) -> set[str]:
    """The modules of the package that ``path`` imports, at its top or
    inside a function, relatively or by the package name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"nclab.{module}".rstrip(".")
            modules = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        names.update(m.split(".")[1] for m in modules if m.startswith("nclab."))
    return names


def test_series_and_polynomials_do_not_import_each_other():
    # the transform oracles sum over NC(n) at their own numbers, and the
    # closed form needs no series code: neither module loads the other
    assert "polynomials" not in _package_imports(SRC / "series.py")
    assert "series" not in _package_imports(SRC / "polynomials.py")
    assert {"_base", "partitions"} <= _package_imports(SRC / "series.py")


def test_readme_lists_the_value_classes():
    # README's list of record classes is the exported `_base.Frozen` subclasses
    match = re.search(r"The value classes \(([^)]*)\) are records", README.read_text())
    assert match, "README has no value-class sentence"
    exported = {name for name in nclab.__all__
                if isinstance(getattr(nclab, name), type)
                and issubclass(getattr(nclab, name), Frozen)}
    assert set(re.findall(r"`(\w+)`", match.group(1))) == exported


def test_readme_cli_synopsis_matches_the_grammar():
    # README's synopsis names every command, and its verify line every suite
    match = re.search(r"## CLI\s+```text\n(.*?)```", README.read_text(), re.S)
    assert match, "README has no CLI synopsis"
    synopsis = match.group(1)
    named = set(re.findall(r"^nclab (?:\[[^]]*\] )?([a-z]+)", synopsis, re.M))
    assert named >= {command for command in cli._GRAMMAR if command}
    suites = re.findall(r"^nclab verify \{([^}]*)\}", synopsis, re.M)
    assert [set(line.split("|")) for line in suites] == [set(verify.SUITES) | {"all"}]
