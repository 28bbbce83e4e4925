"""Package layering: each module imports only modules of lower layers, in
the order tree/poly -> spectrum -> families -> verify -> cli, so no two
modules import each other in a cycle.  `__init__` re-exports every layer
and is exempt.  Also: the names the benchmark reaches into stay bound, the
modules that decide verdicts use no floating point, every public name in
the package has a caller in the package, and a sweep loads no OpenSSL."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treemult.families as families
import treemult.spectrum as spectrum

LAYER = {"tree": 0, "poly": 0, "spectrum": 1, "families": 2, "verify": 3, "cli": 4}
# parsed, not imported: a cycle would fail the import before any assertion
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "treemult"
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def package_imports(path: Path) -> set[str]:
    """The treemult modules that the module at path imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "treemult" if node.level else node.module or ""
            if node.level and node.module:
                base += "." + node.module
            # `from treemult import spectrum` names a module, not an attribute
            names = [base] if base != "treemult" else [f"treemult.{a.name}" for a in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "treemult" and len(parts) > 1:
                found.add(parts[1])
    return found


def test_imports_point_down_the_layers():
    paths = {p.stem: p for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    assert set(paths) == set(LAYER)  # a new module needs a layer here
    upward = {}
    for stem, path in sorted(paths.items()):
        bad = sorted(m for m in package_imports(path) if LAYER[m] >= LAYER[stem])
        if bad:
            upward[stem] = bad
    assert upward == {}


def test_benchmark_names_stay_bound():
    # perfbench/tracer.py wraps names on verify that verify itself may not
    # use; installing it getattrs each and raises AttributeError on one
    # that is gone.  perfbench/run.py reads the other two.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    with tracer.installed(tracer.Tracer()):
        pass
    assert isinstance(families._member_memo, dict)
    assert callable(spectrum.char_poly.cache_info)


DECISION_PATH = ("tree", "poly", "spectrum", "families")
FLOAT_MATH = {"cos", "sin", "pi", "sqrt", "isclose"}


def float_uses(path: Path) -> list[str]:
    """Float literals, true division, float(...) and the math module's
    floating-point names in the module at path, as "line: what"."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{node.lineno}: literal {node.value!r}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{node.lineno}: true division")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{node.lineno}: float")
        elif isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH:
            if isinstance(node.value, ast.Name) and node.value.id == "math":
                found.append(f"{node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{node.lineno}: math.{a.name}" for a in node.names if a.name in FLOAT_MATH]
    return found


def test_no_floats_on_the_decision_path():
    # every verdict is decided in exact integer arithmetic
    found = {stem: float_uses(PACKAGE / f"{stem}.py") for stem in DECISION_PATH}
    assert {stem: uses for stem, uses in found.items() if uses} == {}


# public names that no src module calls yet, and why each stays in src
NO_SRC_CALLER = {
    "engine_agreement_check": "entry point of the benchmark's agreement workload and of "
    "the acceptance suite's engine-agreement criterion",
    "replay_witness": "checks a witness chain; the planned in-sweep witness replay calls it",
}


def public_definitions(module: ast.Module) -> set[str]:
    """Public module-level functions and classes, and public methods."""
    found = set()
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.add(node.name)
        if isinstance(node, ast.ClassDef):
            found |= {
                m.name
                for m in node.body
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
            }
    return found


def referenced_names(module: ast.Module) -> set[str]:
    """Every Name, Attribute and import alias in a module; the words of its
    docstrings and comments do not count."""
    found = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_public_names_have_src_callers():
    # code that only tests call belongs in tests/; `__init__` re-exports
    # every layer, so its imports do not count as callers
    modules = [
        ast.parse(p.read_text(encoding="utf-8"))
        for p in PACKAGE.glob("*.py")
        if p.stem != "__init__"
    ]
    defined = set().union(*map(public_definitions, modules))
    referenced = set().union(*map(referenced_names, modules))
    assert sorted(defined - referenced - set(NO_SRC_CALLER)) == []
    assert set(NO_SRC_CALLER) <= defined  # an entry whose name is gone goes too


# a fresh interpreter that runs a sweep through the CLI and the agreement
# check, then prints which of the OpenSSL-backed modules it has loaded
NO_OPENSSL = """
import contextlib, io, sys
import treemult.cli as cli
from treemult.verify import engine_agreement_check
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(["verify", "--n-max", "4", "--m-max", "5", "--workers", "1", "--out", sys.argv[1]])
assert status == 0 and engine_agreement_check(5) == []
print(sorted(name for name in ("hashlib", "_hashlib") if name in sys.modules))
"""


def test_sweep_loads_no_openssl(tmp_path):
    # verify hashes records with the builtin digest: importing hashlib loads
    # OpenSSL, about 3.5 MB more peak RSS in every process that imports verify
    pytest.importorskip("_sha256")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", NO_OPENSSL, str(tmp_path / "rec.jsonl")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
