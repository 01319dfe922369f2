"""Source hygiene: every imported name and every module constant in src/ and
tests/ is read somewhere, every definition in src/ is read outside the tests,
the Monte-Carlo sampling pipeline has one home, every exact determinant is a
Bareiss elimination, the exact action never passes a float array to
S^d(sigma) or a contraction, the benchmark's tracer finds every name it
wraps, and no source file, cold start or sup-norm command loads scipy."""

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from stablepairs import forms, poly, verify, weights
from stablepairs.scalars import QQi
from stablepairs.serialize import poly_to_json

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py"
)


def unused_imports(tree: ast.Module) -> list:
    """Names bound by import statements that no expression of the module reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def referenced_names(tree: ast.Module) -> set:
    """Every name a module imports, reads, or reads as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def module_constants(tree: ast.Module) -> set:
    """The ALL_CAPS names a module assigns at its top level."""
    targets = [t for node in tree.body if isinstance(node, ast.Assign) for t in node.targets]
    targets += [node.target for node in tree.body if isinstance(node, ast.AnnAssign)]
    return {n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and n.id.isupper()}


def test_every_module_constant_is_read():
    # a constant that nothing in src/ or tests/ reads is a value set and
    # never used; its assignment is a store, not a read
    trees = [ast.parse(p.read_text(), str(p)) for d in ("src", "tests")
             for p in (ROOT / d).rglob("*.py")]
    read = set().union(*map(referenced_names, trees))
    unread = {
        (p.name, name) for p in (ROOT / "src" / "stablepairs").glob("*.py")
        for name in module_constants(ast.parse(p.read_text(), str(p))) if name not in read
    }
    assert unread == set()


def test_every_definition_is_read():
    # a function, class or method that nothing in src/ or perfbench/ reads by
    # name is API kept only for tests; __init__ re-exports count as reads
    trees = {p: ast.parse(p.read_text(), str(p)) for d in ("src", "perfbench")
             for p in (ROOT / d).rglob("*.py")}
    read = set().union(*map(referenced_names, trees.values()))
    unread = {
        (p.name, node.name) for p, tree in trees.items() if p.is_relative_to(ROOT / "src")
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read
    }
    assert unread == set()


def test_sampling_pipeline_only_in_norms():
    # drawing, moving and evaluating the samples is MahlerSampleFunctional's
    # job; a second copy of that pipeline elsewhere in src/ must not return
    pipeline = {"sample_points", "poly_log_abs"}
    users = {
        p.name for p in (ROOT / "src" / "stablepairs").glob("*.py")
        if pipeline & referenced_names(ast.parse(p.read_text(), str(p)))
    }
    assert users == {"norms.py"}


def test_symmetric_power_action_only_in_poly():
    # the one action of sigma on polynomials, tensors and the Kempf-Ness
    # functional; a second copy of its S^d recursion must not return
    names = {"_sym_powers", "_sym_step", "_dense_blocks"}
    defined = {
        (p.name, node.name) for p in (ROOT / "src" / "stablepairs").glob("*.py")
        for node in ast.walk(ast.parse(p.read_text(), str(p)))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names
    }
    assert defined == {("poly.py", name) for name in names}


def test_exact_determinants_only_by_bareiss():
    # every exact determinant, of scalars or of polynomials, is one
    # fraction-free elimination; no permutation expansion or second minors
    # function may return
    sources = {p.name: p.read_text() for p in (ROOT / "src" / "stablepairs").glob("*.py")}
    assert {name for name, text in sources.items() if "permutations" in text} == set()
    assert not any("symbolic_maximal_minors" in text for text in sources.values())


def test_sigma_handling_only_in_poly():
    # one converter and one rescaling of sigma for the action, the Kempf-Ness
    # functional, the Mahler distances and the oracle; no module keeps its own
    names = {"_sigma_array", "_scale_split"}
    sources = {p.name: p.read_text() for p in (ROOT / "src" / "stablepairs").glob("*.py")}
    defined = {
        (name, node.name) for name, text in sources.items()
        for node in ast.walk(ast.parse(text, name))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names
    }
    assert defined == {("poly.py", name) for name in names}
    copies = {
        (name, snippet) for name, text in sources.items() if name != "poly.py"
        for snippet in ("np.max(np.abs(sigma))", "np.asarray(sigma, dtype=np.complex128)")
        if snippet in text
    }
    assert copies == set()


def test_exact_action_never_touches_floats(monkeypatch):
    # "exact paths never touch floats": on exact inputs, act and act_tensor
    # build S^d(sigma) and contract on int64 numerators or QQi objects only,
    # for integer, rational, Gaussian and above-bound sigma
    seen = []
    sym_powers, tensordot = poly._sym_powers, np.tensordot

    def spy_powers(sigma, degrees):
        seen.append(("_sym_powers", sigma.dtype))
        return sym_powers(sigma, degrees)

    def spy_tensordot(a, b, axes):
        seen.extend(("tensordot", np.asarray(x).dtype) for x in (a, b))
        return tensordot(a, b, axes=axes)

    monkeypatch.setattr(poly, "_sym_powers", spy_powers)
    monkeypatch.setattr(np, "tensordot", spy_tensordot)
    R = forms.chow_form_curve(verify.rational_normal_curve(2))
    w = verify.blowup_pair().w
    rows = [[2, 1, 0], [-1, 1, 3], [0, 5, 1]]
    for entry in (QQi, lambda x: QQi(Fraction(x, 3)), lambda x: QQi(x, x % 2),
                  lambda x: QQi(x * 10**7)):
        sigma = [[entry(x) for x in row] for row in rows]
        poly.act(sigma, R ** 2)
        weights.act_tensor(sigma, w)
    assert {dtype for _, dtype in seen} == {np.dtype(np.int64), np.dtype(object)}
    assert {name for name, _ in seen} == {"_sym_powers", "tensordot"}


def _bindings() -> dict:
    """(owner, name) -> id of the value, for every attribute of every loaded
    stablepairs module and of every class such a module defines."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("stablepairs"):
            continue
        for name, value in vars(mod).items():
            out[(mod_name, name)] = id(value)
            if isinstance(value, type) and value.__module__ == mod_name:
                out.update({((mod_name, name), attr): id(v) for attr, v in vars(value).items()})
    return out


def test_benchmark_tracer_installs():
    # perfbench/tracing.py wraps functions and methods by their names as
    # strings (norms.log_ratio_sq, PairFunctional.value, ...), which the reads
    # above cannot see: a rename in src/ must fail here, not only in a traced
    # benchmark run.  The CLI import loads every module the tracer wraps.
    importlib.import_module("stablepairs.cli")
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert tracer._restore
        assert all(getattr(owner, name) is not original
                   for owner, name, original in tracer._restore)
    finally:
        tracer.uninstall()
    assert _bindings() == before


def test_no_source_imports_scipy():
    # the package is numpy alone; scipy is a test dependency
    importers = set()
    for p in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(p.read_text(), str(p))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(n.split(".")[0] == "scipy" for n in names):
                importers.add(p.name)
    assert importers == set()


def test_cli_import_loads_no_scipy(tmp_path):
    # a fresh interpreter that imports the CLI and runs the two sup-norm
    # commands loads numpy alone
    poly_path = tmp_path / "conic_R.json"
    poly_path.write_text(json.dumps(poly_to_json(
        forms.chow_form_curve(verify.rational_normal_curve(2)))))
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    script = (
        "import contextlib, io, sys, stablepairs, stablepairs.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [stablepairs.cli.main(['supnorm', '--poly', sys.argv[1]]),\n"
        "             stablepairs.cli.main(['arestov', '--poly', sys.argv[1],\n"
        "                                   '--samples', '1000'])]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", script, str(poly_path)],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[0, 0] []"
