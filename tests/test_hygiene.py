"""Source hygiene: every imported name and every module constant in src/ and
tests/ is read somewhere, the Monte-Carlo sampling pipeline has one home, and
a cold start of the package and its CLI loads no scipy module."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

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


def test_sampling_pipeline_only_in_norms():
    # drawing, moving and evaluating the samples is MahlerSampleFunctional's
    # job; a second copy of that pipeline elsewhere in src/ must not return
    pipeline = {"sample_points", "transform_points", "poly_log_abs"}
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


def test_cli_import_loads_no_scipy():
    # scipy.optimize is most of a cold start; only sup_norm may load it
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, stablepairs, stablepairs.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "[]"
