"""Imports in ``src/envswitch``: every module-level import is used by its
module, and no module imports another envswitch module's ``_``-prefixed
name; a helper that two modules share is public.

The one exception to the first rule is a name that ``bench/spans.py``
rebinds in that module to trace it: the benchmark needs the name there even
when the module itself never reads it.  ``BINDINGS`` is read from the source
with ``ast``, so the benchmark is not imported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_names():
    """(module, name) of every rebinding in ``bench/spans.py``'s BINDINGS."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "BINDINGS" for t in node.targets):
            return {(module.rsplit(".", 1)[-1], name)
                    for module, name, _ in ast.literal_eval(node.value)}
    raise AssertionError("bench/spans.py defines no BINDINGS")


def unused_imports(path: Path):
    """Names that ``path`` imports at module level and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_no_unused_module_imports():
    traced = traced_names()
    unused, exempt = [], []
    for path in sorted((ROOT / "src" / "envswitch").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for name in sorted(unused_imports(path)):
            (exempt if (path.stem, name) in traced else unused).append(f"{path.stem}.{name}")
    assert unused == [], f"unused imports: {unused}"
    # the exemption is in use, so the guard reads BINDINGS as intended
    assert exempt


def private_imports(path: Path):
    """``module.name`` of every ``_``-prefixed name that ``path`` imports from
    an envswitch module, at any depth."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "envswitch"):
            yield from (f"{node.module}.{a.name}" for a in node.names
                        if a.name.startswith("_"))


def test_no_private_names_imported_across_modules(tmp_path):
    found = {path.stem: list(private_imports(path))
             for path in sorted((ROOT / "src" / "envswitch").glob("*.py"))}
    assert {stem: names for stem, names in found.items() if names} == {}
    # the guard sees relative, absolute and function-level imports
    probe = tmp_path / "probe.py"
    probe.write_text("from .alignment import _pack\n"
                     "def f():\n    from envswitch.policy import _draw, act\n")
    assert list(private_imports(probe)) == ["alignment._pack", "envswitch.policy._draw"]
