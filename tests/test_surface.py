"""Every public module-level function and class of ``tailaug`` has a caller.

A caller is a reference in ``src/tailaug/`` or ``demos/`` outside the
name's own definition: a bare name in its module or in a module that
imports it, or an attribute of an imported ``tailaug`` module.  Imports
and ``__init__`` re-exports alone do not count, and neither do tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tailaug"

# name -> reason it stays without a caller; keep each entry justified
ALLOWED: dict[tuple[str, str], str] = {}


def _definitions() -> dict[tuple[str, str], ast.AST]:
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs[(path.stem, node.name)] = node
    return defs


def _references(path: Path):
    """``(node, (module, name))`` for every reference to a ``tailaug`` name in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    here = path.stem if path.parent == PACKAGE else None
    names, modules = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            source = node.module
        elif node.module and node.module.split(".")[0] == "tailaug":
            source = node.module.partition(".")[2] or None
        else:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if source is None and (PACKAGE / f"{alias.name}.py").exists():
                modules[local] = alias.name
            elif source is not None:
                names[local] = (source, alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node, names.get(node.id, (here, node.id))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            yield node, (modules[node.value.id], node.attr)


def _uncalled() -> list[tuple[str, str]]:
    defs = _definitions()
    inside = {key: {id(n) for n in ast.walk(node)} for key, node in defs.items()}
    called = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py")):
        for node, key in _references(path):
            if key in defs and id(node) not in inside[key]:
                called.add(key)
    return sorted(set(defs) - called)


def test_every_public_name_has_a_caller():
    assert all(reason.strip() for reason in ALLOWED.values())
    # an allowed name that gained a caller leaves the list too
    assert _uncalled() == sorted(ALLOWED), (
        "public names with no caller in src/tailaug/ or demos/ must be deleted, "
        "made private, or listed in ALLOWED with a reason")
