"""Every public module-level function and class of ``tailaug`` has a caller,
every defaulted parameter of a public function or method is set by one, and
only ``serialize`` opens a file for writing.

A caller is a reference in ``src/tailaug/`` or ``demos/`` outside the
name's own definition: a bare name in its module or in a module that
imports it, or an attribute of an imported ``tailaug`` module.  Imports
and ``__init__`` re-exports alone do not count, and neither do tests.
A method's receiver is not resolved: any ``<expr>.name(...)`` call counts
as a call of every public method of that name.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tailaug"

# (module, name) -> reason the name stays without a caller, and
# (module, name, parameter) -> reason the defaulted parameter stays unset;
# keep each entry justified
ALLOWED: dict[tuple[str, ...], str] = {
    ("cli", "main", "argv"): "console-script entry point; None reads sys.argv",
}


@functools.cache
def _parse(path: Path) -> ast.Module:
    """One tree per file, so node identities agree between the scans."""
    return ast.parse(path.read_text(encoding="utf-8"))


def _definitions() -> dict[tuple[str, str], ast.AST]:
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs[(path.stem, node.name)] = node
    return defs


def _references(path: Path):
    """``(node, (module, name))`` for every reference to a ``tailaug`` name in ``path``."""
    tree = _parse(path)
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


def _defaulted() -> dict[tuple[str, str], tuple[ast.FunctionDef, bool, list[str]]]:
    """``(module, name or Class.method) -> (node, binds its first parameter, defaulted
    parameters)`` for public functions and public methods of public classes."""
    funcs = {}
    for (module, name), node in _definitions().items():
        if isinstance(node, ast.FunctionDef):
            funcs[(module, name)] = node, False
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                funcs[(module, f"{name}.{item.name}")] = item, not static
    out = {}
    for key, (node, bound) in funcs.items():
        a = node.args
        params = a.posonlyargs + a.args
        defaulted = [p.arg for p in params[len(params) - len(a.defaults):]]
        defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        if defaulted:
            out[key] = node, bound, defaulted
    return out


def _set_by(call: ast.Call, node: ast.FunctionDef, bound: bool) -> set[str]:
    """Names of ``node``'s parameters that ``call`` passes a value for."""
    a = node.args
    positional = [p.arg for p in a.posonlyargs + a.args][int(bound):]
    if any(kw.arg is None for kw in call.keywords):  # **mapping may set any of them
        return set(positional) | {p.arg for p in a.kwonlyargs}
    if not any(isinstance(arg, ast.Starred) for arg in call.args):
        positional = positional[:len(call.args)]
    return set(positional) | {kw.arg for kw in call.keywords}


def _unset_defaults() -> list[tuple[str, str, str]]:
    funcs = _defaulted()
    by_method = {}
    for module, name in funcs:
        if "." in name:
            by_method.setdefault(name.rpartition(".")[2], []).append((module, name))
    given = {key: set() for key in funcs}
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py")):
        calls = {id(n.func): n for n in ast.walk(_parse(path)) if isinstance(n, ast.Call)}
        targets = [(calls[id(n)], [key]) for n, key in _references(path)
                   if key in funcs and id(n) in calls]
        targets += [(call, by_method[call.func.attr]) for call in calls.values()
                    if isinstance(call.func, ast.Attribute) and call.func.attr in by_method]
        for call, keys in targets:
            for key in keys:
                node, bound, _ = funcs[key]
                if call not in ast.walk(node):  # a recursive call is no caller
                    given[key] |= _set_by(call, node, bound)
    return sorted((module, name, p) for (module, name), (_, _, defaulted) in funcs.items()
                  for p in defaulted if p not in given[(module, name)])


def test_every_public_name_has_a_caller():
    assert all(reason.strip() for reason in ALLOWED.values())
    # an allowed name that gained a caller leaves the list too
    assert _uncalled() == sorted(k for k in ALLOWED if len(k) == 2), (
        "public names with no caller in src/tailaug/ or demos/ must be deleted, "
        "made private, or listed in ALLOWED with a reason")


def test_every_defaulted_parameter_is_set_by_a_caller():
    # a default no call overrides is a constant; an allowed one that gained a caller leaves
    assert _unset_defaults() == sorted(k for k in ALLOWED if len(k) == 3), (
        "defaulted parameters that no call in src/tailaug/ or demos/ sets must become "
        "constants, or be listed in ALLOWED with a reason")


def _write_opens(path: Path) -> list[int]:
    """Lines of ``path`` that call ``open`` with a writing mode, or a mode not spelled out."""
    lines = []
    for node in ast.walk(_parse(path)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+")):
            lines.append(node.lineno)
    return lines


def test_only_serialize_writes_files():
    # serialize's writes are atomic: a temp file, fsynced, then moved over the target
    found = {path.name: _write_opens(path) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "serialize.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert _write_opens(PACKAGE / "serialize.py")
