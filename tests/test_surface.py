"""Every public module-level function and class of ``tailaug`` has a caller;
every defaulted parameter of a public function, method or dataclass is set by
one call and left out by another; and only ``serialize`` opens a file for
writing.

A caller is a reference in ``src/tailaug/`` or ``demos/`` outside the
name's own definition: a bare name in its module or in a module that
imports it, or an attribute of an imported ``tailaug`` module.  Imports
and ``__init__`` re-exports alone do not count, and neither do tests, but
for one case: a call in the acceptance gate (``tests/test_acceptance.py``,
``tests/conftest.py``), whose call sites are pinned, may be the one that
relies on a default.  A method's receiver is not resolved: any
``<expr>.name(...)`` call counts as a call of every public method of that
name.  A dataclass's parameters are its fields in order, ``InitVar``
included and ``ClassVar`` excluded, and ``cls(...)`` in one of its
classmethods calls it.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tailaug"
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
# the acceptance gate's pinned call sites: they may rely on a default, not set one
GATE = [ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "conftest.py"]

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
    for path in CALLERS:
        for node, key in _references(path):
            if key in defs and id(node) not in inside[key]:
                called.add(key)
    return sorted(set(defs) - called)


def _is_classvar(annotation: ast.expr) -> bool:
    base = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    return isinstance(base, ast.Name) and base.id == "ClassVar"


def _fields(node: ast.ClassDef) -> list[ast.AnnAssign] | None:
    """A dataclass's constructor parameters: its fields in order, ``InitVar``
    included and ``ClassVar`` excluded; None for a class that is no dataclass."""
    if not any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list):
        return None
    return [item for item in node.body if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name) and not _is_classvar(item.annotation)]


def _signature(node: ast.FunctionDef, bound: bool):
    a = node.args
    params = [p.arg for p in a.posonlyargs + a.args]
    defaulted = params[len(params) - len(a.defaults):]
    defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return node, params[int(bound):], [p.arg for p in a.kwonlyargs], defaulted


def _signatures() -> dict[tuple[str, str], tuple]:
    """``(module, name) -> (scope, positional, keyword-only, defaulted parameters)``
    for public functions, public methods of public classes (``Class.method``, the
    receiver dropped) and public dataclass constructors (``Class``), each with a
    default.  A call inside ``scope`` (a recursive call) is no caller."""
    sigs = {}
    for (module, name), node in _definitions().items():
        if isinstance(node, ast.FunctionDef):
            sigs[(module, name)] = _signature(node, False)
            continue
        fields = _fields(node)
        if fields is not None:
            sigs[(module, name)] = (None, [f.target.id for f in fields], [],
                                    [f.target.id for f in fields if f.value is not None])
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                sigs[(module, f"{name}.{item.name}")] = _signature(item, not static)
    return {key: sig for key, sig in sigs.items() if sig[3]}


def _set_by(call: ast.Call, positional: list[str], kwonly: list[str]) -> set[str]:
    """Names of the parameters that ``call`` passes a value for."""
    if any(kw.arg is None for kw in call.keywords):  # **mapping may set any of them
        return set(positional) | set(kwonly)
    if not any(isinstance(arg, ast.Starred) for arg in call.args):
        positional = positional[:len(call.args)]
    return set(positional) | {kw.arg for kw in call.keywords}


def _cls_calls(path: Path):
    """``(call, (module, Class))`` for each ``cls(...)`` in a classmethod of ``path``."""
    for node in _parse(path).body:
        for item in node.body if isinstance(node, ast.ClassDef) else ():
            if (isinstance(item, ast.FunctionDef) and item.args.args
                    and any(isinstance(d, ast.Name) and d.id == "classmethod"
                            for d in item.decorator_list)):
                first = item.args.args[0].arg
                yield from ((call, (path.stem, node.name)) for call in ast.walk(item)
                            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                            and call.func.id == first)


def _calls(paths: list[Path], sigs: dict):
    """``(key, parameters set)`` for every call in ``paths`` of a name in ``sigs``."""
    by_method = {}
    for module, name in sigs:
        if "." in name:
            by_method.setdefault(name.rpartition(".")[2], []).append((module, name))
    for path in paths:
        calls = {id(n.func): n for n in ast.walk(_parse(path)) if isinstance(n, ast.Call)}
        targets = [(calls[id(n)], [key]) for n, key in _references(path)
                   if key in sigs and id(n) in calls]
        targets += [(call, by_method[call.func.attr]) for call in calls.values()
                    if isinstance(call.func, ast.Attribute) and call.func.attr in by_method]
        if path.parent == PACKAGE:
            targets += [(call, [key]) for call, key in _cls_calls(path) if key in sigs]
        for call, keys in targets:
            for key in keys:
                scope, positional, kwonly, _ = sigs[key]
                if scope is None or call not in ast.walk(scope):
                    yield key, _set_by(call, positional, kwonly)


def _unset_defaults() -> list[tuple[str, str, str]]:
    sigs = _signatures()
    given = {key: set() for key in sigs}
    for key, params in _calls(CALLERS, sigs):
        given[key] |= params
    return sorted((*key, p) for key, sig in sigs.items() for p in sig[3] if p not in given[key])


def _always_set_defaults() -> list[tuple[str, str, str]]:
    sigs = _signatures()
    omitted = {key: set() for key in sigs}
    for key, params in _calls(CALLERS + GATE, sigs):
        omitted[key] |= set(sigs[key][3]) - params
    return sorted((*key, p) for key, sig in sigs.items() for p in sig[3]
                  if p not in omitted[key])


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


def test_every_defaulted_parameter_is_omitted_by_a_caller():
    # a default every call overrides is dead: the parameter becomes required
    assert _always_set_defaults() == [], (
        "defaulted parameters that every call in src/tailaug/, demos/ and the "
        "acceptance gate sets must lose their default")


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
