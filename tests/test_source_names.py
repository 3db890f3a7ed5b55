"""Static name check of the package sources.

Every module in `src/dp6` must load only names it binds somewhere (or
builtins), and must use every name it imports.  `__init__.py` re-exports its
imports and `from __future__ import annotations` binds nothing, so both are
exempt.  The check is scope-blind on purpose: a name bound in any scope of a
module counts as bound, which gives no false alarms on closures or methods.
"""

import ast
import builtins
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dp6"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _names(tree):
    """(bound names, loaded names, imported name -> line) of a module."""
    bound, loaded, imported = set(), set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            (loaded if isinstance(node.ctx, ast.Load) else bound).add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            bound.update(node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                bound.add(name)
                imported.setdefault(name, node.lineno)
    # a quoted annotation such as rec: "LinkRecord" loads the names it quotes
    annotations = [getattr(node, attr, None) for node in ast.walk(tree)
                   for attr in ("annotation", "returns")]
    for ann in filter(None, annotations):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                loaded.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return bound, loaded, imported


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_undefined_or_unused_names(path):
    bound, loaded, imported = _names(ast.parse(path.read_text(), str(path)))
    undefined = sorted(loaded - bound - set(dir(builtins)) - {"__file__"})
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in loaded)
    assert not undefined, f"{path.name} loads undefined names: {undefined}"
    assert not unused, f"{path.name} imports unused names: {unused}"


def _storage_reads(tree):
    """(line, what) for each place a module imports sympy, reads a CPoly's
    `pa` or `pb` part, or reads an attribute of a polynomial ring."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        found += [(node.lineno, f"import {m}") for m in modules
                  if m.split(".")[0] == "sympy"]
        if isinstance(node, ast.Attribute):
            if node.attr in ("pa", "pb"):
                found.append((node.lineno, f".{node.attr}"))
            inner = node.value
            if (isinstance(inner, ast.Attribute) and inner.attr == "ring"
                    or isinstance(inner, ast.Name) and inner.id == "ring"):
                found.append((node.lineno, f"ring.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "_ratfunc.py"],
                         ids=lambda p: p.name)
def test_only_ratfunc_knows_the_polynomial_storage(path):
    """`_ratfunc` alone imports sympy and reads how a polynomial is stored;
    the other modules go through CPoly's methods.  Passing a ring on as an
    argument is allowed."""
    found = _storage_reads(ast.parse(path.read_text(), str(path)))
    assert not found, f"{path.name} reads the polynomial storage: {found}"


def _loaded_names(path):
    """Names a file loads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_defined_function_is_loaded():
    """Every function or method name `src/dp6` defines, dunders apart, is
    loaded somewhere in `src/dp6`, `tests`, `scripts` or `bench`: no dead
    methods.  Like the check above it is scope-blind: a load of a name counts
    for every function of that name."""
    root = SRC.parent.parent
    users = [p for d in ("src/dp6", "tests", "scripts", "bench")
             for p in sorted((root / d).glob("*.py"))]
    loaded = set().union(*map(_loaded_names, users))
    dead = sorted(
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in loaded)
    assert not dead, f"functions nothing loads: {dead}"


def _attribute_path(node):
    """"a.b.c" for an attribute chain of names, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_global_state_or_frozen_writes(path):
    """Derived values live in their owner's memo or in a `functools.cache`
    table: no module rebinds a global, and only `_record`, which builds
    frozen records, writes past a frozen record's `__setattr__`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Global):
            found.append((node.lineno, "global " + ", ".join(node.names)))
        elif (path.name != "_record.py" and isinstance(node, ast.Attribute)
              and _attribute_path(node) == "object.__setattr__"):
            found.append((node.lineno, "object.__setattr__"))
    assert not found, f"{path.name}: {found}"
