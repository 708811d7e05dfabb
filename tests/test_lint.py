"""Source hygiene checks that need nothing beyond the standard library."""

import ast
from pathlib import Path

import pytest

from opra import errors

SRC = Path(__file__).resolve().parent.parent / "src" / "opra"
# the package's __init__ imports only to re-export
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py"
                 or p.parent != SRC)


def unused_imports(tree: ast.Module):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unused_imports(tree) == []


MUTABLE_CALLS = ("dict", "list", "set")
MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set,
                    ast.DictComp, ast.ListComp, ast.SetComp)


def module_mutable_state(tree: ast.Module):
    """(line, name) of each module-level name bound to a dict, list or set
    display or call: state that every caller in the process would share."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, MUTABLE_DISPLAYS) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in MUTABLE_CALLS):
            found += [(node.lineno, ast.unparse(t)) for t in targets]
    return found


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_no_module_level_mutable_state(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert module_mutable_state(tree) == []


def unreferenced_private_helpers(tree: ast.Module):
    """(line, name) of each `_`-prefixed module-level function or class,
    and each `_`-prefixed method, whose name the module never reads: a
    name in a load context, or an attribute of that name, other than its
    own definition.  Dunder methods are called by the language."""
    defined = [(node.lineno, node.name) for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))]
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        defined += [(node.lineno, node.name) for node in cls.body
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))]
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return sorted((line, name) for line, name in defined
                  if name.startswith("_") and not name.startswith("__")
                  and name not in read)


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_no_unreferenced_private_helpers(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unreferenced_private_helpers(tree) == []


def test_unreferenced_private_helpers_flags_only_dead_ones():
    tree = ast.parse(
        "def _used(): pass\n"
        "def _dead(): pass\n"
        "class _Box:\n"
        "    def __init__(self): self._step()\n"
        "    def _step(self): pass\n"
        "    def _idle(self): pass\n"
        "x = _Box() if _used() else None\n")
    assert unreferenced_private_helpers(tree) == [(2, "_dead"),
                                                  (6, "_idle")]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_imports(tree: ast.Module):
    """(line, name) of each `_`-prefixed name, or name in a `_`-prefixed
    module, that a module imports from another `opra` module, by a
    relative import or one from `opra.`: a private name is its module's
    own, and what another module needs of it is public."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "opra":
                continue
            inner = any(map(_private, parts))
            found += [(node.lineno, alias.name) for alias in node.names
                      if inner or _private(alias.name)]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.split(".")[0] == "opra"
                      and any(map(_private, alias.name.split(".")))]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_no_private_imports_across_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert private_imports(tree) == []


def test_private_imports_flags_only_private_names_of_opra():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "from .solver import _Search, extremum as _extremum\n"
        "from opra.graph import SINK, _hidden\n"
        "from ._impl import helper\n"
        "from . import __version__, _state\n"
        "import opra._impl, opra.graph\n"
        "from collections import _chain_map\n"
        "import _thread\n")
    assert private_imports(tree) == [
        (2, "_Search"), (3, "_hidden"), (4, "helper"), (5, "_state"),
        (6, "opra._impl")]


def foreign_private_reads(tree: ast.Module):
    """(line, expression) of each read of a `_`-prefixed attribute that
    the module defines nowhere, as a function, class or method, or by an
    assignment to a name or attribute: a private attribute is its
    module's own, and what another module needs of it is public.  Reads
    on `self` and `cls` are a class's own."""
    own = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            own.add(node.id)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Store):
            own.add(node.attr)
    return sorted(
        (node.lineno, ast.unparse(node)) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and _private(node.attr) and node.attr not in own
        and not (isinstance(node.value, ast.Name)
                 and node.value.id in ("self", "cls")))


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_no_private_reads_across_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert foreign_private_reads(tree) == []


def test_foreign_private_reads_flags_only_other_modules_attributes():
    tree = ast.parse(
        "class Box:\n"
        "    def __init__(self, plan):\n"
        "        self._rows = plan._arith\n"
        "        self._step()\n"
        "    def _step(self): return self._hidden\n"
        "    @classmethod\n"
        "    def make(cls): return cls._made\n"
        "_cache = None\n"
        "def read(box, mod):\n"
        "    box._seen = box._rows, _cache\n"
        "    return box._step, box._seen, mod._private, box.__dict__\n"
        "y = sys._getframe()\n")
    assert foreign_private_reads(tree) == [
        (3, "plan._arith"), (11, "mod._private"), (12, "sys._getframe")]


# (module, enclosing function, exception) -> why that raise is untyped
UNTYPED_RAISES = {
    ("automata.py", "compile_regex.walk", "TypeError"):
        "guard of a hand-built regex node that is no regex class; "
        "validate rejects nothing that reaches it",
    ("ontology.py", "eval_term", "TypeError"):
        "guard of a hand-built term that is no term class",
    ("oracle.py", "regex_matches.m", "TypeError"):
        "guard of a hand-built regex node that is no regex class",
    ("oracle.py", "oracle_eval_term", "TypeError"):
        "guard of a hand-built term that is no term class",
    ("query.py", "term_text", "TypeError"):
        "guard of a hand-built term that is no term class",
    ("graph.py", "path_index", "ValueError"):
        "a caller's position below 1; the engine counts positions from 1",
    ("extint.py", "from_json", "ValueError"):
        "graph_from_dict re-raises it as GraphLoadError",
    ("extint.py", "ext_compare", "ValueError"):
        "validate admits only <=, < and = as letter comparisons",
    ("embedding.py", "embed_path", "ValueError"):
        "a caller's mismatched node and symbol sequences",
    ("graph.py", "View.term_value", "NotImplementedError"):
        "abstract method of the label-source protocol",
    ("solver.py", "_PumpSearch._admit", "_Unbounded"):
        "private control flow: _fold catches it, so it never leaves "
        "the solver",
}


def untyped_raises(tree: ast.Module):
    """(enclosing function, exception) of each raise whose exception is
    no `OpraError` subclass of `opra.errors`, with its line: every error
    a caller sees is typed.  A bare re-raise names no exception."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) \
                    else child.exc
                name = ast.unparse(exc)
                cls = getattr(errors, name, None)
                if not (isinstance(cls, type)
                        and issubclass(cls, errors.OpraError)):
                    found.append((child.lineno, ".".join(scope), name))
            visit(child, scope)

    visit(tree, ())
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_every_raise_is_typed_or_listed(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    module = str(path.relative_to(SRC))
    assert [(line, scope, name) for line, scope, name in untyped_raises(tree)
            if (module, scope, name) not in UNTYPED_RAISES] == []


def test_untyped_raises_flags_only_untyped_ones():
    tree = ast.parse(
        "from .errors import ValidationError\n"
        "class Box:\n"
        "    def check(self, v):\n"
        "        if v is None:\n"
        "            raise ValidationError('no value')\n"
        "        try:\n"
        "            return int(v)\n"
        "        except ValueError:\n"
        "            raise\n"
        "def read(v):\n"
        "    def inner():\n"
        "        raise KeyError(v)\n"
        "    raise TypeError\n"
        "raise ValueError('at import')\n")
    assert untyped_raises(tree) == [
        (12, "read.inner", "KeyError"), (13, "read", "TypeError"),
        (14, "", "ValueError")]


def test_untyped_raise_allowlist_names_live_raises():
    live = {(str(path.relative_to(SRC)), scope, name)
            for path in SRC.rglob("*.py")
            for _, scope, name in untyped_raises(
                ast.parse(path.read_text(encoding="utf-8")))}
    assert set(UNTYPED_RAISES) <= live


def admit_overrides_without_super(tree: ast.Module):
    """(line, name) of each `_admit` defined on a subclass of `_Search`
    in the module, however indirect, that does not call
    `super()._admit(`: the search drops a candidate the base rules reject
    before any override sees it, which is sound only while every
    override rejects at least what they reject."""
    classes = {node.name: node for node in tree.body
               if isinstance(node, ast.ClassDef)}

    def searches(cls):
        return any(n == "_Search" or n in classes and searches(classes[n])
                   for n in (b.id for b in cls.bases
                             if isinstance(b, ast.Name)))

    found = []
    for cls in classes.values():
        if not searches(cls):
            continue
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name == "_admit"):
                continue
            if not any(isinstance(node, ast.Call)
                       and isinstance(node.func, ast.Attribute)
                       and node.func.attr == "_admit"
                       and isinstance(node.func.value, ast.Call)
                       and isinstance(node.func.value.func, ast.Name)
                       and node.func.value.func.id == "super"
                       for node in ast.walk(fn)):
                found.append((fn.lineno, f"{cls.name}._admit"))
    return sorted(found)


def test_admit_overrides_defer_to_the_base_rules():
    tree = ast.parse((SRC / "solver.py").read_text(encoding="utf-8"))
    assert admit_overrides_without_super(tree) == []


def test_admit_overrides_without_super_flags_only_those():
    tree = ast.parse(
        "class _Search:\n"
        "    def _admit(self, key): return ()\n"
        "class Keeps(_Search):\n"
        "    def _admit(self, key):\n"
        "        return None if key else super()._admit(key)\n"
        "class Drops(Keeps):\n"
        "    def _admit(self, key): return ()\n"
        "class Other:\n"
        "    def _admit(self, key): return ()\n"
        "class Calls(_Search):\n"
        "    def _admit(self, key): return self._admit(key)\n")
    assert admit_overrides_without_super(tree) == [
        (7, "Drops._admit"), (11, "Calls._admit")]
