"""The package's public names are the union of its modules' ``__all__``,
and each of them is used by the library itself."""

import ast
from pathlib import Path

import swapsim
from swapsim import config, experiment, loss, metrics, protocol, states

MODULES = (states, loss, protocol, metrics, experiment, config)

# public names that no library code uses, each kept for a caller outside it
UNUSED_IN_LIBRARY = {
    "validate",          # perfbench/tracer.py traces states.validate (TARGETS)
    "ValidationReport",  # what states.validate returns, reached only through it
}


def test_no_duplicate_names():
    assert len(swapsim.__all__) == len(set(swapsim.__all__))


def test_every_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(swapsim, name) is getattr(module, name), name


def test_names_are_the_union_of_the_module_lists():
    expected = {"__version__"}.union(*(module.__all__ for module in MODULES))
    assert set(swapsim.__all__) == expected
    assert swapsim.__all__[0] == "__version__"


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)


def _used_names(node, inside=()):
    """Every name read in ``node``, as a variable or an attribute, except
    inside the ``def`` or ``class`` that binds it and in ``__all__`` lists."""
    if _is_all(node):
        return set()
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside + (node.name,)
    used = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        used.add(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        used.add(node.attr)
    used -= set(inside)
    for child in ast.iter_child_nodes(node):
        used |= _used_names(child, inside)
    return used


def test_every_public_name_is_used_by_the_library():
    """A name in a module's literal ``__all__`` (the package's own list is
    built from them) must be read somewhere in ``src/swapsim`` outside its
    own definition; reference routes only the tests call belong in
    ``tests/oracles.py``."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(swapsim.__file__).parent.glob("*.py"))}
    used = set().union(*map(_used_names, trees.values()))
    public = {(module, element.value)
              for module, tree in trees.items() for node in tree.body
              if _is_all(node) and isinstance(node.value, ast.List)
              for element in node.value.elts}
    assert {"recipes.py", "floatfmt.py"} <= {module for module, _ in public}
    unused = {(module, name) for module, name in public
              if name not in used and name not in UNUSED_IN_LIBRARY}
    assert not unused
