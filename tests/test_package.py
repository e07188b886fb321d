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


def _used_names(node, attributes_only=False, inside=()):
    """Every name read in ``node``, as a variable or an attribute (or as an
    attribute alone), except inside the ``def`` or ``class`` that binds it
    and in ``__all__`` lists."""
    if _is_all(node):
        return set()
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside + (node.name,)
    used = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and not attributes_only:
        used.add(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        used.add(node.attr)
    used -= set(inside)
    for child in ast.iter_child_nodes(node):
        used |= _used_names(child, attributes_only, inside)
    return used


def _library():
    """The parsed modules of ``src/swapsim``, by file name."""
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(Path(swapsim.__file__).parent.glob("*.py"))}


def _public(trees):
    """(module file, name) for each name in a module's literal ``__all__``."""
    return {(module, element.value)
            for module, tree in trees.items() for node in tree.body
            if _is_all(node) and isinstance(node.value, ast.List)
            for element in node.value.elts}


def test_every_public_name_is_used_by_the_library():
    """A name in a module's literal ``__all__`` (the package's own list is
    built from them) must be read somewhere in ``src/swapsim`` outside its
    own definition; reference routes only the tests call belong in
    ``tests/oracles.py``."""
    trees = _library()
    used = set().union(*map(_used_names, trees.values()))
    public = _public(trees)
    assert {"recipes.py", "floatfmt.py"} <= {module for module, _ in public}
    unused = {(module, name) for module, name in public
              if name not in used and name not in UNUSED_IN_LIBRARY}
    assert not unused


def test_every_public_method_is_used_by_the_library():
    """A public method or property of a public class must be read as an
    attribute somewhere in ``src/swapsim`` outside its own definition.
    Attributes are matched by name, not by the class they belong to, so a
    method that shares its name with a method the library does read
    passes unread: ``PureState.normalized`` went unflagged because
    ``DensityMatrix.normalized`` is read."""
    trees = _library()
    used = set().union(*(_used_names(tree, attributes_only=True) for tree in trees.values()))
    public = _public(trees)
    methods = {(module, f"{node.name}.{item.name}")
               for module, tree in trees.items() for node in tree.body
               if isinstance(node, ast.ClassDef) and (module, node.name) in public
               for item in node.body
               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not item.name.startswith("_")}
    assert ("states.py", "DensityMatrix.normalized") in methods
    assert not {(module, name) for module, name in methods
                if name.split(".")[1] not in used}
