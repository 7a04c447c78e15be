"""Source hygiene checks over the package modules."""
import ast
import pathlib

import hollowkit
import hollowkit.errors
from hollowkit import HPolytope, VPolytope
from hollowkit.bodies import ConvexBody, _FacetPolytope

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "hollowkit"


def unused_imports(path):
    """``module:line name`` for each imported name the module never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    # __init__.py imports names only to re-export them
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert modules
    assert [entry for p in modules for entry in unused_imports(p)] == []


def unused_parameters(path):
    """``module function parameter`` for each parameter a function body
    never reads; abstract methods only declare a signature and are skipped."""
    tree = ast.parse(path.read_text())
    unused = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) or any(
                ast.unparse(d).endswith("abstractmethod") for d in func.decorator_list):
            continue
        a = func.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
        read = {node.id for stmt in func.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name} {func.name} {p.arg}" for p in params
                   if p is not None and p.arg not in read]
    return unused


def test_no_unused_parameters():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [entry for p in modules for entry in unused_parameters(p)] == []


def function_defs(path, name):
    """``(enclosing class or None, node)`` for each def of ``name``."""
    tree = ast.parse(path.read_text())
    found = [(None, node) for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == name]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            found += [(cls.name, node) for node in cls.body
                      if isinstance(node, ast.FunctionDef) and node.name == name]
    return found


def test_one_membership_rule_per_body():
    """``membership`` is written once, on the base class, over each body's
    ``contains_batch``; the cover check makes no scalar membership call."""
    defs = function_defs(PACKAGE / "bodies.py", "membership")
    assert [cls for cls, _ in defs] == ["ConvexBody"]
    body = defs[0][1]
    calls = {node.func.attr for node in ast.walk(body)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert "contains_batch" in calls
    (_, kkm), = function_defs(PACKAGE / "sperner.py", "kkm_verify")
    assert not [node for node in ast.walk(kkm)
                if isinstance(node, ast.Attribute) and node.attr == "membership"]


def catch_alls(node):
    """The ``except Exception`` handlers under ``node``."""
    return [h for h in ast.walk(node) if isinstance(h, ast.ExceptHandler)
            and isinstance(h.type, ast.Name) and h.type.id == "Exception"]


def test_one_scene_error_reader():
    """Scene input becomes a ``SceneError`` in one place, the reader."""
    (_, reader), = function_defs(PACKAGE / "scenes.py", "_reading")
    assert len(catch_alls(ast.parse((PACKAGE / "scenes.py").read_text()))) == 1
    assert len(catch_alls(reader)) == 1


def test_every_body_kind_states_its_contains_rule():
    """The oracle base class has no fallback for it: each kind writes its
    own, so no body is tested point by point."""
    assert "contains_batch" in ConvexBody.__abstractmethods__


def test_one_projection_rule_per_polytope():
    """Both polytope kinds project by the rule their base class states,
    onto the point list past the row screen: how a polytope was written
    down does not change its projections."""
    assert HPolytope.project is VPolytope.project is _FacetPolytope.project


def test_cli_does_no_grid_arithmetic():
    """The default cell size is ``certify_hollow``'s, derived in one place."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "BOX_EXPAND" not in imported


def test_all_lists_each_imported_name_once():
    """``__all__`` is exactly what ``__init__.py`` imports, so a deleted
    helper cannot linger in the export list, and each entry resolves."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(set(hollowkit.__all__)) == len(hollowkit.__all__)
    assert set(hollowkit.__all__) == imported
    assert [n for n in hollowkit.__all__ if not hasattr(hollowkit, n)] == []


def raised_names(path):
    """The names in ``raise Name`` and ``raise Name(...)`` statements."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                found.add(exc.id)
    return found


def test_every_error_class_has_a_raiser():
    """Each ``HollowkitError`` subclass in ``errors.py`` is raised by some
    package module, so an error class goes when its last raiser does."""
    errors = {name for name, obj in vars(hollowkit.errors).items()
              if isinstance(obj, type) and obj is not hollowkit.HollowkitError
              and issubclass(obj, hollowkit.HollowkitError)}
    raised = set().union(*map(raised_names, PACKAGE.glob("*.py")))
    assert errors
    assert sorted(errors - raised) == []


def uses_of(name):
    """``module:line`` for each import of ``name`` into a package module and
    each attribute access spelled ``.name``."""
    return [f"{p.name}:{node.lineno}" for p in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(p.read_text()))
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                and any(a.name.split(".")[-1] == name for a in node.names))
            or (isinstance(node, ast.Attribute) and node.attr == name)]


def test_no_module_imports_linprog():
    """The scan decides emptiness on the package's own least-distance
    solver: scipy's LP solver stays a test-side reference."""
    assert uses_of("linprog") == []


def test_no_module_imports_nnls():
    """Projections run on the package's own least-distance solver: scipy's
    NNLS stays a test-side reference."""
    assert uses_of("nnls") == []


def test_no_handler_swallows_its_error():
    """No ``except`` in the package drops what it caught with a bare
    ``continue`` or ``pass``: an error is handled or it propagates."""
    found = [f"{p.name}:{h.lineno}" for p in sorted(PACKAGE.glob("*.py"))
             for h in ast.walk(ast.parse(p.read_text()))
             if isinstance(h, ast.ExceptHandler)
             and all(isinstance(stmt, (ast.Continue, ast.Pass)) for stmt in h.body)]
    assert found == []
