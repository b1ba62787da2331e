"""Every function that a production module exports has a caller in the
program, every method a caller, every dataclass field a reader and every
parameter of a module-level function a read in its body.

A function listed in the ``__all__`` of a module under ``src/stfosls`` (the
oracles excepted: they are the tests' reference) must be read, as a name or
an attribute, somewhere in ``src/`` or ``demos/`` outside its own
definition.  A method or property of a class defined in such a module
(dunders excepted) must be read as an attribute there, outside its own
definition, and a field of a dataclass defined there must be read as an
attribute.  Imports and ``__all__`` entries do not count, and neither do
the oracles or the tests.  Methods are exempt from the parameter check:
the systems' methods implement one protocol, whose parameters not every
system reads.  The oracles, in turn, import nothing from the fast path
that they check, and each function they export is called by the tests or
the verify command.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stfosls"
# Exported functions without a caller in the program, each with its reason.
ALLOWED = {}
# Methods and properties (``Class.method``) without a caller in the program,
# each with its reason.
ALLOWED_METHODS = {}
# Dataclass fields without a reader in the program, each with its reason.
ALLOWED_FIELDS = {
    **{f"ErrorReport.{part}": "a documented contribution of the error report"
       for part in ("u1_l2", "u1_grad_l2", "u2_l2", "div_l2", "initial_l2")},
    "Mesh.refined_from": "bisect's documented order contract, which the tests check",
    "DofMap.node_coords": "the lifting of inhomogeneous Dirichlet data will read it",
    "DofMap.constrained_nodes": "the lifting of inhomogeneous Dirichlet data will read it",
}
# Parameters (``module.function.parameter``) that the function's body never
# reads, each with its reason.
ALLOWED_PARAMS = {
    "estimator.compute_indicators.mesh": "perfbench/tracer.py reads it positionally",
}


def _production_modules():
    return [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "oracles.py"]


def _program_trees():
    """Parsed production modules by path, and the parsed demos."""
    modules = {path: ast.parse(path.read_text()) for path in _production_modules()}
    demos = [ast.parse(path.read_text()) for path in sorted((ROOT / "demos").glob("*.py"))]
    return modules, demos


def _exported_functions(tree):
    """Top-level function definitions of a module named in its ``__all__``."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in exported]


def _references(tree):
    """(name, top-level statement it occurs in) for every bare name or
    attribute that the module reads."""
    out = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.append((node.id, top))
            elif isinstance(node, ast.Attribute):
                out.append((node.attr, top))
    return out


def test_every_exported_function_has_a_caller():
    modules, demos = _program_trees()
    references = [ref for tree in list(modules.values()) + demos for ref in _references(tree)]
    exported = [(path, d) for path, tree in modules.items() for d in _exported_functions(tree)]
    assert set(ALLOWED) <= {d.name for _, d in exported}  # the allowlist cannot outlive what it excuses
    uncalled = [
        f"{path.stem}.{definition.name}"
        for path, definition in exported
        if definition.name not in ALLOWED
        and not any(name == definition.name and top is not definition for name, top in references)
    ]
    assert not uncalled, f"exported but never called in src/ or demos/: {uncalled}"


def test_every_method_has_a_caller():
    modules, demos = _program_trees()
    reads = [node for tree in list(modules.values()) + demos
             for node in ast.walk(tree) if isinstance(node, ast.Attribute)]

    def called(name, definition):
        own = {id(node) for node in ast.walk(definition)}
        return any(node.attr == name and id(node) not in own for node in reads)

    uncalled = {
        f"{node.name}.{method.name}"
        for tree in modules.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for method in node.body
        if isinstance(method, ast.FunctionDef) and not re.fullmatch(r"__\w+__", method.name)
        and not called(method.name, method)
    }
    assert set(ALLOWED_METHODS) <= uncalled  # the allowlist cannot outlive what it excuses
    assert not uncalled - set(ALLOWED_METHODS), \
        f"methods never called in src/ or demos/: {sorted(uncalled - set(ALLOWED_METHODS))}"


def _dataclass_fields(tree):
    """``Class.field`` for every annotated field of a dataclass defined at the
    top level of a module."""
    def is_dataclass(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"

    return [
        f"{node.name}.{stmt.target.id}"
        for node in tree.body
        if isinstance(node, ast.ClassDef) and any(is_dataclass(d) for d in node.decorator_list)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def test_every_dataclass_field_is_read():
    modules, demos = _program_trees()
    trees = list(modules.values())
    read = {
        node.attr
        for tree in trees + demos
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [name for tree in trees for name in _dataclass_fields(tree)]
    unread = {name for name in fields if name.split(".")[1] not in read}
    # the allowlist cannot outlive what it excuses: a field that gains a reader leaves it
    assert set(ALLOWED_FIELDS) <= unread
    assert not unread - set(ALLOWED_FIELDS), \
        f"dataclass fields never read in src/ or demos/: {sorted(unread - set(ALLOWED_FIELDS))}"


def test_every_parameter_is_read():
    modules, _ = _program_trees()
    unread = set()
    for path, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            loaded = {n.id for stmt in node.body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread |= {f"{path.stem}.{node.name}.{a.arg}" for a in params if a.arg not in loaded}
    # the allowlist cannot outlive what it excuses: a parameter that gains a read leaves it
    assert set(ALLOWED_PARAMS) <= unread
    assert not unread - set(ALLOWED_PARAMS), \
        f"parameters never read in their function: {sorted(unread - set(ALLOWED_PARAMS))}"


def test_every_oracle_has_a_caller():
    """The reference keeps no dead helper: every function in the oracles'
    ``__all__`` is called somewhere in ``tests/`` or in the verify command."""
    trees = [ast.parse(path.read_text()) for path in sorted((ROOT / "tests").glob("*.py"))]
    trees.append(ast.parse((PACKAGE / "verify.py").read_text()))
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)}
    oracles = [d.name for d in _exported_functions(ast.parse((PACKAGE / "oracles.py").read_text()))]
    assert len(oracles) > 10  # the check sees the oracles it screens
    uncalled = sorted(set(oracles) - called)
    assert not uncalled, f"oracles never called in tests/ or verify.py: {uncalled}"


def _package_imports(tree):
    """Modules of the package that a parsed module imports, by name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("stfosls.")}
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("stfosls")):
            module = (node.module or "").removeprefix("stfosls").lstrip(".")
            found |= {module.split(".")[0]} if module else {alias.name for alias in node.names}
    return found


def test_oracles_import_nothing_from_the_fast_path():
    """The reference stays independent of what it checks: ``oracles.py``
    imports nothing from assembly, estimation, the driver, marking, the
    command line or the verify command, at any depth of the module, and
    names none of the mesh's boundary classifiers, so that it finds the
    t = 0 edges by its own scan."""
    tree = ast.parse((PACKAGE / "oracles.py").read_text())
    imported = _package_imports(tree)
    assert "mesh" in imported  # the check sees the package imports it screens
    fast_path = {"assembly", "estimator", "driver", "marking", "cli", "verify"}
    assert not imported & fast_path, f"oracles.py imports the fast path: {sorted(imported & fast_path)}"
    named = {name for name, _ in _references(tree)}
    named |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    classifiers = {"facet_tags", "initial_facet_list", "on_sides"}
    assert not named & classifiers, f"oracles.py names the boundary classifiers: {sorted(named & classifiers)}"
