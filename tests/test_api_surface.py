"""Every function that a production module exports has a caller in the
program, and every dataclass field a reader.

A function listed in the ``__all__`` of a module under ``src/stfosls`` (the
oracles excepted: they are the tests' reference) must be read, as a name or
an attribute, somewhere in ``src/`` or ``demos/`` outside its own
definition.  A field of a dataclass defined in such a module must be read
as an attribute there.  Imports and ``__all__`` entries do not count, and
neither do the oracles or the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stfosls"
# Exported functions without a caller in the program, each with its reason.
ALLOWED = {
    "read_mesh": "reads the documented mesh dump format that write_mesh writes",
}
# Dataclass fields without a reader in the program, each with its reason.
ALLOWED_FIELDS = {
    **{f"ErrorReport.{part}": "a documented contribution of the error report"
       for part in ("u1_l2", "u1_grad_l2", "u2_l2", "div_l2", "initial_l2")},
    "Mesh.refined_from": "bisect's documented order contract, which the tests check",
    "DofMap.node_coords": "the lifting of inhomogeneous Dirichlet data will read it",
    "DofMap.constrained_nodes": "the lifting of inhomogeneous Dirichlet data will read it",
}


def _production_modules():
    return [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "oracles.py"]


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
    modules = {path: ast.parse(path.read_text()) for path in _production_modules()}
    demos = [ast.parse(path.read_text()) for path in sorted((ROOT / "demos").glob("*.py"))]
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
    trees = [ast.parse(path.read_text()) for path in _production_modules()]
    demos = [ast.parse(path.read_text()) for path in sorted((ROOT / "demos").glob("*.py"))]
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
