"""Every function that a production module exports has a caller in the program.

A function listed in the ``__all__`` of a module under ``src/stfosls`` (the
oracles excepted: they are the tests' reference) must be read, as a name or
an attribute, somewhere in ``src/`` or ``demos/`` outside its own
definition.  Imports and ``__all__`` entries do not count, and neither do
the oracles or the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stfosls"
# Exported functions without a caller in the program, each with its reason.
ALLOWED = {
    "read_mesh": "reads the documented mesh dump format that write_mesh writes",
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
