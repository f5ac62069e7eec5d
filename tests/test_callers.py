"""No function without a caller: every function or method in src/rhosplit
is exported through its module's ``__all__`` or referenced by name
somewhere in the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rhosplit"

# reached without a Name or Attribute node that spells them
ALLOWED = {
    # looked up through IntervalSubset.__dict__ by perfbench/tracer.py's LAYERS
    "intersect_subset_count",
    # reached by getattr(self, kind) in IntervalPartition.subset_from_json
    "cotrace",
}


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_function_in_src_has_a_caller_or_is_exported():
    referenced, defined = set(), []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        exported = _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # dunders are called by the interpreter, not by name
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if node.name not in exported and not dunder:
                    defined.append((path.name, node.lineno, node.name))
    uncalled = [d for d in defined if d[2] not in referenced and d[2] not in ALLOWED]
    assert uncalled == []
    # each allowed name is still defined and still unreferenced
    assert {d[2] for d in defined if d[2] not in referenced} == ALLOWED
