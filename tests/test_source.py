import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qfcodes"


def test_package_has_no_assert_statements():
    # python -O strips asserts; every check in the package raises an exception instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")), SRC
    assert found == []


def _names_outside(tree: ast.AST, skip: ast.AST) -> set[str]:
    """Identifiers a module's code uses (names, attributes, imports), skipping one subtree."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_public_name_has_a_caller():
    # a public function or class that neither the package nor the benchmark
    # names is reached by tests only; cmd_* are dispatched by name from main
    root = SRC.parents[1]
    files = sorted((root / "src").rglob("*.py")) + sorted((root / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in files}
    unused = [f"{path.name}:{node.name}"
              for path in sorted(SRC.glob("*.py"))
              for node in trees[path].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith(("_", "cmd_"))
              and not any(node.name in _names_outside(tree, node) for tree in trees.values())]
    assert sorted(SRC.glob("*.py")), SRC
    assert unused == []
