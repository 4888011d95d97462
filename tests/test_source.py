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
