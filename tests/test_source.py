import ast
from collections import Counter
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


def _names(tree: ast.AST) -> Counter:
    """Occurrences of each identifier a subtree uses (names, attributes, imports)."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
    return out


def _defined_names(node: ast.stmt) -> list[str]:
    """Names a module-level statement defines: a function, a class or assigned constants."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_every_public_name_has_a_caller():
    # a public function, class or constant that neither the package nor the
    # benchmark names is reached by tests only; cmd_* are dispatched by name
    # from main
    root = SRC.parents[1]
    files = sorted((root / "src").rglob("*.py")) + sorted((root / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in files}
    defined = [(path, node, name)
               for path in sorted(SRC.glob("*.py"))
               for node in trees[path].body
               for name in _defined_names(node)]
    used = sum(map(_names, trees.values()), Counter())
    unused = [f"{path.name}:{name}" for path, node, name in defined
              if not name.startswith(("_", "cmd_")) and used[name] == _names(node)[name]]
    assert sorted(SRC.glob("*.py")), SRC
    assert {"BETA_CLASSES", "COUNT_LIMIT", "VARIANTS"} <= {name for _, _, name in defined}
    assert unused == []


def test_point_recount_reads_no_trace():
    # count_points_by_solutions is the independent check of the trace count: it
    # and its y^p - y table must not reach the trace tables or the form kernels
    tree = ast.parse((SRC / "curves.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    forbidden = {"form_symbols", "form_terms", "trace_pow", "trace_sym", "symbols", "plus",
                 "value_histograms"}
    for name in ("count_points_by_solutions", "_artin_schreier_counts"):
        assert set(_names(funcs[name])) & forbidden == set(), name
    assert set(_names(funcs["count_points"])) & forbidden  # the check can see a trace route
