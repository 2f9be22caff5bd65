"""The package root: every name the benchmark and the oracles import from it is exported."""

import ast
import pathlib

import qoscompose

REPO = pathlib.Path(__file__).resolve().parent.parent
IMPORTERS = sorted((REPO / "perfbench").glob("*.py")) + [REPO / "tests" / "reference.py"]


def root_imports(path):
    """Names that `path` imports with `from qoscompose import ...`."""
    tree = ast.parse(path.read_text(), str(path))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "qoscompose" and not node.level
        for alias in node.names
    }


def test_root_exports_every_name_the_benchmark_and_oracles_import():
    imported = {path.name: root_imports(path) for path in IMPORTERS}
    assert imported["reference.py"] and imported["pipeline.py"]
    for name, names in imported.items():
        missing = names - set(qoscompose.__all__)
        assert not missing, (name, sorted(missing))


def test_every_root_export_resolves():
    assert len(set(qoscompose.__all__)) == len(qoscompose.__all__)
    for name in qoscompose.__all__:
        assert hasattr(qoscompose, name), name
