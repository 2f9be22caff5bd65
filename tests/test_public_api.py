"""The package surface: the root exports every name the benchmark and the oracles import,
the README's library example runs and its root list names every export, and modules share
no underscore names."""

import ast
import contextlib
import io
import pathlib
import re

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


def test_the_readme_library_example_composes_the_fixtures(monkeypatch):
    readme = (REPO / "README.md").read_text()
    snippet = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(REPO)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(snippet, namespace)
    primary, alternative = namespace["primary"], namespace["alternative"]
    assert primary.score == 0.5625
    assert out.getvalue() == f"{primary.assignment} {primary.score}\n"
    inputs = [namespace[k] for k in ("request", "plan", "registry", "taxonomy", "config")]
    assert (primary, alternative) == qoscompose.compose_with_graph(*inputs)[1:]


def test_the_readme_root_list_names_every_export():
    readme = (REPO / "README.md").read_text()
    count, listing = re.search(
        r"The package root \(`qoscompose.__all__`, (\d+) names\) exports:\n\n(.*?)\n\n",
        readme, re.S,
    ).groups()
    names = re.findall(r"`(\w+)`", listing)
    assert len(names) == len(set(names)) == int(count)
    assert sorted(names) == sorted(qoscompose.__all__)


def test_no_module_imports_another_modules_private_name():
    private = []
    for path in sorted((REPO / "src" / "qoscompose").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        private += [
            (path.name, node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "qoscompose")
            for alias in node.names
            if alias.name.startswith("_")
        ]
    assert not private
