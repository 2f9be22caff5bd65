"""The engine imports nothing outside the Python standard library."""

import json
import subprocess
import sys

# Imports every qoscompose module in a fresh interpreter started without the
# `site` module (so no .pth file preloads anything), on this process's
# sys.path (so an installed third-party package would still be found), and
# prints every top-level name in sys.modules.
PROBE = """
import importlib, json, pkgutil, sys
sys.path[:0] = json.loads(sys.argv[1])
import qoscompose
for module in pkgutil.iter_modules(qoscompose.__path__):
    importlib.import_module(f"qoscompose.{module.name}")
print(json.dumps(sorted({name.partition(".")[0] for name in sys.modules})))
"""


def test_every_module_imports_only_the_standard_library():
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", PROBE, json.dumps(sys.path)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    loaded = set(json.loads(proc.stdout))
    assert "qoscompose" in loaded
    outside = loaded - set(sys.stdlib_module_names) - {"qoscompose", "__main__"}
    assert not outside, f"qoscompose imports non-stdlib modules: {sorted(outside)}"
