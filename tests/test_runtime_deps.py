"""The runtime needs numpy only.

scipy and networkx are test-only dependencies: they back independent oracles
(``tests/test_reference.py``, the fusion oracle and ``tests/matching_oracle.py``).
A fresh interpreter that imports ``repro`` and every submodule must load
neither of them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

IMPORT_EVERYTHING = """
import importlib, json, pkgutil, sys
import repro
names = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
print(json.dumps({
    "modules": names,
    "loaded": sorted(name for name in sys.modules
                     if name.split(".")[0] in ("scipy", "networkx")),
}))
"""


def test_importing_every_module_loads_neither_scipy_nor_networkx():
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_EVERYTHING], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert {"repro.core.fusion", "repro.core.matching",
            "repro.core.conflict"} <= set(report["modules"])
    assert report["loaded"] == []
