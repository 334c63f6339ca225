"""The package runs on what ``pyproject.toml`` declares: stdlib + numpy.

A fresh interpreter imports the public surfaces (the library, the HTTP
server, the cluster router, the lint layer) and runs ``python -m repro
lint`` on a shipped example; every top-level module those pull in must be
stdlib, numpy, or repro itself.  An undeclared import anywhere on these
paths breaks ``pip install`` users and the numpy-only CI lint job.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

PROBE = """
import json, runpy, sys
before = {name.partition(".")[0] for name in sys.modules}
import repro, repro.service.server, repro.cluster.router, repro.lint
sys.argv = ["repro", "lint", "examples/saxpy2d.loop"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code or 0
loaded = {name.partition(".")[0] for name in sys.modules} - before
print(json.dumps({"code": code, "loaded": sorted(loaded)}))
"""


def test_imports_and_lint_need_only_stdlib_and_numpy():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    assert doc["code"] == 0, out.stdout
    # ``__mp_main__`` is multiprocessing's alias for ``__main__``.
    allowed = set(sys.stdlib_module_names) | {"numpy", "repro", "__mp_main__"}
    undeclared = [m for m in doc["loaded"] if m not in allowed]
    assert not undeclared, f"undeclared third-party imports: {undeclared}"
