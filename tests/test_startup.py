"""Start-up cost: which scipy submodules a fresh interpreter ends up loading.

``scipy.stats`` is never imported by the package. ``scipy.special`` is
imported inside the functions that evaluate a log-PMF, a quantile or a
p-value, so only the audits that call them may load it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import json, sys
import shufflecount, shufflecount.cli
argv = json.loads(sys.argv[1])
code = shufflecount.cli.main(argv) if argv else 0
print(json.dumps([code, [m for m in ("scipy.stats", "scipy.special") if m in sys.modules]]))
"""


def _loaded(tmp_path, argv):
    """Exit code and loaded scipy submodules of ``argv`` in a fresh interpreter."""
    if argv:
        argv = [*argv, "--seed", "1", "--out", str(tmp_path / "report")]
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv)],
        capture_output=True, text=True, check=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    code, modules = json.loads(proc.stdout.strip().splitlines()[-1])
    return code, modules


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["run", "count", "--ones", "40", "--zeros", "60"],
        ["run", "realsum", "--uniform", "50", "--bits", "2"],
        ["run", "histogram", "--uniform", "50", "--buckets", "4"],
        ["params", "--eps", "1", "--n", "100"],
        ["bench", "--n-list", "100", "--trials", "100"],
        ["audit", "mse", "--n", "20", "--trials", "1000"],
        ["audit", "comm", "--n", "20", "--trials", "1000"],
        ["audit", "lemmas"],
    ],
    ids=["import", "run-count", "run-realsum", "run-histogram", "params",
         "bench", "audit-mse", "audit-comm", "audit-lemmas"],
)
def test_no_scipy_submodule_loaded(tmp_path, argv):
    code, modules = _loaded(tmp_path, argv)
    assert code == 0
    assert modules == []


@pytest.mark.parametrize(
    "argv",
    [["audit", "divergence", "--n", "2"], ["audit", "lemmas"]],
    ids=["audit-divergence", "audit-lemmas"],
)
def test_audits_never_load_stats(tmp_path, argv):
    code, modules = _loaded(tmp_path, argv)
    assert code == 0
    assert "scipy.stats" not in modules
