"""Start-up and dependencies: the package runs on numpy alone.

The package imports only the standard library, numpy and its own modules.
scipy is a test dependency: ``tests/oracles.py`` and some tests use it as a
reference. Each CLI path runs in a fresh interpreter in which ``import scipy``
fails, and loads no scipy module, and no ``csv`` module unless it writes a
CSV report; and every import statement under ``src/shufflecount``,
function-local ones included, names the standard library, the package or a
runtime dependency listed in ``pyproject.toml``.
"""

import ast
import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_PROBE = """
import json, sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
import shufflecount, shufflecount.cli
argv = json.loads(sys.argv[1])
code = shufflecount.cli.main(argv) if argv else 0
scipy = [m for m, mod in sys.modules.items() if mod is not None and m.split(".")[0] == "scipy"]
print(json.dumps([code, sorted(scipy), "csv" in sys.modules]))
"""


def _loaded(tmp_path, argv):
    """Exit code, scipy modules and whether ``csv`` loaded, of ``argv`` in a fresh interpreter."""
    if argv:
        argv = [*argv, "--seed", "1", "--out", str(tmp_path / "report")]
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv)],
        capture_output=True, text=True, check=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    code, modules, csv = json.loads(proc.stdout.strip().splitlines()[-1])
    return code, modules, csv


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """:func:`_loaded` of a tuple ``argv``, run once per module."""
    tmp_path = tmp_path_factory.mktemp("startup")
    return functools.cache(lambda argv: _loaded(tmp_path, list(argv)))


CLI_PATHS = pytest.mark.parametrize(
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
        ["audit", "divergence", "--n", "2"],
    ],
    ids=["import", "run-count", "run-realsum", "run-histogram", "params",
         "bench", "audit-mse", "audit-comm", "audit-lemmas", "audit-divergence"],
)


@CLI_PATHS
def test_no_scipy_submodule_loaded(loaded, argv):
    code, modules, _ = loaded(tuple(argv))
    assert code == 0
    assert modules == []


@CLI_PATHS
def test_json_reports_load_no_csv(loaded, argv):
    assert loaded(tuple(argv))[2] is False


def test_csv_report_loads_csv(loaded):
    # the probe sees csv when it is loaded
    argv = ("run", "count", "--ones", "4", "--zeros", "6", "--format", "csv")
    assert loaded(argv) == (0, [], True)


def _imported_modules(path):
    """Top-level module of every absolute import in ``path``, function-local ones included."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_and_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        dependencies = tomllib.load(f)["project"]["dependencies"]
    allowed = {"shufflecount", *sys.stdlib_module_names}
    allowed |= {re.match(r"[\w.-]+", d).group().replace("-", "_") for d in dependencies}
    outside = {
        (str(path.relative_to(SRC)), module)
        for path in (SRC / "shufflecount").rglob("*.py")
        for module in _imported_modules(path)
        if module not in allowed
    }
    assert outside == set()
