"""Print one SHA-256 per CLI report over a fixed list of calls.

Two checkouts whose random streams agree print identical lines, so a change
that claims to keep every stream can be checked by diffing this script's
output on the parent commit and on the change::

    PYTHONPATH=src python tools/report_digest.py > digests.txt

The package is imported from ``PYTHONPATH``; every report comes from
``shufflecount.cli.main`` in this process. The list covers ``run count``
(as JSON and as the per-user CSV), ``run realsum`` and ``run histogram``
(each at every fidelity it takes), ``audit mse`` at every fidelity across
several trial chunks, ``audit comm`` and ``bench``, each at seeds 1, 7 and
9001; ``params`` in derive and check mode, ``audit lemmas`` and
``audit divergence`` on the reference set (``--n 3`` and ``--n 20``, and
the failing ``--q 0`` control); and both audits of every vetted mc-trials
case of the benchmark (``perfbench/workloads.py``).
Each line is ``<sha256>  <exit code>  <argv>``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

from shufflecount.cli import main

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 7, 9001)
FIDELITIES = ("message", "counts", "law")
REFERENCE = ["--eps", "1", "--eps-prime", "0.5", "--q", "0.01", "--s", "17", "--lam", "127"]


def seeded_calls(seed: int) -> list[list[str]]:
    s = ["--seed", str(seed)]
    count = ["run", "count", "--ones", "400", "--zeros", "600", *s]
    calls = [count, [*count, "--format", "csv"]]
    for fidelity in FIDELITIES:
        f = ["--fidelity", fidelity, *s]
        calls += [
            ["run", "realsum", "--uniform", "1000", "--bits", "4", *f],
            ["run", "histogram", "--buckets", "8", "--uniform", "1000", *f],
            # 5000 trials at n = 1000 span several chunks at every fidelity
            ["audit", "mse", *REFERENCE, "--n", "1000", "--ones", "700", "--trials", "5000", *f],
        ]
    calls += [
        ["audit", "comm", *REFERENCE, "--n", "100", "--trials", "20000", *s],
        ["bench", "--n-list", "100,1000,10000", "--trials", "2000", *s],
    ]
    return calls


def unseeded_calls() -> list[list[str]]:
    calls = [
        ["params", "--eps", "1", "--rho", "0.5", "--n", "1000"],
        ["params", "--eps", "1", "--n", "100", "--eps-prime", "0.5", "--q", "0.01"],
        ["params", *REFERENCE, "--n", "100"],
        ["params", "--eps", "1", "--n", "100", "--eps-prime", "0.5", "--q", "0.01",
         "--s", "16", "--lam", "127"],
    ]
    for n in ("3", "20"):
        calls += [
            ["audit", "lemmas", *REFERENCE, "--n", n],
            ["audit", "divergence", *REFERENCE, "--n", n],
        ]
    no_drops = ["--eps", "1", "--eps-prime", "0.5", "--q", "0"]
    return calls + [["audit", "divergence", *no_drops, "--n", "3"]]


def mc_case_calls() -> list[list[str]]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    mc = workloads.MonteCarloTrials
    return [argv for index in workloads.MC_CASES for argv in mc.audits(*mc.case(index))]


def digest(argv: list[str]) -> tuple[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


def run() -> None:
    calls = [argv for seed in SEEDS for argv in seeded_calls(seed)]
    calls += unseeded_calls() + mc_case_calls()
    for argv in calls:
        sha, code = digest(argv)
        print(f"{sha}  {code}  {' '.join(argv)}", flush=True)


if __name__ == "__main__":
    sys.exit(run())
