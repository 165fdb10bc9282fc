"""Compare a parent revision with the working tree in alternating benchmark pairs.

    python tools/bench_pairs.py --parent HEAD \\
        --workload count-large,pooled-large,mc-trials,audit-oracle \\
        --seeds 1,2,3,4,5,6,7,8,9,9001 --seconds 20

Each seed is one pair: ``perfbench/run.py --workload W --seed S --seconds T``
runs once in an export of the parent revision (``git archive`` into a
temporary directory, the committed files only) and once in the working tree.
The side that runs first alternates from pair to pair. Every run compiles the
package from source: ``PYTHONPYCACHEPREFIX`` points it at a fresh empty
directory, so no ``__pycache__`` of the working tree, which the export lacks,
favours one side's start-up. ``--workload`` takes a
comma list; the workloads run one after the other. For every end-to-end
metric of the working tree's ``BENCHMARK.json`` the script prints each run,
then each side's median and quartiles, the pairs the change won (ties count
for neither) and two verdicts:

- ``WORSE`` when the change's median is worse than the parent's by more than
  the metric's ``bound`` (a fraction of the parent's median), else ``ok``;
- ``claim holds`` when the change won at least nine pairs in ten and its
  median is better than the parent's by more than the parent's
  interquartile range, else ``no claim``.

Each workload also prints both sides' share of failed ops, and ends with the
same data as one JSON object. The exit code is 1 when any workload has a
metric ``WORSE`` or a larger share of failed ops in the change, else 0.
Nothing is written under ``perfbench/`` but what ``perfbench/run.py`` writes
itself.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def export(revision: str, dest: Path) -> Path:
    """The committed files of ``revision`` under ``dest``."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", revision], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its metrics and failure count.

    The run reads and writes bytecode only under a fresh empty directory.
    """
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds)],
            cwd=tree, check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPYCACHEPREFIX": cache},
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Per metric: quartiles, pairs won by the change, bound and claim verdicts."""
    summary = {}
    for metric in metrics:
        name, direction = metric["name"], metric["better"]
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        p_q, c_q = quartiles(parent), quartiles(change)
        gain = sign * (p_q[1] - c_q[1])  # > 0 when the change's median is better
        summary[name] = {
            "better": direction,
            "bound": metric["bound"],
            "parent": p_q,
            "change": c_q,
            "wins": wins,
            "pairs": len(parent),
            "relative": c_q[1] / p_q[1] - 1.0 if p_q[1] else 0.0,
            "beyond_parent_iqr": abs(c_q[1] - p_q[1]) > p_q[2] - p_q[0],
            "worse_than_bound": -gain > metric["bound"] * abs(p_q[1]),
            "claim_holds": wins >= math.ceil(0.9 * len(parent)) and gain > p_q[2] - p_q[0],
        }
    return summary


def failed_share(side: list[dict]) -> float:
    return sum(r["failed"] for r in side) / max(1, sum(r["attempted"] for r in side))


def compare(trees: dict[str, Path], workload: str, seeds: list[int], seconds: float,
            metrics: list[dict]) -> dict:
    """Run the pairs of one workload, print them and their verdicts, return both."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = bench(trees[side], workload, seed, seconds)
            runs[side].append(run)
            values = " ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items())
            print(f"{workload} pair {i + 1} seed {seed} {side}: failed {run['failed']}/"
                  f"{run['attempted']} {values}", flush=True)

    summary = summarize(runs, metrics)
    for name, s in summary.items():
        (p1, p2, p3), (c1, c2, c3) = s["parent"], s["change"]
        print(f"{workload} {name} ({s['better']} is better): "
              f"parent {p2:.6g} [{p1:.6g}, {p3:.6g}]  change {c2:.6g} [{c1:.6g}, {c3:.6g}]  "
              f"{s['relative']:+.1%}  change won {s['wins']}/{s['pairs']}  "
              f"{'beyond' if s['beyond_parent_iqr'] else 'within'} the parent's IQR  "
              f"{'WORSE' if s['worse_than_bound'] else 'ok'} (bound {s['bound']:.0%})  "
              f"{'claim holds' if s['claim_holds'] else 'no claim'}")
    failed = {side: failed_share(runs[side]) for side in runs}
    print(f"{workload} failed ops: parent {failed['parent']:.2%}  change {failed['change']:.2%}"
          f"  {'WORSE' if failed['change'] > failed['parent'] else 'ok'}")
    return {"workload": workload, "seeds": seeds, "seconds": seconds,
            "runs": runs, "summary": summary, "failed_share": failed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True, help="comma-separated workloads")
    ap.add_argument("--seeds", required=True, help="comma-separated seeds, one pair each")
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s]
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    worse = False
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": export(args.parent, Path(tmp)), "change": ROOT}
        for workload in (w for w in args.workload.split(",") if w):
            result = compare(trees, workload, seeds, args.seconds, metrics)
            print(json.dumps({"parent": args.parent, **result}), flush=True)
            failed = result["failed_share"]
            worse |= failed["change"] > failed["parent"] or any(
                s["worse_than_bound"] for s in result["summary"].values()
            )
    return int(worse)


if __name__ == "__main__":
    sys.exit(main())
