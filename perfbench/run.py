"""Layered benchmark of shufflecount: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload count-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs in fresh single-threaded worker processes (``worker.py``)
that import ``shufflecount`` from this checkout's ``src``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of ``BENCHMARK.json``
untraced, its ``per_layer`` metrics with ``--trace 1``. ``--workload all``
runs every workload and also writes ``perfbench/_out/results.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
WORKLOADS = ("count-large", "pooled-large", "mc-trials", "audit-oracle")
#: fresh processes whose set-up time is measured; setup_s is their median
SETUP_SAMPLES = 5
#: a run must end within 180 s; workers are stopped after this
DEADLINE_S = 170.0
#: time of the calibration kernel (worker.calibrate) on a quiet 2 GHz Xeon;
#: end-to-end times are scaled by CAL_REF_S / (the kernel's time alongside)
CAL_REF_S = 0.05
#: the end-to-end throughput metric, by the work item of the workload
THROUGHPUT_NAMES = {"msg": "msgs_per_s", "trial": "trials_per_s", "cell": "cells_per_s"}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def worker(args: list[str], deadline: float) -> dict:
    """Run ``worker.py`` in a fresh process and return its JSON result."""
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest sample with at least ten samples beyond it, and its percentile."""
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1], "max"
    n = len(ordered)
    return ordered[n - 11], f"p{100 * (n - 10) // n}"


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = [worker([*common, "--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)]
    extra = ["--trace", "--spans-out", str(OUT / f"spans-{name}-seed{seed}.json")] if traced else []
    res = worker([*common, *extra], deadline)
    setups.append(res)

    # each op is scaled by the calibration run right after it, set-up by the
    # median calibration of its own process
    times = [t * CAL_REF_S / c for t, c in zip(res["op_times"], res["cal_times"])]
    rates = [i / t if t > 0 else 0.0 for i, t in zip(res["items"], times)]
    tail_s, tail_label = tail(times)
    wall = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "op_s_p50": statistics.median(res["op_times"]),
        "op_s_tail": tail(res["op_times"])[0],
        "calibration_s": statistics.median(res["cal_times"]),
    }
    e2e = {
        "setup_s": statistics.median(s["setup_s"] * CAL_REF_S / s["setup_cal_s"] for s in setups),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_s,
        "items_per_s": statistics.median(rates),
        "peak_rss_mb": res["peak_rss_mb"],
        **res["comm"],
    }
    n = f"n={len(times)} ops"
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes; wall {wall['setup_s']:.4g} s",
        "op_s_p50": f"{n}, warm-up excluded; wall {wall['op_s_p50']:.4g} s, "
                    f"calibration {1e3 * wall['calibration_s']:.1f} ms",
        "op_s_tail": f"{tail_label} of {n}; wall {wall['op_s_tail']:.4g} s",
        "items_per_s": f"{res['item']}/s, median of {n}",
        "peak_rss_mb": "ru_maxrss of the workload process after the timed ops",
    }
    out = {
        "workload": name,
        "seed": seed,
        "item": res["item"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "end_to_end": e2e,
        "wall": wall,
        "notes": notes,
        "failed_op_ratio": res["failed"] / res["attempted"],
        "certified": res["certified"],
    }
    if traced:
        traced_p50 = statistics.median(
            t * CAL_REF_S / c for t, c in zip(res["traced_op_times"], res["traced_cal_times"])
        )
        out["per_layer"] = {
            **res["layers"],
            "trace.op_s_p50": traced_p50,
            "trace.overhead_s": traced_p50 - e2e["op_s_p50"],
        }
        out["absent"] = res["absent"]
    return out


def report(out: dict, units: dict) -> list[str]:
    """Human-readable lines: every metric by name, with its unit."""
    name, e2e = out["workload"], out["end_to_end"]
    lines = [f"# {name} seed={out['seed']} attempted={out['attempted']} failed={out['failed']}"]
    for failure in out["failures"]:
        lines.append(f"#   failed op: {failure}")
    for metric, value in e2e.items():
        note = out["notes"].get(metric, "")
        lines.append(f"{name} {metric} = {value:.6g} {units[metric]}  {note}".rstrip())
    rate = THROUGHPUT_NAMES[out["item"]]
    lines.append(f"{name} {rate} = {e2e['items_per_s']:.6g} {out['item']}/s  (items_per_s)")
    lines.append(f"{name} failed_op_ratio = {out['failed_op_ratio']:.6g} ratio")
    if out["certified"] is not None:
        passes, attempts = out["certified"]
        lines.append(f"{name} certified_ratio = {passes / attempts:.6g} ratio  "
                     f"{passes}/{attempts} derived sets certified, untimed")
    for metric, value in out.get("per_layer", {}).items():
        state = "  absent" if metric in out["absent"] else ""
        lines.append(f"{name} {metric} = {value:.6g} {units[metric]}{state}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "shufflecount" / "__init__.py").is_file():
        print(f"no shufflecount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = spec()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    OUT.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(report(out, units)), flush=True)
        results.append(out)
    if args.workload == "all":
        (OUT / "results.json").write_text(json.dumps(results, indent=2) + "\n")

    key = "per_layer" if args.trace else "end_to_end"
    metrics = {
        (m if len(results) == 1 else f"{r['workload']}.{m}"): {"value": r[key][m], "unit": units[m]}
        for r in results
        for m in wanted
    }
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
