"""One workload in a fresh process: set-up, a warm-up op, timed ops, checks.

Run by ``run.py``; prints one JSON object as its last line. Set-up time runs
from before ``import shufflecount`` to the first timed op. With
``--setup-only`` the process stops there. With ``--trace`` the timed phase is
followed by a fixed number of traced ops, whose spans give the per-layer
metrics, and by one memory pass under ``tracemalloc``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

T0 = time.perf_counter()  # set-up starts before shufflecount is imported

import numpy as np  # noqa: E402
import shufflecount  # noqa: E402
from shufflecount import cli  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

#: traced ops per traced run; their counts repeat exactly at one seed
TRACED_OPS = 3
#: fewest timed ops, so the tail percentile has ten samples beyond it
MIN_OPS = 11
#: calibration runs a set-up process makes after set-up
CAL_SETUP = 5
CAL_ARRAY = np.ones(2_000_000, dtype=np.int8)


def calibrate() -> float:
    """Seconds a fixed calibration kernel takes: the host's speed right now.

    A pure-Python loop and a NumPy permutation of a 2 MB array, the two kinds
    of work the ops do. The kernel never touches shufflecount, so a change to
    the program cannot move it; only the host's load can.
    """
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    np.random.default_rng(0).permutation(CAL_ARRAY)
    return time.perf_counter() - start


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def run_op(workload, index: int) -> tuple[float, int, str | None]:
    """Run op ``index``; return its CLI time, items done and failure, if any.

    Only the ``cli.main`` calls are timed; parsing and checking are not.
    """
    elapsed, outputs = 0.0, []
    try:
        for argv in workload.calls(index):
            start = time.perf_counter()
            rc, text = run_cli(argv)
            elapsed += time.perf_counter() - start
            if rc != 0:
                return elapsed, 0, f"{argv[0]} {argv[1]} exited {rc}"
            outputs.append(text)
    except Exception as exc:  # a crashing op is a failed op, not a crashed run
        return elapsed, 0, f"{type(exc).__name__}: {exc}"
    return elapsed, *judge(workload, outputs)


def judge(workload, outputs: list[str]) -> tuple[int, str | None]:
    """Items done by an op and why its reports are wrong, if they are."""
    try:
        reports = [json.loads(text) for text in outputs]
        reason = workload.check(reports)
        return (0, reason) if reason else (workload.items(reports), None)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return 0, f"unreadable report: {type(exc).__name__}: {exc}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None, help="file for the traced run's spans")
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    source = Path(shufflecount.__file__).resolve()
    if root / "src" not in source.parents:
        print(f"shufflecount imported from {source}, not from this checkout", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(dir=root / "perfbench" / "_out") as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        setup = {
            "setup_s": time.perf_counter() - T0,
            "setup_cal_s": statistics.median(calibrate() for _ in range(CAL_SETUP)),
        }
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        result = measure(workload, args)
    result.update(setup)
    print(json.dumps(result))
    return 0


def measure(workload, args) -> dict:
    failures: list[str] = []

    def record(failure):
        if failure is not None:
            failures.append(failure)

    record(run_op(workload, -1)[2])  # warm-up, not timed
    attempted = 1
    times, items, cals = [], [], []
    start = time.perf_counter()
    while len(times) < MIN_OPS or time.perf_counter() - start < args.seconds:
        elapsed, done, failure = run_op(workload, len(times))
        attempted += 1
        record(failure)
        times.append(elapsed)
        items.append(done)
        cals.append(calibrate())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    certified = workload.certify(run_cli)
    result = {
        "workload": workload.name,
        "seed": workload.seed,
        "item": workload.item,
        "op_times": times,
        "items": items,
        "cal_times": cals,
        "peak_rss_mb": peak_rss_mb,
        "comm": workload.comm,
        "certified": certified,
    }
    if args.trace:
        traced = trace(workload, args, record)
        attempted += TRACED_OPS + 1
        result.update(traced)
    result.update(attempted=attempted, failed=len(failures), failures=failures[:10])
    return result


def trace(workload, args, record) -> dict:
    """Traced ops for the per-layer metrics, then the memory pass."""
    timing = tracer.Tracer().install()
    times, cals = [], []
    try:
        for index in range(TRACED_OPS):
            with timing.span("op"):
                elapsed, _, failure = run_op(workload, index)
            times.append(elapsed)
            cals.append(calibrate())
            record(failure)
    finally:
        timing.uninstall()

    memory = tracer.Tracer(memory=True).install()
    tracemalloc.start()
    try:
        record(run_op(workload, 0)[2])
    finally:
        tracemalloc.stop()
        memory.uninstall()

    metrics = tracer.layer_metrics(timing.spans, TRACED_OPS)
    metrics.update(tracer.bytes_per_msg(memory.spans))
    if args.spans_out:
        Path(args.spans_out).write_text(json.dumps({
            "workload": workload.name,
            "seed": workload.seed,
            "absent": timing.absent,
            "spans": timing.spans,
            "memory_spans": memory.spans,
        }))
    return {
        "traced_op_times": times,
        "traced_cal_times": cals,
        "layers": metrics,
        "absent": tracer.absent_metrics(timing.absent),
    }


if __name__ == "__main__":
    sys.exit(main())
