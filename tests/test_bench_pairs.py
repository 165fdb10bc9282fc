"""The verdicts of ``tools/bench_pairs.py``'s ``summarize`` on synthetic runs.

A speed claim holds only when the change wins at least nine pairs in ten and
its median gain exceeds the parent's interquartile range; ties count for
neither side; a metric reads ``WORSE`` when the change's median is worse than
the parent's by more than ``bound`` times the parent's median, and the script
exits 1 on it or on a larger share of failed ops. Every run of ``bench``
starts from an empty bytecode cache of its own.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT / "tools"))
import bench_pairs  # noqa: E402

sys.path.remove(str(ROOT / "tools"))

#: Ten parent runs with an interquartile range of 0.55 about a median of 10.45.
PARENT = [10.0 + 0.1 * i for i in range(10)]


def _summary(parent, change, better="lower", bound=0.2):
    runs = {side: [{"metrics": {"m": v}} for v in values]
            for side, values in (("parent", parent), ("change", change))}
    return bench_pairs.summarize(runs, [{"name": "m", "better": better, "bound": bound}])["m"]


def _improved(gains, better):
    """``PARENT`` with each run better by its entry of ``gains`` (0 is a tie)."""
    sign = 1.0 if better == "lower" else -1.0
    return [p - sign * g for p, g in zip(PARENT, gains)]


@pytest.mark.parametrize("better", ["lower", "higher"])
@pytest.mark.parametrize(
    "gains, wins, holds",
    [
        ([1.0] * 10, 10, True),
        ([1.0] * 9 + [-1.0], 9, True),
        ([1.0] * 8 + [-1.0] * 2, 8, False),
        ([1.0] * 9 + [0.0], 9, True),
        ([1.0] * 8 + [0.0] * 2, 8, False),
        ([0.0] * 10, 0, False),
    ],
    ids=["10-of-10", "9-of-10", "8-of-10", "9-and-a-tie", "8-and-two-ties", "all-ties"],
)
def test_claim_needs_nine_pairs_in_ten(better, gains, wins, holds):
    s = _summary(PARENT, _improved(gains, better), better)
    assert (s["wins"], s["pairs"], s["claim_holds"]) == (wins, 10, holds)
    # every failing case but the ties gains more than the parent's IQR
    assert s["beyond_parent_iqr"] == any(gains)


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_no_claim_for_a_gain_inside_the_parent_iqr(better):
    parent = [10.0 + i for i in range(10)]  # interquartile range 3.5
    sign = 1.0 if better == "lower" else -1.0
    s = _summary(parent, [p - sign * 1.0 for p in parent], better)
    assert (s["wins"], s["beyond_parent_iqr"], s["claim_holds"]) == (10, False, False)


@pytest.mark.parametrize(
    "better, change, worse",
    [
        ("lower", 12.0, False),  # worse by exactly the bound
        ("lower", 12.5, True),
        ("lower", 7.0, False),
        ("higher", 8.0, False),
        ("higher", 7.5, True),
        ("higher", 13.0, False),
    ],
)
def test_worse_than_bound_past_bound_times_the_parent_median(better, change, worse):
    s = _summary([10.0] * 10, [change] * 10, better, bound=0.2)
    assert s["worse_than_bound"] is worse
    assert s["relative"] == pytest.approx(change / 10.0 - 1.0)


def test_every_run_compiles_from_a_fresh_empty_bytecode_cache(monkeypatch, tmp_path):
    # the parent's export has no __pycache__ and the working tree may: each
    # run gets its own empty PYTHONPYCACHEPREFIX, so neither side starts warm
    seen = []

    def run(argv, cwd, env, **kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((cwd, cache, cache.is_dir() and not any(cache.iterdir())))
        (cache / "stale.pyc").write_bytes(b"")  # a run leaves bytecode behind
        report = {"metrics": {"m": {"value": 1.0}}, "attempted": 3, "failed": 0}
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(report) + "\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    trees = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    for side in ("parent", "change", "parent"):
        assert bench_pairs.bench(trees[side], "mc-trials", 1, 0.1)["failed"] == 0
    assert [cwd for cwd, _, _ in seen] == [trees["parent"], trees["change"], trees["parent"]]
    assert all(empty for _, _, empty in seen)
    assert len({cache for _, cache, _ in seen}) == 3
    assert not any(cache.exists() for _, cache, _ in seen)


@pytest.mark.parametrize(
    "worse, failed, code",
    [(False, (0.1, 0.1), 0), (True, (0.0, 0.0), 1), (False, (0.0, 0.01), 1),
     (False, (0.02, 0.01), 0)],
    ids=["ok", "a-metric-worse", "more-failed-ops", "fewer-failed-ops"],
)
def test_exit_code_gates_on_the_verdicts(monkeypatch, tmp_path, worse, failed, code):
    # canned results: the second of two workloads carries the verdict
    def compare(trees, workload, seeds, seconds, metrics):
        last = workload == "b"
        return {
            "summary": {"m": {"worse_than_bound": last and worse}},
            "failed_share": {"parent": failed[0], "change": failed[1] if last else failed[0]},
        }

    monkeypatch.setattr(bench_pairs, "export", lambda revision, dest: tmp_path)
    monkeypatch.setattr(bench_pairs, "compare", compare)
    assert bench_pairs.main(["--parent", "HEAD", "--workload", "a,b", "--seeds", "1"]) == code
