"""Self-checks of the benchmark.

    python3 -m pytest -q perfbench/test_perfbench.py

A corrupted report must count as a failed op, traced runs at one seed must
repeat their counts exactly, and the tracer must survive a retired function.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from shufflecount import dist, protocol  # noqa: E402

#: one corruption per workload, applied to the first report of an op
CORRUPT = {
    "count-large": lambda r: r.update(estimate=r["estimate"] + 1),
    "pooled-large": lambda r: r.update(estimate=r["estimate"] + 0.25),
    "mc-trials": lambda r: r.update({"pass": False}),
    "audit-oracle": lambda r: r.update({"pass": False}),
}
COUNTS = (
    "params.derive_calls",
    "dist.stream_inits",
    "protocol.randomize_calls",
    "protocol.messages",
    "composition.messages",
    "audit.grid_calls",
)


def op_outputs(workload, index=0):
    return [worker.run_cli(argv)[1] for argv in workload.calls(index)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_check_accepts_real_reports_and_rejects_corrupted_ones(name, tmp_path):
    w = workloads.WORKLOADS[name](5, tmp_path)
    outputs = op_outputs(w)
    items, failure = worker.judge(w, outputs)
    assert failure is None and items > 0
    first = json.loads(outputs[0])
    CORRUPT[name](first)
    items, failure = worker.judge(w, [json.dumps(first), *outputs[1:]])
    assert failure is not None and items == 0


def test_corrupted_report_is_counted_as_failed(tmp_path, monkeypatch):
    w = workloads.CountLarge(5, tmp_path)
    report = json.loads(op_outputs(w)[0])
    report["messages_per_user"]["total"] += 1
    monkeypatch.setattr(worker, "run_cli", lambda argv: (0, json.dumps(report)))
    result = worker.measure(w, argparse.Namespace(seconds=0.0, trace=False))
    assert result["attempted"] == worker.MIN_OPS + 1  # the warm-up op counts
    assert result["failed"] == result["attempted"]
    assert "messages_per_user.total" in result["failures"][0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly_at_one_seed(name, tmp_path):
    args = argparse.Namespace(seed=7, spans_out=None)
    runs = []
    for attempt in range(2):
        workdir = tmp_path / str(attempt)
        workdir.mkdir()
        failures = []
        out = worker.trace(workloads.WORKLOADS[name](7, workdir), args, failures.append)
        assert not [f for f in failures if f is not None]
        assert out["absent"] == []
        runs.append({m: out["layers"][m] for m in COUNTS})
    assert runs[0] == runs[1]
    assert any(runs[0].values())


def test_tracer_marks_a_retired_function_absent(monkeypatch):
    monkeypatch.delattr(protocol, "shuffle")
    t = tracer.Tracer().install()
    try:
        assert "protocol.shuffle" in t.absent
        assert hasattr(protocol.randomize, "__wrapped__")
    finally:
        t.uninstall()
    missing = tracer.absent_metrics(t.absent)
    assert {"protocol.shuffle_s", "protocol.messages"} <= set(missing)
    assert "protocol.randomize_calls" not in missing
    assert isinstance(vars(dist.RandomSource)["generator"], property)


def test_tracer_restores_every_binding():
    before = (protocol.randomize, vars(dist.RandomSource)["generator"])
    t = tracer.Tracer().install()
    t.uninstall()
    assert (protocol.randomize, vars(dist.RandomSource)["generator"]) == before


def test_self_time_subtracts_child_spans():
    spans = [
        ["cli.main", -1, 0.0, 10.0, 0, 0],
        ["composition.run_real_sum", 0, 1.0, 9.0, 100, 0],
        ["protocol.randomize", 1, 2.0, 3.0, 0, 0],
        ["protocol.randomize", 1, 4.0, 6.0, 0, 0],
    ]
    m = tracer.layer_metrics(spans, ops=2)
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["composition.self_s"] == pytest.approx(2.5)
    assert m["composition.messages"] == 50
    assert m["protocol.randomize_us_per_call"] == pytest.approx(1.5e6)
