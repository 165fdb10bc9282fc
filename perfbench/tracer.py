"""Span tracer that wraps the package's public functions from outside.

Every target is replaced by a wrapper under each name it is bound to in any
loaded ``shufflecount`` module, so ``composition``'s own binding of
``randomize`` and ``cli``'s bindings of the library calls are seen as well.
A span is ``[name, parent, start, end, count, peak_bytes]``; spans stay in
memory until the run writes them out. A target that a later refactor removed
is recorded as absent and its metrics read 0.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from contextlib import contextmanager
from importlib import import_module

PACKAGE = "shufflecount"


def _len0(result):
    return len(result[0])


def _size(result):
    return int(result.size)


def _total_messages(result):
    return result.total_messages or 0


#: layer -> {function name: counter of work done, taken from its result}
TARGETS = {
    "params": {"derive_params": None, "minimal_params": None},
    "protocol": {
        "randomize": None,
        "shuffle": _len0,  # messages shuffled
        "run_counting": None,
        "estimate_trials": len,  # trials run
    },
    "composition": {"run_real_sum": _total_messages, "run_histogram": _total_messages},
    "audit": {
        "view_logpmf_grid": _size,  # grid cells evaluated
        "measure_mse": None,
        "divergence_audit": None,
    },
    "cli": {"main": None},
}
#: first creation of a stream's generator (SeedSequence plus Generator)
STREAM_INIT = "dist.stream_init"
#: spans whose peak of traced allocations the memory pass records
MEMORY_SPANS = ("protocol.shuffle", "composition.run_real_sum", "composition.run_histogram")


class Tracer:
    def __init__(self, memory: bool = False):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.memory = memory
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, 0, 0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][3] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name, fn, counter):
        measure = self.memory and name in MEMORY_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            if measure:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if measure:
                self.spans[index][5] = tracemalloc.get_traced_memory()[1] - base
            if counter is not None:
                try:
                    self.spans[index][4] = counter(result)
                except (AttributeError, TypeError, IndexError):
                    self._mark_absent(f"{name}:count")
            return result

        return wrapper

    def _mark_absent(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)

    def install(self) -> "Tracer":
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for layer, functions in TARGETS.items():
            module = import_module(f"{PACKAGE}.{layer}")
            for fname, counter in functions.items():
                original = getattr(module, fname, None)
                if not callable(original):
                    self._mark_absent(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original, counter)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._undo.append((m, attr, original))
        self._install_stream_init()
        return self

    def _install_stream_init(self) -> None:
        cls = getattr(import_module(f"{PACKAGE}.dist"), "RandomSource", None)
        prop = vars(cls).get("generator") if cls is not None else None
        if not isinstance(prop, property) or not hasattr(cls, "_generator"):
            self._mark_absent(STREAM_INIT)
            return
        original = prop.fget

        def fget(source):
            if source._generator is not None:
                return original(source)
            index = self._open(STREAM_INIT)
            try:
                return original(source)
            finally:
                self._close(index)

        cls.generator = property(fget, prop.fset, prop.fdel, prop.__doc__)
        self._undo.append((cls, "generator", prop))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


COMPOSITION = ("composition.run_real_sum", "composition.run_histogram")

#: per-layer metric -> the spans it is made from (absent when any is absent)
SOURCES = {
    "params.derive_s": ("params.derive_params", "params.minimal_params"),
    "params.derive_calls": ("params.derive_params", "params.minimal_params"),
    "dist.stream_inits": (STREAM_INIT,),
    "dist.stream_init_s": (STREAM_INIT,),
    "protocol.randomize_calls": ("protocol.randomize",),
    "protocol.randomize_us_per_call": ("protocol.randomize",),
    "protocol.shuffle_s": ("protocol.shuffle",),
    "protocol.shuffle_ns_per_msg": ("protocol.shuffle", "protocol.shuffle:count"),
    "protocol.messages": ("protocol.shuffle", "protocol.shuffle:count"),
    "protocol.shuffle_bytes_per_msg": ("protocol.shuffle", "protocol.shuffle:count"),
    "protocol.trials_s": ("protocol.estimate_trials",),
    "protocol.trial_us": ("protocol.estimate_trials", "protocol.estimate_trials:count"),
    "composition.self_s": COMPOSITION,
    "composition.messages": COMPOSITION + tuple(f"{n}:count" for n in COMPOSITION),
    "composition.bytes_per_msg": COMPOSITION + tuple(f"{n}:count" for n in COMPOSITION),
    "audit.grid_s": ("audit.view_logpmf_grid",),
    "audit.grid_calls": ("audit.view_logpmf_grid",),
    "audit.ns_per_cell": ("audit.view_logpmf_grid", "audit.view_logpmf_grid:count"),
    "audit.mse_s": ("audit.measure_mse",),
    "cli.self_s": ("cli.main",),
}


def absent_metrics(absent: list[str]) -> list[str]:
    return [m for m, names in SOURCES.items() if any(n in absent for n in names)]


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(spans: list[list], ops: int) -> dict[str, float]:
    """Per-op layer metrics from the spans of ``ops`` traced ops.

    Self time is a span's duration minus its children's (one thread, so
    children never overlap). Times and counts are per op; ``*_per_call``,
    ``*_per_msg``, ``trial_us`` and ``ns_per_cell`` divide by the work done.
    """
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    count: dict[str, int] = {}
    child = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += s[3] - s[2]
    outer_params = 0.0
    for i, (name, parent, start, end, n, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + end - start
        self_time[name] = self_time.get(name, 0.0) + end - start - child[i]
        calls[name] = calls.get(name, 0) + 1
        count[name] = count.get(name, 0) + n
        if name.startswith("params.") and not (
            parent >= 0 and spans[parent][0].startswith("params.")
        ):
            outer_params += end - start

    def get(table, *names):
        return sum(table.get(n, 0) for n in names)

    shuffle, trials, grid = "protocol.shuffle", "protocol.estimate_trials", "audit.view_logpmf_grid"
    randomize = "protocol.randomize"
    per_op = {
        "params.derive_s": outer_params,
        "params.derive_calls": get(calls, "params.derive_params", "params.minimal_params"),
        "dist.stream_inits": get(calls, STREAM_INIT),
        "dist.stream_init_s": get(total, STREAM_INIT),
        "protocol.randomize_calls": get(calls, randomize),
        "protocol.shuffle_s": get(total, shuffle),
        "protocol.messages": get(count, shuffle),
        "protocol.trials_s": get(total, trials),
        "composition.self_s": get(self_time, *COMPOSITION),
        "composition.messages": get(count, *COMPOSITION),
        "audit.grid_s": get(total, grid),
        "audit.grid_calls": get(calls, grid),
        "audit.mse_s": get(self_time, "audit.measure_mse"),
        "cli.self_s": get(self_time, "cli.main"),
    }
    metrics = {name: value / ops for name, value in per_op.items()}
    metrics.update({
        "protocol.randomize_us_per_call": _ratio(get(total, randomize), get(calls, randomize), 1e6),
        "protocol.shuffle_ns_per_msg": _ratio(get(total, shuffle), get(count, shuffle), 1e9),
        "protocol.trial_us": _ratio(get(total, trials), get(count, trials), 1e6),
        "audit.ns_per_cell": _ratio(get(total, grid), get(count, grid), 1e9),
    })
    return metrics


def bytes_per_msg(spans: list[list]) -> dict[str, float]:
    """Peak bytes allocated per message inside the spans of a memory pass.

    The peak counts every allocation tracemalloc sees, NumPy arrays included,
    above the level at span entry; the largest ratio over the pass's spans is
    reported.
    """
    def worst(names):
        return max((s[5] / s[4] for s in spans if s[0] in names and s[4]), default=0.0)

    return {
        "protocol.shuffle_bytes_per_msg": worst(("protocol.shuffle",)),
        "composition.bytes_per_msg": worst(COMPOSITION),
    }
