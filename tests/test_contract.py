"""One validation contract for every public entry point.

``ROWS`` has a row for every name in ``shufflecount.__all__``, for the
trial functions and helpers that other modules and tools call directly, for
the scalar references and the exact oracle that are public only in their
modules, and for the test oracles of ``tests/oracles.py`` that take checked
values. A row gives a valid call and the kind of each parameter the entry
point checks. Every bad value of a kind must raise ``ParameterError`` (so
the CLI exits 2): NaN, the infinities, negatives, zero where it is
excluded, non-integral and out-of-range values, bools and strings, and for
arrays also empty and 2-d ones; sampler shapes and the evaluation points of the
log-PMFs take only integers. Result types and exceptions have rows with no
checked parameters, so a public name added without a row fails
``test_every_public_name_has_a_row``.

Objects (parameter sets, datasets, random sources, views) are not checked
kinds.
"""

import math
import sys
from dataclasses import dataclass, field, is_dataclass

import numpy as np
import pytest

import shufflecount as sc
from shufflecount import ParameterError, audit, composition, protocol

import oracles


@dataclass(frozen=True)
class Count:
    """An integer in ``[low, high]``."""

    low: float = 0
    high: float = math.inf

    def bad(self, valid):
        ends = [v for v in (self.low - 1, self.high + 1, -1, 0) if not self.low <= v <= self.high]
        inside = self.low + 0.5 if math.isfinite(self.low) else 0.5
        start = str(self.low) if math.isfinite(self.low) else "0"
        return [math.nan, math.inf, -math.inf, inside, True, np.True_, start, *ends]


@dataclass(frozen=True)
class Real:
    """A real in the interval from ``low`` to ``high`` with brackets ``closed``."""

    low: float = 0.0
    high: float = math.inf
    closed: str = "()"

    def bad(self, valid):
        ends = [self.low - 1.0, self.high + 1.0]
        ends += [self.low] if self.closed[0] == "(" else []
        ends += [self.high] if self.closed[1] == ")" else []
        mid = (self.low + min(self.high, self.low + 2.0)) / 2.0
        finite = [e for e in ends if math.isfinite(e)]
        return [math.nan, math.inf, -math.inf, True, np.True_, str(mid), *finite]


@dataclass(frozen=True)
class Choice:
    """One of ``choices``, of the same type."""

    choices: tuple

    def bad(self, valid):
        spelled = [c.upper() if isinstance(c, str) else str(c) for c in self.choices]
        return [math.nan, math.inf, True, 0, 2.5, None, "bogus", *spelled]


@dataclass(frozen=True)
class Array:
    """A non-empty 1-d array of integers, or of reals when ``real``, in ``[low, high]``."""

    low: float
    high: float
    real: bool = False

    def bad(self, valid):
        entries = [math.nan, math.inf, -math.inf, self.low - 1, self.high + 1, str(valid[0])]
        entries += [] if self.real else [self.low + 0.5]
        return [*([e, *valid[1:]] for e in entries), np.array(valid, dtype=bool), [], [valid]]


@dataclass(frozen=True)
class Shape:
    """A sampler's ``size``: a count or a sequence of counts (``None`` draws one value)."""

    def bad(self, valid):
        return [-1, 2.5, math.nan, math.inf, True, np.True_, "3", (2, -1), (2, 2.5), [True]]


@dataclass(frozen=True)
class Points:
    """Evaluation points of a log-PMF: integers of any shape, negative ones included."""

    def bad(self, valid):
        return [2.0, 1.5, math.nan, math.inf, True, np.True_, "a", [0, 1.5], np.array([True])]


@dataclass(frozen=True)
class Row:
    call: object
    valid: dict | None = None  # None: a result type or an exception
    kinds: dict = field(default_factory=dict)


P3 = sc.ProtocolParams(3, 1.0, 0.5, 0.01, 17, 127.0)  # the reference set at n = 3
DS = audit.DatasetSummary(2, 1)
FIDELITY = Choice(protocol.FIDELITIES)
EPSILON = Real(0.0, 8.0, "(]")
HISTOGRAM_EPSILON = Real(0.0, 16.0, "(]")  # each bucket's instance runs at epsilon / 2
SLACK = Real(0.0, 0.5, "(]")
PROB = Real(0.0, 1.0)
DROP_PROB = Real(0.0, 1.0, "[)")
TOLERANCE = Real(0.0, math.inf, "[)")
REALS = [0.2, 0.7, 0.5]
BUCKETS = [0, 3, 1, 1, 2, 0]


def rng():
    return sc.RandomSource(0)


def geo_half(k):
    return oracles.geo_logpmf(0.5, k)


RESULT_TYPES = (
    "AuditInconclusiveError", "AuditReport", "CountingRun", "DegenerateInputError",
    "HistogramRun", "InfeasibleParametersError", "ParameterError", "RealSumRun", "View",
)

ROWS = {
    **{name: Row(getattr(sc, name)) for name in RESULT_TYPES},
    "Contribution": Row(protocol.Contribution),
    "DatasetSummary": Row(
        audit.DatasetSummary, dict(zeros=2, ones=1), dict(zeros=Count(), ones=Count())
    ),
    "ProtocolParams": Row(
        sc.ProtocolParams,
        dict(P3.to_dict(), slack=0.5),
        dict(
            n_users=Count(1), epsilon=EPSILON, noise_epsilon=Real(), drop_prob=DROP_PROB,
            pad_count=Count(1), flood_mean=Real(), slack=SLACK,
        ),
    ),
    "RandomSource": Row(
        sc.RandomSource, dict(seed=0, stream=(1, 2)), dict(seed=Count(), stream=Count())
    ),
    "analyze": Row(sc.analyze, dict(view=sc.View(5, 3))),
    "check_condition": Row(sc.check_condition, dict(params=P3)),
    "check_geo_ratio": Row(
        sc.check_geo_ratio,
        dict(noise_epsilon=0.5, i_max=10, tolerance=1e-9),
        dict(noise_epsilon=Real(), i_max=Count(), tolerance=TOLERANCE),
    ),
    "check_poi_ratio": Row(
        sc.check_poi_ratio,
        dict(params=P3, i_max=300, tolerance=1e-9),
        dict(i_max=Count(), tolerance=TOLERANCE),
    ),
    "crossvalidate_views": Row(
        oracles.crossvalidate_views,
        dict(ds=DS, params=P3, trials=20, rng=rng()),
        dict(trials=Count(1)),
    ),
    "derive_params": Row(
        sc.derive_params,
        dict(epsilon=1.0, slack=0.5, n_users=100),
        dict(epsilon=EPSILON, slack=SLACK, n_users=Count(1)),
    ),
    "divergence_audit": Row(
        sc.divergence_audit,
        dict(n_users=3, params=P3, coverage=1 - 1e-9, tolerance=1e-6, grid_cap=4096),
        dict(n_users=Count(1), coverage=PROB, tolerance=TOLERANCE, grid_cap=Count(1)),
    ),
    "dlap_variance": Row(sc.dlap_variance, dict(a=0.5), dict(a=Real())),
    "encode_real": Row(
        oracles.encode_real,
        dict(x=0.3, n_bits=4, rng=rng()),
        dict(x=Real(0.0, 1.0, "[]"), n_bits=Count(1)),
    ),
    "exact_mean_messages": Row(
        sc.exact_mean_messages, dict(params=P3, x=1), dict(x=Count(0, 1))
    ),
    "exact_mse": Row(sc.exact_mse, dict(params=P3, ones=2), dict(ones=Count(0, 3))),
    "exact_view_logpmf": Row(
        oracles.exact_view_logpmf,
        dict(ds=DS, params=P3, i=40, j=36),
        dict(i=Count(-math.inf), j=Count(-math.inf)),
    ),
    "geo_logpmf": Row(oracles.geo_logpmf, dict(p=0.4, k=3), dict(p=PROB, k=Points())),
    "measure_comm": Row(
        sc.measure_comm,
        dict(params=P3, x=1, trials=1000, rng=rng()),
        dict(x=Count(0, 1), trials=Count(1000)),
    ),
    "measure_mse": Row(
        sc.measure_mse,
        dict(params=P3, ones=1, trials=1000, rng=rng(), fidelity="counts"),
        dict(ones=Count(0, 3), trials=Count(1000), fidelity=FIDELITY),
    ),
    "minimal_params": Row(
        sc.minimal_params,
        dict(epsilon=1.0, noise_epsilon=0.5, drop_prob=0.01, n_users=3, slack=0.5),
        dict(
            epsilon=EPSILON, noise_epsilon=Real(), drop_prob=DROP_PROB, n_users=Count(1),
            slack=SLACK,
        ),
    ),
    "mse_bound": Row(sc.mse_bound, dict(params=P3)),
    "nb_logpmf": Row(
        oracles.nb_logpmf, dict(r=0.5, p=0.4, k=3), dict(r=Real(), p=PROB, k=Points())
    ),
    "poi_logpmf": Row(sc.poi_logpmf, dict(mean=2.5, k=3), dict(mean=Real(), k=Points())),
    "randomize": Row(protocol.randomize, dict(x=1, params=P3, rng=rng()), dict(x=Count(0, 1))),
    "run_counting": Row(
        sc.run_counting, dict(xs=[1, 0, 1], params=P3, rng=rng()), dict(xs=Array(0, 1))
    ),
    "run_histogram": Row(
        sc.run_histogram,
        dict(xs=BUCKETS, n_buckets=4, epsilon=1.0, slack=0.5, rng=rng(), fidelity="message"),
        dict(
            xs=Array(0, 3), n_buckets=Count(1), epsilon=HISTOGRAM_EPSILON, slack=SLACK,
            fidelity=FIDELITY,
        ),
    ),
    "run_real_sum": Row(
        sc.run_real_sum,
        dict(xs=REALS, epsilon=1.0, slack=0.5, n_bits=2, rng=rng(), fidelity="message"),
        dict(
            xs=Array(0.0, 1.0, real=True), epsilon=Real(), slack=SLACK, n_bits=Count(1),
            fidelity=FIDELITY,
        ),
    ),
    "sample_dlap": Row(
        oracles.sample_dlap, dict(a=0.5, rng=rng(), size=3), dict(a=Real(), size=Shape())
    ),
    "sample_estimate": Row(
        oracles.sample_estimate,
        dict(ones=2, params=P3, rng=rng(), size=None),
        dict(ones=Count(0, 3), size=Count(1)),
    ),
    "sample_geo": Row(
        oracles.sample_geo, dict(p=0.4, rng=rng(), size=3), dict(p=PROB, size=Shape())
    ),
    "sample_nb": Row(
        sc.sample_nb,
        dict(r=0.5, p=0.4, rng=rng(), size=4),
        dict(r=Real(), p=PROB, size=Shape()),
    ),
    "sample_poi": Row(
        sc.sample_poi, dict(mean=2.5, rng=rng(), size=3), dict(mean=Real(), size=Shape())
    ),
    "shuffle": Row(
        protocol.shuffle, dict(contributions=[protocol.Contribution(18, 17, 0, 1, 2)], rng=rng())
    ),
    "split_budget": Row(
        sc.split_budget, dict(epsilon=1.0, k=3), dict(epsilon=Real(), k=Count(1))
    ),
    "view_logpmf_grid": Row(
        audit.view_logpmf_grid,
        dict(ds=DS, params=P3, i_max=40, j_max=36),
        dict(i_max=Count(), j_max=Count()),
    ),
    "view_of": Row(oracles.view_of, dict(messages=[1, -1, 1])),
    # trial functions and helpers called across modules
    "run_trials": Row(
        protocol.run_trials,
        dict(inputs=[2, 0], instances=[P3, P3], trials=2, rng=rng(), fidelity="message"),
        # one count of ones per instance, each at most P3.n_users
        dict(inputs=Array(0, 3), trials=Count(1), fidelity=FIDELITY),
    ),
    "estimate_trials": Row(
        protocol.estimate_trials,
        dict(ones=1, params=P3, trials=2, rng=rng(), fidelity="message"),
        dict(ones=Count(0, 3), trials=Count(1), fidelity=FIDELITY),
    ),
    "simulate_views": Row(
        protocol.simulate_views,
        dict(ones=1, params=P3, trials=2, rng=rng()),
        dict(ones=Count(0, 3), trials=Count(1)),
    ),
    "message_count_trials": Row(
        protocol.message_count_trials,
        dict(x=1, params=P3, trials=2, rng=rng()),
        dict(x=Count(0, 1), trials=Count(1)),
    ),
    "real_sum_trials": Row(
        composition.real_sum_trials,
        dict(xs=REALS, epsilon=1.0, slack=0.5, n_bits=2, trials=2, rng=rng(), fidelity="counts"),
        dict(
            xs=Array(0.0, 1.0, real=True), epsilon=Real(), slack=SLACK, n_bits=Count(1),
            trials=Count(1), fidelity=FIDELITY,
        ),
    ),
    "histogram_trials": Row(
        composition.histogram_trials,
        dict(
            xs=BUCKETS, n_buckets=4, epsilon=1.0, slack=0.5, trials=2, rng=rng(),
            fidelity="counts",
        ),
        dict(
            xs=Array(0, 3), n_buckets=Count(1), epsilon=HISTOGRAM_EPSILON, slack=SLACK,
            trials=Count(1), fidelity=FIDELITY,
        ),
    ),
    "real_sum_params": Row(
        composition.real_sum_params,
        dict(epsilon=1.0, slack=0.5, n_bits=2, n_users=100),
        dict(epsilon=Real(), slack=SLACK, n_bits=Count(1), n_users=Count(1)),
    ),
    "histogram_params": Row(
        composition.histogram_params,
        dict(epsilon=1.0, slack=0.5, n_users=100),
        dict(epsilon=HISTOGRAM_EPSILON, slack=SLACK, n_users=Count(1)),
    ),
    "decode_bits": Row(oracles.decode_bits, dict(bits=[1, 0, 1]), dict(bits=Array(0, 1))),
    "tag_bits": Row(
        composition.tag_bits, dict(num_instances=5), dict(num_instances=Count(1))
    ),
    "gof_integer_samples": Row(
        oracles.gof_integer_samples,
        dict(samples=[0, 1, 0, 2, 0, 1] * 10, logpmf=geo_half),
        dict(samples=Array(0, math.inf)),
    ),
}

EXTRAS = {
    "run_trials", "estimate_trials", "simulate_views", "real_sum_trials", "histogram_trials",
    "message_count_trials", "split_budget", "tag_bits", "real_sum_params", "histogram_params",
}
#: the scalar references and the exact grid oracle, public in their modules only
REFERENCES = {"Contribution", "DatasetSummary", "randomize", "shuffle", "view_logpmf_grid"}
ORACLES = {
    "crossvalidate_views", "decode_bits", "encode_real", "exact_view_logpmf", "geo_logpmf",
    "gof_integer_samples", "nb_logpmf", "sample_dlap", "sample_estimate", "sample_geo",
    "view_of",
}


def test_every_public_name_has_a_row():
    assert set(ROWS) == set(sc.__all__) | EXTRAS | ORACLES | REFERENCES
    assert not REFERENCES & set(sc.__all__)


@pytest.mark.parametrize("name", [name for name, row in ROWS.items() if row.valid is not None])
def test_valid_call_runs(name):
    row = ROWS[name]
    row.call(**row.valid)


@pytest.mark.parametrize(
    "name,param,value",
    [
        pytest.param(name, param, value, id=f"{name}-{param}-{value!r:.30}")
        for name, row in ROWS.items()
        for param, kind in row.kinds.items()
        for value in kind.bad(row.valid[param])
    ],
)
def test_bad_value_raises_parameter_error(name, param, value):
    row = ROWS[name]
    with pytest.raises(ParameterError):
        row.call(**{**row.valid, param: value})


@pytest.mark.parametrize(
    "name,param",
    [
        pytest.param(name, param, id=f"{name}-{param}")
        for name, row in ROWS.items()
        for param, kind in row.kinds.items()
        if isinstance(kind, (Count, Real, Array, Shape, Points))
        and isinstance(row.valid[param], (int, float, list))
    ],
)
def test_numpy_values_are_accepted(name, param):
    # np.int64 wherever a count is taken, np.float64 for a real, arrays for lists
    row = ROWS[name]
    row.call(**{**row.valid, param: np.asarray(row.valid[param])[()]})


def test_legal_edge_cases_still_run():
    # the n = 1 reduction: the audit and the oracle at n_users != params.n_users
    assert sc.divergence_audit(1, P3).passed
    assert audit.view_logpmf_grid(audit.DatasetSummary(0, 1), P3, 5, 5).shape == (6, 6)
    # the audit's negative control
    assert sc.ProtocolParams(3, 1.0, 0.5, 0.0, 17, 127.0).drop_prob == 0.0
    # off-support points of the exact oracle
    assert oracles.exact_view_logpmf(DS, P3, -1, 3) == -math.inf
    assert oracles.exact_view_logpmf(DS, P3, 3, -2) == -math.inf
    # off-support and grid-shaped log-PMF points, sampler shapes of any rank
    assert oracles.geo_logpmf(0.5, -1) == sc.poi_logpmf(2.5, -3) == -math.inf
    assert oracles.nb_logpmf(0.5, 0.4, np.arange(6).reshape(2, 3)).shape == (2, 3)
    assert sc.sample_nb(0.5, 0.4, rng(), size=[2, 0]).shape == (2, 0)
    assert sc.sample_poi(2.5, rng(), size=(2, 3)).shape == (2, 3)


def test_validated_inputs_are_dataclasses_and_results_named_tuples():
    # a dataclass where construction validates, a NamedTuple where a record carries a result
    import shufflecount.cli  # noqa: F401  (every module of the package)

    classes = {
        obj
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "shufflecount"
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == name
    }
    assert {c.__name__ for c in classes if is_dataclass(c)} == {"ProtocolParams", "DatasetSummary"}
    assert {c.__name__ for c in classes if issubclass(c, tuple)} == {
        "Contribution", "View", "CountingRun", "ConditionCheck", "AuditReport", "RatioCheck",
        "MseMeasurement", "CommMeasurement", "RealSumRun", "HistogramRun",
    }
