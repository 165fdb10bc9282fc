"""Numerical verification of the protocol's privacy, utility and communication.

The centerpiece is an exact oracle for the shuffler's view distribution. For
a dataset with ``n0`` zeros and ``n1`` ones the view ``(V_plus, V_minus)``
decomposes as

    V_plus  = (a0 + a1) * pad + a1 + w + g1
    V_minus = (a0 + a1) * pad      + w + g2

with ``a0 ~ Bin(n0, 1-q)``, ``a1 ~ Bin(n1, 1-q)`` the numbers of
participating users, ``w ~ Poisson(flood_mean)`` the pooled flooding count
and ``g1, g2`` independent geometrics (the pooled noise shares; pooling is
exact because the per-user shares are the n-divided forms). All inner sums
are finite, so the oracle is exact up to floating point; only the grid over
``(i, j)`` is truncated, and the mass left outside it is reported.

The oracle needs no 2-D pass per participation pair. With ``m = a0 + a1``
and ``C`` the running logaddexp of the flood terms, the pair's term at
``(i, j)`` is ``2 log p - eta (i + j) + eta (2 m pad + a1) + C[t - m pad]``
with ``t = min(i - a1, j)``. So the mixture over ``a0`` is a 1-D log-sum
``g`` of ``t`` for each ``a1``, and its grid is a staircase: row ``i`` reads
``g[j]`` left of column ``i - a1`` and the constant ``g[i - a1]`` from there
on. A grid costs ``n1 + 1`` broadcast passes, one per ``a1``.

The divergence audit compares the exact view distributions of the
neighboring pair ``(1, 0, ..., 0)`` vs ``(0, ..., 0)`` over a grid covering
almost all of both masses, and builds no grid. With ``h`` the mixture over
the zero-input users (``h_n`` for ``x'``, ``h_{n-1}`` beside the one-input
user for ``x``), both views are ``2 log p - eta (i + j)`` plus a profile:
``h_n[min(i, j)]`` for ``x'``, and for ``x`` the terms ``a1 = 0`` and
``a1 = 1`` read at ``min(i, j)`` and ``min(i - 1, j)``. Below the diagonal
(``j < i``) both read ``t = j``; on or above it ``t = i`` and ``t - 1``. So
the log ratio is one constant per class (side, ``t = min(i, j)``), and a
class's mass is its cell nearest the diagonal times a geometric partial sum
over its row or column. Sup, masses, support and mass floor all come from
1-D arrays of length ``min(i_max, j_max) + 1``. The audit is an empirical
certification for regression detection, not a proof: the guarantee over the
infinite support is the protocol's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import (
    NEG_INF,
    RandomSource,
    _check_prob,
    dlap_variance,
    geo_mean,
    geo_success_prob,
)
from .errors import AuditInconclusiveError, ParameterError
from .params import ProtocolParams
from .protocol import estimate_trials, message_count_trials, simulate_views

DEFAULT_COVERAGE = 1.0 - 1e-9
DEFAULT_MASS_FLOOR = 1e-30
DEFAULT_TOLERANCE = 1e-6
DEFAULT_GRID_CAP = 4096
#: Goodness-of-fit cells expecting fewer samples are lumped into one cell.
MIN_EXPECTED = 10.0


@dataclass(frozen=True)
class DatasetSummary:
    """Input multiset summary; the view law depends on inputs only through it."""

    zeros: int
    ones: int

    def __post_init__(self):
        if self.zeros < 0 or self.ones < 0 or self.zeros + self.ones < 1:
            raise ParameterError("dataset must have non-negative counts, n >= 1")

    @property
    def n(self) -> int:
        return self.zeros + self.ones


def _binom_logpmf(n: int, p: float, k: np.ndarray) -> np.ndarray:
    from scipy.special import gammaln, xlogy

    k = np.asarray(k)
    return (
        gammaln(n + 1)
        - gammaln(k + 1)
        - gammaln(n - k + 1)
        + xlogy(k, p)
        + xlogy(n - k, 1.0 - p)
    )


def _zero_mixture(zeros: int, params: ProtocolParams, t_max: int) -> np.ndarray:
    """The mixture over ``a0`` of ``zeros`` users, as a 1-D log profile of ``t``.

    ``h[t] = log sum_a0 Bin(a0) e^{2 eta a0 pad} C[t - a0 pad]`` on
    ``[0, t_max]``, with ``C[t] = log sum_{w <= t} e^{2 eta w} Poi(w)`` the
    running flood sum: the view law at ``a1 = 0`` up to ``2 log p -
    eta (i + j)``. The terms of ``a1 > 0`` are shifts of it.
    """
    from scipy.special import gammaln

    eta = params.noise_epsilon
    pad = params.pad_count
    w = np.arange(t_max + 1)
    flood = np.logaddexp.accumulate(
        w * (math.log(params.flood_mean) + 2.0 * eta)
        - params.flood_mean
        - gammaln(w + 1)
    )
    h = np.full(t_max + 1, NEG_INF)
    keep = 1.0 - params.drop_prob
    for a0, lw in enumerate(_binom_logpmf(zeros, keep, np.arange(zeros + 1))):
        s = a0 * pad
        if lw == NEG_INF or s > t_max:
            continue
        np.logaddexp(h[s:], lw + 2.0 * eta * s + flood[: t_max + 1 - s], out=h[s:])
    return h


def view_logpmf_grid(
    ds: DatasetSummary, params: ProtocolParams, i_max: int, j_max: int
) -> np.ndarray:
    """Exact view log-PMF on the rectangle ``[0, i_max] x [0, j_max]``.

    Built by the staircase identity of the module docstring: one 1-D
    log-sum ``h`` over ``a0`` (:func:`_zero_mixture`), shifted for each
    ``a1`` to ``g``, whose grid row ``i`` reads ``g[j]`` for ``j < i - a1``
    and ``g[i - a1]`` from there on. That is ``n1 + 1`` grid passes and one
    ``-eta (i + j)`` add; every sum is finite.
    """
    eta = params.noise_epsilon
    pad = params.pad_count
    t_max = min(i_max, j_max)
    h = _zero_mixture(ds.zeros, params, t_max)
    i = np.arange(i_max + 1)
    j = np.arange(j_max + 1)
    acc = None
    keep = 1.0 - params.drop_prob
    for a1, lw in enumerate(_binom_logpmf(ds.ones, keep, np.arange(ds.ones + 1))):
        s = a1 * pad
        if lw == NEG_INF or s > t_max:
            continue
        g = np.full(max(i_max, j_max) + 1, NEG_INF)
        g[s : t_max + 1] = lw + eta * (2 * s + a1) + h[: t_max + 1 - s]
        col = np.full(i_max + 1, NEG_INF)
        col[a1:] = g[: i_max + 1 - a1]
        term = np.where(j < (i - a1)[:, None], g[: j_max + 1], col[:, None])
        acc = term if acc is None else np.logaddexp(acc, term, out=acc)
    if acc is None:
        return np.full((i_max + 1, j_max + 1), NEG_INF)
    acc += (2.0 * math.log(geo_success_prob(eta)) - eta * i)[:, None]
    acc -= eta * j
    return acc


def exact_view_logpmf(
    ds: DatasetSummary, params: ProtocolParams, i: int, j: int
) -> float:
    """Exact log-probability that the view equals ``(i, j)``.

    Point evaluation with its own finite sums (independent of the grid code
    path, which the tests cross-check against this one).
    """
    from scipy.special import gammaln, logsumexp

    if i < 0 or j < 0:
        return NEG_INF
    eta = params.noise_epsilon
    p = geo_success_prob(eta)
    log_flood_mean = math.log(params.flood_mean)
    keep = 1.0 - params.drop_prob
    terms = []
    for a0 in range(ds.zeros + 1):
        for a1 in range(ds.ones + 1):
            lw = float(
                _binom_logpmf(ds.zeros, keep, np.asarray(a0))
                + _binom_logpmf(ds.ones, keep, np.asarray(a1))
            )
            if lw == NEG_INF:
                continue
            a = i - (a0 + a1) * params.pad_count - a1
            b = j - (a0 + a1) * params.pad_count
            if a < 0 or b < 0:
                continue
            w = np.arange(min(a, b) + 1)
            inner = (
                w * (log_flood_mean + 2.0 * eta)
                - params.flood_mean
                - gammaln(w + 1)
            )
            terms.append(
                lw + 2.0 * math.log(p) - eta * (a + b) + logsumexp(inner)
            )
    if not terms:
        return NEG_INF
    return float(logsumexp(terms))


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a grid-restricted max-divergence audit."""

    sup_abs_log_ratio: float
    epsilon_target: float
    mass_covered_x: float
    mass_covered_xprime: float
    grid_i_max: int
    grid_j_max: int
    passed: bool
    support_mismatch: bool
    excluded_mass_bound: float
    coverage: float
    mass_floor: float
    tolerance: float
    n_users: int

    def to_json_dict(self) -> dict:
        return {
            "sup_abs_log_ratio": self.sup_abs_log_ratio,
            "eps_target": self.epsilon_target,
            "mass_covered_x": self.mass_covered_x,
            "mass_covered_xprime": self.mass_covered_xprime,
            "grid": {"i_max": self.grid_i_max, "j_max": self.grid_j_max},
            "pass": self.passed,
            "excluded_mass_bound": self.excluded_mass_bound,
            "support_mismatch": self.support_mismatch,
            "coverage": self.coverage,
            "mass_floor": self.mass_floor,
            "tolerance": self.tolerance,
            "n_users": self.n_users,
        }


def _check_tolerance(tolerance: float) -> None:
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ParameterError(f"tolerance must be finite and >= 0, got {tolerance}")


def _grid_bounds(
    params: ProtocolParams, n_users: int, tail: float
) -> tuple[int, int]:
    from scipy.special import pdtr, pdtrik

    p = geo_success_prob(params.noise_epsilon)
    # the Poisson (1 - tail)-quantile by scipy.stats.poisson.ppf's own recipe
    flood_q = math.ceil(pdtrik(1.0 - tail, params.flood_mean))
    if flood_q >= 1 and pdtr(flood_q - 1, params.flood_mean) >= 1.0 - tail:
        flood_q -= 1
    flood_q += 2
    noise_q = int(math.log(tail) / math.log1p(-p)) + 2
    i_max = n_users * (params.pad_count + 1) + flood_q + noise_q
    j_max = n_users * params.pad_count + flood_q + noise_q
    return i_max, j_max


def divergence_audit(
    n_users: int,
    params: ProtocolParams,
    coverage: float = DEFAULT_COVERAGE,
    mass_floor: float = DEFAULT_MASS_FLOOR,
    tolerance: float = DEFAULT_TOLERANCE,
    grid_cap: int = DEFAULT_GRID_CAP,
) -> AuditReport:
    """Audit the privacy guarantee on the canonical neighboring pair.

    Compares the exact view distributions of ``(1, 0, ..., 0)`` against
    ``(0, ..., 0)`` over one grid, sized from tail quantiles of the flood and
    noise draws to hold at least ``coverage`` of both masses. The supremum of
    the absolute log-ratio is taken over grid points where either PMF reaches
    ``mass_floor``; disjoint-support points (one PMF exactly zero where the
    other is positive) are reported separately and force an unbounded ratio,
    whatever their mass. The audit passes when the supremum is at most
    ``params.epsilon + tolerance``.

    No grid is built. The cells below the diagonal with ``j = t`` share one
    log ratio, as do the cells on or above it with ``i = t`` (module
    docstring), so each class (side, ``t``) is one entry of a 1-D profile:
    its mass is ``p^2 e^profile`` times ``sum_{i=t+1}^{i_max} e^{-eta (i + t)}``
    below or ``sum_{j=t}^{j_max} e^{-eta (t + j)}`` above, its cell nearest
    the diagonal, ``(t + 1, t)`` or ``(t, t)``, decides the mass floor, and
    it is off the support iff its profile is.

    Raises
    ------
    ParameterError
        If ``coverage`` is outside (0, 1), ``mass_floor`` outside (0, 1],
        ``tolerance`` negative or not finite, or ``grid_cap`` below 1.
    AuditInconclusiveError
        If the grid exceeds ``grid_cap``, or holds less than ``coverage`` of
        either mass (a coverage closer to 1 than floating point resolves);
        this is neither a pass nor a fail.
    """
    if n_users < 1:
        raise ParameterError(f"n_users must be >= 1, got {n_users}")
    if not 0.0 < coverage < 1.0:
        raise ParameterError(f"coverage must lie in (0, 1), got {coverage}")
    if not 0.0 < mass_floor <= 1.0:
        raise ParameterError(f"mass_floor must lie in (0, 1], got {mass_floor}")
    _check_tolerance(tolerance)
    if grid_cap < 1:
        raise ParameterError(f"grid_cap must be >= 1, got {grid_cap}")

    # Three tail quantiles bound each mass outside the grid by 3/8 (1 - coverage)
    # in exact arithmetic, so a grid short of coverage is floating point's limit.
    tail = (1.0 - coverage) / 8.0
    if 1.0 - tail == 1.0:
        raise AuditInconclusiveError(f"coverage {coverage} beyond floating point")
    i_max, j_max = _grid_bounds(params, n_users, tail)
    if max(i_max, j_max) > grid_cap:
        raise AuditInconclusiveError(
            f"coverage {coverage} not reachable within grid cap {grid_cap}"
        )
    eta = params.noise_epsilon
    pad = params.pad_count
    t_max = min(i_max, j_max)
    # the one-input user's terms a1 = 0 and 1 over the other n - 1 users'
    # mixture, read at min(i, j) and min(i - 1, j)
    h = _zero_mixture(n_users - 1, params, t_max)
    lw0, lw1 = _binom_logpmf(1, 1.0 - params.drop_prob, np.arange(2))
    g0 = lw0 + h
    # g1[u + 1] is the a1 = 1 term at u = min(i - 1, j): t below the
    # diagonal, t - 1 on or above it
    g1 = np.full(t_max + 2, NEG_INF)
    if pad <= t_max:
        g1[pad + 1 :] = lw1 + eta * (2 * pad + 1) + h[: t_max + 1 - pad]
    h_xp = _zero_mixture(n_users, params, t_max)
    # classes (side, t): t = j below the diagonal (j < i), t = i on or above
    # it; every cell of a class is its profile minus eta (i + j)
    n_below = min(j_max + 1, i_max)
    t = np.arange(t_max + 1)
    lf_x = np.concatenate((
        np.logaddexp(g0[:n_below], g1[1 : n_below + 1]),
        np.logaddexp(g0, g1[:-1]),
    ))
    lf_xp = np.concatenate((h_xp[:n_below], h_xp))
    # each class's cell nearest the diagonal, (t + 1, t) below and (t, t)
    # above, and its cell count, rows t + 1 .. i_max or columns t .. j_max
    i = np.concatenate((t[:n_below] + 1, t))
    j = np.concatenate((t[:n_below], t))
    cells = np.concatenate((i_max - t[:n_below], j_max + 1 - t))
    log_p = math.log(geo_success_prob(eta))
    near = 2.0 * log_p - eta * i
    near_x = lf_x + near - eta * j
    near_xp = lf_xp + near - eta * j
    # a class's mass is its nearest cell times a geometric partial sum; the
    # log weight goes in before exp, so every term is a log-probability
    span = np.log(-np.expm1(-eta * cells)) - log_p
    mass_x = float(np.exp(near_x + span).sum())
    mass_xp = float(np.exp(near_xp + span).sum())
    if not (mass_x >= coverage and mass_xp >= coverage):  # so is a NaN mass
        raise AuditInconclusiveError(
            f"coverage {coverage} beyond floating point: grid mass {min(mass_x, mass_xp)!r}"
        )

    inf_x = np.isneginf(lf_x)
    inf_xp = np.isneginf(lf_xp)
    support_mismatch = bool(np.any(inf_x != inf_xp))

    # a class reaches the floor iff its cell nearest the diagonal does
    log_floor = math.log(mass_floor)
    mask = ((near_x >= log_floor) | (near_xp >= log_floor)) & ~(inf_x & inf_xp)
    if support_mismatch:
        sup = math.inf
    elif np.any(mask):
        sup = float(np.max(np.abs(lf_x[mask] - lf_xp[mask])))
    else:
        sup = 0.0

    passed = not support_mismatch and sup <= params.epsilon + tolerance
    return AuditReport(
        sup_abs_log_ratio=sup,
        epsilon_target=params.epsilon,
        mass_covered_x=mass_x,
        mass_covered_xprime=mass_xp,
        grid_i_max=i_max,
        grid_j_max=j_max,
        passed=passed,
        support_mismatch=support_mismatch,
        excluded_mass_bound=max(0.0, 1.0 - min(mass_x, mass_xp)),
        coverage=coverage,
        mass_floor=mass_floor,
        tolerance=tolerance,
        n_users=n_users,
    )


@dataclass(frozen=True)
class RatioCheck:
    """Result of an exhaustive single-step ratio inequality check."""

    ok: bool
    worst_margin: float
    worst_index: int
    i_max: int
    tolerance: float


def check_geo_ratio(
    noise_epsilon: float, i_max: int, tolerance: float = 1e-9
) -> RatioCheck:
    """Verify ``f(i-1) <= e^eta f(i)`` for the geometric noise on ``[0, i_max]``.

    The margin ``eta - (ln f(i-1) - ln f(i))`` is identically zero in exact
    arithmetic for ``i >= 1`` (and infinite at ``i = 0``), so the check is a
    floating-point regression guard with slack ``tolerance``. The computed
    margin is also one value for every ``i >= 1``, so only ``i = 0`` and
    ``i = 1`` are evaluated.
    """
    if noise_epsilon <= 0.0:
        raise ParameterError("noise_epsilon must be positive")
    if i_max < 0:
        raise ParameterError(f"i_max must be >= 0, got {i_max}")
    _check_tolerance(tolerance)
    p = geo_success_prob(noise_epsilon)
    _check_prob(f"success probability 1 - exp(-{noise_epsilon})", p)  # rounds to 1 above ~37
    i = np.arange(min(i_max, 1) + 1)
    # ln f(i-1) - ln f(i) = -log1p(-p) for i >= 1; -inf margin never occurs
    step = np.where(i >= 1, -math.log1p(-p), NEG_INF)
    margins = noise_epsilon - step
    worst = int(np.argmin(margins))
    return RatioCheck(
        ok=bool(margins[worst] >= -tolerance),
        worst_margin=float(margins[worst]),
        worst_index=worst,
        i_max=i_max,
        tolerance=tolerance,
    )


def check_poi_ratio(
    params: ProtocolParams, i_max: int | None = None, tolerance: float = 1e-9
) -> RatioCheck:
    """Verify the flooding inequality on ``[0, i_max]``.

    Checks ``(e^eps - 1) q f(i + pad) + e^{eps - eta} f(i - 1) >= f(i)`` for
    the Poisson flood PMF ``f``. Divided by ``f(i)``, the margin is

        log((e^eps - 1) q lam^pad / prod_{k=1}^{pad} (i + k) + e^{eps - eta} i / lam)

    The function ``F`` inside the log is convex in ``i``, so its integer
    minimum on the range is the first point whose forward difference is not
    negative, found by bisection: ``O(log i_max)`` points, never the range.
    The default range extends to ``flood_mean + 20 sqrt(flood_mean) + pad``.
    """
    lam, s = params.flood_mean, params.pad_count
    if i_max is None:
        i_max = math.ceil(lam + 20.0 * math.sqrt(lam) + s)
    if i_max < 0:
        raise ParameterError(f"i_max must be >= 0, got {i_max}")
    _check_tolerance(tolerance)
    if params.drop_prob > 0.0:
        log_drop_coef = math.log(math.expm1(params.epsilon)) + math.log(
            params.drop_prob
        )
    else:
        log_drop_coef = NEG_INF
    log_down_coef = params.epsilon - params.noise_epsilon

    def log_rise(i: int, m: int) -> float:
        # sum_{k=1}^{m} log((i + k) / lam) term by term: no large gammaln cancels
        return float(np.log((np.arange(1.0, m + 1.0) + i) / lam).sum())

    # F(i + 1) >= F(i) iff log_rise(i, pad + 1) >= log((e^eps - 1) q pad /
    # e^{eps - eta}); log_rise grows with i, also in floating point
    log_turn = log_drop_coef + math.log(s) - log_down_coef
    lo, hi = 0, i_max
    while lo < hi:
        mid = (lo + hi) // 2
        if log_rise(mid, s + 1) >= log_turn:
            hi = mid
        else:
            lo = mid + 1
    term_down = log_down_coef + math.log(lo / lam) if lo > 0 else NEG_INF
    worst_margin = float(np.logaddexp(log_drop_coef - log_rise(lo, s), term_down))
    return RatioCheck(
        ok=worst_margin >= -tolerance,
        worst_margin=worst_margin,
        worst_index=lo,
        i_max=i_max,
        tolerance=tolerance,
    )


def exact_mse(params: ProtocolParams, ones: int) -> float:
    """Closed-form MSE of the estimator on a dataset with ``ones`` ones."""
    q = params.drop_prob
    return (
        dlap_variance(params.noise_epsilon)
        + ones * q * (1.0 - q)
        + (ones * q) ** 2
    )


def mse_bound(params: ProtocolParams) -> float:
    """Data-independent MSE upper bound (worst case over ones counts)."""
    q, n = params.drop_prob, params.n_users
    return dlap_variance(params.noise_epsilon) + q * n + q * q * n * (n - 1)


def exact_mean_messages(params: ProtocolParams, x: int) -> float:
    """Expected messages one user with input ``x`` sends."""
    p = geo_success_prob(params.noise_epsilon)
    return (
        (1.0 - params.drop_prob) * (2 * params.pad_count + x)
        + 2.0 * geo_mean(p) / params.n_users
        + 2.0 * params.flood_mean / params.n_users
    )


def messages_bound(params: ProtocolParams) -> float:
    """Upper bound on the per-user expected message count.

    ``2 pad + 1 + 2 flood_mean / n + 2 E[geo] / n``: the flood term appears
    twice because every flooding draw emits one +1 and one -1 message.
    """
    p = geo_success_prob(params.noise_epsilon)
    return (
        2 * params.pad_count
        + 1
        + 2.0 * params.flood_mean / params.n_users
        + 2.0 * geo_mean(p) / params.n_users
    )


@dataclass(frozen=True)
class MseMeasurement:
    empirical_mse: float
    std_err: float
    exact: float
    bound: float
    trials: int
    fidelity: str


@dataclass(frozen=True)
class CommMeasurement:
    empirical_mean: float
    std_err: float
    exact: float
    bound: float
    trials: int


def measure_mse(
    params: ProtocolParams,
    ds: DatasetSummary,
    trials: int,
    rng: RandomSource,
    fidelity: str = "message",
) -> MseMeasurement:
    """Monte Carlo MSE against the closed-form law and its bound.

    At ``message`` fidelity every trial is a full pooled run: the randomizer's
    draws, then the analyzer on their per-code totals. Requires at least 1000
    trials for the standard error to mean anything.
    """
    if trials < 1000:
        raise ParameterError(f"trials must be >= 1000, got {trials}")
    if ds.n != params.n_users:
        raise ParameterError("dataset size must match params.n_users")
    estimates = estimate_trials(ds.zeros, ds.ones, params, trials, rng, fidelity=fidelity)
    sq_err = (estimates - ds.ones).astype(np.float64) ** 2
    return MseMeasurement(
        empirical_mse=float(sq_err.mean()),
        std_err=float(sq_err.std(ddof=1) / math.sqrt(trials)),
        exact=exact_mse(params, ds.ones),
        bound=mse_bound(params),
        trials=trials,
        fidelity=fidelity,
    )


def measure_comm(
    params: ProtocolParams, x: int, trials: int, rng: RandomSource
) -> CommMeasurement:
    """Monte Carlo per-user message count against its expectation and bound."""
    if trials < 1000:
        raise ParameterError(f"trials must be >= 1000, got {trials}")
    counts = message_count_trials(x, params, trials, rng).astype(np.float64)
    return CommMeasurement(
        empirical_mean=float(counts.mean()),
        std_err=float(counts.std(ddof=1) / math.sqrt(trials)),
        exact=exact_mean_messages(params, x),
        bound=messages_bound(params),
        trials=trials,
    )


@dataclass(frozen=True)
class GofResult:
    """Chi-square goodness-of-fit outcome."""

    statistic: float
    pvalue: float
    dof: int
    cells: int


def _lumped_chisquare(
    observed: np.ndarray, expected: np.ndarray, total: int
) -> GofResult:
    """Chi-square test of ``total`` samples over lumped cells.

    Cells expecting at least ``MIN_EXPECTED`` samples are kept; one remainder
    cell lumps all other mass.
    """
    from scipy.special import chdtrc

    sel = expected >= MIN_EXPECTED
    f_obs = np.append(observed[sel], total - observed[sel].sum())
    f_exp = np.append(expected[sel], total - expected[sel].sum())
    statistic = float(np.sum((f_obs - f_exp) ** 2 / f_exp))
    return GofResult(
        statistic=statistic,
        pvalue=float(chdtrc(f_obs.size - 1, statistic)),
        dof=f_obs.size - 1,
        cells=f_obs.size,
    )


def gof_integer_samples(samples: np.ndarray, logpmf) -> GofResult:
    """Chi-square test of non-negative integer samples against an exact PMF.

    Cells with expected count below ``MIN_EXPECTED`` are lumped into a single
    remainder cell (which also absorbs all mass beyond the observed range).
    """
    samples = np.asarray(samples)
    n = samples.size
    k_max = int(samples.max())
    ks = np.arange(k_max + 1)
    expected = np.exp(logpmf(ks)) * n
    observed = np.bincount(samples, minlength=k_max + 1).astype(np.float64)
    return _lumped_chisquare(observed, expected, n)


def crossvalidate_views(
    ds: DatasetSummary,
    params: ProtocolParams,
    trials: int,
    rng: RandomSource,
) -> GofResult:
    """Chi-square simulated views (per-user sampling) against the exact oracle.

    The two routes are independent: simulation composes per-user randomizer
    draws, the oracle evaluates the pooled convolution in closed form.
    """
    v_plus, v_minus = simulate_views(ds.zeros, ds.ones, params, trials, rng)
    bound_i, bound_j = _grid_bounds(params, ds.n, 1e-12)
    i_max = max(int(v_plus.max()), bound_i)
    j_max = max(int(v_minus.max()), bound_j)
    grid = view_logpmf_grid(ds, params, i_max, j_max)
    expected = np.exp(grid) * trials
    observed = np.zeros_like(expected)
    np.add.at(observed, (v_plus, v_minus), 1.0)
    return _lumped_chisquare(observed, expected, trials)


def max_log_ratio(pmf_1: np.ndarray, pmf_2: np.ndarray) -> float:
    """Max over the support of ``pmf_1`` of ``ln(pmf_1 / pmf_2)``.

    Infinite when ``pmf_1`` puts mass where ``pmf_2`` has none. The two
    arrays must be aligned over the same outcome set.
    """
    pmf_1 = np.asarray(pmf_1, dtype=np.float64)
    pmf_2 = np.asarray(pmf_2, dtype=np.float64)
    support = pmf_1 > 0.0
    if not np.any(support):
        return NEG_INF
    if np.any(pmf_2[support] == 0.0):
        return math.inf
    return float(np.max(np.log(pmf_1[support]) - np.log(pmf_2[support])))
