"""Numerical verification of the protocol's privacy, utility and communication.

The centerpiece is an exact divergence audit of the shuffler's view. For a
dataset with ``n0`` zeros and ``n1`` ones the view ``(V_plus, V_minus)``
decomposes as

    V_plus  = (a0 + a1) * pad + a1 + w + g1
    V_minus = (a0 + a1) * pad      + w + g2

with ``a0 ~ Bin(n0, 1-q)``, ``a1 ~ Bin(n1, 1-q)`` the numbers of
participating users, ``w ~ Poisson(flood_mean)`` the pooled flooding count
and ``g1, g2`` independent geometrics (the pooled noise shares; pooling is
exact because the per-user shares are the n-divided forms). All inner sums
are finite, so the audit is exact up to floating point; only the region of
``(i, j)`` it examines is truncated, and the mass left outside is reported.

The audit compares ``x = (1, 0, ..., 0)`` with ``x' = (0, ..., 0)`` and
builds no grid. With ``p = 1 - e^{-eta}`` and ``t = min(i, j)``, each view's
log law at ``(i, j)`` is ``2 log p - eta (i + j) + 2 eta t`` plus a profile
of ``t`` alone: measured against the diagonal's tilt ``e^{2 eta t}``, every
profile is O(1), and only the flood profile (:func:`_flood_profile`) knows
``lam``. So the log ratio is one constant per class (side, ``t``): side 0
holds the cells ``(i, t)`` below the diagonal, ``i = t + 1 .. i_max``, and
side 1 the cells ``(t, j)`` on or above it, ``j = t .. j_max``.

The region bounds the plus count by ``n (pad + 1)`` and the minus count by
``n pad``, each plus the same flood and noise tails (Bennett's bound and the
geometric tail), so ``i_max = j_max + n``. Each side has ``T = j_max + 1``
classes and each view's profile is one ``(2, T)`` array, ``x'``'s the same
on both sides. A class's mass is its profile times a geometric partial sum
over its rows or columns from the cell nearest the diagonal, ``(t + 1, t)``
or ``(t, t)``, where the tilt cancels ``-eta (i + j)``; its log weight is

    log p - eta [1, 0] + log(1 - e^{-eta [i_max - t, j_max + 1 - t]})

Sup, masses and support all come from these arrays, and the sup runs over
every class either view reaches. The audit is an empirical certification
for regression detection, not a proof: the guarantee over the infinite
support is the protocol's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dist import (
    NEG_INF,
    RandomSource,
    dlap_variance,
    geo_mean,
    geo_success_prob,
    poi_logpmf,
)
from .errors import AuditInconclusiveError, ParameterError, check_count, check_real
from .params import ProtocolParams
from .protocol import estimate_trials, message_count_trials

DEFAULT_COVERAGE = 1.0 - 1e-9
DEFAULT_TOLERANCE = 1e-6
DEFAULT_GRID_CAP = 4096
#: x from which log(1 - e^{-x}) is 0.0 in float64: e^{-40} < 2^{-57} is a
#: sixteenth of the gap below 1, so 1 - e^{-x} rounds to 1 (it does from 54 ln 2 on)
_LOG1MEXP_ZERO_FROM = 40.0


@dataclass(frozen=True)
class DatasetSummary:
    """The input of the exact view oracles, whose user count need not be ``params.n_users``."""

    zeros: int
    ones: int

    def __post_init__(self):
        zeros, ones = check_count("zeros", self.zeros), check_count("ones", self.ones)
        check_count("n", zeros + ones, 1)

    @property
    def n(self) -> int:
        return self.zeros + self.ones


def _binom_logpmf(n: int, p: float, k: np.ndarray) -> np.ndarray:
    """Binomial log-PMF at ``k`` in ``[0, n]``, with ``0 log 0 = 0``.

    So ``p = 0`` gives ``-inf`` at every ``k > 0`` (and ``p = 1`` at every
    ``k < n``) without a floating-point warning.
    """
    k = np.asarray(k)
    log_fact = np.array([math.lgamma(c + 1.0) for c in range(n + 1)])
    out = log_fact[n] - log_fact[k] - log_fact[n - k]
    for count, prob in ((k, p), (n - k, 1.0 - p)):
        if prob > 0.0:
            out = out + count * math.log(prob)
        else:
            out = np.where(count > 0, NEG_INF, out)
    return out


def _flood_profile(params: ProtocolParams, t_max: int) -> np.ndarray:
    """``L[t] = log sum_{w <= t} e^{-2 eta (t - w)} Poi(w; lam)`` on ``[0, t_max]``.

    The flood's running sum against the diagonal's tilt, by its recursion
    ``L[t] = logaddexp(L[t - 1] - 2 eta, log Poi(t; lam))``: a tilted
    ``logaddexp.accumulate`` inside blocks whose tilt stays below 32, the
    block ends' own recursion by doubling, then one carry per block. Every
    term is O(1), none of size ``lam``, so each entry is exact to a few ulps
    of its own size.
    """
    d = 2.0 * params.noise_epsilon
    width = max(1, min(int(32.0 / d), t_max + 1))
    rows = -(-(t_max + 1) // width)
    blocks = np.full((rows, width), NEG_INF)
    blocks.reshape(-1)[: t_max + 1] = poi_logpmf(params.flood_mean, range(t_max + 1))
    tilt = d * np.arange(width)
    blocks += tilt
    np.logaddexp.accumulate(blocks, axis=1, out=blocks)
    blocks -= tilt
    # after the step of shift s, each block end holds the 2 s blocks up to it;
    # once a step moves no end, the blocks further back are below rounding
    end = blocks[:, -1].copy()
    shift = 1
    while shift < rows:
        carried = np.logaddexp(end[shift:], end[:-shift] - d * width * shift)
        if not np.logical_or.reduce(carried != end[shift:]):
            break
        end[shift:] = carried
        shift *= 2
    np.logaddexp(blocks[1:], end[:-1, None] - d - tilt, out=blocks[1:])
    return blocks.reshape(-1)[: t_max + 1]


def _zero_mixture(zeros: int, params: ProtocolParams, t_max: int) -> np.ndarray:
    """The mixture over ``a0`` of ``zeros`` users, as a 1-D log profile of ``t``.

    ``H[t] = log sum_a0 Bin(a0) e^{L[t - a0 pad]}`` on ``[0, t_max]``, ``L``
    the flood profile: the view law at ``a1 = 0`` up to ``2 log p - eta (i +
    j) + 2 eta t``. The terms of ``a1 > 0`` are shifts of it.
    """
    pad = params.pad_count
    flood = _flood_profile(params, t_max)
    lw = _binom_logpmf(zeros, 1.0 - params.drop_prob, np.arange(zeros + 1))
    h = lw[0] + flood
    for a0 in range(1, min(zeros, t_max // pad) + 1):
        if lw[a0] > NEG_INF:
            s = a0 * pad
            np.logaddexp(h[s:], lw[a0] + flood[: t_max + 1 - s], out=h[s:])
    return h


def _one_user_terms(
    h: np.ndarray, params: ProtocolParams
) -> tuple[np.ndarray, np.ndarray]:
    """Both views' class profiles from the mixture ``h = H_{n-1}`` of the others.

    Returns ``h_n``, the profile of ``x'``, shape ``(T,)``, and ``lf_x``,
    that of ``x``, shape ``(2, T)`` by side. One user adds ``g0[t] = log q +
    h[t]``, dropped, or ``g1[t] = log(1 - q) + h[t - pad]``, participating.
    With input 0, ``h_n = logaddexp(g0, g1)``: Pascal's rule ``Bin(n, a) = q
    Bin(n - 1, a) + (1 - q) Bin(n - 1, a - 1)``. With input 1 the extra
    plus-message reads ``g1[t] + eta`` below the diagonal and ``g1[t - 1] -
    eta`` on or above it. :func:`_binom_logpmf` gives ``q = 0`` its ``-inf``.
    """
    eta = params.noise_epsilon
    pad = params.pad_count
    t_max = h.size - 1
    lw0, lw1 = _binom_logpmf(1, 1.0 - params.drop_prob, np.arange(2))
    g0 = lw0 + h
    # g1[t + 1] holds the g1[t] above, so g1[:-1] reads it at t - 1
    g1 = np.full(t_max + 2, NEG_INF)
    if pad <= t_max:
        g1[pad + 1 :] = lw1 + h[: t_max + 1 - pad]
    return np.logaddexp(g0, g1[1:]), np.logaddexp(g0, np.array((g1[1:] + eta, g1[:-1] - eta)))


def view_logpmf_grid(
    ds: DatasetSummary, params: ProtocolParams, i_max: int, j_max: int
) -> np.ndarray:
    """Exact view log-PMF on the rectangle ``[0, i_max] x [0, j_max]``.

    A staircase per ``a1``: the mixture over ``a0``, ``h`` (the tilted
    :func:`_zero_mixture`), is shifted to ``g``, and grid row ``i`` reads
    ``g[j]`` for ``j < i - a1`` and ``g[i - a1]`` from there on. That is ``n1
    + 1`` grid passes and one ``-eta (i + j)`` add; every sum is finite.
    """
    i_max = check_count("i_max", i_max)
    j_max = check_count("j_max", j_max)
    eta = params.noise_epsilon
    pad = params.pad_count
    t_max = min(i_max, j_max)
    h = _zero_mixture(ds.zeros, params, t_max) + 2.0 * eta * np.arange(t_max + 1)
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


class AuditReport(NamedTuple):
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
            "tolerance": self.tolerance,
            "n_users": self.n_users,
        }


#: Interval of :func:`errors.check_real` for the audits' ``tolerance``.
TOLERANCE = (0.0, math.inf, "[)")


def _grid_bounds(
    params: ProtocolParams, n_users: int, tail: float
) -> tuple[int, int]:
    p = geo_success_prob(params.noise_epsilon)
    # Bennett's bound P(Poi(lam) >= lam + r) <= exp(-r^2 / (2 (lam + r/3))),
    # solved for r at the right-hand side tail; P(Geo > k) = (1 - p)^(k + 1)
    big = -math.log(tail)
    lam = params.flood_mean
    flood_q = math.ceil(lam + big / 3.0 + math.sqrt(big * big / 9.0 + 2.0 * big * lam)) + 2
    noise_q = int(math.log(tail) / math.log1p(-p)) + 2
    # the plus count adds at most one message per user to the minus count
    j_max = n_users * params.pad_count + flood_q + noise_q
    return j_max + n_users, j_max


def _class_log_masses(
    profile: np.ndarray, eta: float, p: float, i_max: int, j_max: int
) -> np.ndarray:
    """Each class's log mass: a view's ``profile`` plus the class's log weight.

    ``profile`` is one view's, shape ``(2, j_max + 1)`` by side or ``(j_max +
    1,)`` for both sides; the result is ``(2, j_max + 1)``. The log weight
    (module docstring) is a constant per side plus log(1 - e^{-eta c}), of
    the class's ``c = top - t`` cells, which is 0.0 once ``eta c >=
    _LOG1MEXP_ZERO_FROM``: so only the last classes of each side add that
    term, as ``profile + (constant + term)``, and the rest add the constant.
    """
    const = math.log(p) - eta * np.array([[1], [0]])
    log_masses = profile + const
    for side, top in enumerate((i_max, j_max + 1)):
        start = max(0, top - math.ceil(_LOG1MEXP_ZERO_FROM / eta) + 1)
        cells = top - np.arange(start, j_max + 1)
        term = np.log(-np.expm1(-eta * cells))
        term += const[side]
        row = profile[side] if profile.ndim == 2 else profile
        np.add(row[start:], term, out=log_masses[side, start:])
    return log_masses


def divergence_audit(
    n_users: int,
    params: ProtocolParams,
    coverage: float = DEFAULT_COVERAGE,
    tolerance: float = DEFAULT_TOLERANCE,
    grid_cap: int = DEFAULT_GRID_CAP,
) -> AuditReport:
    """Audit the privacy guarantee on the canonical neighboring pair.

    Compares the exact view distributions of ``(1, 0, ..., 0)`` against
    ``(0, ..., 0)`` over one grid, sized from tail bounds of the flood and
    noise draws to hold at least ``coverage`` of both masses. The supremum of
    the absolute log-ratio is taken over every grid point either view
    reaches; disjoint-support points (one PMF exactly zero where the other is
    positive) are reported separately and force an unbounded ratio. The
    audit passes when the supremum is at most ``params.epsilon + tolerance``.

    Raises
    ------
    ParameterError
        If ``coverage`` is outside (0, 1), ``tolerance`` negative or not
        finite, ``grid_cap`` below 1, or the noise's success probability
        ``1 - e^-eta`` rounds to 1 (``eta`` above about 37).
    AuditInconclusiveError
        If the grid exceeds ``grid_cap``, or holds less than ``coverage`` of
        either mass (a coverage closer to 1 than floating point resolves);
        this is neither a pass nor a fail.
    """
    n_users = check_count("n_users", n_users, 1)
    check_real("coverage", coverage, 0.0, 1.0)
    check_real("tolerance", tolerance, *TOLERANCE)
    check_count("grid_cap", grid_cap, 1)
    eta = params.noise_epsilon
    p = geo_success_prob(eta)
    check_real(f"success probability 1 - exp(-{eta})", p, 0.0, 1.0)

    # Three tail bounds hold each mass outside the grid to 3/8 (1 - coverage)
    # in exact arithmetic, so a grid short of coverage is floating point's limit.
    tail = (1.0 - coverage) / 8.0
    if 1.0 - tail == 1.0:
        raise AuditInconclusiveError(f"coverage {coverage} beyond floating point")
    i_max, j_max = _grid_bounds(params, n_users, tail)
    if i_max > grid_cap:
        raise AuditInconclusiveError(
            f"coverage {coverage} not reachable within grid cap {grid_cap}"
        )
    # classes (side, t), side 0 below the diagonal and side 1 on or above it
    h_xp, lf_x = _one_user_terms(_zero_mixture(n_users - 1, params, j_max), params)
    masses = []
    for profile in (lf_x, h_xp):
        log_mass = _class_log_masses(profile, eta, p, i_max, j_max)
        masses.append(float(np.add.reduce(np.exp(log_mass, out=log_mass), axis=None)))
        del log_mass  # before the next view's: one (2, T) array at a time
    mass_x, mass_xp = masses
    if not (mass_x >= coverage and mass_xp >= coverage):  # so is a NaN mass
        raise AuditInconclusiveError(
            f"coverage {coverage} beyond floating point: grid mass {min(mass_x, mass_xp)!r}"
        )

    inf_x = lf_x == NEG_INF
    support_mismatch = bool(np.logical_or.reduce(inf_x != (h_xp == NEG_INF), axis=None))
    ratio = np.subtract(lf_x, h_xp, out=np.zeros(lf_x.shape), where=~inf_x)
    np.abs(ratio, out=ratio)
    sup = math.inf if support_mismatch else float(np.maximum.reduce(ratio, axis=None))

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
        tolerance=tolerance,
        n_users=n_users,
    )


class RatioCheck(NamedTuple):
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
    noise_epsilon = check_real("noise_epsilon", noise_epsilon)
    i_max = check_count("i_max", i_max)
    tolerance = check_real("tolerance", tolerance, *TOLERANCE)
    p = geo_success_prob(noise_epsilon)
    # p rounds to 1 above eta ~ 37, leaving no geometric tail to check
    check_real(f"success probability 1 - exp(-{noise_epsilon})", p, 0.0, 1.0)
    # ln f(i-1) - ln f(i) = -log1p(-p) for i >= 1, so i = 1 is the worst point
    worst = min(i_max, 1)
    margin = noise_epsilon + math.log1p(-p) if worst else math.inf
    return RatioCheck(
        ok=margin >= -tolerance,
        worst_margin=margin,
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
    i_max = check_count("i_max", i_max)
    check_real("tolerance", tolerance, *TOLERANCE)
    if params.drop_prob > 0.0:
        log_drop_coef = math.log(math.expm1(params.epsilon)) + math.log(
            params.drop_prob
        )
    else:
        log_drop_coef = NEG_INF
    log_down_coef = params.epsilon - params.noise_epsilon

    def log_rise(i: int, m: int) -> float:
        # sum_{k=1}^{m} log((i + k) / lam) term by term: no large gammaln cancels
        return float(np.add.reduce(np.log((np.arange(1.0, m + 1.0) + i) / lam)))

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
    check_count("ones", ones, 0, params.n_users)
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
    check_count("x", x, 0, 1)
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


class MseMeasurement(NamedTuple):
    empirical_mse: float
    std_err: float
    exact: float
    bound: float
    trials: int
    fidelity: str


class CommMeasurement(NamedTuple):
    empirical_mean: float
    std_err: float
    exact: float
    bound: float
    trials: int


def _mean_std(values: np.ndarray) -> tuple[float, float]:
    """``values.mean()`` and ``values.std(ddof=1)`` of a 1-d float64 array, bit for bit.

    The same pairwise sums and divisions, and a correctly rounded square
    root, by the ufunc reductions themselves: the ``ndarray`` methods reach
    them through numpy's Python-level ``_methods``. The deviations are
    squared in place.
    """
    mean = np.add.reduce(values) / values.size
    dev = values - mean
    np.multiply(dev, dev, out=dev)
    return float(mean), math.sqrt(np.add.reduce(dev) / (values.size - 1))


def measure_mse(
    params: ProtocolParams, ones: int, trials: int, rng: RandomSource, fidelity: str = "message"
) -> MseMeasurement:
    """Monte Carlo MSE on ``ones`` ones among ``n`` users, against the closed form and bound.

    At ``message`` fidelity every trial draws every message total, then the
    analyzer reads their signed sum; ``counts`` draws only what that sum
    needs, with the same law. Requires at least 1000 trials for the
    standard error to mean anything.
    """
    check_count("trials", trials, 1000)
    estimates = estimate_trials(ones, params, trials, rng, fidelity=fidelity)
    mse, std = _mean_std((estimates - ones).astype(np.float64) ** 2)
    return MseMeasurement(
        empirical_mse=mse,
        std_err=std / math.sqrt(trials),
        exact=exact_mse(params, ones),
        bound=mse_bound(params),
        trials=trials,
        fidelity=fidelity,
    )


def measure_comm(
    params: ProtocolParams, x: int, trials: int, rng: RandomSource
) -> CommMeasurement:
    """Monte Carlo per-user message count against its expectation and bound."""
    check_count("trials", trials, 1000)
    mean, std = _mean_std(message_count_trials(x, params, trials, rng).astype(np.float64))
    return CommMeasurement(
        empirical_mean=mean,
        std_err=std / math.sqrt(trials),
        exact=exact_mean_messages(params, x),
        bound=messages_bound(params),
        trials=trials,
    )
