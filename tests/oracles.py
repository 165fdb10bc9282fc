"""Test oracles: reference log-PMFs and samplers, the scalar rounding
references, the exact point view oracle, the chi-square goodness-of-fit
harness and the message-level view.

No pipeline, CLI path or benchmark op calls any of these; the tests check the
package against them. Those that take checked values validate them through
``shufflecount.errors`` as the package's entry points do, and each has a row
in ``tests/test_contract.py``. scipy is a test dependency, used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, gammaln, logsumexp

from shufflecount.audit import DatasetSummary, _binom_logpmf, _grid_bounds, view_logpmf_grid
from shufflecount.composition import bit_weights
from shufflecount.dist import NEG_INF, RandomSource, _as_result, geo_success_prob
from shufflecount.errors import (
    ParameterError,
    check_array,
    check_count,
    check_points,
    check_real,
    check_shape,
)
from shufflecount.params import ProtocolParams
from shufflecount.protocol import View, simulate_views

#: Goodness-of-fit cells expecting fewer samples are lumped into one cell.
MIN_EXPECTED = 10.0


def geo_logpmf(p: float, k) -> float | np.ndarray:
    """Log-PMF of the geometric distribution on {0, 1, ...}.

    ``f(k) = p (1-p)^k`` for ``k >= 0``; minus infinity off-support.
    """
    check_real("p", p, 0.0, 1.0)
    k = check_points("k", k)
    scalar = k.ndim == 0
    out = np.where(k >= 0, math.log(p) + k * math.log1p(-p), NEG_INF)
    return _as_result(out, scalar)


def nb_logpmf(r: float, p: float, k) -> float | np.ndarray:
    """Log-PMF of the negative binomial with real shape ``r > 0``.

    ``f(k) = C(k+r-1, k) p^r (1-p)^k``, with the binomial coefficient
    evaluated through log-gamma so fractional shapes (the n-divided noise
    components) are exact. Coincides with :func:`geo_logpmf` at ``r = 1``.
    """
    check_real("r", r)
    check_real("p", p, 0.0, 1.0)
    k = check_points("k", k)
    scalar = k.ndim == 0
    kk = np.where(k >= 0, k, 0)  # keep gammaln off its poles; masked below
    log_coef = gammaln(kk + r) - gammaln(kk + 1) - gammaln(r)
    out = np.where(
        k >= 0, log_coef + r * math.log(p) + kk * math.log1p(-p), NEG_INF
    )
    return _as_result(out, scalar)


def sample_geo(p: float, rng: RandomSource, size=None):
    """Draw from the geometric on {0, 1, ...} with PMF ``p (1-p)^k``."""
    check_real("p", p, 0.0, 1.0)
    return rng.generator.geometric(p, size=check_shape("size", size)) - 1


def sample_dlap(a: float, rng: RandomSource, size=None):
    """Draw from the discrete Laplace with PMF proportional to ``exp(-a |k|)``.

    Realized as the difference of two independent geometric draws with
    success probability ``1 - e^{-a}``.
    """
    p = geo_success_prob(a)
    size = check_shape("size", size)
    gen = rng.generator
    return (gen.geometric(p, size=size) - 1) - (gen.geometric(p, size=size) - 1)


def encode_real(x: float, n_bits: int, rng: RandomSource) -> np.ndarray:
    """Stochastically round ``x`` in [0, 1] to ``n_bits`` fixed-point bits.

    The rounded value ``v/2**n_bits`` is unbiased for ``x`` up to the top of
    the representable range (values within one step of 1 clamp to the largest
    representable point). Bits come most significant first.
    """
    check_real("x", x, 0.0, 1.0, "[]")
    n_bits = check_count("n_bits", n_bits, 1)
    scale = 1 << n_bits
    v = int(x * scale + rng.generator.random())
    v = min(v, scale - 1)
    j = np.arange(n_bits)
    return ((v >> (n_bits - 1 - j)) & 1).astype(np.uint8)


def decode_bits(bits: np.ndarray) -> float:
    """Value of an MSB-first fixed-point bit vector."""
    bits = check_array("bits", bits, 0, 1)
    return float(bits @ bit_weights(bits.size))


def exact_view_logpmf(
    ds: DatasetSummary, params: ProtocolParams, i: int, j: int
) -> float:
    """Exact log-probability that the view equals ``(i, j)``.

    Point evaluation with its own finite sums (independent of the grid code
    path, which the tests cross-check against this one).
    """
    if check_count("i", i, -math.inf) < 0 or check_count("j", j, -math.inf) < 0:
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
    samples = check_array("samples", samples, 0, math.inf)
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
    """Chi-square simulated views of ``ds`` against the exact oracle.

    The two routes are independent: simulation draws the randomizer's totals
    (drop counts, a flooding total, one geometric noise total per side), the
    oracle evaluates the pooled convolution in closed form. The simulation
    runs over ``params.n_users`` users, so ``ds`` must have that many.
    """
    if ds.n != params.n_users:
        raise ParameterError(f"ds has {ds.n} users, params.n_users is {params.n_users}")
    v_plus, v_minus = simulate_views(ds.ones, params, trials, rng)
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


def view_of(messages: np.ndarray) -> View:
    """Summarize a +1/-1 message sequence into its view.

    The messages are integers; an empty sequence, of any dtype, is the view
    of a zero-message dump.
    """
    messages = np.asarray(messages)
    if messages.size and messages.dtype.kind not in "iu":
        raise ParameterError(f"messages must be +1/-1 integers, got dtype {messages.dtype}")
    plus = int(np.count_nonzero(messages == 1))
    minus = int(np.count_nonzero(messages == -1))
    if plus + minus != messages.size:
        raise ParameterError("messages must consist of +1/-1 entries only")
    return View(plus, minus)


def sample_estimate(
    ones: int, params: ProtocolParams, rng: RandomSource, size=None
):
    """Draw straight from the closed-form estimate law, with no protocol stage.

    The end-to-end estimate is distributed as
    ``ones - Binomial(ones, drop_prob) + DLap(noise_epsilon)``; this samples
    that law directly, one binomial and one :func:`sample_dlap` draw, so the
    tests can hold the engine's estimates against it. ``size=None`` gives
    one draw.
    """
    ones = check_count("ones", ones, 0, params.n_users)
    trials = 1 if size is None else check_count("size", size, 1)
    kept = ones - rng.generator.binomial(ones, params.drop_prob, size=trials)
    draws = kept + sample_dlap(params.noise_epsilon, rng, size=trials)
    return draws[0].item() if size is None else draws
