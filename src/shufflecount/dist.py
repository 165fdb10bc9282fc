"""Log-space PMFs and seeded samplers for the protocol's noise distributions.

The log-PMFs are computed in log space via ``scipy.special.gammaln`` (imported
where a log-PMF is evaluated) so that counts in the thousands (flooding means,
padded message counts) never touch a raw factorial. All samplers draw from an
explicit :class:`RandomSource`, so identical seeds reproduce identical runs and
distinct streams can be handed to concurrent workers.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, check_count, check_points, check_real, check_shape

NEG_INF = float("-inf")


class RandomSource:
    """Reproducible randomness keyed by a master seed and a stream path.

    Identical ``(seed, stream)`` pairs yield identical draw sequences, and
    distinct stream paths are statistically independent (they are spawn keys
    of a ``numpy.random.SeedSequence``). Workers running concurrently must
    each own a distinct substream.

    Parameters
    ----------
    seed : int
        Non-negative master seed.
    stream : int or tuple of int, optional
        Stream path of non-negative integers under the master seed.
        Defaults to the root stream.
    """

    __slots__ = ("seed", "stream", "_generator")

    def __init__(self, seed: int, stream: int | tuple[int, ...] = ()):
        if not isinstance(stream, tuple):
            stream = (stream,)
        self.seed = check_count("seed", seed)
        self.stream = tuple(check_count("stream", t) for t in stream)
        self._generator: np.random.Generator | None = None

    @property
    def generator(self) -> np.random.Generator:
        """The live generator for this stream (created lazily, then stateful)."""
        if self._generator is None:
            seq = np.random.SeedSequence(self.seed, spawn_key=self.stream)
            self._generator = np.random.default_rng(seq)
        return self._generator

    def substream(self, *path: int) -> "RandomSource":
        """A fresh independent stream one level below this one."""
        return RandomSource(self.seed, self.stream + path)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, stream={self.stream})"


def _as_result(values: np.ndarray, scalar: bool):
    return float(values) if scalar else values


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
    from scipy.special import gammaln

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


def poi_logpmf(mean: float, k) -> float | np.ndarray:
    """Log-PMF of the Poisson distribution: ``k ln(mean) - mean - ln k!``."""
    from scipy.special import gammaln

    check_real("mean", mean)
    k = check_points("k", k)
    scalar = k.ndim == 0
    kk = np.where(k >= 0, k, 0)
    out = np.where(k >= 0, kk * math.log(mean) - mean - gammaln(kk + 1), NEG_INF)
    return _as_result(out, scalar)


def sample_geo(p: float, rng: RandomSource, size=None):
    """Draw from the geometric on {0, 1, ...} with PMF ``p (1-p)^k``."""
    check_real("p", p, 0.0, 1.0)
    return rng.generator.geometric(p, size=check_shape("size", size)) - 1


def sample_nb(r: float, p: float, rng: RandomSource, size=None, group: int = 1):
    """Draw from the negative binomial via its compound-Poisson form.

    NB(``r``, ``p``) is the sum of Poisson(``-r ln p``) many
    Logarithmic(``1-p``) summands (Quenouille), exactly for every real
    ``r > 0``. The whole array is drawn at once: one Poisson total of
    summands over all cells, a uniform cell for each (exact by Poisson
    splitting), their values, then a scatter-add into zeros. The cost grows
    with the number of summands, not of cells, so the tiny fractional shapes
    of per-user noise shares, nearly all 0, cost little. ``size=None`` draws
    one value through the same path.

    With ``group > 1`` the last axis of ``size`` is cut into runs of
    ``group`` cells and each summand is added into its cell's run: the
    result, of shape ``size[:-1] + (size[-1] // group,)``, holds the sums of
    the same draws over each run, and no per-cell array is built.
    """
    check_real("r", r)
    check_real("p", p, 0.0, 1.0)
    shape = check_shape("size", size) or ()
    if check_count("group", group, 1) != 1 and not (shape and shape[-1] % group == 0):
        raise ParameterError(f"group {group} must divide the last axis of size {size}")
    gen = rng.generator
    cells = math.prod(shape)
    out = np.zeros(shape[:-1] + (shape[-1] // group,) if shape else (), dtype=np.int64)
    total = gen.poisson(-r * math.log(p) * cells)
    if total:
        run = gen.integers(0, cells, total) // group
        np.add.at(out.reshape(-1), run, gen.logseries(1.0 - p, total))
    return out[()] if size is None else out


def sample_poi(mean: float, rng: RandomSource, size=None):
    """Draw from Poisson(``mean``)."""
    check_real("mean", mean)
    return rng.generator.poisson(mean, size=check_shape("size", size))


def sample_dlap(a: float, rng: RandomSource, size=None):
    """Draw from the discrete Laplace with PMF proportional to ``exp(-a |k|)``.

    Realized as the difference of two independent geometric draws with
    success probability ``1 - e^{-a}``.
    """
    p = geo_success_prob(a)
    size = check_shape("size", size)
    gen = rng.generator
    return (gen.geometric(p, size=size) - 1) - (gen.geometric(p, size=size) - 1)


def geo_success_prob(a: float) -> float:
    """Success probability ``1 - e^{-a}`` of the geometric with log-ratio ``a``."""
    check_real("a", a)
    return -math.expm1(-a)


def geo_mean(p: float) -> float:
    """Expectation ``(1-p)/p`` of the geometric on {0, 1, ...}."""
    check_real("p", p, 0.0, 1.0)
    return (1.0 - p) / p


def dlap_variance(a: float) -> float:
    """Variance ``2 e^{-a} / (1 - e^{-a})^2`` of the discrete Laplace."""
    check_real("a", a)
    return 2.0 * math.exp(-a) / math.expm1(-a) ** 2
