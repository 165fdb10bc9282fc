"""The Poisson log-PMF and seeded samplers for the protocol's noise distributions.

The log-PMF is computed in log space so that counts in the millions (flooding
means, padded message counts) never touch a raw factorial. It needs only
``math`` and numpy: one anchor per run of consecutive counts in Loader's
saddle-point form, and O(1) increments from it. All samplers draw from an
explicit :class:`RandomSource`, so identical seeds reproduce identical runs and
distinct streams can be handed to concurrent workers. The geometric and
negative-binomial log-PMFs that the tests check the samplers against live in
``tests/oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import check_count, check_points, check_real, check_shape

NEG_INF = float("-inf")
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


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


def poi_logpmf(mean: float, k) -> float | np.ndarray:
    """Log-PMF of the Poisson distribution: ``k ln(mean) - mean - ln k!``.

    Each run of consecutive points is evaluated from one anchor, its count
    nearest the mean, in Loader's saddle-point form (:func:`_poi_anchor`);
    the rest of the run follows by cumulative sums of the increments
    ``log(mean / k)`` outward from it. Every term is O(1) near the mass, so
    nothing of size O(mean) cancels, as it does in ``k ln(mean) - mean -
    ln k!``. A ``range`` of non-negative counts with step 1 is one run, taken
    as such without building or checking an index array.
    """
    check_real("mean", mean)
    if isinstance(k, range) and k.step == 1 and 0 <= k.start < k.stop:
        return _poi_run(mean, k.start, len(k))
    k = check_points("k", k)
    scalar = k.ndim == 0
    # each distinct count once, run by run
    on = k >= 0
    counts, where = np.unique(k[on], return_inverse=True)
    values = np.empty(counts.size)
    starts = (np.flatnonzero(counts[1:] - counts[:-1] != 1) + 1).tolist()
    for lo, hi in zip([0, *starts], [*starts, counts.size]):
        if hi > lo:
            values[lo:hi] = _poi_run(mean, int(counts[lo]), hi - lo)
    out = np.full(k.shape, NEG_INF)
    out[on] = values[where]
    return _as_result(out, scalar)


def _poi_run(mean: float, start: int, size: int) -> np.ndarray:
    """Poisson log-PMF at the ``size`` consecutive counts from ``start``."""
    anchor = min(max(math.floor(mean), start), start + size - 1)
    a = anchor - start
    # step[c - start - 1] = log f(c) - log f(c - 1) for the counts c after start
    step = np.arange(start + 1.0, start + size)
    np.log(np.divide(mean, step, out=step), out=step)
    out = np.empty(size)
    out[a] = _poi_anchor(mean, anchor)
    np.add(out[a], _running_sum(step[a:]), out=out[a + 1 :])
    np.subtract(out[a], _running_sum(step[:a][::-1]), out=out[:a][::-1])
    return out


def _running_sum(terms: np.ndarray) -> np.ndarray:
    """Cumulative sums of ``terms``, added in two levels.

    Cumulative sums run inside blocks of 64 terms, and one more over the
    block totals gives each block its offset. A partial sum then carries the
    rounding of at most 64 terms of its block plus one per block before it,
    not one per term: at 40 standard deviations of a mean of 1e7 the
    Poisson increments sum to about 800 over some 10**5 terms.
    """
    blocks = np.zeros((-(-terms.size // 64), 64))
    blocks.reshape(-1)[: terms.size] = terms
    np.add.accumulate(blocks, axis=1, out=blocks)
    blocks[1:] += np.add.accumulate(blocks[:-1, -1])[:, None]
    return blocks.reshape(-1)[: terms.size]


def _poi_anchor(mean: float, k: int) -> float:
    """Poisson log-PMF at one count in Loader's saddle-point form.

    ``-stirlerr(k) - bd0(k, mean) - ln(2 pi k) / 2`` (C. Loader, *Fast and
    Accurate Computation of Binomial Probabilities*, 2000): ``stirlerr`` is
    the error of Stirling's formula for ``ln k!`` and ``bd0(k, m) = k ln(k/m)
    + m - k``, summed as a series where ``k`` is near ``m``.
    """
    if k == 0:
        return -mean
    if k <= 15:
        stirlerr = math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - _HALF_LOG_2PI
    else:
        kk = 1.0 / (k * k)
        # Stirling's series 1/(12 k) - 1/(360 k^3) + ... - 1/(1188 k^9)
        stirlerr = (
            1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - kk / 1188) * kk) * kk) * kk
        ) / k
    d = k - mean
    if abs(d) < 0.1 * (k + mean):
        # bd0 = d v + 2 k sum_{j >= 1} v^(2j+1) / (2j+1), with v = d / (k + mean)
        v = d / (k + mean)
        bd0, term, j = d * v, 2.0 * k * v, 1
        while True:
            term *= v * v
            nxt = bd0 + term / (2 * j + 1)
            if nxt == bd0:
                break
            bd0, j = nxt, j + 1
    else:
        bd0 = k * math.log(k / mean) - d
    return -stirlerr - bd0 - 0.5 * math.log(k) - _HALF_LOG_2PI


def sample_nb(r: float, p: float, rng: RandomSource, size=None):
    """Draw from the negative binomial via its compound-Poisson form.

    NB(``r``, ``p``) is the sum of Poisson(``-r ln p``) many
    Logarithmic(``1-p``) summands (Quenouille), exactly for every real
    ``r > 0``. The whole array is drawn at once: one Poisson total of
    summands over all cells, a uniform cell for each (exact by Poisson
    splitting), their values, then a scatter-add into zeros. The cost grows
    with the number of summands, not of cells, so the tiny shape ``1/n`` of
    a user's noise share, as ``protocol.randomize`` and the one-user
    batches of ``protocol.message_count_trials`` draw it, costs little: over
    40 000 cells at ``n`` of 100 and 1000, 0.02-0.04 ms against 1.9-2.4 ms
    for ``Generator.negative_binomial`` (numpy 2.4, one core of a 2-core
    x86-64 host). ``size=None`` draws one value through the same path.
    """
    check_real("r", r)
    check_real("p", p, 0.0, 1.0)
    shape = check_shape("size", size) or ()
    gen = rng.generator
    cells = math.prod(shape)
    out = np.zeros(shape, dtype=np.int64)
    total = gen.poisson(-r * math.log(p) * cells)
    if total:
        np.add.at(out.reshape(-1), gen.integers(0, cells, total), gen.logseries(1.0 - p, total))
    return out[()] if size is None else out


def sample_poi(mean: float, rng: RandomSource, size=None):
    """Draw from Poisson(``mean``)."""
    check_real("mean", mean)
    return rng.generator.poisson(mean, size=check_shape("size", size))


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
