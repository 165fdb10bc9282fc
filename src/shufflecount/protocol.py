"""The counting protocol: per-user randomizer, shuffler and analyzer.

Each user holding a bit ``x`` emits, with probability ``1 - q``, a padded
input-dependent block of ``pad + x`` plus-messages and ``pad`` minus-messages
(nothing with probability ``q``), plus an independent negative-binomial share
of plus and of minus noise messages, plus a Poisson number of flooding pairs
(one +1 and one -1 each, cancelling in the sum). The analyzer sees only the
shuffled multiset of single-bit messages and outputs its signed sum.

The shuffled view depends on the inputs only through how many users hold a
one, so that count is the only dataset input of every batch of runs
(:func:`estimate_trials`, :func:`simulate_views`). :func:`run_trials`
drives a batch of several instances (a single run is a one-trial batch),
and :func:`_stages` draws one instance's totals for all trials of a batch
in stages, each fidelity stopping at the last stage it needs: the dropped
ones, then the dropped zeros and each trial's flooding total, then each
side's noise total. The ``n`` users' noise shares of a side are sized to
pool to one geometric, so a trial draws that pair of geometrics, not the
``2 n`` shares. A Binomial count of drops has the law of an independent
drop per user, so a batch holds no per-user array, and its cost does not
grow with ``n``. :func:`run_counting`, which reports every user's message
count, is the same one-trial draw followed by a placement of its totals on
users; the noise shares given their totals are placed by a Polya urn. The
analyzer reads only per-code totals of the pool, which no permutation
changes, so a run draws no shuffle; :func:`shuffle` materializes a uniformly
shuffled sequence where the order itself is wanted (tests). Two simulation
fidelities exist, each a stopping point of the same stages:

``message``
    The default pipeline: every message total is drawn, flooding included,
    and the analyzer reads the pool's per-code totals. Total message counts
    are reported. A batch draws each trial's flooding as one Poisson total,
    the same law as the per-user sum.
``counts``
    Only what the signed sum needs is drawn: the dropped ones and the noise
    totals, not the dropped zeros or flooding, which cancel in the sum. The
    estimate law is exactly the same, the closed form
    ``ones - Binomial(ones, q) + DLap(noise_epsilon)``: the difference of the
    two geometric noise totals is the discrete Laplace.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .dist import RandomSource, geo_success_prob, sample_nb, sample_poi
from .errors import ParameterError, check_array, check_choice, check_count
from .params import ProtocolParams, require_feasible

FIDELITIES = ("message", "counts")

#: Per-user draws in one chunk of the real sum's rounding: :func:`run_trials`
#: draws it in chunks of whole trials sized for ``4 n`` per trial, which keeps
#: the rounding's float64 arrays at a quarter of a chunk each, and reduces
#: each chunk to per-bit sums, so no per-user array outlives its chunk. The
#: stages draw a few values per trial and are not chunked.
CHUNK_ELEMENTS = 1 << 22

#: The layout of every seeded stream: which draws a run or batch makes, in
#: which order and shape. A change that moves any seeded draw bumps it, and
#: ``tests/test_protocol.py`` pins it with the digest of seeded runs.
STREAM_LAYOUT = 6


class Contribution(NamedTuple):
    """One user's message counts before shuffling, as :func:`randomize` draws them."""

    input_plus: int
    input_minus: int
    noise_plus: int
    noise_minus: int
    flood: int

    @property
    def plus_count(self) -> int:
        return self.input_plus + self.noise_plus + self.flood

    @property
    def minus_count(self) -> int:
        return self.input_minus + self.noise_minus + self.flood

    @property
    def message_count(self) -> int:
        return self.plus_count + self.minus_count


class View(NamedTuple):
    """The shuffler's output summary: total +1 and -1 message counts.

    Invariant under any permutation of the underlying message sequence.
    """

    plus_count: int
    minus_count: int


class CountingRun(NamedTuple):
    """Result of one end-to-end protocol execution.

    ``messages_per_user`` is the int64 array, shape ``(n,)``, of every user's
    message count in input order, as :func:`run_counting` places it. Compare
    runs field by field: ``==`` on two runs raises on the array.
    """

    estimate: int
    messages_per_user: np.ndarray
    view: View


def randomize(x: int, params: ProtocolParams, rng: RandomSource) -> Contribution:
    """Run one user's randomizer (scalar reference for :func:`run_counting`).

    With probability ``1 - drop_prob`` the input-dependent block is
    ``(pad + x, pad)``, otherwise ``(0, 0)``. Noise counts are negative
    binomial with shape ``1/n`` (so they sum to a geometric across users) and
    the flooding count is Poisson with mean ``flood_mean / n``.
    """
    x = check_count("x", x, 0, 1)
    gen = rng.generator
    if gen.random() < params.drop_prob:
        input_plus = input_minus = 0
    else:
        input_plus, input_minus = params.pad_count + x, params.pad_count
    p = geo_success_prob(params.noise_epsilon)
    shape = 1.0 / params.n_users
    noise_plus = int(sample_nb(shape, p, rng))
    noise_minus = int(sample_nb(shape, p, rng))
    flood = int(sample_poi(params.flood_mean / params.n_users, rng))
    return Contribution(input_plus, input_minus, noise_plus, noise_minus, flood)


def _stages(
    ones, m: int, params: ProtocolParams, rng: RandomSource, fidelity: str, trials: int, *,
    per_user=False,
):
    """One instance's totals over ``m`` users, ``ones`` of whom hold a one, for all trials.

    The draws come in stages, in stream order, and each fidelity stops at the
    last one it needs:

    1. the dropped ones, ``Binomial(ones, drop_prob)``;
    2. at ``message`` fidelity, the dropped zeros, ``Binomial(m - ones,
       drop_prob)``, then the flooding total, ``Poisson(flood_mean * m / n)``;
    3. the noise totals, ``(trials, 2)``, plus in column 0 and minus in
       column 1: the sums of the ``m`` users' NB(1/n, p) shares of each side.
       Over all ``n`` users each is one geometric, drawn as such (numpy's
       ``geometric``); over ``m < n`` users it is NB(m/n, p) (:func:`sample_nb`).

    A drop count has the law of an independent drop per user, and a flooding
    total that of the per-user counts, by Poisson additivity. ``ones`` is a
    count or an array of ``trials`` counts; one trial passes numpy's
    binomial a Python int, the same draw far faster than an array. The
    callers have checked ``trials`` and the counts.
    ``counts`` returns the signed sum, ``kept + noise_plus - noise_minus``,
    whose noise difference over all ``n`` users is ``DLap(noise_epsilon)``;
    ``message`` returns the plus and minus message totals, ``pad * K + kept
    + noise_plus + flood`` and ``pad * K + noise_minus + flood``, where
    ``K`` counts every kept user. With ``per_user``, a ``message`` batch
    also returns the parts that :func:`run_counting` places on users:
    ``(plus, minus), (dropped_ones, dropped_zeros, flood, noise)``.
    """
    gen, q = rng.generator, params.drop_prob
    if trials == 1:
        ones = np.asarray(ones).item()
    kept = ones - gen.binomial(ones, q, size=trials)
    if fidelity == "message":
        users = kept + (m - ones) - gen.binomial(m - ones, q, size=trials)
        flood = gen.poisson(params.flood_mean * m / params.n_users, size=trials)
    p = geo_success_prob(params.noise_epsilon)
    if m == params.n_users:
        noise = gen.geometric(p, size=(trials, 2)) - 1
    else:
        noise = sample_nb(m / params.n_users, p, rng, size=(trials, 2))
    plus, minus = kept + noise[:, 0], noise[:, 1]
    if fidelity == "counts":
        return plus - minus
    padded = params.pad_count * users + flood
    totals = padded + plus, padded + minus
    return (totals, (ones - kept, m - ones - (users - kept), flood, noise)) if per_user else totals


def run_trials(inputs, instances, trials: int, rng: RandomSource, fidelity: str):
    """The trials engine: per-instance signed sums ``(trials, k)`` and message totals.

    ``inputs`` counts the users holding a one in each of the ``k`` instances:
    a fixed ``(k,)`` vector of counts in ``[0, n]``, or the real sum's
    rounding ``draw(rng, rows)``, which returns the ``(rows, k)`` per-bit sums
    of ``rows`` trials. The rounding is drawn first, on ``rng`` in chunks of
    ``CHUNK_ELEMENTS // (4 n)`` trials; then each instance's :func:`_stages`
    run over all trials, in turn. A single run is a one-trial batch on the
    same stream. The totals, ``(trials,)``, are ``None`` below ``message``
    fidelity. The instances, at least one, must share one ``n_users``.
    """
    check_choice("fidelity", fidelity, FIDELITIES)
    k = check_count("number of instances", len(instances), 1)
    n = instances[0].n_users
    if any(inst.n_users != n for inst in instances):
        raise ParameterError("every instance must have the same n_users")
    trials = check_count("trials", trials, 1)
    if callable(inputs):
        rows = max(1, CHUNK_ELEMENTS // (4 * n))
        ones = np.empty((trials, k), dtype=np.int64)
        for start in range(0, trials, rows):
            ones[start : start + rows] = inputs(rng, min(rows, trials - start))
    else:
        ones = check_array("inputs", inputs, 0, n)
        if ones.size != k:
            raise ParameterError(f"got {ones.size} counts of ones for {k} instances")
    out = np.array(
        [_stages(ones[..., j], n, inst, rng, fidelity, trials) for j, inst in enumerate(instances)]
    )  # (k, trials), or (k, 2, trials) of plus and minus totals at message fidelity
    if fidelity != "message":
        return out.T, None
    plus, minus = out.transpose(1, 2, 0)
    return plus - minus, np.add.reduce(plus + minus, axis=1)


def shuffle(
    contributions: Sequence[Contribution], rng: RandomSource
) -> tuple[np.ndarray, View]:
    """Materialize all messages and return a uniformly shuffled sequence.

    Returns the shuffled ``int8`` array of +1/-1 messages together with its
    :class:`View`; the view depends only on the multiset, never on the order.
    The messages are shuffled in place, so no wider per-message array is
    built.
    """
    view = View(
        sum(c.plus_count for c in contributions),
        sum(c.minus_count for c in contributions),
    )
    messages = np.repeat(np.array([1, -1], dtype=np.int8), [view.plus_count, view.minus_count])
    rng.generator.shuffle(messages)
    return messages, view


def analyze(view: View) -> int:
    """Analyzer output: the signed sum of all messages, ``V_plus - V_minus``."""
    return view.plus_count - view.minus_count


def _table_sizes(totals, gen) -> list[int]:
    """Sizes of the groups in which each side's noise total is placed on users.

    Given their sum ``g``, ``n`` NB(1/n, p) shares are Dirichlet-multinomial
    (g; 1/n, ..., 1/n): the Polya urn in which ball ``k`` goes to a fresh
    uniform user with probability ``1/(k+1)`` and otherwise to the user of a
    uniform earlier ball. Its balls form the tables of a Chinese restaurant
    process of concentration 1, one uniform user each, and those tables have
    the law of the cycles of a uniform permutation of the ``g`` balls: the
    cycle through the first ball is uniform in size on ``1..g``, and the rest
    is a uniform permutation of what is left. So a side's tables are drawn by
    that splitting, about ``ln g`` draws, not one per ball.
    """
    sizes = []
    for left in totals.tolist():
        while left:
            size = int(gen.integers(1, left + 1))
            sizes.append(size)
            left -= size
    return sizes


def run_counting(
    xs: Sequence[int], params: ProtocolParams, rng: RandomSource
) -> CountingRun:
    """Run the full pipeline: randomize every user, pool, analyze.

    The one-trial :func:`_stages` of ``message`` fidelity draws the estimate
    and view of the one-trial :func:`estimate_trials` and
    :func:`simulate_views` at the same seed. Its totals are then placed on
    users, exactly: the drops by ``choice`` among the ones and among the
    zeros, the flooding by one O(n) multinomial, and each side's noise total
    by the tables of :func:`_table_sizes`, each added to one uniform user.
    """
    bits = check_array("xs", xs, 0, 1)
    n = params.n_users
    if bits.size != n:
        raise ParameterError(f"got {bits.size} inputs for n_users={n}")
    require_feasible(params)
    ones = int(np.count_nonzero(bits))
    (plus, minus), (*dropped, flood, noise) = _stages(
        ones, n, params, rng, "message", 1, per_user=True
    )
    gen = rng.generator
    # each drop count as an int: choice would take an np.int64 size's product
    # through ndarray.prod, a Python-level numpy wrapper
    drops = [  # the dropped users among the ones and among the zeros
        np.flatnonzero(bits == x)[gen.choice(size, d, replace=False, shuffle=False)]
        for x, size, d in zip((1, 0), (ones, n - ones), (k.item() for k in dropped)) if d
    ]
    counts = gen.multinomial(flood[0], np.full(n, 1.0 / n))
    counts *= 2
    sizes = _table_sizes(noise[0], gen)
    for user, size in zip(gen.integers(0, n, len(sizes)).tolist(), sizes):
        counts[user] += size  # about ln g tables a side: less than np.add.at's set-up
    counts += 2 * params.pad_count  # every user's block, then taken back from the dropped
    counts += bits == 1
    for users in drops:
        counts[users] -= 2 * params.pad_count + (bits[users] == 1)
    view = View(int(plus[0]), int(minus[0]))
    return CountingRun(estimate=analyze(view), messages_per_user=counts, view=view)


def simulate_views(
    ones: int, params: ProtocolParams, trials: int, rng: RandomSource
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the shuffler's view for many runs of ``ones`` ones among ``n`` users.

    The plus and minus message totals of the :func:`_stages` of ``message``
    fidelity over all ``n`` users: the dropped ones and zeros, each trial's
    flooding total and its two geometric noise totals, a few draws per trial
    whatever ``n`` is. The multiset itself is never materialized because the
    view is already a function of the counts.

    Returns
    -------
    (v_plus, v_minus) : pair of int64 arrays of length ``trials``.
    """
    n = params.n_users
    ones, trials = check_count("ones", ones, 0, n), check_count("trials", trials, 1)
    return _stages(ones, n, params, rng, "message", trials)


def estimate_trials(
    ones: int, params: ProtocolParams, trials: int, rng: RandomSource, fidelity: str = "message"
) -> np.ndarray:
    """Repeated protocol estimates for Monte Carlo measurement.

    The :func:`_stages` of ``ones`` ones among ``n`` users, the draws of a
    one-instance :func:`run_trials`: the estimate depends on the data only
    through that count. ``message`` fidelity draws every message total,
    ``counts`` only the dropped ones and noise totals that the signed sum
    needs. Both produce the same estimate distribution, ``ones -
    Binomial(ones, drop_prob) + DLap(noise_epsilon)``.
    """
    n = params.n_users
    ones = check_count("ones", ones, 0, n)
    check_choice("fidelity", fidelity, FIDELITIES)
    trials = check_count("trials", trials, 1)
    out = _stages(ones, n, params, rng, fidelity, trials)
    if fidelity == "counts":
        return out
    plus, minus = out
    return plus - minus


def message_count_trials(
    x: int, params: ProtocolParams, trials: int, rng: RandomSource
) -> np.ndarray:
    """Total messages sent by a single user with input ``x``, over many runs."""
    x, trials = check_count("x", x, 0, 1), check_count("trials", trials, 1)
    plus, minus = _stages(x, 1, params, rng, "message", trials)
    return plus + minus
