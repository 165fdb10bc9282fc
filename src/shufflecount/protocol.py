"""The counting protocol: per-user randomizer, shuffler and analyzer.

Each user holding a bit ``x`` emits, with probability ``1 - q``, a padded
input-dependent block of ``pad + x`` plus-messages and ``pad`` minus-messages
(nothing with probability ``q``), plus an independent negative-binomial share
of plus and of minus noise messages, plus a Poisson number of flooding pairs
(one +1 and one -1 each, cancelling in the sum). The analyzer sees only the
shuffled multiset of single-bit messages and outputs its signed sum.

Every run goes through one engine: :func:`draw_counts` is the vectorized
randomizer, :func:`pooled_run` pools the messages of any number of instances
(counting is the one-instance case), :func:`signed_sums` draws an
instance's output without per-user counts, and :func:`run_trials` drives
every batch of runs (a single run is a one-trial batch on the same stream)
in chunks of whole trials under :data:`CHUNK_ELEMENTS`. The dropped inputs
are drawn as one Binomial total over a chunk's users and trials, placed
uniformly, so their cost follows the drops, not the users. A batch sums
each draw over users as it is made (:func:`_draw_totals`), so no per-user
array outlives its draw, and draws each trial's flooding as one Poisson
total over users. The analyzer reads only per-code totals of the pool,
which no permutation changes, so a run draws no shuffle; :func:`shuffle`
materializes a uniformly shuffled sequence where the order itself is
wanted (wire dumps, tests). Three simulation fidelities exist:

``message``
    The default pipeline: every user's message counts in every instance,
    flooding included, are drawn, and the analyzer reads the pool's per-code
    totals. Per-user and total message counts are reported. A single run
    draws flooding per user; a batch of trials draws it as each trial's
    Poisson total, the same law as the per-user sum.
``counts``
    Only what the signed sum needs is drawn: the dropped inputs and every
    user's noise shares, not flooding or per-user message counts. The
    estimate law is exactly the same because flooding cancels in the sum.
``law``
    Derivation-level simulation of the closed-form estimate law
    ``ones - Binomial(ones, q) + DLap(noise_epsilon)``. No per-user structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dist import RandomSource, geo_success_prob, sample_dlap, sample_nb, sample_poi
from .errors import ParameterError, check_array, check_choice, check_count
from .params import ProtocolParams, require_feasible

FIDELITIES = ("message", "counts", "law")

#: Per-user draws in one chunk of a batch of trials; :func:`_batches` cuts
#: every batch into chunks of whole trials, drawn in turn on one stream, and
#: each chunk's Poisson total of noise summands is a boundary of that stream.
#: :func:`run_trials` sizes chunks for ``4 n`` draws per trial: ``2 n`` noise
#: shares, ``n`` users who may drop their input and ``n`` for the real sum's
#: rounding; the drops are one Binomial total per chunk plus a position per
#: drop, and a batch's flooding is one draw per trial.
#: :func:`_noise_difference` and :func:`simulate_views` size them for the
#: ``2 n`` noise shares they draw; the views add the drops and one flooding
#: total per trial. Resizing any of them would change every seeded batch. A
#: batch sums each draw over users as it is made, so no per-user array
#: outlives its draw.
CHUNK_ELEMENTS = 1 << 22

#: The layout of every seeded stream: which draws a run or batch makes, in
#: which order and shape. A change that moves any seeded draw bumps it, and
#: ``tests/test_protocol.py`` pins it with the digest of seeded runs.
STREAM_LAYOUT = 2


@dataclass(frozen=True)
class Contribution:
    """Message counts before shuffling: one user's, or arrays over users."""

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


@dataclass(frozen=True)
class View:
    """The shuffler's output summary: total +1 and -1 message counts.

    Invariant under any permutation of the underlying message sequence.
    """

    plus_count: int
    minus_count: int


@dataclass(frozen=True)
class CountingRun:
    """Result of one end-to-end protocol execution."""

    estimate: int
    messages_per_user: tuple[int, ...]
    view: View


def _batches(trials: int, per_trial: int):
    """Chunks ``(slice, size)`` of whole trials, at most :data:`CHUNK_ELEMENTS` draws each.

    Checks that ``trials`` is a count >= 1 when called, before anything is
    drawn.
    """
    trials = check_count("trials", trials, 1)
    rows = max(1, CHUNK_ELEMENTS // per_trial)
    return ((slice(s, s + rows), min(rows, trials - s)) for s in range(0, trials, rows))


def _count_bits(zeros: int, ones: int, n: int) -> np.ndarray:
    """Input bits of a counting dataset of ``n = zeros + ones`` users, ones first."""
    ones = check_count("ones", ones, 0, n)
    zeros = check_count("zeros", zeros, n - ones, n - ones)
    return np.repeat(np.array([1, 0], dtype=np.int64), [ones, zeros])


def randomize(x: int, params: ProtocolParams, rng: RandomSource) -> Contribution:
    """Run one user's randomizer (scalar reference for :func:`draw_counts`).

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


def _draws(m: int, params: ProtocolParams, rng: RandomSource, lead: tuple, group: int = 1):
    """The randomizer's draws for ``m`` users, yielded one at a time in stream order.

    The dropped inputs come first, as the flat positions, in ``lead + (m,)``,
    of the users who drop theirs: one Binomial(``cells``, ``drop_prob``)
    total over the ``cells`` users and trials, then that many distinct cells
    chosen uniformly (none drawn when the total is 0). A Binomial total
    placed uniformly is exactly an independent Bernoulli(``drop_prob``) drop
    per cell, and it costs one int64 per drop, except that above 5 % of
    ``cells`` ``Generator.choice`` holds an int64 per cell while it picks
    them. Then noise shares of shape ``1/params.n_users`` (``2m``, plus
    shares first) and flooding counts ``lead + (m,)``. Each is drawn on
    ``rng`` only when asked for, so a caller can reduce one draw before the
    next is made.

    With ``group > 1`` the users are cut into runs of ``group`` and the noise
    and flooding come as one value per run, ``lead + (2m // group,)`` and
    ``lead + (m // group,)``. The two are summed differently. Grouped noise
    is the same draws summed (:func:`sample_nb`), so it is exact in the
    stream. Grouped flooding is one Poisson(``flood_mean * group / n``) per
    run: the same law as the per-user sum, by Poisson additivity, but not
    the same draws.
    """
    gen = rng.generator
    cells = math.prod(lead) * m
    dropped = gen.binomial(cells, params.drop_prob)
    yield (
        gen.choice(cells, dropped, replace=False, shuffle=False)
        if dropped
        else np.empty(0, dtype=np.int64)
    )
    p = geo_success_prob(params.noise_epsilon)
    yield sample_nb(1.0 / params.n_users, p, rng, size=lead + (2 * m,), group=group)
    flood_mean = params.flood_mean * group / params.n_users
    yield sample_poi(flood_mean, rng, size=lead + (m // group,))


def draw_counts(
    bits: np.ndarray, params: ProtocolParams, rng: RandomSource, trials=None
) -> Contribution:
    """The vectorized randomizer: message counts of the users holding ``bits``.

    Same per-user laws as :func:`randomize`, with shares ``1/params.n_users``
    for ``bits`` of shape ``(m,)`` or ``(trials, m)``. Fields have shape
    ``(m,)``, or ``(trials, m)`` when ``trials`` is given; the dropped
    positions of :func:`_draws` clear their users' flags in a keep mask.
    """
    m = bits.shape[-1]
    lead = () if trials is None else (trials,)
    dropped, noise, flood = _draws(m, params, rng, lead)
    keep = np.ones(lead + (m,), dtype=bool)
    keep.reshape(-1)[dropped] = False
    return Contribution(
        input_plus=np.where(keep, params.pad_count + bits.astype(np.int64, copy=False), 0),
        input_minus=np.where(keep, params.pad_count, 0),
        noise_plus=noise[..., :m],
        noise_minus=noise[..., m:],
        flood=flood,
    )


def _draw_totals(bits: np.ndarray, params: ProtocolParams, rng: RandomSource, trials: int):
    """Per-trial plus and minus message totals of the users holding ``bits``.

    The dropped inputs and noise shares of :func:`draw_counts` with
    ``trials``, the same draws in the same order on the same stream, each
    summed over users as it is drawn, so no ``(trials, m)`` array is built.
    Per-trial counts of the dropped positions, all of them and those of
    users holding a one, are taken off ``m`` and off the count of ones
    (nothing is taken off when no input is dropped). Flooding comes last,
    as each trial's Poisson total over all ``m`` users (:func:`_draws` with
    ``group = m``): the same law as the per-user sum, not the same draws.
    The kept input blocks add ``pad * kept + kept_ones`` plus-messages and
    ``pad * kept`` minus-messages. ``bits`` has shape ``(m,)`` or
    ``(trials, m)``.
    """
    m = bits.shape[-1]
    draws = _draws(m, params, rng, (trials,), group=m)
    dropped = next(draws)
    padded, kept_ones = params.pad_count * m, np.count_nonzero(bits, axis=-1)
    if dropped.size:
        trial, user = np.divmod(dropped, m)
        ones = np.broadcast_to(bits, (trials, m))[trial, user] != 0
        padded = params.pad_count * (m - np.bincount(trial, minlength=trials))
        kept_ones = kept_ones - np.bincount(trial[ones], minlength=trials)
        del trial, user, ones
    del dropped  # hold no per-drop array while the noise is drawn
    noise = next(draws)
    flood = next(draws)[:, 0]
    return padded + kept_ones + noise[:, 0] + flood, padded + noise[:, 1] + flood


def pooled_run(
    bits: np.ndarray, instances: Sequence[ProtocolParams], rng: RandomSource, trials=None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Message-level run of ``k`` instances pooled together.

    ``bits[..., i, j]`` is user ``i``'s input to instance ``j``. Each
    instance's counts are drawn in turn on ``rng``, and nothing after: the
    analyzer reads only the pool's per-code totals, which no permutation
    changes. A single run draws per-user counts (:func:`draw_counts`); with
    ``trials``, the same drops and noise shares for all trials at once are
    summed over users as they are drawn, and each trial's flooding is one
    Poisson total (:func:`_draw_totals`). Returns the messages per
    code (code ``2j`` is instance ``j``'s -1, ``2j + 1`` its +1), with a
    leading trials axis when ``trials`` is given, and the messages per user
    of a single run, or ``None`` when ``trials`` is given.
    """
    totals = []
    per_user = None
    for j, inst in enumerate(instances):
        if trials is not None:
            plus, minus = _draw_totals(bits[..., j], inst, rng, trials)
            totals += [minus, plus]
            continue
        c = draw_counts(bits[..., j], inst, rng)
        plus, minus = c.plus_count, c.minus_count
        totals += [minus.sum(), plus.sum()]
        plus += minus
        per_user = plus if j == 0 else np.add(per_user, plus, out=per_user)
        del c, plus, minus  # hold one instance's draws at a time
    return np.stack(totals, axis=-1), per_user


def _noise_difference(params: ProtocolParams, rng: RandomSource, trials: int) -> np.ndarray:
    """Plus minus minus noise shares of all users, per trial, summed as they are drawn."""
    n = params.n_users
    p = geo_success_prob(params.noise_epsilon)
    out = np.empty(trials, dtype=np.int64)
    for chunk, size in _batches(trials, 2 * n):
        noise = sample_nb(1.0 / n, p, rng, size=(size, 2 * n), group=n)
        out[chunk] = noise[:, 0] - noise[:, 1]
    return out


def signed_sums(ones, params: ProtocolParams, rng: RandomSource, fidelity: str, size=None):
    """An instance's signed sum drawn without building messages.

    ``ones - Binomial(ones, drop_prob)`` plus the noise difference: the
    summed per-user shares at ``counts`` fidelity, one discrete Laplace draw
    at ``law`` fidelity. Flooding cancels in the sum and is not drawn.
    ``ones`` is a count or an array of counts of shape ``size``: a number of
    trials, which only ``law`` fidelity may leave out for a single draw.
    """
    check_choice("fidelity", fidelity, ("counts", "law"))
    if size is not None or fidelity == "counts":
        check_count("size", size, 1)
    check_array("ones", np.atleast_1d(ones), 0, params.n_users)
    kept = ones - rng.generator.binomial(ones, params.drop_prob, size=size)
    if fidelity == "law":
        return kept + sample_dlap(params.noise_epsilon, rng, size=size)
    return kept + _noise_difference(params, rng, size)


def run_trials(inputs, instances, trials: int, rng: RandomSource, fidelity: str):
    """The trials engine: per-instance signed sums ``(trials, k)`` and message totals.

    ``inputs`` is the fixed ``(n, k)`` matrix or the real sum's rounding
    ``draw(rng, rows)``, which returns ``(rows, n, k)``. Trials come on
    ``rng`` in chunks of ``CHUNK_ELEMENTS // (4 n)``; a single run is a
    one-trial batch on the same stream. A ``message`` chunk draws its
    inputs, then one :func:`pooled_run` of its trials; ``counts`` and
    ``law`` sum the inputs (drawn ones chunk by chunk, a fixed matrix once),
    then draw each instance's :func:`signed_sums`. The totals, ``(trials,)``,
    are ``None`` below ``message`` fidelity.
    """
    check_choice("fidelity", fidelity, FIDELITIES)
    k = len(instances)
    chunks = _batches(trials, 4 * instances[0].n_users)
    fixed = not callable(inputs)
    if fidelity == "message":
        sums = np.empty((trials, k), dtype=np.int64)
        totals = np.empty(trials, dtype=np.int64)
        for chunk, size in chunks:
            bits = inputs if fixed else inputs(rng, size)
            counts = pooled_run(bits, instances, rng, size)[0]
            sums[chunk] = counts[:, 1::2] - counts[:, 0::2]
            totals[chunk] = counts.sum(axis=1)
        return sums, totals
    if fixed:
        ones = inputs.sum(axis=0, dtype=np.int64)
    else:
        ones = np.empty((trials, k), dtype=np.int64)
        for chunk, size in chunks:
            ones[chunk] = inputs(rng, size).sum(axis=1, dtype=np.int64)
    sums = [
        signed_sums(ones[..., j], inst, rng, fidelity, size=trials)
        for j, inst in enumerate(instances)
    ]
    return np.stack(sums, axis=-1), None


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


def analyze(view: View) -> int:
    """Analyzer output: the signed sum of all messages, ``V_plus - V_minus``."""
    return view.plus_count - view.minus_count


def encode_wire(messages: np.ndarray) -> np.ndarray:
    """Wire format: one bit per message, 1 for +1 and 0 for -1."""
    messages = np.asarray(messages)
    view_of(messages)  # rejects anything but +1/-1
    return (messages > 0).astype(np.uint8)


def decode_wire(bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_wire`."""
    bits = np.asarray(bits)
    if not ((bits == 0) | (bits == 1)).all():
        raise ParameterError("wire bits must be 0 or 1")
    return (2 * bits.astype(np.int8)) - 1


def run_counting(
    xs: Sequence[int], params: ProtocolParams, rng: RandomSource
) -> CountingRun:
    """Run the full pipeline: randomize every user, pool, analyze.

    This is the one-instance :func:`pooled_run`, drawn on ``rng``'s own
    stream.
    """
    bits = check_array("xs", xs, 0, 1)
    if bits.size != params.n_users:
        raise ParameterError(f"got {bits.size} inputs for n_users={params.n_users}")
    require_feasible(params)
    counts, per_user = pooled_run(bits[:, None], [params], rng)
    view = View(int(counts[1]), int(counts[0]))
    return CountingRun(
        estimate=analyze(view),
        messages_per_user=tuple(per_user.tolist()),
        view=view,
    )


def sample_estimate(
    ones: int, params: ProtocolParams, rng: RandomSource, size=None
):
    """Derivation-level simulation: draw straight from the estimate law.

    The end-to-end estimate is distributed as
    ``ones - Binomial(ones, drop_prob) + DLap(noise_epsilon)``; this samples
    that law directly, with no per-user structure. Intended for large-scale
    error experiments only.
    """
    return signed_sums(ones, params, rng, "law", size=size)


def simulate_views(
    zeros: int,
    ones: int,
    params: ProtocolParams,
    trials: int,
    rng: RandomSource,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the shuffler's view for many runs at counts fidelity.

    Every user's drop and noise shares are drawn individually (the same
    per-user laws as :func:`randomize`) and summed over users as they are
    drawn, and each trial's flooding is one Poisson total with the law of the
    per-user sum (:func:`_draw_totals`): ``2 n`` shares, about
    ``drop_prob * n`` drop positions and one flooding total per trial, in
    chunks of ``CHUNK_ELEMENTS // (2 n)`` trials. The multiset itself is
    never materialized because the view is already a function of the counts.

    Returns
    -------
    (v_plus, v_minus) : pair of int64 arrays of length ``trials``.
    """
    bits = _count_bits(zeros, ones, params.n_users)
    chunks = _batches(trials, 2 * bits.size)
    v_plus, v_minus = np.empty((2, trials), dtype=np.int64)
    for chunk, size in chunks:
        v_plus[chunk], v_minus[chunk] = _draw_totals(bits, params, rng, size)
    return v_plus, v_minus


def estimate_trials(
    zeros: int,
    ones: int,
    params: ProtocolParams,
    trials: int,
    rng: RandomSource,
    fidelity: str = "message",
) -> np.ndarray:
    """Repeated protocol estimates for Monte Carlo measurement.

    ``message`` fidelity draws every user's drop and noise shares for
    batches of trials, as :func:`run_counting` does for one run, and each
    trial's flooding as one Poisson total; flooding is drawn last and
    cancels, so a single trial's estimate equals :func:`run_counting`'s on
    the same stream. ``counts`` draws per-user noise shares without building
    the multiset; ``law`` samples the closed-form estimate law. All three
    produce the same estimate distribution.
    """
    bits = _count_bits(zeros, ones, params.n_users)
    return run_trials(bits[:, None], [params], trials, rng, fidelity)[0][:, 0]


def message_count_trials(
    x: int, params: ProtocolParams, trials: int, rng: RandomSource
) -> np.ndarray:
    """Total messages sent by a single user with input ``x``, over many runs."""
    bits = np.array([check_count("x", x, 0, 1)], dtype=np.int64)
    chunks = _batches(trials, 4)
    out = np.empty(trials, dtype=np.int64)
    for chunk, size in chunks:
        out[chunk] = draw_counts(bits, params, rng, size).message_count[:, 0]
    return out
