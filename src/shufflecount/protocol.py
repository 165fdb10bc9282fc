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
instance's output without per-user counts, and :func:`run_trials` repeats
runs for Monte Carlo measurement. The analyzer reads only per-code totals of
the pool, which no permutation changes, so a run draws no shuffle;
:func:`shuffle` materializes a uniformly shuffled sequence where the order
itself is wanted (wire dumps, tests). Three simulation fidelities exist:

``message``
    The default pipeline: every user's message counts in every instance,
    flooding included, are drawn, and the analyzer reads the pool's per-code
    totals. Per-user and total message counts are reported.
``counts``
    Only what the signed sum needs is drawn: the dropped inputs and every
    user's noise shares, not flooding or per-user message counts. The
    estimate law is exactly the same because flooding cancels in the sum.
``law``
    Derivation-level simulation of the closed-form estimate law
    ``ones - Binomial(ones, q) + DLap(noise_epsilon)``. No per-user structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dist import RandomSource, geo_success_prob, sample_dlap, sample_nb, sample_poi
from .errors import ParameterError
from .params import ProtocolParams, require_feasible

FIDELITIES = ("message", "counts", "law")

#: Most per-user draws a batch of trials holds at once: ``counts`` fidelity
#: and :func:`simulate_views` hold ``2 n`` noise shares per trial, ``message``
#: fidelity ``4 n`` draws (the shares, keep flags and flooding counts). Larger
#: batches are drawn in chunks of whole trials on the same stream.
CHUNK_ELEMENTS = 1 << 22


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


def _check_bit(x: int) -> int:
    if x not in (0, 1):
        raise ParameterError(f"inputs must be bits in {{0, 1}}, got {x!r}")
    return int(x)


def check_fidelity(fidelity: str) -> None:
    """Raise :class:`ParameterError` unless ``fidelity`` is one of :data:`FIDELITIES`."""
    if fidelity not in FIDELITIES:
        raise ParameterError(f"fidelity must be one of {FIDELITIES}")


def _count_bits(zeros: int, ones: int, n: int) -> np.ndarray:
    """Input bits of a counting dataset, ones first."""
    if zeros < 0 or ones < 0 or zeros + ones != n:
        raise ParameterError(
            f"zeros and ones must be non-negative and sum to n_users={n}"
        )
    return np.repeat(np.array([1, 0], dtype=np.int64), [ones, zeros])


def randomize(x: int, params: ProtocolParams, rng: RandomSource) -> Contribution:
    """Run one user's randomizer (scalar reference for :func:`draw_counts`).

    With probability ``1 - drop_prob`` the input-dependent block is
    ``(pad + x, pad)``, otherwise ``(0, 0)``. Noise counts are negative
    binomial with shape ``1/n`` (so they sum to a geometric across users) and
    the flooding count is Poisson with mean ``flood_mean / n``.
    """
    x = _check_bit(x)
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


def _draws(m: int, params: ProtocolParams, rng: RandomSource, lead: tuple):
    """The randomizer's draws for ``m`` users, shape ``lead + (m,)`` each.

    Keep flags, noise shares (``2m``, plus shares first) and flooding counts,
    drawn in that order on ``rng`` with shares ``1/params.n_users``.
    """
    keep = rng.generator.random(lead + (m,)) >= params.drop_prob
    p = geo_success_prob(params.noise_epsilon)
    noise = sample_nb(1.0 / params.n_users, p, rng, size=lead + (2 * m,))
    flood = sample_poi(params.flood_mean / params.n_users, rng, size=lead + (m,))
    return keep, noise, flood


def draw_counts(
    bits: np.ndarray, params: ProtocolParams, rng: RandomSource, trials=None
) -> Contribution:
    """The vectorized randomizer: message counts of the users holding ``bits``.

    Same per-user laws as :func:`randomize`, with shares ``1/params.n_users``
    for ``bits`` of shape ``(m,)`` or ``(trials, m)``. Fields have shape
    ``(m,)``, or ``(trials, m)`` when ``trials`` is given.
    """
    m = bits.shape[-1]
    keep, noise, flood = _draws(m, params, rng, () if trials is None else (trials,))
    return Contribution(
        input_plus=np.where(keep, params.pad_count + bits.astype(np.int64, copy=False), 0),
        input_minus=np.where(keep, params.pad_count, 0),
        noise_plus=noise[..., :m],
        noise_minus=noise[..., m:],
        flood=flood,
    )


def pooled_run(
    bits: np.ndarray, instances: Sequence[ProtocolParams], rng: RandomSource, trials=None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Message-level run of ``k`` instances pooled together.

    ``bits[..., i, j]`` is user ``i``'s input to instance ``j``. Each
    instance's counts are drawn in turn on ``rng``, for all ``trials`` at
    once when given, and nothing after: the analyzer reads only the pool's
    per-code totals, which no permutation changes. Returns the messages per
    code (code ``2j`` is instance ``j``'s -1, ``2j + 1`` its +1), with a
    leading trials axis when ``trials`` is given, and the messages per user
    of a single run, or ``None`` when ``trials`` is given.
    """
    totals = []
    per_user = None
    for j, inst in enumerate(instances):
        c = draw_counts(bits[..., j], inst, rng, trials)
        plus, minus = c.plus_count, c.minus_count
        totals += [minus.sum(axis=-1), plus.sum(axis=-1)]
        if trials is None:
            plus += minus
            per_user = plus if j == 0 else np.add(per_user, plus, out=per_user)
        del c, plus, minus  # hold one instance's draws at a time
    return np.stack(totals, axis=-1), per_user


def _noise_difference(params: ProtocolParams, rng: RandomSource, trials: int) -> np.ndarray:
    """Plus minus minus noise shares of all users, per trial, in bounded chunks."""
    n = params.n_users
    p = geo_success_prob(params.noise_epsilon)
    rows = max(1, CHUNK_ELEMENTS // (2 * n))
    out = np.empty(trials, dtype=np.int64)
    for start in range(0, trials, rows):
        noise = sample_nb(1.0 / n, p, rng, size=(min(rows, trials - start), 2 * n))
        out[start : start + rows] = noise[:, :n].sum(axis=1) - noise[:, n:].sum(axis=1)
    return out


def signed_sums(ones, params: ProtocolParams, rng: RandomSource, fidelity: str, size=None):
    """An instance's signed sum drawn without building messages.

    ``ones - Binomial(ones, drop_prob)`` plus the noise difference: the
    summed per-user shares at ``counts`` fidelity, one discrete Laplace draw
    at ``law`` fidelity. Flooding cancels in the sum and is not drawn.
    ``ones`` is a count or an array of counts of shape ``size``.
    """
    n = params.n_users
    if np.any(np.asarray(ones) < 0) or np.any(np.asarray(ones) > n):
        raise ParameterError(f"ones must lie in [0, n_users={n}]")
    kept = ones - rng.generator.binomial(ones, params.drop_prob, size=size)
    if fidelity == "law":
        return kept + sample_dlap(params.noise_epsilon, rng, size=size)
    if size is None:
        return kept + _noise_difference(params, rng, 1)[0]
    return kept + _noise_difference(params, rng, size)


def run_once(bits, instances, rng: RandomSource, fidelity: str):
    """One run of pooled instances: per-instance signed sums and message total.

    ``bits(rng, trials=None)`` returns the ``(n, k)`` input matrix, or
    ``(trials, n, k)`` when ``trials`` is given; it may draw on ``rng`` (the
    real sum's rounding) or ignore it. The total is ``None`` below
    ``message`` fidelity.
    """
    if fidelity == "message":
        counts = pooled_run(bits(rng), instances, rng)[0]
        return counts[1::2] - counts[0::2], int(counts.sum())
    return run_trials(bits, instances, 1, rng, fidelity)[0], None


def run_trials(bits, instances, trials: int, rng: RandomSource, fidelity: str) -> np.ndarray:
    """The trials engine: per-instance signed sums of repeated runs, ``(trials, k)``.

    ``bits`` is as in :func:`run_once`; every fidelity draws on ``rng``.
    ``message`` trials come in chunks of ``CHUNK_ELEMENTS // (4 n)``: each
    draws its inputs, then one :func:`pooled_run` of all its trials, and
    keeps only the signed sums. ``counts`` and ``law`` draw all inputs, then
    each instance's :func:`signed_sums`.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if fidelity != "message":
        ones = bits(rng, trials).sum(axis=-2, dtype=np.int64)
        return np.stack(
            [
                signed_sums(ones[..., j], inst, rng, fidelity, size=trials)
                for j, inst in enumerate(instances)
            ],
            axis=-1,
        )
    out = np.empty((trials, len(instances)), dtype=np.int64)
    rows = max(1, CHUNK_ELEMENTS // (4 * instances[0].n_users))
    for start in range(0, trials, rows):
        size = min(rows, trials - start)
        counts = pooled_run(bits(rng, size), instances, rng, size)[0]
        out[start : start + size] = counts[:, 1::2] - counts[:, 0::2]
    return out


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
    """Summarize a +1/-1 message sequence into its view."""
    messages = np.asarray(messages)
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
    if len(xs) != params.n_users:
        raise ParameterError(
            f"got {len(xs)} inputs for n_users={params.n_users}"
        )
    bits = np.array([_check_bit(x) for x in xs], dtype=np.int64)
    require_feasible(params)
    counts, per_user = pooled_run(bits[:, None], [params], rng)
    view = View(int(counts[1]), int(counts[0]))
    return CountingRun(
        estimate=analyze(view),
        messages_per_user=tuple(int(m) for m in per_user),
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

    Every user's randomizer output counts are drawn individually (the same
    per-user laws as :func:`randomize`, in chunks of trials under
    ``CHUNK_ELEMENTS``) and summed; the multiset itself is never
    materialized because the view is already a function of the counts.

    Returns
    -------
    (v_plus, v_minus) : pair of int64 arrays of length ``trials``.
    """
    bits = _count_bits(zeros, ones, params.n_users)
    n = bits.size
    rows = max(1, CHUNK_ELEMENTS // (2 * n))
    v_plus, v_minus = np.empty((2, trials), dtype=np.int64)
    for start in range(0, trials, rows):
        keep, noise, flood = _draws(n, params, rng, (min(rows, trials - start),))
        flood = flood.sum(axis=1)
        chunk = slice(start, start + rows)
        v_plus[chunk] = keep @ (params.pad_count + bits) + noise[:, :n].sum(axis=1) + flood
        v_minus[chunk] = keep.sum(axis=1) * params.pad_count + noise[:, n:].sum(axis=1) + flood
        del keep, noise, flood  # hold one chunk's draws at a time
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

    ``message`` fidelity draws every user's message counts for batches of
    trials, as :func:`run_counting` does for one run (a single trial equals
    :func:`run_counting` on the same stream). ``counts`` draws per-user
    noise shares without building the multiset; ``law`` samples the
    closed-form estimate law. All three produce the same estimate
    distribution.
    """
    check_fidelity(fidelity)
    bits = _count_bits(zeros, ones, params.n_users)
    return run_trials(
        lambda rng, trials=None: bits[:, None], [params], trials, rng, fidelity
    )[:, 0]


def message_count_trials(
    x: int, params: ProtocolParams, trials: int, rng: RandomSource
) -> np.ndarray:
    """Total messages sent by a single user with input ``x``, over many runs."""
    bits = np.array([_check_bit(x)], dtype=np.int64)
    return draw_counts(bits, params, rng, trials).message_count[:, 0]
