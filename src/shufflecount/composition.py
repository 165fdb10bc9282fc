"""Real-valued summation and histograms composed from tagged counting instances.

Real summation fixes a precision of ``n_bits``, stochastically rounds every
input to that grid, and runs one counting instance per bit position with a
geometrically decaying budget split (ratio ``2**(-2/3)``, which minimizes the
sum of squared place values over squared budgets subject to the total).
Histograms run one counting instance per bucket at budget ``epsilon / 2``
each: changing one user's value touches at most two buckets.

Messages from all instances are pooled, tagged with their instance index;
per-instance views are the per-tag counts of the pool, which no shuffle of it
changes, so pooling costs nothing and a run draws no permutation. An
instance's counts depend on its inputs only through how many users hold a
one, so instances enter :func:`protocol.run_trials` as those counts: a
histogram's bucket counts, and a real sum's per-bit sums of each trial's
rounding.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .dist import RandomSource
from .errors import (
    DegenerateInputError,
    ParameterError,
    check_array,
    check_count,
    check_real,
)
from .params import (
    MAX_EPSILON,
    SLACK,
    ProtocolParams,
    derive_params,
    minimal_params,
    target_drop_prob,
    target_noise_epsilon,
)
from .protocol import run_trials

#: Budget decay ratio between consecutive bit positions.
BETA = 2.0 ** (-2.0 / 3.0)


def tag_bits(num_instances: int) -> int:
    """Fixed-width binary tag size for ``num_instances`` pooled instances."""
    return (check_count("num_instances", num_instances, 1) - 1).bit_length()


def message_bits(num_instances: int) -> int:
    """Wire size of one pooled message: tag bits plus the sign bit."""
    return tag_bits(num_instances) + 1


def split_budget(epsilon: float, k: int) -> np.ndarray:
    """Split a budget across ``k`` instances with decay ratio :data:`BETA`.

    ``eps_j = eps * (1 - beta) * beta**j / (1 - beta**k)``; the parts sum to
    ``epsilon`` up to 1e-12 and never exceed it.
    """
    epsilon = check_real("epsilon", epsilon)
    k = check_count("k", k, 1)
    j = np.arange(k)
    parts = epsilon * (1.0 - BETA) * BETA**j / (1.0 - BETA**k)
    excess = math.fsum(parts) - epsilon
    if excess > 0.0:
        parts[0] -= excess  # keep the float sum at or below the budget
    return parts


def bit_weights(k: int) -> np.ndarray:
    """Place values ``2**-(j+1)``, most significant bit first."""
    return 2.0 ** -(np.arange(k) + 1.0)


def real_sum_params(
    epsilon: float, slack: float, n_bits: int, n_users: int
) -> list[ProtocolParams]:
    """Per-bit instance parameters for a real-sum run.

    Every instance gets its split budget and slack-derived noise budget, but
    all instances share the *top-level* drop probability
    ``0.1 * slack * Var(DLap(epsilon)) / n``: the feasibility clauses hold
    for any drop probability in (0, 1), and a smaller one only reduces the
    error, while per-bit drop probabilities blow past 1 for the low-order
    bits at realistic user counts.
    """
    budgets = split_budget(epsilon, check_count("n_bits", n_bits, 1))
    if budgets[0] > MAX_EPSILON:  # the largest part: the budgets decay
        raise ParameterError(
            f"epsilon={epsilon} gives bit 0 a split budget of {budgets[0]:.4g}, "
            f"above the {MAX_EPSILON} an instance takes"
        )
    check_real("slack", slack, *SLACK)
    n_users = check_count("n_users", n_users, 1)
    drop_prob = target_drop_prob(epsilon, slack, n_users)
    instances = []
    for j, eps_j in enumerate(budgets.tolist()):
        if eps_j < 1.0 / n_users:
            raise DegenerateInputError(
                f"bit {j}: split budget {eps_j:.4g} is below 1/n_users; "
                "reduce n_bits or add users"
            )
        instances.append(
            minimal_params(
                eps_j,
                target_noise_epsilon(eps_j, slack),
                drop_prob,
                n_users,
                slack=slack,
            )
        )
    return instances


class RealSumRun(NamedTuple):
    """Result of one real-sum execution."""

    estimate: float
    bit_counts: tuple[int, ...]
    instances: tuple[ProtocolParams, ...]
    fidelity: str
    total_messages: int | None = None


class HistogramRun(NamedTuple):
    """Result of one histogram execution."""

    estimates: tuple[int, ...]
    instance: ProtocolParams
    fidelity: str
    total_messages: int | None = None


def _bit_sums(xs: np.ndarray, n_bits: int):
    """Per-bit sums of a real-sum run's inputs, stochastically rounded on every draw.

    Returns ``draw(rng, rows)``: for each of ``rows`` trials, how many users'
    rounded values have a one at each bit position, most significant first,
    shape ``(rows, n_bits)``. The rounded values are held in their narrowest
    dtype and each position is counted in turn, so no array of all the bits
    is built.
    """
    scale = 1 << n_bits
    dtype = np.min_scalar_type(scale - 1)

    def draw(rng: RandomSource, rows: int) -> np.ndarray:
        v = np.floor(xs * scale + rng.generator.random((rows, len(xs))))
        v = np.minimum(v, scale - 1).astype(dtype)
        bits = [np.count_nonzero(v & (1 << (n_bits - 1 - k)), axis=1) for k in range(n_bits)]
        return np.stack(bits, axis=-1)

    return draw


def _real_sum_trials(xs, epsilon, slack, n_bits, trials, rng, fidelity):
    """Instances, per-bit signed sums and message totals of real-sum trials."""
    xs = check_array("xs", xs, 0.0, 1.0, "iuf")
    instances = real_sum_params(epsilon, slack, n_bits, xs.size)
    return (instances, *run_trials(_bit_sums(xs, n_bits), instances, trials, rng, fidelity))


def run_real_sum(
    xs: Sequence[float],
    epsilon: float,
    slack: float,
    n_bits: int,
    rng: RandomSource,
    fidelity: str = "message",
) -> RealSumRun:
    """Estimate the sum of values in [0, 1] privately.

    Inputs are stochastically rounded to ``n_bits`` fixed-point bits; one
    counting instance runs per bit position and the estimate is the
    place-value weighted sum of the instance outputs. This is a one-trial
    batch of :func:`real_sum_trials` on the same stream.
    """
    instances, counts, totals = _real_sum_trials(xs, epsilon, slack, n_bits, 1, rng, fidelity)
    return RealSumRun(
        estimate=float(bit_weights(n_bits) @ counts[0]),
        bit_counts=tuple(int(c) for c in counts[0]),
        instances=tuple(instances),
        fidelity=fidelity,
        total_messages=None if totals is None else int(totals[0]),
    )


def real_sum_trials(
    xs: Sequence[float],
    epsilon: float,
    slack: float,
    n_bits: int,
    trials: int,
    rng: RandomSource,
    fidelity: str = "counts",
) -> np.ndarray:
    """Repeated real-sum estimates for error measurement.

    Rounding is re-drawn every trial, so the returned estimates carry the
    full pipeline error (rounding plus drops plus noise) against the exact
    input sum.
    """
    counts = _real_sum_trials(xs, epsilon, slack, n_bits, trials, rng, fidelity)[1]
    return counts @ bit_weights(n_bits)


def histogram_params(
    epsilon: float, slack: float, n_users: int
) -> ProtocolParams:
    """Shared per-bucket instance parameters: full derivation at ``epsilon/2``."""
    epsilon = check_real("epsilon", epsilon)
    if epsilon > 2.0 * MAX_EPSILON:
        raise ParameterError(
            f"epsilon={epsilon} gives each bucket's instance epsilon/2 = {epsilon / 2.0}, "
            f"above the {MAX_EPSILON} an instance takes"
        )
    return derive_params(epsilon / 2.0, slack, n_users)


def _histogram_trials(xs, n_buckets, epsilon, slack, trials, rng, fidelity):
    """Shared instance, per-bucket signed sums and message totals of histogram trials.

    Bucket ``b``'s instance runs on the count of users whose value is ``b``.
    """
    n_buckets = check_count("n_buckets", n_buckets, 1)
    xs = check_array("xs", xs, 0, n_buckets - 1)
    inst = histogram_params(epsilon, slack, xs.size)
    ones = np.bincount(xs, minlength=n_buckets)
    return (inst, *run_trials(ones, [inst] * n_buckets, trials, rng, fidelity))


def run_histogram(
    xs: Sequence[int],
    n_buckets: int,
    epsilon: float,
    slack: float,
    rng: RandomSource,
    fidelity: str = "message",
) -> HistogramRun:
    """Estimate per-bucket counts of values in ``{0, ..., n_buckets - 1}``.

    One counting instance runs per bucket on the indicator bits
    ``x_i == b``, each at budget ``epsilon / 2``; messages are pooled and
    tagged with the bucket index. This is a one-trial batch of
    :func:`histogram_trials` on the same stream.
    """
    inst, counts, totals = _histogram_trials(xs, n_buckets, epsilon, slack, 1, rng, fidelity)
    return HistogramRun(
        estimates=tuple(int(c) for c in counts[0]),
        instance=inst,
        fidelity=fidelity,
        total_messages=None if totals is None else int(totals[0]),
    )


def histogram_trials(
    xs: Sequence[int],
    n_buckets: int,
    epsilon: float,
    slack: float,
    trials: int,
    rng: RandomSource,
    fidelity: str = "counts",
) -> np.ndarray:
    """Repeated histogram estimates, shape ``(trials, n_buckets)``."""
    return _histogram_trials(xs, n_buckets, epsilon, slack, trials, rng, fidelity)[1]
