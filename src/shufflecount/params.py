"""Protocol parameter validation and derivation.

A parameter set is *feasible* when three clauses hold together:

1. the noise budget is strictly below the overall budget,
2. the pad count is at least ``2 ln(1/((e^eps - 1) q)) / (eps - eps_noise)``,
3. the flood mean is at least ``e^{eps - eps_noise} / (1 - e^{(eps_noise - eps)/2})``
   times the pad count.

:func:`check_condition` evaluates the clauses independently (violations are
data, not exceptions); :func:`derive_params` produces the cheapest feasible
set for a target budget, slack and user count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .dist import dlap_variance
from .errors import (
    DegenerateInputError,
    InfeasibleParametersError,
    ParameterError,
    check_count,
    check_real,
)

#: Largest accepted privacy budget. The guarantees are meant for constant-order
#: budgets; 8 covers every practical regime while keeping e^eps comfortable.
MAX_EPSILON = 8.0

#: Intervals of :func:`errors.check_real`: the budget, the accuracy slack and
#: the drop probability (zero is representable, never feasible).
EPSILON = (0.0, MAX_EPSILON, "(]")
SLACK = (0.0, 0.5, "(]")
DROP_PROB = (0.0, 1.0, "[)")

CLAUSE_BUDGET_GAP = "budget_gap"
CLAUSE_PAD_COUNT = "pad_count"
CLAUSE_FLOOD_MEAN = "flood_mean"


@dataclass(frozen=True)
class ProtocolParams:
    """Concrete parameters of one counting instance.

    Attributes
    ----------
    n_users : int
        Number of participating users.
    epsilon : float
        Overall privacy budget of the instance.
    noise_epsilon : float
        Log-ratio scale of the geometric noise (strictly below ``epsilon``
        in any feasible set).
    drop_prob : float
        Probability that a user's input-dependent messages are suppressed.
        Zero is representable (it is the known non-private configuration
        used as an audit negative control) but never feasible.
    pad_count : int
        Symmetric padding: a participating user sends ``pad_count + x``
        plus-messages and ``pad_count`` minus-messages.
    flood_mean : float
        Mean of the Poisson flooding messages (split across users).
    slack : float or None
        Accuracy slack the set was derived for, when it came from
        :func:`derive_params`.
    """

    n_users: int
    epsilon: float
    noise_epsilon: float
    drop_prob: float
    pad_count: int
    flood_mean: float
    slack: float | None = None

    def __post_init__(self):
        # store what the checks return: built-in ints and floats, never numpy scalars
        checked = {
            "n_users": check_count("n_users", self.n_users, 1),
            "epsilon": check_real("epsilon", self.epsilon, *EPSILON),
            "noise_epsilon": check_real("noise_epsilon", self.noise_epsilon),
            "drop_prob": check_real("drop_prob", self.drop_prob, *DROP_PROB),
            "pad_count": check_count("pad_count", self.pad_count, 1),
            "flood_mean": check_real("flood_mean", self.flood_mean),
        }
        if self.slack is not None:
            checked["slack"] = check_real("slack", self.slack, *SLACK)
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        return dict(vars(self))  # the fields in declaration order


class ConditionCheck(NamedTuple):
    """Outcome of the three-clause feasibility check."""

    ok: bool
    violations: tuple[str, ...]
    pad_threshold: float = math.nan
    flood_threshold: float = math.nan


def pad_count_threshold(epsilon: float, noise_epsilon: float, drop_prob: float) -> float:
    """Smallest real pad count allowed by clause 2 (``inf`` when unsatisfiable)."""
    gap = epsilon - noise_epsilon
    if gap <= 0.0 or drop_prob <= 0.0:
        return math.inf
    # 2 ln(1/((e^eps - 1) q)) / gap, kept stable via expm1/log for small gaps
    return -2.0 * (math.log(math.expm1(epsilon)) + math.log(drop_prob)) / gap


def flood_factor(epsilon: float, noise_epsilon: float) -> float:
    """Clause-3 multiplier ``e^{gap} / (1 - e^{-gap/2})`` (``inf`` for gap <= 0)."""
    gap = epsilon - noise_epsilon
    if gap <= 0.0:
        return math.inf
    return math.exp(gap) / -math.expm1(-gap / 2.0)


def check_condition(params: ProtocolParams) -> ConditionCheck:
    """Evaluate the three feasibility clauses independently.

    Violations are reported as data; nothing raises. A set is feasible
    (``ok``) iff every clause holds.
    """
    violations = []
    if not (params.noise_epsilon < params.epsilon):
        violations.append(CLAUSE_BUDGET_GAP)
    pad_thr = pad_count_threshold(params.epsilon, params.noise_epsilon, params.drop_prob)
    if not (params.pad_count >= pad_thr):
        violations.append(CLAUSE_PAD_COUNT)
    factor = flood_factor(params.epsilon, params.noise_epsilon)
    flood_thr = factor * params.pad_count
    if not (params.flood_mean >= flood_thr):
        violations.append(CLAUSE_FLOOD_MEAN)
    return ConditionCheck(
        ok=not violations,
        violations=tuple(violations),
        pad_threshold=pad_thr,
        flood_threshold=flood_thr,
    )


def require_feasible(params: ProtocolParams) -> None:
    """Raise :class:`ParameterError` naming the violated clauses, if any."""
    check = check_condition(params)
    if not check.ok:
        raise ParameterError(
            f"parameters violate feasibility clauses {list(check.violations)}"
        )


def target_noise_epsilon(epsilon: float, slack: float) -> float:
    """Noise budget ``eps - 0.01 * slack * min(eps, 1)`` for a given slack."""
    return epsilon - 0.01 * slack * min(epsilon, 1.0)


def target_drop_prob(epsilon: float, slack: float, n_users: int) -> float:
    """Drop probability ``0.1 * slack * Var(DLap(eps)) / n`` for a given slack.

    Raises
    ------
    InfeasibleParametersError
        If the recipe lands at or above 1 (small budgets with few users).
    """
    q = 0.1 * slack * dlap_variance(epsilon) / n_users
    if q >= 1.0:
        raise InfeasibleParametersError(
            f"derived drop_prob {q:.4g} >= 1 for epsilon={epsilon}, "
            f"slack={slack}, n_users={n_users}"
        )
    return q


def minimal_params(
    epsilon: float,
    noise_epsilon: float,
    drop_prob: float,
    n_users: int,
    slack: float | None = None,
) -> ProtocolParams:
    """Cheapest feasible set for explicit budgets and drop probability.

    The pad count is the smallest positive integer satisfying clause 2 and
    the flood mean is its clause-3 threshold rounded up to an integer
    (rounding up preserves the clause).
    """
    check_real("epsilon", epsilon, *EPSILON)
    check_real("noise_epsilon", noise_epsilon)
    check_real("drop_prob", drop_prob, *DROP_PROB)
    pad_thr = pad_count_threshold(epsilon, noise_epsilon, drop_prob)
    if math.isinf(pad_thr):
        raise InfeasibleParametersError(
            "no finite pad count satisfies clause 2 for "
            f"epsilon={epsilon}, noise_epsilon={noise_epsilon}, drop_prob={drop_prob}"
        )
    pad_count = max(1, math.ceil(pad_thr))
    flood_mean = float(math.ceil(flood_factor(epsilon, noise_epsilon) * pad_count))
    params = ProtocolParams(
        n_users=n_users,
        epsilon=epsilon,
        noise_epsilon=noise_epsilon,
        drop_prob=drop_prob,
        pad_count=pad_count,
        flood_mean=flood_mean,
        slack=slack,
    )
    check = check_condition(params)
    if not check.ok:  # pragma: no cover - construction guarantees feasibility
        raise InfeasibleParametersError(f"derived set violates {check.violations}")
    return params


def derive_params(epsilon: float, slack: float, n_users: int) -> ProtocolParams:
    """Derive the cheapest feasible parameters for a budget, slack and user count.

    The noise budget and drop probability follow the accuracy-slack recipe
    (:func:`target_noise_epsilon`, :func:`target_drop_prob`); pad count and
    flood mean are then minimal for the clauses. The result always passes
    :func:`check_condition`.

    Parameters
    ----------
    epsilon : float
        Overall privacy budget, in ``(0, 8]``.
    slack : float
        Relative accuracy slack in ``(0, 1/2]``; larger slack buys a cheaper
        protocol (smaller pad count and flood mean).
    n_users : int
        Number of users; the budget must be at least ``1/n_users``.

    Raises
    ------
    DegenerateInputError
        If ``epsilon < 1/n_users``. In that regime the caller should simply
        output zero instead of running the protocol.
    InfeasibleParametersError
        If the drop-probability recipe lands at or above 1.
    """
    epsilon = check_real("epsilon", epsilon, *EPSILON)
    slack = check_real("slack", slack, *SLACK)
    n_users = check_count("n_users", n_users, 1)
    if epsilon < 1.0 / n_users:
        raise DegenerateInputError(
            f"epsilon={epsilon} is below 1/n_users={1.0 / n_users}: "
            "the protocol degenerates to outputting zero"
        )
    noise_epsilon = target_noise_epsilon(epsilon, slack)
    drop_prob = target_drop_prob(epsilon, slack, n_users)
    return minimal_params(epsilon, noise_epsilon, drop_prob, n_users, slack=slack)
