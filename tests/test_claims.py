"""The derivation recipe's claims, from closed forms only.

Over the claims grid of budgets and user counts, the sets ``derive_params``
emits at slack 1/2 keep the worst-case MSE within a constant over epsilon
squared, pad in proportion to ``ln n``, and cost about twice the messages
per halving of a budget of at most 1 once n is large enough that flooding
is not most of the cost.
"""

import pytest

from shufflecount import derive_params, exact_mean_messages, mse_bound

EPSILONS = (1 / 8, 1 / 4, 1 / 2, 1, 2, 4)
USERS = (10**2, 10**4, 10**6, 10**8)


def _params(epsilon, n):
    return derive_params(epsilon, 0.5, n)


@pytest.mark.parametrize("n", USERS)
@pytest.mark.parametrize("epsilon", EPSILONS)
def test_mse_bound_is_order_one_over_epsilon_squared(epsilon, n):
    # 0.642 to 2.756 over the grid
    assert mse_bound(_params(epsilon, n)) * epsilon**2 <= 3.0


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_pad_is_affine_in_log_n(epsilon):
    # 1842 per x100 at epsilon = 1, 3684 at 1/2, 14736 or 14737 at 1/8
    pads = [_params(epsilon, n).pad_count for n in USERS]
    steps = [b - a for a, b in zip(pads, pads[1:])]
    assert max(steps) - min(steps) <= 1


@pytest.mark.parametrize("n", USERS[1:])
@pytest.mark.parametrize("epsilon", [e for e in EPSILONS if e <= 1 / 2])
def test_messages_double_per_halving_of_epsilon(epsilon, n):
    # 1.916 to 2.131 for n >= 10**4; at n = 100 flooding makes it 3.3 to 3.4
    ratio = exact_mean_messages(_params(epsilon, n), 1) / exact_mean_messages(
        _params(2 * epsilon, n), 1
    )
    assert 1.9 <= ratio <= 2.2
