import math

import pytest

from shufflecount import (
    DegenerateInputError,
    InfeasibleParametersError,
    ParameterError,
    ProtocolParams,
    check_condition,
    derive_params,
    dlap_variance,
    minimal_params,
)
from shufflecount.composition import histogram_params, real_sum_params
from shufflecount.params import (
    CLAUSE_BUDGET_GAP,
    CLAUSE_FLOOD_MEAN,
    CLAUSE_PAD_COUNT,
    flood_factor,
    pad_count_threshold,
)


def _params(eps, eps_noise, q, s, lam, n=100):
    return ProtocolParams(
        n_users=n,
        epsilon=eps,
        noise_epsilon=eps_noise,
        drop_prob=q,
        pad_count=s,
        flood_mean=lam,
    )


class TestCheckCondition:
    def test_reference_set_is_feasible(self):
        for n in (1, 100, 10**6):
            check = check_condition(_params(1.0, 0.5, 0.01, 17, 127.0, n=n))
            assert check.ok
            assert check.violations == ()

    def test_equal_budgets_violate_gap_clause(self):
        check = check_condition(_params(1.0, 1.0, 0.01, 17, 127.0))
        assert not check.ok
        assert CLAUSE_BUDGET_GAP in check.violations

    def test_pad_one_short_violates_pad_clause(self):
        # minimal pad for (1, 0.5, 0.01) is 17: threshold 16.2553...
        threshold = pad_count_threshold(1.0, 0.5, 0.01)
        assert threshold == pytest.approx(16.255381325500693, rel=1e-12)
        check = check_condition(_params(1.0, 0.5, 0.01, 16, 127.0))
        assert check.violations == (CLAUSE_PAD_COUNT,)

    def test_flood_one_short_violates_flood_clause(self):
        check = check_condition(_params(1.0, 0.5, 0.01, 17, 126.0))
        assert check.violations == (CLAUSE_FLOOD_MEAN,)

    def test_zero_drop_prob_cannot_be_feasible(self):
        check = check_condition(_params(1.0, 0.5, 0.0, 10**6, 10**9))
        assert CLAUSE_PAD_COUNT in check.violations

    def test_violations_are_data_not_errors(self):
        check = check_condition(_params(2.0, 2.5, 0.5, 1, 1.0))
        assert not check.ok
        assert set(check.violations) <= {
            CLAUSE_BUDGET_GAP,
            CLAUSE_PAD_COUNT,
            CLAUSE_FLOOD_MEAN,
        }


class TestDeriveParams:
    def test_reference_derivation(self):
        p = derive_params(1.0, 0.5, 1000)
        assert p.noise_epsilon == pytest.approx(0.995, abs=1e-15)
        expected_q = 0.1 * 0.5 * dlap_variance(1.0) / 1000
        assert p.drop_prob == pytest.approx(expected_q, rel=1e-14)
        assert p.drop_prob == pytest.approx(9.206735942077924e-05, rel=1e-12)

    def test_pad_is_smallest_satisfying_integer(self):
        p = derive_params(1.0, 0.5, 1000)
        threshold = pad_count_threshold(p.epsilon, p.noise_epsilon, p.drop_prob)
        assert p.pad_count >= threshold
        assert p.pad_count - 1 < threshold
        # gap is 0.005, so the clause reads s >= 400 ln(1/((e - 1) q))
        literal = 400.0 * math.log(1.0 / ((math.e - 1.0) * p.drop_prob))
        assert p.pad_count == math.ceil(literal)
        # brute check around the boundary
        assert check_condition(p).ok
        lowered = ProtocolParams(
            p.n_users, p.epsilon, p.noise_epsilon, p.drop_prob,
            p.pad_count - 1, p.flood_mean,
        )
        assert CLAUSE_PAD_COUNT in check_condition(lowered).violations

    def test_flood_is_minimal_integer_and_unrounded_minimum_is_tight(self):
        p = derive_params(1.0, 0.5, 1000)
        factor = flood_factor(p.epsilon, p.noise_epsilon)
        exact_minimum = factor * p.pad_count
        assert p.flood_mean == math.ceil(exact_minimum)
        lowered = ProtocolParams(
            p.n_users, p.epsilon, p.noise_epsilon, p.drop_prob,
            p.pad_count, p.flood_mean - 1.0,
        )
        assert CLAUSE_FLOOD_MEAN in check_condition(lowered).violations
        # the true (real-valued) minimum is itself tight: any shrink violates
        assert exact_minimum * (1.0 - 1e-6) < exact_minimum

    def test_degenerate_epsilon_below_one_over_n(self):
        with pytest.raises(DegenerateInputError):
            derive_params(1e-4, 0.5, 10)

    def test_infeasible_drop_probability(self):
        # eps=0.02 >= 1/100 is not degenerate, but q = 0.05 Var(DLap(0.02))/100 > 1
        with pytest.raises(InfeasibleParametersError):
            derive_params(0.02, 0.5, 100)

    def test_validation_errors(self):
        with pytest.raises(ParameterError):
            derive_params(1.0, 0.6, 100)
        with pytest.raises(ParameterError):
            derive_params(0.0, 0.5, 100)
        with pytest.raises(ParameterError):
            derive_params(9.0, 0.5, 100)
        with pytest.raises(ParameterError):
            derive_params(1.0, 0.5, 0)


@pytest.mark.parametrize("eps", [0.1, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("slack", [0.1, 0.5])
@pytest.mark.parametrize("n", [100, 10_000, 1_000_000])
def test_derived_sets_always_feasible(eps, slack, n):
    p = derive_params(eps, slack, n)
    assert check_condition(p).ok
    assert p.slack == slack


@pytest.mark.parametrize("eps", [0.1, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [100, 10_000, 1_000_000])
def test_minimality_on_grid(eps, n):
    p = derive_params(eps, 0.5, n)
    shrunk_pad = ProtocolParams(
        p.n_users, p.epsilon, p.noise_epsilon, p.drop_prob,
        p.pad_count - 1, p.flood_mean,
    ) if p.pad_count > 1 else None
    if shrunk_pad is not None:
        assert CLAUSE_PAD_COUNT in check_condition(shrunk_pad).violations
    exact_flood = flood_factor(p.epsilon, p.noise_epsilon) * p.pad_count
    assert p.flood_mean - 1.0 < exact_flood


@pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [100, 10_000])
def test_cost_monotone_in_slack(eps, n):
    cheap = derive_params(eps, 0.5, n)
    costly = derive_params(eps, 0.1, n)
    assert cheap.pad_count <= costly.pad_count
    assert cheap.flood_mean <= costly.flood_mean


class TestMinimalParams:
    def test_reference_acceptance_set(self):
        p = minimal_params(1.0, 0.5, 0.01, 3)
        assert (p.pad_count, p.flood_mean) == (17, 127.0)

    def test_second_and_third_sets(self):
        p = minimal_params(0.5, 0.25, 0.01, 3)
        assert (p.pad_count, p.flood_mean) == (41, 449.0)
        p = minimal_params(2.0, 1.0, 0.001, 3)
        assert (p.pad_count, p.flood_mean) == (11, 76.0)

    def test_zero_drop_prob_is_infeasible(self):
        with pytest.raises(InfeasibleParametersError):
            minimal_params(1.0, 0.5, 0.0, 3)

    @pytest.mark.parametrize(
        "eps, eta, q",
        [
            (math.nan, 0.5, 0.01),
            (math.inf, 0.5, 0.01),
            (1e3, 0.5, 0.01),  # e^eps overflows
            (1.0, math.nan, 0.01),
            (1.0, -math.inf, 0.01),
            (1.0, 0.5, math.nan),
        ],
    )
    def test_non_finite_or_out_of_range_inputs_rejected(self, eps, eta, q):
        with pytest.raises(ParameterError) as info:
            minimal_params(eps, eta, q, 3)
        assert not isinstance(info.value, InfeasibleParametersError)


class TestProtocolParamsValidation:
    def test_field_domains(self):
        with pytest.raises(ParameterError):
            _params(1.0, 0.5, 1.0, 17, 127.0)  # q = 1
        with pytest.raises(ParameterError):
            _params(1.0, 0.5, 0.01, 0, 127.0)  # pad 0
        with pytest.raises(ParameterError):
            _params(1.0, 0.5, 0.01, 17, 0.0)  # flood 0
        with pytest.raises(ParameterError):
            _params(1.0, -0.5, 0.01, 17, 127.0)
        with pytest.raises(ParameterError):
            _params(0.0, 0.5, 0.01, 17, 127.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_fields_rejected(self, value):
        with pytest.raises(ParameterError):
            _params(1.0, value, 0.01, 17, 127.0)
        with pytest.raises(ParameterError):
            _params(1.0, 0.5, 0.01, 17, value)
        with pytest.raises(ParameterError):
            _params(1.0, 0.5, 0.01, value, 127.0)
        with pytest.raises(ParameterError):
            _params(1.0, 0.5, 0.01, 17, 127.0, n=value)

    def test_zero_drop_prob_is_representable(self):
        p = _params(1.0, 0.5, 0.0, 17, 127.0)
        assert p.drop_prob == 0.0

    def test_to_dict_round_trip(self):
        p = _params(1.0, 0.5, 0.01, 17, 127.0)
        d = p.to_dict()
        assert ProtocolParams(**d) == p

    def test_derived_fields_are_builtin_numbers(self):
        # real_sum_params splits its budget in a numpy array; no numpy scalar
        # may reach a field (its repr reads np.float64(...))
        sets = [
            derive_params(1.0, 0.5, 1000),
            *real_sum_params(1.0, 0.5, 3, 1000),
            histogram_params(1.0, 0.5, 1000),
        ]
        for params in sets:
            for name, value in params.to_dict().items():
                assert type(value) in (int, float, type(None)), (name, value)
            assert "np." not in repr(params)
