import math

import mpmath
import numpy as np
import pytest

from shufflecount import (
    ParameterError,
    RandomSource,
    dlap_variance,
    poi_logpmf,
    sample_nb,
    sample_poi,
)
from shufflecount.dist import geo_success_prob

from oracles import (
    MIN_EXPECTED,
    geo_logpmf,
    gof_integer_samples,
    nb_logpmf,
    sample_dlap,
    sample_geo,
)


class TestGeoLogpmf:
    def test_at_zero_equals_log_p(self):
        assert geo_logpmf(0.5, 0) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_negative_support_is_minus_inf(self):
        assert geo_logpmf(0.3, -1) == -math.inf

    def test_closed_form_value(self):
        # direct evaluation of p (1-p)^k at p = 1 - e^{-1/2}, k = 3
        p = -math.expm1(-0.5)
        expected = math.log(p * (1.0 - p) ** 3)
        assert geo_logpmf(p, 3) == pytest.approx(expected, rel=1e-14)
        assert geo_logpmf(p, 3) == pytest.approx(-2.432752129567189, abs=1e-12)

    def test_invalid_p(self):
        for bad in (0.0, 1.0, -0.1, 1.5, math.nan):
            with pytest.raises(ParameterError):
                geo_logpmf(bad, 1)


class TestNbLogpmf:
    @pytest.mark.parametrize("k", range(0, 101))
    def test_shape_one_equals_geometric(self, k):
        assert nb_logpmf(1.0, 0.3, k) == pytest.approx(
            geo_logpmf(0.3, k), abs=1e-12
        )

    def test_at_zero_equals_r_log_p(self):
        assert nb_logpmf(0.5, 0.5, 0) == pytest.approx(0.5 * math.log(0.5), abs=1e-13)

    def test_fractional_shape_direct(self):
        expected = math.log(0.01 * 0.39347**0.01 * 0.60653)
        assert nb_logpmf(0.01, 0.39347, 1) == pytest.approx(expected, rel=1e-12)

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            nb_logpmf(0.0, 0.5, 1)
        with pytest.raises(ParameterError):
            nb_logpmf(1.0, 1.0, 1)


def _poi_err_within_40_sd(mean, stride):
    # largest error of poi_logpmf against a 40-digit reference over every
    # stride-th count of mean +- 40 sqrt(mean), and the last count
    width = 40.0 * math.sqrt(mean)
    k = np.arange(max(0, math.floor(mean - width)), math.ceil(mean + width) + 1)
    got = poi_logpmf(mean, k)
    with mpmath.workdps(40):
        m = mpmath.mpf(mean)
        log_m = mpmath.log(m)
        return max(
            abs(float(c * log_m - m - mpmath.loggamma(c + 1)) - got[i])
            for i, c in enumerate(k.tolist())
            if i % stride == 0 or i == k.size - 1
        )


class TestPoiLogpmf:
    def test_at_zero(self):
        assert poi_logpmf(3.7, 0) == pytest.approx(-3.7, abs=1e-14)

    def test_at_one_mean_one(self):
        assert poi_logpmf(1.0, 1) == pytest.approx(-1.0, abs=1e-14)

    def test_large_count_against_high_precision(self):
        # 50-digit reference for ln(127^127 e^-127 / 127!)
        with mpmath.workdps(50):
            expected = float(
                127 * mpmath.log(127) - 127 - mpmath.log(mpmath.factorial(127))
            )
        assert poi_logpmf(127.0, 127) == pytest.approx(expected, rel=1e-13)

    def test_invalid_mean(self):
        with pytest.raises(ParameterError):
            poi_logpmf(0.0, 1)

    @pytest.mark.parametrize(
        "mean, stride, bound",
        [(127.0, 1, 3e-13), (1_297_685.0, 37, 1.5e-11), (9.75e6, 97, 2e-11)],
    )
    def test_against_40_digits_within_40_sd(self, mean, stride, bound):
        # every stride-th count of mean +- 40 sqrt(mean); scipy's gammaln form
        # k ln(mean) - mean - ln k! is off by up to 5e-13, 5e-9 and 2.4e-8 here,
        # and one plain cumulative sum of the increments by 1.4e-13, 7.5e-12
        # and 1.0e-11
        assert _poi_err_within_40_sd(mean, stride) <= bound

    @pytest.mark.parametrize(
        "mean, stride, bound",
        [(1_297_685.0, 37, 1.5e-12), (9.75e6, 97, 2e-12)],
    )
    def test_two_level_sum_within_40_sd(self, mean, stride, bound):
        # the increments added in blocks of 64 and then block totals are off
        # by up to 1.0e-12 and 1.4e-12 here, a tenth of one plain cumulative sum
        assert _poi_err_within_40_sd(mean, stride) <= bound

    def test_any_points_match_one_run(self):
        # a range is taken as one run and an index array of the same counts
        # reads the same values; a shorter run, and unsorted, repeated,
        # negative and gapped points in any shape, agree within rounding
        run = poi_logpmf(8995.5, range(9001))
        np.testing.assert_array_equal(poi_logpmf(8995.5, np.arange(9001)), run)
        np.testing.assert_allclose(poi_logpmf(8995.5, range(40, 60)), run[40:60], rtol=1e-14)
        k = np.array([[9000, 3, -2, 8990], [3, 150, 0, 8991]])
        expected = np.where(k >= 0, run[np.maximum(k, 0)], -math.inf)
        np.testing.assert_allclose(poi_logpmf(8995.5, k), expected, rtol=1e-14)
        assert poi_logpmf(8995.5, np.array([], dtype=np.int64)).shape == (0,)


class TestDlapVariance:
    def test_log_two_is_four(self):
        assert dlap_variance(math.log(2.0)) == pytest.approx(4.0, rel=1e-14)

    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 2.0])
    def test_matches_direct_formula(self, a):
        direct = 2.0 * math.exp(-a) / (1.0 - math.exp(-a)) ** 2
        assert dlap_variance(a) == pytest.approx(direct, rel=1e-12)

    def test_frozen_values(self):
        assert dlap_variance(1.0) == pytest.approx(1.8413471884155848, rel=1e-12)
        assert dlap_variance(0.5) == pytest.approx(7.835396178065527, rel=1e-12)

    def test_invalid(self):
        with pytest.raises(ParameterError):
            dlap_variance(0.0)
        with pytest.raises(ParameterError):
            dlap_variance(-1.0)


def _tail_cutoff(logpmf, start: int) -> int:
    """First K past `start` with cumulative excluded mass below 1e-13."""
    k = start
    while math.exp(logpmf(k)) > 1e-16:
        k += 32
    return k


@pytest.mark.parametrize(
    "logpmf, mode",
    [
        (lambda k: geo_logpmf(0.3935, k), 0),
        (lambda k: geo_logpmf(0.05, k), 0),
        (lambda k: nb_logpmf(0.1, 0.3935, k), 0),
        (lambda k: nb_logpmf(2.5, 0.6, k), 1),
        (lambda k: poi_logpmf(0.5, k), 0),
        (lambda k: poi_logpmf(127.0, k), 127),
    ],
)
def test_normalization_and_tail_decay(logpmf, mode):
    cutoff = _tail_cutoff(logpmf, mode + 200)
    ks = np.arange(cutoff + 1)
    log_probs = logpmf(ks)
    assert np.exp(log_probs).sum() >= 1.0 - 1e-12
    beyond = log_probs[mode + 1 :]
    assert np.all(np.diff(beyond) < 0.0)


class TestSamplers:
    def test_nb_shape_one_matches_geometric_pmf(self):
        rng = RandomSource(101)
        p = 0.3935
        samples = sample_nb(1.0, p, rng, size=1_000_000)
        result = gof_integer_samples(samples, lambda k: geo_logpmf(p, k))
        assert result.pvalue >= 1e-3

    def test_poisson_tiny_mean_zero_frequency(self):
        rng = RandomSource(102)
        samples = sample_poi(1e-4, rng, size=1_000_000)
        freq = (samples == 0).mean()
        target = math.exp(-1e-4)
        se = math.sqrt(target * (1.0 - target) / 1_000_000)
        assert abs(freq - target) <= 3.0 * se

    def test_geometric_high_p_zero_frequency(self):
        rng = RandomSource(103)
        samples = sample_geo(0.999, rng, size=1_000_000)
        freq = (samples == 0).mean()
        se = math.sqrt(0.999 * 0.001 / 1_000_000)
        assert abs(freq - 0.999) <= 3.0 * se

    def test_poisson_matches_pmf(self):
        rng = RandomSource(104)
        samples = sample_poi(7.5, rng, size=500_000)
        result = gof_integer_samples(samples, lambda k: poi_logpmf(7.5, k))
        assert result.pvalue >= 1e-3

    def test_fractional_nb_matches_pmf(self):
        rng = RandomSource(105)
        samples = sample_nb(0.25, 0.3935, rng, size=500_000)
        result = gof_integer_samples(samples, lambda k: nb_logpmf(0.25, 0.3935, k))
        assert result.pvalue >= 1e-3


NB_DRAWS = 200_000
#: shapes and budgets where the chi-square applies: the nonzero draws, which
#: it lumps into one cell when they are rare, expect MIN_EXPECTED or more
NB_GRID = [
    (r, eta)
    for r in (1e-3, 0.01, 1.0 / 3.0, 1.0)
    for eta in (0.01, 0.5, 4.0, 8.0)
    if -math.expm1(r * math.log(geo_success_prob(eta))) * NB_DRAWS >= MIN_EXPECTED
]


@pytest.mark.parametrize(("r", "eta"), NB_GRID)
def test_nb_matches_pmf_at_tiny_shapes_and_extreme_budgets(r, eta):
    # the compound-Poisson sampler against the log-gamma PMF, from shares
    # that are almost all 0 to geometric means near 100
    p = geo_success_prob(eta)
    samples = sample_nb(r, p, RandomSource(106), size=NB_DRAWS)
    result = gof_integer_samples(samples, lambda k: nb_logpmf(r, p, k))
    assert result.pvalue >= 1e-3


def test_nb_scalar_and_empty_draws():
    assert isinstance(sample_nb(0.5, 0.3, RandomSource(107)), np.int64)
    assert sample_nb(0.5, 0.3, RandomSource(107), size=(0, 3)).shape == (0, 3)


@pytest.mark.parametrize("n", [2, 10, 100])
def test_nb_divisibility(n):
    # the sum of n shares NB(1/n, p) must be chi-square consistent with Geo(p)
    rng = RandomSource(200 + n)
    p = geo_success_prob(0.5)
    trials = 200_000
    shares = sample_nb(1.0 / n, p, rng, size=(trials, n))
    sums = shares.sum(axis=1)
    result = gof_integer_samples(sums, lambda k: geo_logpmf(p, k))
    assert result.pvalue >= 1e-3


@pytest.mark.parametrize("n", [2, 10, 100])
def test_poisson_divisibility(n):
    rng = RandomSource(300 + n)
    lam = 127.0
    trials = 100_000
    shares = sample_poi(lam / n, rng, size=(trials, n))
    sums = shares.sum(axis=1)
    result = gof_integer_samples(sums, lambda k: poi_logpmf(lam, k))
    assert result.pvalue >= 1e-3


def test_geometric_difference_variance_matches_dlap():
    a = 0.8
    p = geo_success_prob(a)
    trials = 400_000
    draws = sample_geo(p, RandomSource(400, 0), size=trials) - sample_geo(
        p, RandomSource(400, 1), size=trials
    )
    sample_var = draws.var(ddof=1)
    # standard error of the sample variance from the fourth central moment
    centered = draws - draws.mean()
    m4 = np.mean(centered**4)
    se = math.sqrt((m4 - sample_var**2) / trials)
    assert abs(sample_var - dlap_variance(a)) <= 3.0 * se


def test_dlap_sampler_moments():
    a = 0.6
    draws = sample_dlap(a, RandomSource(401), size=400_000)
    se_mean = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean()) <= 3.0 * se_mean
    centered = draws - draws.mean()
    m4 = np.mean(centered**4)
    var = draws.var(ddof=1)
    se_var = math.sqrt((m4 - var**2) / draws.size)
    assert abs(var - dlap_variance(a)) <= 3.0 * se_var


class TestRandomSource:
    def test_same_key_same_draws(self):
        a = RandomSource(7, (1, 2)).generator.random(16)
        b = RandomSource(7, (1, 2)).generator.random(16)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RandomSource(7, 0).generator.random(16)
        b = RandomSource(7, 1).generator.random(16)
        assert not np.array_equal(a, b)

    def test_substream_path_composition(self):
        direct = RandomSource(9, (3, 4)).generator.random(8)
        via = RandomSource(9).substream(3).substream(4).generator.random(8)
        assert np.array_equal(direct, via)

    def test_int_stream_shorthand(self):
        assert RandomSource(5, 2).stream == (2,)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError):
            RandomSource(-1)
