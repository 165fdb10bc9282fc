import itertools
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from shufflecount import (
    AuditInconclusiveError,
    ParameterError,
    ProtocolParams,
    RandomSource,
    check_geo_ratio,
    check_poi_ratio,
    derive_params,
    divergence_audit,
    dlap_variance,
    exact_mean_messages,
    exact_mse,
    measure_comm,
    measure_mse,
    minimal_params,
)
from shufflecount import audit
from shufflecount.audit import (
    DatasetSummary,
    RatioCheck,
    _binom_logpmf,
    _grid_bounds,
    _one_user_terms,
    _zero_mixture,
    messages_bound,
    mse_bound,
    view_logpmf_grid,
)
from shufflecount.dist import geo_success_prob, poi_logpmf, sample_nb
from shufflecount.protocol import estimate_trials, message_count_trials

from oracles import (
    MIN_EXPECTED,
    GofResult,
    _lumped_chisquare,
    crossvalidate_views,
    exact_view_logpmf,
    geo_logpmf,
    gof_integer_samples,
    max_log_ratio,
)


def _reference(n, q=0.01):
    return ProtocolParams(
        n_users=n, epsilon=1.0, noise_epsilon=0.5,
        drop_prob=q, pad_count=17, flood_mean=127.0,
    )


class TestExactViewLogpmf:
    def test_single_user_origin_hand_expansion(self):
        # one zero-input user, pad >= 1: only the dropped branch reaches (0, 0)
        params = ProtocolParams(
            n_users=1, epsilon=1.0, noise_epsilon=0.5,
            drop_prob=0.01, pad_count=3, flood_mean=0.25,
        )
        ds = DatasetSummary(zeros=1, ones=0)
        p = geo_success_prob(0.5)
        expected = math.log(0.01) - 0.25 + 2.0 * math.log(p)
        assert exact_view_logpmf(ds, params, 0, 0) == pytest.approx(
            expected, rel=1e-12
        )

    def test_off_support(self):
        params = _reference(2)
        ds = DatasetSummary(zeros=1, ones=1)
        assert exact_view_logpmf(ds, params, -1, 5) == -math.inf

    def test_grid_agrees_with_point_evaluation(self):
        params = _reference(3)
        ds = DatasetSummary(zeros=2, ones=1)
        grid = view_logpmf_grid(ds, params, 250, 250)
        gen = np.random.default_rng(0)
        for _ in range(25):
            i, j = map(int, gen.integers(0, 251, size=2))
            assert grid[i, j] == pytest.approx(
                exact_view_logpmf(ds, params, i, j), rel=1e-10, abs=1e-12
            )

    def test_normalization(self):
        params = _reference(3)
        for ds in (DatasetSummary(2, 1), DatasetSummary(3, 0)):
            grid = view_logpmf_grid(ds, params, 400, 400)
            mass = math.exp(logsumexp(grid))
            assert 1.0 - 1e-9 <= mass <= 1.0 + 1e-12


class TestBinomLogpmf:
    def test_certain_participation_is_minus_inf_without_warning(self):
        # q = 0 keeps every user: 0 log 0 = 0, and the other counts are -inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _binom_logpmf(1, 1.0, np.arange(2)).tolist() == [-math.inf, 0.0]
            assert _binom_logpmf(3, 1.0, np.arange(4)).tolist() == [-math.inf] * 3 + [0.0]
            assert _binom_logpmf(3, 0.0, np.arange(4)).tolist() == [0.0] + [-math.inf] * 3

    @pytest.mark.parametrize("n", [1, 5, 20, 1000])
    @pytest.mark.parametrize("p", [0.01, 0.5, 0.99])
    def test_against_40_digits(self, n, p):
        k = np.arange(n + 1)
        got = _binom_logpmf(n, p, k)
        with mpmath.workdps(40):
            expected = [
                float(
                    mpmath.log(mpmath.binomial(n, c))
                    + c * mpmath.log(p) + (n - c) * mpmath.log(1 - mpmath.mpf(p))
                )
                for c in range(n + 1)
            ]
        # the log-gamma terms are of size ln n!, so the error is in its units
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15 * (1 + math.lgamma(n + 1)))
        assert _binom_logpmf(n, p, np.asarray(n)) == got[-1]


def _per_shift_grid(ds, params, i_max, j_max):
    """Reference view grid: one 2-D logaddexp per participation pair (a0, a1).

    The flood-plus-noise grid ``2 log p - eta (a + b) + C[min(a, b)]`` is
    built once and added, shifted by ``(m pad + a1, m pad)``, for every pair
    of nonzero weight.
    """
    eta = params.noise_epsilon
    w = np.arange(min(i_max, j_max) + 1)
    cumulative = np.logaddexp.accumulate(
        w * (math.log(params.flood_mean) + 2.0 * eta)
        - params.flood_mean
        - gammaln(w + 1)
    )
    a = np.arange(i_max + 1)[:, None]
    b = np.arange(j_max + 1)[None, :]
    base = (
        2.0 * math.log(geo_success_prob(eta))
        - eta * (a + b)
        + cumulative[np.minimum(a, b)]
    )
    keep = 1.0 - params.drop_prob
    lw0 = _binom_logpmf(ds.zeros, keep, np.arange(ds.zeros + 1))
    lw1 = _binom_logpmf(ds.ones, keep, np.arange(ds.ones + 1))
    acc = np.full((i_max + 1, j_max + 1), -math.inf)
    for a0 in range(ds.zeros + 1):
        for a1 in range(ds.ones + 1):
            lw = lw0[a0] + lw1[a1]
            u = (a0 + a1) * params.pad_count + a1
            v = (a0 + a1) * params.pad_count
            if lw == -math.inf or u > i_max or v > j_max:
                continue
            block = acc[u:, v:]
            np.logaddexp(block, lw + base[: i_max + 1 - u, : j_max + 1 - v], out=block)
    return acc


class TestViewGrid:
    @pytest.mark.parametrize("q", [0.0, 0.01, 0.3])
    @pytest.mark.parametrize("pad", [1, 3, 17])
    @pytest.mark.parametrize("lam", [0.25, 1.0, 127.0])
    def test_matches_per_shift_reference(self, q, pad, lam):
        n = 4
        params = ProtocolParams(
            n_users=n, epsilon=1.0, noise_epsilon=0.5,
            drop_prob=q, pad_count=pad, flood_mean=lam,
        )
        for ones in (0, 1, 2, n):
            ds = DatasetSummary(zeros=n - ones, ones=ones)
            for i_max, j_max in ((40, 90), (90, 40), (0, 0), (5, 2)):
                grid = view_logpmf_grid(ds, params, i_max, j_max)
                ref = _per_shift_grid(ds, params, i_max, j_max)
                assert grid.shape == ref.shape
                assert np.array_equal(np.isneginf(grid), np.isneginf(ref))
                finite = np.isfinite(ref)
                assert np.all(np.isfinite(grid) == finite)
                if finite.any():
                    assert np.max(np.abs(grid[finite] - ref[finite])) <= 1e-9

    def test_with_one_grid_memory(self):
        # the audit-oracle grid of the reference set at n = 20 may hold the
        # grid, one staircase term and its mask, and 1-D arrays, but no
        # second float grid beside them
        params = _reference(20)
        ds = DatasetSummary(zeros=19, ones=1)
        view_logpmf_grid(ds, params, 5, 5)  # imports outside the trace
        tracemalloc.start()
        try:
            grid = view_logpmf_grid(ds, params, 621, 601)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * grid.nbytes


def _grid_audit(n_users, params, coverage=1.0 - 1e-9, tolerance=1e-6, grid_cap=4096):
    """Reference divergence audit over the two full view grids.

    Builds ``view_logpmf_grid`` for ``(1, 0, ..., 0)`` and ``(0, ..., 0)``
    and takes masses, support and sup cell by cell.
    """
    tail = (1.0 - coverage) / 8.0
    if 1.0 - tail == 1.0:
        raise AuditInconclusiveError("coverage beyond floating point")
    i_max, j_max = _grid_bounds(params, n_users, tail)
    if max(i_max, j_max) > grid_cap:
        raise AuditInconclusiveError("grid cap")
    lf_x = view_logpmf_grid(DatasetSummary(n_users - 1, 1), params, i_max, j_max)
    lf_xp = view_logpmf_grid(DatasetSummary(n_users, 0), params, i_max, j_max)
    mass_x = float(np.exp(lf_x).sum())
    mass_xp = float(np.exp(lf_xp).sum())
    if min(mass_x, mass_xp) < coverage:
        raise AuditInconclusiveError("grid mass")
    inf_x = np.isneginf(lf_x)
    inf_xp = np.isneginf(lf_xp)
    support_mismatch = bool(np.any(inf_x != inf_xp))
    reached = ~(inf_x & inf_xp)
    if support_mismatch:
        sup = math.inf
    elif np.any(reached):
        sup = float(np.max(np.abs(lf_x[reached] - lf_xp[reached])))
    else:
        sup = 0.0
    return {
        "pass": not support_mismatch and sup <= params.epsilon + tolerance,
        "support_mismatch": support_mismatch,
        "grid": (i_max, j_max),
        "sup": sup,
        "mass_x": mass_x,
        "mass_xp": mass_xp,
    }


class TestOneDimensionalAudit:
    """The audit's 1-D class profiles against the two full grids."""

    @pytest.mark.parametrize("q", [0.0, 0.01, 0.3])
    @pytest.mark.parametrize("pad", [1, 3, 17])
    @pytest.mark.parametrize("lam", [0.25, 1.0, 127.0])
    def test_matches_grid_reference(self, q, pad, lam):
        for (eta, eps), n, kwargs in itertools.product(
            [(0.5, 1.0), (0.9, 1.0), (1.0, 2.0)],
            [1, 2, 3, 5, 20],
            [{}, {"coverage": 0.999}, {"grid_cap": 300}],
        ):
            params = ProtocolParams(
                n_users=n, epsilon=eps, noise_epsilon=eta,
                drop_prob=q, pad_count=pad, flood_mean=lam,
            )
            try:
                ref = _grid_audit(n, params, **kwargs)
            except AuditInconclusiveError:
                with pytest.raises(AuditInconclusiveError):
                    divergence_audit(n, params, **kwargs)
                continue
            report = divergence_audit(n, params, **kwargs)
            case = (eta, eps, n, kwargs)
            assert report.passed == ref["pass"], case
            assert report.support_mismatch == ref["support_mismatch"], case
            assert (report.grid_i_max, report.grid_j_max) == ref["grid"], case
            # the invariant of _grid_bounds that the (2, j_max + 1) class array relies on
            assert report.grid_i_max - report.grid_j_max == n, case
            if math.isinf(ref["sup"]):
                assert report.sup_abs_log_ratio == ref["sup"], case
            else:
                assert abs(report.sup_abs_log_ratio - ref["sup"]) <= 1e-12, case
            assert abs(report.mass_covered_x - ref["mass_x"]) <= 1e-12, case
            assert abs(report.mass_covered_xprime - ref["mass_xp"]) <= 1e-12, case

    @pytest.mark.parametrize("q", [0.0, 0.01, 0.3])
    @pytest.mark.parametrize("pad", [1, 3, 17])
    @pytest.mark.parametrize("lam", [0.25, 1.0, 127.0])
    def test_pascal_step_matches_direct_mixture(self, q, pad, lam):
        # x' reuses x's mixture: h_n from h_{n-1} equals the sum over a0 of n
        # users (a RuntimeWarning fails the test, as pyproject.toml sets)
        for (eta, eps), n in itertools.product(
            [(0.5, 1.0), (0.9, 1.0), (1.0, 2.0)], [1, 2, 3, 5, 20]
        ):
            params = ProtocolParams(
                n_users=n, epsilon=eps, noise_epsilon=eta,
                drop_prob=q, pad_count=pad, flood_mean=lam,
            )
            t_max = min(_grid_bounds(params, n, 1e-9 / 8.0))
            h_n, _ = _one_user_terms(_zero_mixture(n - 1, params, t_max), params)
            direct = _zero_mixture(n, params, t_max)
            case = (eta, eps, n)
            assert np.array_equal(np.isneginf(h_n), np.isneginf(direct)), case
            finite = ~np.isneginf(direct)
            err = np.abs(h_n[finite] - direct[finite]) / np.maximum(1.0, np.abs(direct[finite]))
            assert err.max(initial=0.0) <= 1e-13, case

    @pytest.mark.parametrize("lam", [0.25, 1.0, 127.0, 1e3, 1e4])
    @pytest.mark.parametrize("eta", [0.5, 0.9, 1.0])
    def test_flood_profile_matches_50_digits(self, eta, lam):
        # L[t] = log sum_{w <= t} e^{-2 eta (t - w)} Poi(w; lam) at 41 sampled t,
        # against its recursion at 50 digits; the bound holds no lam or mu
        params = ProtocolParams(
            n_users=1, epsilon=2.0, noise_epsilon=eta,
            drop_prob=0.01, pad_count=17, flood_mean=lam,
        )
        t_max = min(_grid_bounds(params, 1, 1e-9 / 8.0))
        sampled = np.unique(np.linspace(0, t_max, 41).astype(int)).tolist()
        expected = []
        with mpmath.workdps(50):
            decay = mpmath.exp(-2 * mpmath.mpf(eta))
            poi = total = mpmath.exp(-mpmath.mpf(lam))
            for t in range(t_max + 1):
                if t:
                    poi *= mpmath.mpf(lam) / t
                    total = total * decay + poi
                if t in sampled:
                    expected.append(float(mpmath.log(total)))
        got = _zero_mixture(0, params, t_max)[sampled]
        # 1e-13 near the mass; a few ulps of |L| far out, where L[0] = -lam
        np.testing.assert_allclose(got, expected, rtol=2e-15, atol=1e-13)

    def test_memory_is_one_dimensional(self):
        # two 622 x 602 float grids would take 6.0 MB; the profiles hold
        # a few arrays of t_max + 1 = 602 entries
        params = _reference(20)
        divergence_audit(20, params)  # imports outside the trace
        tracemalloc.start()
        try:
            report = divergence_audit(20, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        t_max = min(report.grid_i_max, report.grid_j_max)
        assert peak <= 64 * 8 * (t_max + 1)

    def test_nan_mass_is_inconclusive(self, monkeypatch):
        # a profile that overflowed to NaN must not pass the coverage check
        def nan_mixture(zeros, params, t_max):
            return np.full(t_max + 1, math.nan)

        monkeypatch.setattr(audit, "_zero_mixture", nan_mixture)
        with np.errstate(invalid="ignore"), pytest.raises(AuditInconclusiveError):
            divergence_audit(3, _reference(3))

    def test_mass_short_of_coverage_is_inconclusive(self, monkeypatch):
        # a profile lowered by 1e-8 takes both masses to about 1 - 1e-8, short
        # of the default coverage 1 - 1e-9
        mixture = audit._zero_mixture
        monkeypatch.setattr(audit, "_zero_mixture", lambda *args: mixture(*args) - 1e-8)
        with pytest.raises(AuditInconclusiveError, match="grid mass"):
            divergence_audit(3, _reference(3))


class TestDivergenceAudit:
    def test_reference_set_passes(self):
        report = divergence_audit(2, _reference(2))
        assert report.passed
        assert report.sup_abs_log_ratio <= 1.0 + 1e-6
        assert report.mass_covered_x >= 1.0 - 1e-9
        assert report.mass_covered_xprime >= 1.0 - 1e-9
        assert not report.support_mismatch

    def test_zero_drop_prob_fails_with_support_mismatch(self):
        report = divergence_audit(3, _reference(3, q=0.0))
        assert not report.passed
        assert report.support_mismatch
        assert math.isinf(report.sup_abs_log_ratio)

    def test_starved_flooding_fails(self):
        params = ProtocolParams(
            n_users=2, epsilon=1.0, noise_epsilon=0.5,
            drop_prob=0.01, pad_count=17, flood_mean=1.0,
        )
        report = divergence_audit(2, params)
        assert not report.passed
        assert report.sup_abs_log_ratio > 1.0 + 1e-6
        assert not report.support_mismatch

    def test_insufficient_pad_fails(self):
        params = ProtocolParams(
            n_users=2, epsilon=1.0, noise_epsilon=0.5,
            drop_prob=0.01, pad_count=1, flood_mean=127.0,
        )
        report = divergence_audit(2, params)
        assert not report.passed
        assert report.sup_abs_log_ratio > 1.0 + 1e-6

    @pytest.mark.parametrize(
        "kwargs",
        [{"grid_cap": 100}, {"coverage": 0.9999999999999999}],
        ids=["grid_cap", "coverage_quantile_at_one"],
    )
    def test_unreachable_coverage_is_inconclusive(self, kwargs):
        # the grid needs more than 100 cells; at the last coverage,
        # 1 - (1 - coverage) / 8 rounds to 1
        with pytest.raises(AuditInconclusiveError):
            divergence_audit(3, _reference(3), **kwargs)

    def test_coverage_nearest_one_is_reached(self):
        # 1 - 6e-16 lies near 1 - 5 * 2^-53, the coverage nearest 1 whose
        # 1 - (1 - coverage) / 8 does not round to 1; with every profile O(1),
        # both float masses reach it
        report = divergence_audit(3, _reference(3), coverage=1.0 - 6e-16)
        assert report.passed
        assert min(report.mass_covered_x, report.mass_covered_xprime) >= report.coverage

    @pytest.mark.parametrize(
        "params",
        [
            derive_params(2.0, 0.5, 100),
            derive_params(1.0, 0.5, 10**6),
            ProtocolParams(
                n_users=1, epsilon=8.0, noise_epsilon=7.9,
                drop_prob=0.5, pad_count=1, flood_mean=23.0,
            ),
        ],
        ids=["derived-eps2-n100", "derived-eps1-n1e6", "eps8-eta7.9"],
    )
    def test_large_tilt_sets_are_conclusive_at_one_user(self, params):
        # lam (e^{2 eta} - 1) is 5.8e7, 1.6e7 and 1.7e8 here, and one ulp of it
        # exceeds the coverage's 1e-9 margin: no profile may carry a term that size
        report = divergence_audit(1, params, grid_cap=10**9)
        assert report.passed
        for mass in (report.mass_covered_x, report.mass_covered_xprime):
            assert report.coverage <= mass <= 1.0 + 1e-13

    @pytest.mark.parametrize(
        "n_users, params",
        [(3, _reference(3)), (20, _reference(20)), (1, derive_params(0.5, 0.5, 10**6))],
        ids=["reference-n3", "reference-n20", "derived-eps0.5-n1e6"],
    )
    def test_class_weights_match_the_full_evaluation(self, n_users, params):
        # log(1 - e^{-eta c}) over every class, as the audit took it before the
        # cut, added to a profile of either shape gives the same bits, and with
        # them the same masses
        eta = params.noise_epsilon
        p = geo_success_prob(eta)
        i_max, j_max = _grid_bounds(params, n_users, (1.0 - audit.DEFAULT_COVERAGE) / 8.0)
        cells = np.array([[i_max], [j_max + 1]]) - np.arange(j_max + 1)
        full = math.log(p) - eta * np.array([[1], [0]]) + np.log(-np.expm1(-eta * cells))
        del cells
        rng = np.random.default_rng(0)
        for shape in ((j_max + 1,), (2, j_max + 1)):
            profile = rng.standard_normal(shape)
            got = audit._class_log_masses(profile, eta, p, i_max, j_max)
            want = profile + full
            del profile  # at T = 9.8e6 each array is 157 MB: hold few at once
            assert got.shape == want.shape == full.shape
            for side in range(2):
                assert got[side].tobytes() == want[side].tobytes()
            del got, want

    def test_log1mexp_is_zero_from_the_cut(self):
        x = np.linspace(audit._LOG1MEXP_ZERO_FROM, 2000.0, 10**6)
        assert not np.log(-np.expm1(-x)).any()
        assert np.log(-np.expm1(-np.nextafter(54 * math.log(2), 0.0))) < 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"coverage": 0.0},
            {"coverage": 1.0},
            {"coverage": 1.5},
            {"tolerance": -1e-9},
            {"tolerance": math.inf},
            {"tolerance": math.nan},
            {"grid_cap": 0},
            {"grid_cap": -5},
        ],
    )
    def test_out_of_range_coverage_or_floor_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            divergence_audit(3, _reference(3), **kwargs)

    def test_grid_flood_quantile_matches_scipy_stats(self):
        # the flood side of the grid is Bennett's bound: never short of the
        # tail, and past scipy's quantile by at most L/3 + sqrt(L mean / 2),
        # L = -log(tail), and a few cells (4.1 at most on these pairs)
        from scipy import stats

        gen = np.random.default_rng(20_000)
        means = np.exp(gen.uniform(-3.0, 16.0, size=2000))
        tails = 10.0 ** gen.uniform(-15.0, math.log10(0.125), size=2000)
        noise_q = (np.log(tails) / math.log1p(-geo_success_prob(0.5))).astype(int) + 2
        bounds = []
        for mean, tail, nq in zip(means, tails, noise_q):
            params = ProtocolParams(
                n_users=1, epsilon=1.0, noise_epsilon=0.5,
                drop_prob=0.01, pad_count=17, flood_mean=float(mean),
            )
            i_max, j_max = _grid_bounds(params, 1, float(tail))
            assert j_max == i_max - 1
            bounds.append(i_max - 18 - nq - 2)
        bounds = np.array(bounds)
        big = -np.log(tails)
        assert np.all(stats.poisson.sf(bounds, means) <= tails)
        excess = bounds - stats.poisson.isf(tails, means)
        assert np.all(excess <= big / 3.0 + np.sqrt(big * means / 2.0) + 5.0)

    @pytest.mark.parametrize(
        "mean, tail",
        [
            (0.09067095201415573, 1.0544029366218935e-15),
            (6.460870821439318, 2.2969218646299535e-14),
            (584.28779982086, 1.8237071903271564e-14),
            (6968.702182638097, 1.1271122357592456e-15),
            (8559125.222141188, 1.3894124329697983e-10),
            (8843898.541547652, 7.591051457580912e-11),
        ],
    )
    def test_flood_quantile_where_scipy_falls_short(self, mean, tail):
        # pairs of the test above where scipy.stats.poisson.ppf, asked at
        # 1 - tail, reads one less than the exact quantile at the tail that
        # float 1 - tail stands for; the grid's flood side still covers the
        # exact one, within the same excess
        from scipy import stats

        params = ProtocolParams(
            n_users=1, epsilon=1.0, noise_epsilon=0.5,
            drop_prob=0.01, pad_count=17, flood_mean=mean,
        )
        noise_q = int(math.log(tail) / math.log1p(-geo_success_prob(0.5))) + 2
        i_max, _ = _grid_bounds(params, 1, tail)
        got = i_max - 18 - noise_q - 2
        short = int(stats.poisson.ppf(1.0 - tail, mean))
        exact = _mp_upper_quantile(mean, 1.0 - (1.0 - tail), short, short + 1)
        assert exact == short + 1
        big = -math.log(tail)
        assert exact <= got <= exact + big / 3.0 + math.sqrt(big * mean / 2.0) + 5.0

    def test_json_schema(self):
        report = divergence_audit(2, _reference(2))
        payload = report.to_json_dict()
        assert set(payload) >= {
            "sup_abs_log_ratio", "eps_target", "mass_covered_x",
            "mass_covered_xprime", "grid", "pass", "excluded_mass_bound",
        }
        assert set(payload["grid"]) == {"i_max", "j_max"}
        assert payload["pass"] is True
        assert payload["excluded_mass_bound"] <= 1e-9


def _mp_upper_quantile(mean, tail, lo, hi):
    """The smallest ``k`` in ``[lo, hi]`` with ``P(Poi(mean) > k) <= tail``.

    40-digit tail sums: ``P(X > hi) = f(hi + 1) 1F1(1; hi + 2; mean)``, then
    ``P(X > k - 1) = P(X > k) + f(k)`` downwards. Asserts the quantile lies
    in ``[lo, hi]``.
    """
    with mpmath.workdps(40):
        m = mpmath.mpf(mean)

        def pmf(k):
            return mpmath.exp(k * mpmath.log(m) - m - mpmath.loggamma(k + 1))

        sf = pmf(hi + 1) * mpmath.hyp1f1(1, hi + 2, m, maxterms=10**7)
        assert sf <= tail
        for k in range(hi, lo - 1, -1):
            sf += pmf(k)  # P(X > k - 1)
            if sf > tail:
                return k
    raise AssertionError(f"quantile of Poi({mean}) at {tail} below {lo}")


class TestRatioChecks:
    def test_geo_margin_is_zero_at_interior_points(self):
        check = check_geo_ratio(0.5, 10_000)
        assert check.ok
        assert abs(check.worst_margin) <= 1e-12
        assert check.worst_index >= 1

    def test_geo_rejects_bad_budget(self):
        with pytest.raises(ParameterError):
            check_geo_ratio(0.0, 10)

    def test_geo_rejects_budget_whose_tail_rounds_away(self):
        # 1 - e^-40 rounds to 1.0: no geometric tail is left to check, draw
        # or size the audit's grid by
        assert geo_success_prob(40.0) == 1.0
        with pytest.raises(ParameterError):
            check_geo_ratio(40.0, 10)
        params = ProtocolParams(
            n_users=1, epsilon=1.0, noise_epsilon=40.0,
            drop_prob=0.01, pad_count=17, flood_mean=127.0,
        )
        with pytest.raises(ParameterError):
            divergence_audit(1, params)
        with pytest.raises(ParameterError):
            sample_nb(0.1, geo_success_prob(40.0), RandomSource(0), size=3)

    @pytest.mark.parametrize("eta", [0.5, 2.0])
    @pytest.mark.parametrize("i_max", [0, 1, 2, 10_000])
    def test_geo_check_equals_brute_force(self, eta, i_max):
        i = np.arange(i_max + 1)
        step = np.where(i >= 1, -math.log1p(-geo_success_prob(eta)), -math.inf)
        margins = eta - step
        worst = int(np.argmin(margins))
        assert check_geo_ratio(eta, i_max) == RatioCheck(
            ok=bool(margins[worst] >= -1e-9),
            worst_margin=float(margins[worst]),
            worst_index=worst,
            i_max=i_max,
            tolerance=1e-9,
        )

    @pytest.mark.parametrize("tolerance", [-1e-9, math.inf, math.nan])
    def test_out_of_range_tolerance_rejected(self, tolerance):
        with pytest.raises(ParameterError):
            check_geo_ratio(0.5, 10, tolerance=tolerance)
        with pytest.raises(ParameterError):
            check_poi_ratio(_reference(3), tolerance=tolerance)

    def test_negative_range_rejected(self):
        with pytest.raises(ParameterError):
            check_geo_ratio(0.5, -1)
        with pytest.raises(ParameterError):
            check_poi_ratio(_reference(3), i_max=-1)

    def test_poi_boundary_term_matches_hand_expansion(self):
        # at i = 0 the margin reduces to ln((e^eps - 1) q lam^s / s!)
        from scipy.special import gammaln

        params = _reference(3)
        check = check_poi_ratio(params, i_max=0)
        expected = (
            math.log(math.expm1(1.0) * 0.01)
            + 17 * math.log(127.0)
            - gammaln(18)
        )
        assert check.worst_margin == pytest.approx(expected, rel=1e-12)
        assert check.ok

    def test_poi_full_range_reference_set(self):
        check = check_poi_ratio(_reference(3))
        assert check.ok
        assert check.worst_margin >= -1e-9
        assert check.i_max >= 127 + 20 * math.sqrt(127) + 17 - 1

    def test_poi_detects_insufficient_pad(self):
        params = ProtocolParams(
            n_users=2, epsilon=1.0, noise_epsilon=0.5,
            drop_prob=0.01, pad_count=1, flood_mean=127.0,
        )
        check = check_poi_ratio(params)
        assert not check.ok

    @staticmethod
    def _poi_margins(params):
        """Brute-force flood margins over the whole default range."""
        lam, s = params.flood_mean, params.pad_count
        i = np.arange(math.ceil(lam + 20.0 * math.sqrt(lam) + s) + 1)
        if params.drop_prob > 0.0:
            term_pad = (
                math.log(math.expm1(params.epsilon) * params.drop_prob)
                + poi_logpmf(lam, i + s)
            )
        else:
            term_pad = np.full(i.shape, -math.inf)
        term_down = params.epsilon - params.noise_epsilon + poi_logpmf(lam, i - 1)
        return np.logaddexp(term_pad, term_down) - poi_logpmf(lam, i)

    @pytest.mark.parametrize("q", [0.0, 0.001, 0.01, 0.3])
    @pytest.mark.parametrize("pad", [1, 3, 17, 200])
    @pytest.mark.parametrize("lam", [0.25, 1.0, 127.0, 1e3, 1e4])
    def test_poi_check_equals_brute_force(self, q, pad, lam):
        for eta, eps in [(0.5, 1.0), (0.9, 1.0), (1.0, 2.0)]:
            params = ProtocolParams(
                n_users=3, epsilon=eps, noise_epsilon=eta,
                drop_prob=q, pad_count=pad, flood_mean=lam,
            )
            margins = self._poi_margins(params)
            worst = int(np.argmin(margins))
            check = check_poi_ratio(params)
            assert check.i_max == margins.size - 1
            assert check.ok == bool(margins[worst] >= -1e-9)
            if math.isinf(margins[worst]):
                assert (check.worst_margin, check.worst_index) == (margins[worst], worst)
                continue
            assert abs(check.worst_margin - margins[worst]) <= 1e-9
            # equal, or tied with the brute-force minimum
            assert abs(margins[check.worst_index] - margins[worst]) <= 1e-9

    @pytest.mark.parametrize("eps,n", [(0.5, 100), (2.0, 1000)])
    def test_every_feasible_derived_set_passes_both_checks(self, eps, n):
        from shufflecount import derive_params

        params = derive_params(eps, 0.5, n)
        assert check_geo_ratio(params.noise_epsilon, 10_000).ok
        assert check_poi_ratio(params).ok


class TestMseMeasurement:
    def test_exact_and_bound_formulas(self):
        params = _reference(100)
        exact = exact_mse(params, 100)
        assert exact == pytest.approx(
            dlap_variance(0.5) + 100 * 0.01 * 0.99 + 1.0, rel=1e-12
        )
        assert exact == pytest.approx(9.825396178065526, rel=1e-12)
        # all-ones datasets meet the data-independent bound with equality
        assert mse_bound(params) == pytest.approx(exact, rel=1e-12)

    def test_all_zero_dataset_law_is_pure_noise(self):
        params = _reference(100)
        assert exact_mse(params, 0) == pytest.approx(dlap_variance(0.5), rel=1e-12)

    def test_monte_carlo_brackets_exact_value(self):
        params = _reference(100)
        result = measure_mse(params, 100, 5000, RandomSource(60), "counts")
        assert abs(result.empirical_mse - result.exact) <= 3.0 * result.std_err
        assert result.empirical_mse <= result.bound + 3.0 * result.std_err

    def test_trial_floor(self):
        with pytest.raises(ParameterError):
            measure_mse(_reference(10), 10, 10, RandomSource(0))


class TestCommMeasurement:
    def test_exact_formula(self):
        params = _reference(100)
        assert exact_mean_messages(params, 1) == pytest.approx(
            37.22082988165074, rel=1e-12
        )
        p = geo_success_prob(0.5)
        hand = 0.99 * 35 + 2.0 * ((1 - p) / p) / 100 + 2.0 * 127.0 / 100
        assert exact_mean_messages(params, 1) == pytest.approx(hand, rel=1e-12)

    def test_exact_below_bound(self):
        params = _reference(100)
        assert exact_mean_messages(params, 1) <= messages_bound(params)
        assert exact_mean_messages(params, 0) <= messages_bound(params)

    def test_input_independent_part_dominates_when_input_dropped(self):
        # with drop probability near one, only noise and flooding remain
        params = ProtocolParams(
            n_users=4, epsilon=1.0, noise_epsilon=0.5,
            drop_prob=1.0 - 1e-9, pad_count=17, flood_mean=8.0,
        )
        p = geo_success_prob(0.5)
        noise_only = 2.0 * ((1 - p) / p) / 4 + 2.0 * 8.0 / 4
        assert exact_mean_messages(params, 0) == pytest.approx(
            noise_only, rel=1e-6
        )

    def test_monte_carlo_brackets_exact(self):
        params = _reference(100)
        result = measure_comm(params, 1, 10_000, RandomSource(61))
        assert abs(result.empirical_mean - result.exact) <= 3.0 * result.std_err
        assert result.empirical_mean <= result.bound


@pytest.mark.parametrize("size", [*range(2, 10), 127, 128, 129, 1000, 50_000])
@pytest.mark.parametrize("source", ["squared-errors", "message-counts", "reals"])
def test_mean_std_is_the_ndarray_methods_bit_for_bit(source, size):
    # the ndarray reductions that _mean_std replaced are its reference; a sum
    # of integers is exact in any order, so the reals pin the mean's order too
    params, rng = _reference(100), RandomSource(size)
    if source == "squared-errors":
        values = (estimate_trials(70, params, size, rng, "counts") - 70).astype(np.float64) ** 2
    elif source == "message-counts":
        values = message_count_trials(1, params, size, rng).astype(np.float64)
    else:
        values = rng.generator.standard_normal(size) * 1e3 + 1e4
    mean, std = audit._mean_std(values)
    assert np.float64(mean).tobytes() == values.mean().tobytes()
    assert np.float64(std).tobytes() == values.std(ddof=1).tobytes()


class TestCrossValidation:
    def test_simulated_views_match_oracle(self):
        params = _reference(3)
        result = crossvalidate_views(
            DatasetSummary(2, 1), params, 200_000, RandomSource(62)
        )
        assert result.pvalue >= 1e-3
        assert result.cells > 200

    def test_gof_helper_detects_wrong_distribution(self):
        rng = RandomSource(63)
        samples = rng.generator.geometric(0.4, size=100_000) - 1
        good = gof_integer_samples(samples, lambda k: geo_logpmf(0.4, k))
        bad = gof_integer_samples(samples, lambda k: geo_logpmf(0.45, k))
        assert isinstance(good, GofResult)
        assert good.pvalue >= 1e-3
        assert bad.pvalue < 1e-6

    @pytest.mark.parametrize("seed,mean", [(64, 20.0), (65, 20.0), (66, 20.5)])
    def test_lumped_chisquare_matches_scipy_stats(self, seed, mean):
        from scipy import stats

        total = 5000
        samples = RandomSource(seed).generator.poisson(mean, size=total)
        ks = np.arange(samples.max() + 1)
        expected = np.exp(poi_logpmf(20.0, ks)) * total
        observed = np.bincount(samples).astype(np.float64)
        result = _lumped_chisquare(observed, expected, total)
        sel = expected >= MIN_EXPECTED
        reference = stats.chisquare(
            np.append(observed[sel], total - observed[sel].sum()),
            np.append(expected[sel], total - expected[sel].sum()),
        )
        assert result.statistic == float(reference.statistic)
        assert result.pvalue == float(reference.pvalue)
        assert result.cells == sel.sum() + 1


@st.composite
def _pmf_pair_and_kernel(draw):
    size = draw(st.integers(min_value=1, max_value=5))
    kernel_size = draw(st.integers(min_value=1, max_value=5))
    weights = st.floats(min_value=0.01, max_value=1.0)
    p1 = np.array(draw(st.lists(weights, min_size=size, max_size=size)))
    p2 = np.array(draw(st.lists(weights, min_size=size, max_size=size)))
    p3 = np.array(draw(st.lists(weights, min_size=kernel_size, max_size=kernel_size)))
    return p1 / p1.sum(), p2 / p2.sum(), p3 / p3.sum()


@given(_pmf_pair_and_kernel())
@settings(max_examples=200, deadline=None)
def test_convolution_never_increases_max_divergence(pmfs):
    p1, p2, p3 = pmfs
    base = max_log_ratio(p1, p2)
    convolved = max_log_ratio(np.convolve(p1, p3), np.convolve(p2, p3))
    assert convolved <= base + 1e-9


def test_max_log_ratio_support_mismatch_is_infinite():
    assert max_log_ratio(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == math.inf
    assert max_log_ratio(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == math.log(2.0)


def test_minimal_reference_matches_audit_fixture():
    assert minimal_params(1.0, 0.5, 0.01, 3) == ProtocolParams(
        3, 1.0, 0.5, 0.01, 17, 127.0
    )
