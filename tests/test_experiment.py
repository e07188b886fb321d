import math

import numpy as np
import pytest

from swapsim import (
    MAX_ENTANGLED_PAIR,
    CountModel,
    InputPair,
    SpdcSource,
    closed_form_rho,
    estimate_visibility,
    fringe_scan,
    normalized_success,
    pump_split,
    spdc_input,
    swap,
    synth_counts,
    visibility_analytic,
)
from swapsim.experiment import MAX_MEAN_COUNTS, _POISSON_MEAN_MAX
from swapsim.states import ATOL

GRID16 = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)


class TestSpdcSource:
    def test_truncation_guard(self):
        SpdcSource(0.5)  # boundary allowed
        with pytest.raises(ValueError, match="truncation"):
            SpdcSource(0.51)
        with pytest.raises(ValueError, match="truncation"):
            SpdcSource(0.4 + 0.4j)

    @pytest.mark.parametrize("xi", [math.nan, complex(0.1, math.nan)])
    def test_nan_rejected(self, xi):
        with pytest.raises(ValueError, match="truncation"):
            SpdcSource(xi)

    def test_input_pair_normalization(self):
        pair = spdc_input(SpdcSource(0.1), SpdcSource(0.1))
        assert pair.alpha.real == pytest.approx(0.99504, abs=1e-5)
        assert pair.beta.real == pytest.approx(0.09950, abs=1e-5)
        assert pair.beta / pair.alpha == pytest.approx(0.1, abs=1e-12)

    def test_vacuum_sources_make_swap_impossible(self):
        pair = spdc_input(SpdcSource(0.0), SpdcSource(0.0))
        assert pair.alpha == 1.0 and pair.beta == 0.0
        with pytest.raises(ValueError, match="impossible outcome"):
            swap(pair, 1.0, 1.0, "X+")

    def test_unequal_pumps_hit_balance_ratio(self):
        # for t1 = 1, t2 = 0.2 the balance needs |beta gamma| / |alpha delta|
        # = t2 / t1, i.e. xi_a / xi_b = 0.2: the LOSSIER side pumps harder
        pair = spdc_input(SpdcSource(0.02), SpdcSource(0.1))
        ratio = abs(pair.beta * pair.gamma) / abs(pair.alpha * pair.delta)
        assert ratio == pytest.approx(0.2, abs=1e-3)
        lhs = abs(pair.alpha * pair.delta) * 0.2
        rhs = abs(pair.beta * pair.gamma) * 1.0
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestPumpSplit:
    def test_balanced_split(self):
        a, b = pump_split(0.5, 0.1)
        assert a.xi == b.xi
        assert abs(a.xi) == pytest.approx(0.1 / np.sqrt(2), abs=1e-15)

    def test_one_sided_split(self):
        a, b = pump_split(1.0, 0.1)
        assert abs(a.xi) == pytest.approx(0.1, abs=1e-15)
        assert b.xi == 0.0

    def test_pump_power_is_conserved(self):
        for ratio in (0.1, 0.3, 0.9):
            a, b = pump_split(ratio, 0.2)
            assert abs(a.xi) ** 2 + abs(b.xi) ** 2 == pytest.approx(0.04, abs=1e-15)

    def test_solving_for_a_target_ratio(self):
        # xi_b / xi_a = 0.2 needs ratio = 1 / (1 + 0.2^2)
        ratio = 1.0 / 1.04
        a, b = pump_split(ratio, 0.1)
        assert abs(b.xi / a.xi) == pytest.approx(0.2, abs=1e-12)
        assert ratio == pytest.approx(0.9615, abs=1e-4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="ratio"):
            pump_split(1.2, 0.1)


class TestSynthCounts:
    def test_counts_track_expected_fringe_within_3_sigma(self):
        mean = 1e6
        counts = synth_counts(
            MAX_ENTANGLED_PAIR, 1.0, 1.0, "X+", GRID16,
            CountModel(mean, seed=2024),
        )
        expected = mean * 0.5 * (1.0 + np.cos(GRID16))
        sigma = np.sqrt(np.maximum(expected, 1.0))
        assert np.all(np.abs(counts.counts_plus - expected) <= 3.0 * sigma)

    def test_zero_mean_gives_zero_counts(self):
        counts = synth_counts(
            MAX_ENTANGLED_PAIR, 1.0, 1.0, "X+", GRID16,
            CountModel(0.0, seed=1),
        )
        assert np.all(counts.counts_plus == 0)
        assert np.all(counts.counts_minus == 0)

    def test_same_seed_is_bit_identical(self):
        kwargs = dict(pair=MAX_ENTANGLED_PAIR, t1=0.9, t2=0.8,
                      setting="X+", thetas=GRID16)
        a = synth_counts(model=CountModel(1e4, seed=7), **kwargs)
        b = synth_counts(model=CountModel(1e4, seed=7), **kwargs)
        np.testing.assert_array_equal(a.counts_plus, b.counts_plus)
        np.testing.assert_array_equal(a.counts_minus, b.counts_minus)

    def test_poisson_limit_is_numpys(self):
        rng = np.random.default_rng(0)
        rng.poisson(_POISSON_MEAN_MAX)
        rng.poisson(MAX_MEAN_COUNTS * (1.0 + ATOL))
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(np.nextafter(_POISSON_MEAN_MAX, np.inf))

    def test_different_seeds_differ(self):
        kwargs = dict(pair=MAX_ENTANGLED_PAIR, t1=0.9, t2=0.8,
                      setting="X+", thetas=GRID16)
        a = synth_counts(model=CountModel(1e4, seed=7), **kwargs)
        b = synth_counts(model=CountModel(1e4, seed=8), **kwargs)
        assert np.any(a.counts_plus != b.counts_plus)


class TestEstimateVisibility:
    def test_noiseless_bell_fringe_is_unity(self):
        expected = 1e5 * 0.5 * (1.0 + np.cos(GRID16))
        rep = estimate_visibility(GRID16, expected)
        assert rep.v == pytest.approx(1.0, abs=1e-6)

    def test_recovers_known_visibility_within_3_sigma(self):
        # t1 = 1, t2 = 0.5 heralds a state with V = 0.8 exactly
        counts = synth_counts(
            MAX_ENTANGLED_PAIR, 1.0, 0.5, "X+", GRID16,
            CountModel(1e5, seed=11),
        )
        rep = estimate_visibility(GRID16, counts.counts_plus)
        assert abs(rep.v - 0.8) <= 3.0 * rep.sigma
        assert rep.sigma < 0.02

    @pytest.mark.parametrize("setting", ["X-", "Y+"], ids=["setting0", "setting1"])
    @pytest.mark.parametrize("mean", [1e17, 1e18, MAX_MEAN_COUNTS])
    def test_huge_counts_fit_with_a_poisson_sigma(self, setting, mean):
        # one empty bin among ~1e18 counts: the normal matrix of the fit is
        # singular in floating point, its QR factor is not
        counts = synth_counts(MAX_ENTANGLED_PAIR, 1.0, 1.0, setting, GRID16,
                              CountModel(mean, seed=3))
        rep = estimate_visibility(GRID16, counts.counts_plus)
        assert rep.v == pytest.approx(1.0)
        # as at 1e5 counts (2.004e-5), sigma of a unit-visibility fringe whose
        # dark bins floor at variance 1 is close to 2 / mean
        assert 1.0 / mean < rep.sigma < 4.0 / mean

    def test_sigma_agrees_with_the_normal_equations(self):
        counts = synth_counts(MAX_ENTANGLED_PAIR, 1.0, 0.5, "X+", GRID16,
                              CountModel(1e5, seed=11)).counts_plus
        rep = estimate_visibility(GRID16, counts)
        design = np.column_stack([np.ones(16), np.cos(GRID16), np.sin(GRID16)])
        cov = np.linalg.inv(design.T @ (design / np.maximum(counts, 1.0)[:, None]))
        a, u, v = np.linalg.lstsq(design / np.sqrt(np.maximum(counts, 1.0))[:, None],
                                  counts / np.sqrt(np.maximum(counts, 1.0)), rcond=None)[0]
        b = np.hypot(u, v)
        grad = np.array([-b / a ** 2, u / (a * b), v / (a * b)])
        assert rep.sigma == pytest.approx(np.sqrt(grad @ cov @ grad), rel=1e-9)

    def test_flat_counts_are_consistent_with_zero(self):
        rng = np.random.default_rng(31)
        counts = rng.poisson(5e4, size=16)
        rep = estimate_visibility(GRID16, counts)
        assert abs(rep.v) <= 3.0 * rep.sigma

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="at least 8"):
            estimate_visibility(GRID16[:6], np.ones(6))

    def test_partial_period_rejected(self):
        half = np.linspace(0, np.pi, 10)
        with pytest.raises(ValueError, match="full period"):
            estimate_visibility(half, np.ones(10))

    def test_all_zero_counts_fail_the_fit(self):
        with pytest.raises(ValueError, match="fit failure"):
            estimate_visibility(GRID16, np.zeros(16))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="matching"):
            estimate_visibility(GRID16, np.ones(8))

    def test_unsorted_phases_are_handled(self):
        perm = np.random.default_rng(0).permutation(16)
        expected = 1e4 * (0.5 + 0.25 * np.cos(GRID16))
        rep = estimate_visibility(GRID16[perm], expected[perm])
        assert rep.v == pytest.approx(0.5, abs=1e-9)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CountModel(-1.0, seed=0)

    def test_largest_samplable_mean_accepted(self):
        assert CountModel(MAX_MEAN_COUNTS).mean_total_counts == MAX_MEAN_COUNTS

    @pytest.mark.parametrize("mean", [np.nextafter(MAX_MEAN_COUNTS, np.inf), np.nan,
                                      np.inf, 1e19])
    def test_unsamplable_mean_rejected(self, mean):
        with pytest.raises(ValueError, match="MAX_MEAN_COUNTS") as info:
            CountModel(mean)
        assert repr(MAX_MEAN_COUNTS) in str(info.value)

    def test_pull_distribution_is_calibrated(self):
        rho, _ = closed_form_rho(MAX_ENTANGLED_PAIR, 1.0, 0.5)
        v_true = visibility_analytic(rho)
        pulls = []
        for seed in range(100):
            counts = synth_counts(
                MAX_ENTANGLED_PAIR, 1.0, 0.5, "X+", GRID16,
                CountModel(1e5, seed=seed),
            )
            rep = estimate_visibility(GRID16, counts.counts_plus)
            pulls.append((rep.v - v_true) / rep.sigma)
        pulls = np.asarray(pulls)
        assert abs(pulls.mean()) < 0.3
        assert 0.7 <= pulls.std(ddof=1) <= 1.3


class TestNormalizedSuccess:
    def test_lossless_is_one(self):
        pair = spdc_input(SpdcSource(0.05), SpdcSource(0.05))
        assert normalized_success(pair, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_balanced_channels_scale_linearly(self):
        pair = spdc_input(SpdcSource(0.05), SpdcSource(0.05))
        for t in (1e-3, 1e-2, 1e-1):
            ratio = normalized_success(pair, np.sqrt(t), np.sqrt(t))
            assert ratio / t == pytest.approx(1.0, abs=5e-3)  # not t^2

    def test_follows_imbalance_shape_for_optimal_inputs(self):
        from swapsim import optimal_inputs

        t1 = 1.0
        for t2 in (0.2, 0.5, 0.8):
            pair = optimal_inputs(t1, t2, 0.01)
            shape = 2.0 * t1 ** 2 * t2 ** 2 / (t1 ** 2 + t2 ** 2)
            assert normalized_success(pair, t1, t2) == pytest.approx(shape, abs=1e-3)

    def test_monotone_in_each_transmittivity(self):
        pair = spdc_input(SpdcSource(0.05), SpdcSource(0.05))
        grid = np.linspace(0.05, 1.0, 25)
        fixed = 0.7
        along_t1 = [normalized_success(pair, t, fixed) for t in grid]
        along_t2 = [normalized_success(pair, fixed, t) for t in grid]
        assert np.all(np.diff(along_t1) >= -1e-15)
        assert np.all(np.diff(along_t2) >= -1e-15)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError, match="baseline"):
            normalized_success(InputPair(1.0, 0.0, 1.0, 0.0), 0.5, 0.5)


def test_fringe_experiment_separable_setting_is_flat():
    pair = spdc_input(SpdcSource(0.1), SpdcSource(0.1))
    out = swap(pair, 1.0, 1.0, "Z+")
    scan = fringe_scan(out.rho_ab, GRID16)
    assert np.max(scan.p_plus) - np.min(scan.p_plus) < 1e-14
    counts = synth_counts(pair, 1.0, 1.0, "Z+", GRID16,
                          CountModel(1e5, seed=123))
    rep = estimate_visibility(GRID16, counts.counts_plus)
    assert abs(rep.v) <= 3.0 * rep.sigma
