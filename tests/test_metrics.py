import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsim import (
    MAX_ENTANGLED_PAIR,
    BsmSetting,
    DensityMatrix,
    InputPair,
    bell_fidelity,
    closed_form_rho,
    concurrence_closed_form,
    concurrence_wootters,
    estimate_visibility,
    fringe_scan,
    optimal_t2,
    partial_trace,
    random_input_pair,
    swap,
    visibility_analytic,
)
from swapsim.metrics import FringeScan

from oracles import bell_psi, finite_floats

GRID16 = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)


def heralded_matrix(pair, t1, t2, sign=+1):
    rho, _ = closed_form_rho(pair, t1, t2, sign)
    return rho


class TestWoottersConcurrence:
    def test_bell_state_is_one(self):
        rho = partial_trace(bell_psi(), ())
        assert concurrence_wootters(rho) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_is_zero(self):
        rho = DensityMatrix(("a", "b"), np.eye(4) / 4.0)
        assert concurrence_wootters(rho) == pytest.approx(0.0, abs=1e-12)

    def test_separable_product_is_zero(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        ket = np.kron(plus, plus)
        rho = DensityMatrix(("a", "b"), np.outer(ket, ket))
        assert concurrence_wootters(rho) == pytest.approx(0.0, abs=1e-10)

    def test_accepts_bare_arrays(self):
        rho = heralded_matrix(MAX_ENTANGLED_PAIR, 0.7, 0.7)
        assert concurrence_wootters(rho) == pytest.approx(
            concurrence_closed_form(MAX_ENTANGLED_PAIR, 0.7, 0.7), abs=1e-12
        )

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            concurrence_wootters(np.eye(4))

    def test_nonhermitian_rejected(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = 0.3
        with pytest.raises(ValueError, match="Hermitian"):
            concurrence_wootters(m)

    def test_nonpositive_rejected(self):
        m = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        with pytest.raises(ValueError, match="positive"):
            concurrence_wootters(m)

    def test_matches_closed_form_on_random_draws(self):
        rng = np.random.default_rng(2211)
        worst = 0.0
        for _ in range(200):
            pair = random_input_pair(rng)
            t1, t2 = rng.uniform(0.05, 1.0, size=2)
            got = concurrence_wootters(heralded_matrix(pair, t1, t2))
            want = concurrence_closed_form(pair, t1, t2)
            worst = max(worst, abs(got - want))
        assert worst < 1e-10


class TestClosedFormConcurrence:
    def test_lossless_is_one(self):
        assert concurrence_closed_form(MAX_ENTANGLED_PAIR, 1.0, 1.0) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("tau", [0.1, 0.3, 0.6, 0.9])
    def test_balanced_loss_closed_expression(self, tau):
        expected = 1.0 / (2.0 - tau ** 2)
        assert concurrence_closed_form(MAX_ENTANGLED_PAIR, tau, tau) == pytest.approx(
            expected, abs=1e-12
        )

    def test_balanced_limit_is_one_half(self):
        values = [
            concurrence_closed_form(MAX_ENTANGLED_PAIR, tau, tau)
            for tau in (1e-1, 1e-2, 1e-3, 1e-4)
        ]
        assert np.all(np.diff(values) < 0)
        assert values[-1] == pytest.approx(0.5, abs=1e-7)

    def test_more_loss_can_beat_less_loss(self):
        balanced = concurrence_closed_form(MAX_ENTANGLED_PAIR, 0.3, 0.3)
        lossless_arm = concurrence_closed_form(MAX_ENTANGLED_PAIR, 0.3, 1.0)
        assert balanced == pytest.approx(0.5236, abs=1e-3)
        assert lossless_arm == pytest.approx(0.3000, abs=1e-3)
        assert balanced > lossless_arm
        assert balanced > concurrence_closed_form(MAX_ENTANGLED_PAIR, 0.3, 0.6)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            concurrence_closed_form(InputPair(1.0, 0.0, 1.0, 0.0), 0.5, 0.5)

    @settings(max_examples=50, deadline=None)
    @given(
        pa=finite_floats(0.0, 2 * np.pi),
        pb=finite_floats(0.0, 2 * np.pi),
        pg=finite_floats(0.0, 2 * np.pi),
        pd=finite_floats(0.0, 2 * np.pi),
        sign=st.sampled_from([+1, -1]),
    )
    def test_invariant_under_amplitude_phases_and_sign(self, pa, pb, pg, pd, sign):
        s = np.sqrt(0.5)
        pair = InputPair(
            s * np.exp(1j * pa), s * np.exp(1j * pb),
            s * np.exp(1j * pg), s * np.exp(1j * pd),
        )
        c_phased = concurrence_closed_form(pair, 0.4, 0.8)
        c_plain = concurrence_closed_form(MAX_ENTANGLED_PAIR, 0.4, 0.8)
        assert c_phased == pytest.approx(c_plain, abs=1e-12)
        rho = heralded_matrix(pair, 0.4, 0.8, sign)
        assert concurrence_wootters(rho) == pytest.approx(c_plain, abs=1e-10)


class TestOptimalT2:
    @pytest.mark.parametrize("t1", [0.1, 0.3, 0.5, 0.7])
    def test_matches_analytic_location(self, t1):
        expected = t1 / np.sqrt(1.0 - t1 ** 2)
        assert optimal_t2(t1) == pytest.approx(expected, abs=1e-5)

    def test_known_values(self):
        assert optimal_t2(0.3) == pytest.approx(0.31449, abs=1e-5)
        assert optimal_t2(0.7) == pytest.approx(0.98020, abs=1e-5)

    def test_ratio_tends_to_one_for_small_t1(self):
        t1 = 0.01
        assert optimal_t2(t1) / t1 == pytest.approx(1.0, abs=1e-3)

    def test_boundary_returns_one_with_warning(self):
        with pytest.warns(UserWarning, match="boundary"):
            assert optimal_t2(0.75) == 1.0
        with pytest.warns(UserWarning, match="boundary"):
            assert optimal_t2(np.sqrt(0.5)) == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            optimal_t2(0.0)
        with pytest.raises(ValueError):
            optimal_t2(1.5)

    def test_stationarity_at_returned_point(self):
        for t1 in (0.1, 0.3, 0.5, 0.7):
            t2 = optimal_t2(t1)
            h = 1e-4
            deriv = (
                concurrence_closed_form(MAX_ENTANGLED_PAIR, t1, t2 + h)
                - concurrence_closed_form(MAX_ENTANGLED_PAIR, t1, t2 - h)
            ) / (2 * h)
            assert abs(deriv) < 1e-5

    def test_agrees_with_grid_search_oracle(self):
        grid = np.linspace(1e-4, 1.0, 200001)
        for t1 in (0.2, 0.55):
            values = concurrence_closed_form(MAX_ENTANGLED_PAIR, t1, grid)
            brute = grid[int(np.argmax(values))]
            assert optimal_t2(t1) == pytest.approx(brute, abs=1e-4)


class TestBellFidelity:
    def test_self_overlap_is_one(self):
        rho = partial_trace(bell_psi(+1, 0.4), ())
        assert bell_fidelity(rho, +1, 0.4) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_sign_is_zero(self):
        rho = partial_trace(bell_psi(+1), ())
        assert bell_fidelity(rho, -1) == pytest.approx(0.0, abs=1e-12)

    def test_ideal_swap_output(self):
        out = swap(MAX_ENTANGLED_PAIR, 1.0, 1.0, BsmSetting.x(+1))
        assert bell_fidelity(out.rho_ab, +1) == pytest.approx(1.0, abs=1e-12)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError, match="sign"):
            bell_fidelity(partial_trace(bell_psi(), ()), 0)


class TestFringeScan:
    def test_bell_fringe_is_half_one_plus_cos(self):
        scan = fringe_scan(partial_trace(bell_psi(), ()), GRID16)
        np.testing.assert_allclose(scan.p_plus, 0.5 * (1 + np.cos(GRID16)), atol=1e-12)
        np.testing.assert_allclose(scan.p_minus, 0.5 * (1 - np.cos(GRID16)), atol=1e-12)

    def test_diagonal_state_is_flat(self):
        rho = DensityMatrix(("a", "b"), np.diag([0.0, 0.4, 0.6, 0.0]))
        scan = fringe_scan(rho, GRID16)
        np.testing.assert_allclose(scan.p_plus, 0.5, atol=1e-12)

    def test_matches_projector_quadratic_form(self):
        """Oracle: explicit <Psi(theta)|rho|Psi(theta)> per phase."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            pair = random_input_pair(rng)
            t1, t2 = rng.uniform(0.2, 1.0, size=2)
            m = heralded_matrix(pair, t1, t2)
            scan = fringe_scan(m, GRID16)
            for i, theta in enumerate(GRID16):
                for sgn, probs in ((+1, scan.p_plus), (-1, scan.p_minus)):
                    ket = np.array([0, 1, sgn * np.exp(1j * theta), 0]) / np.sqrt(2)
                    expected = float(np.real(ket.conj() @ m @ ket))
                    assert probs[i] == pytest.approx(expected, abs=1e-12)

    def test_outcomes_partition_one_photon_subspace(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            pair = random_input_pair(rng)
            m = heralded_matrix(pair, *rng.uniform(0.2, 1.0, size=2))
            scan = fringe_scan(m, GRID16)
            total = scan.p_plus + scan.p_minus
            assert np.max(total) - np.min(total) < 1e-12

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            fringe_scan(partial_trace(bell_psi(), ()), [])

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            FringeScan([1.0, 0.5], [0.5, 0.5], [0.5, 0.5])

    def test_out_of_range_grid_rejected(self):
        with pytest.raises(ValueError, match="2\\*pi"):
            FringeScan([0.0, 7.0], [0.5, 0.5], [0.5, 0.5])


class TestVisibility:
    def test_bell_state_is_one(self):
        scan = fringe_scan(partial_trace(bell_psi(), ()), GRID16)
        assert estimate_visibility(GRID16, scan.p_plus).v == pytest.approx(1.0, abs=1e-12)
        assert visibility_analytic(partial_trace(bell_psi(), ())).v == pytest.approx(
            1.0, abs=1e-12
        )

    def test_matches_state_visibility(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            pair = random_input_pair(rng)
            m = heralded_matrix(pair, *rng.uniform(0.2, 1.0, size=2))
            scan = fringe_scan(m, GRID16)
            assert estimate_visibility(GRID16, scan.p_plus).v == pytest.approx(
                visibility_analytic(m).v, abs=1e-12
            )

    def test_unbalanced_equal_inputs_value(self):
        # amplitudes (t2, t1) = (0.5, 1) -> V = 2 * 0.5 / 1.25 = 0.8
        m = heralded_matrix(MAX_ENTANGLED_PAIR, 1.0, 0.5)
        assert visibility_analytic(m).v == pytest.approx(0.8, abs=1e-12)

    def test_balanced_losses_keep_full_visibility(self):
        for tau in (0.1, 0.4, 0.9):
            m = heralded_matrix(MAX_ENTANGLED_PAIR, tau, tau)
            assert visibility_analytic(m).v == pytest.approx(1.0, abs=1e-12)

    def test_no_signal_rejected(self):
        rho = DensityMatrix(("a", "b"), np.diag([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="no signal"):
            visibility_analytic(rho)

    def test_visibility_bounds_concurrence(self):
        """V = 2|rho23|/(rho22+rho33) >= C = 2|rho23|/norm on heralded states."""
        rng = np.random.default_rng(23)
        for _ in range(200):
            pair = random_input_pair(rng)
            t1, t2 = rng.uniform(0.05, 1.0, size=2)
            m = heralded_matrix(pair, t1, t2)
            v = visibility_analytic(m).v
            c = concurrence_closed_form(pair, t1, t2)
            assert v >= c - 1e-12
