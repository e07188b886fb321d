import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsim import (
    MAX_ENTANGLED_PAIR,
    BsmSetting,
    DensityMatrix,
    InputPair,
    LossChannel,
    PureState,
    SpdcSource,
    apply_loss,
    asymptotic_state,
    bell_fidelity,
    bsm,
    build_inputs,
    closed_form_rho,
    concurrence_closed_form,
    concurrence_wootters,
    optimal_inputs,
    partial_trace,
    project,
    propagate,
    random_input_pair,
    spdc_input,
    success_probability,
    swap,
    validate,
)

from oracles import input_pairs, naive_partial_trace, naive_project, random_pure


class TestInputPair:
    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            InputPair(1.0, 1.0, 1.0, 0.0)

    def test_complex_amplitudes_accepted(self):
        pair = InputPair(1j / np.sqrt(2), 1 / np.sqrt(2), 1.0, 0.0)
        assert pair.alpha == 1j / np.sqrt(2)


class TestBsmSetting:
    def test_names(self):
        assert BsmSetting.x(+1).name == "X+"
        assert BsmSetting.x(-1).name == "X-"
        assert BsmSetting.y(+1).name == "Y+"
        assert BsmSetting.z("01").name == "Z+"
        assert BsmSetting.z("10").name == "Z-"

    def test_entangling_ket(self):
        ket = BsmSetting.y(-1).projector_ket()
        np.testing.assert_allclose(ket.amps, [0, 1, -1j, 0] / np.sqrt(2), atol=1e-15)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            BsmSetting("bogus")

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError, match="sign"):
            BsmSetting("x", sign=2)

    def test_bad_separable_outcome_rejected(self):
        with pytest.raises(ValueError, match="separable"):
            BsmSetting("separable", which="11")

    def test_separable_kets(self):
        np.testing.assert_allclose(BsmSetting.z("01").projector_ket().amps,
                                   [0, 1, 0, 0])
        np.testing.assert_allclose(BsmSetting.z("10").projector_ket().amps,
                                   [0, 0, 1, 0])


class TestBuildInputs:
    def test_all_vacuum(self):
        psi = build_inputs(InputPair(1.0, 0.0, 1.0, 0.0))
        assert psi.labels == ("A", "C1", "C2", "B")
        np.testing.assert_allclose(psi.amps[0], 1.0)
        assert np.count_nonzero(psi.amps) == 1

    def test_maximally_entangled_has_four_terms(self):
        psi = build_inputs(MAX_ENTANGLED_PAIR)
        nz = np.flatnonzero(np.abs(psi.amps) > 1e-12)
        np.testing.assert_array_equal(nz, [0b0000, 0b0011, 0b1100, 0b1111])
        np.testing.assert_allclose(psi.amps[nz], 0.5)

    def test_cross_term_amplitude(self):
        beta = np.sqrt(1 - 0.98 ** 2)  # ~0.199
        pair = InputPair(0.98, beta, 0.98, beta)
        psi = build_inputs(pair)
        # |11>_{A C1} (x) |00>_{C2 B} carries beta * gamma
        assert psi.amps[0b1100] == pytest.approx(beta * 0.98, abs=1e-15)
        assert psi.amps[0b1100] == pytest.approx(0.98 * 0.19899748, abs=1e-6)


class TestPropagate:
    def test_lossless_is_pure_projector(self, rng):
        pair = random_input_pair(rng)
        psi = build_inputs(pair)
        rho = partial_trace(propagate(psi, 1.0, 1.0), ("E1", "E2"))
        np.testing.assert_allclose(
            rho.entries, np.outer(psi.amps, psi.amps.conj()), atol=1e-14
        )

    def test_full_loss_empties_flying_modes(self, rng):
        psi = propagate(build_inputs(random_input_pair(rng)), 0.0, 0.0)
        flying = partial_trace(psi, ("A", "B", "E1", "E2"))
        np.testing.assert_allclose(flying.entries[0, 0], 1.0, atol=1e-12)
        ab = partial_trace(psi, ("C1", "C2", "E1", "E2"))
        off_diag = ab.entries - np.diag(np.diag(ab.entries))
        assert np.max(np.abs(off_diag)) < 1e-14

    def test_trace_is_one(self, rng):
        for _ in range(10):
            psi = propagate(
                build_inputs(random_input_pair(rng)), rng.uniform(), rng.uniform()
            )
            rho = partial_trace(psi, ("E1", "E2"))
            assert abs(np.trace(rho.entries) - 1.0) < 1e-12
            assert validate(rho).passed

    def test_matches_kraus_route(self, rng):
        """Dilation path vs Kraus path, entrywise to 1e-12."""
        for _ in range(50):
            pair = random_input_pair(rng)
            t1, t2 = rng.uniform(size=2)
            psi = build_inputs(pair)
            via_dilation = partial_trace(propagate(psi, t1, t2), ("E1", "E2"))
            via_kraus = apply_loss(
                apply_loss(partial_trace(psi, ()), "C1", LossChannel(t1)),
                "C2",
                LossChannel(t2),
            )
            np.testing.assert_allclose(
                via_dilation.entries, via_kraus.entries, atol=1e-12
            )

    def test_example_point_matches_kraus(self):
        psi = build_inputs(MAX_ENTANGLED_PAIR)
        via_dilation = partial_trace(propagate(psi, 0.6, 0.8), ("E1", "E2"))
        via_kraus = apply_loss(
            apply_loss(partial_trace(psi, ()), "C1", LossChannel(0.6)),
            "C2",
            LossChannel(0.8),
        )
        np.testing.assert_allclose(via_dilation.entries, via_kraus.entries, atol=1e-12)


class TestBsm:
    def test_ideal_swap_yields_bell_state(self):
        out = swap(MAX_ENTANGLED_PAIR, 1.0, 1.0, BsmSetting.x(+1))
        bell = np.array([0, 1, 1, 0]) / np.sqrt(2)
        np.testing.assert_allclose(
            out.rho_ab.entries, np.outer(bell, bell), atol=1e-14
        )
        assert out.p_success == pytest.approx(0.25, abs=1e-12)
        assert out.rho_ab.labels == ("A", "B")

    def test_both_signs_sum_to_half(self):
        p = sum(
            swap(MAX_ENTANGLED_PAIR, 1.0, 1.0, BsmSetting.x(s)).p_success
            for s in (+1, -1)
        )
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_vacuum_inputs_are_impossible(self):
        with pytest.raises(ValueError, match="impossible outcome"):
            swap(InputPair(1.0, 0.0, 1.0, 0.0), 1.0, 1.0, BsmSetting.x(+1))

    def test_separable_outcome_has_no_coherence(self):
        out = swap(MAX_ENTANGLED_PAIR, 0.7, 0.9, BsmSetting.z("01"))
        assert abs(out.rho_ab.entries[1, 2]) < 1e-14
        out = swap(MAX_ENTANGLED_PAIR, 0.7, 0.9, BsmSetting.z("10"))
        assert abs(out.rho_ab.entries[1, 2]) < 1e-14

    def test_requires_flying_modes(self, rng):
        with pytest.raises(ValueError, match="flying modes"):
            bsm(random_pure(rng, ("A", "B")), BsmSetting.x(+1))

    def test_requires_normalized_ket(self):
        psi = propagate(build_inputs(MAX_ENTANGLED_PAIR), 0.9, 0.9)
        scaled = PureState(psi.labels, np.sqrt(0.5) * psi.amps)
        with pytest.raises(ValueError, match="normalized"):
            bsm(scaled, BsmSetting.x(+1))

    def test_matches_the_density_matrix_references(self, rng):
        """Ket route vs |psi><psi| traced and projected by the loop oracles."""
        settings = [BsmSetting.x(+1), BsmSetting.x(-1), BsmSetting.y(+1),
                    BsmSetting.y(-1), BsmSetting.z("01"), BsmSetting.z("10")]
        for _ in range(20):
            pair = random_input_pair(rng)
            t1, t2 = rng.uniform(0.05, 1.0, size=2)
            psi = propagate(build_inputs(pair), t1, t2)
            assert psi.labels == ("A", "C1", "C2", "B", "E1", "E2")
            traced = DensityMatrix(
                psi.labels[:4],
                naive_partial_trace(np.outer(psi.amps, psi.amps.conj()), 6, [0, 1, 2, 3]),
            )
            for setting in settings:
                expected = naive_project(traced, setting.projector_ket())
                weight = np.trace(expected).real
                out = bsm(psi, setting)
                np.testing.assert_allclose(
                    out.rho_ab.entries, expected / weight, atol=1e-12
                )
                assert abs(out.p_success - weight) < 1e-12


class TestClosedForm:
    def test_ideal_bell_block(self):
        for sign in (+1, -1):
            rho, norm = closed_form_rho(MAX_ENTANGLED_PAIR, 1.0, 1.0, sign)
            assert norm == pytest.approx(0.5, abs=1e-12)
            block = rho[1:3, 1:3]
            np.testing.assert_allclose(
                block, 0.5 * np.array([[1, sign], [sign, 1]]), atol=1e-12
            )
            assert rho[3, 3] == pytest.approx(0.0, abs=1e-15)

    def test_balanced_low_transmission_values(self):
        # norm = tau^2 (2 - tau^2) / 2 at tau = 0.3, and the double-emission
        # population 0.09 * 0.91 / (2 * 0.08595)
        rho, norm = closed_form_rho(MAX_ENTANGLED_PAIR, 0.3, 0.3)
        assert norm == pytest.approx(0.08595, abs=1e-12)
        assert rho[3, 3].real == pytest.approx(0.09 * 0.91 / (2 * 0.08595), abs=1e-12)
        assert rho[3, 3].real == pytest.approx(0.476, abs=1e-3)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            closed_form_rho(InputPair(1.0, 0.0, 1.0, 0.0), 1.0, 1.0)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError, match="sign"):
            closed_form_rho(MAX_ENTANGLED_PAIR, 0.5, 0.5, sign=0)

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            pair = random_input_pair(rng)
            t1, t2 = rng.uniform(0.05, 1.0, size=2)
            sign = +1 if rng.integers(2) else -1
            rho_cf, norm = closed_form_rho(pair, t1, t2, sign)
            out = swap(pair, t1, t2, BsmSetting.x(sign))
            np.testing.assert_allclose(out.rho_ab.entries, rho_cf, atol=1e-12)
            assert out.p_success == pytest.approx(norm / 2.0, abs=1e-12)

    def test_random_states_are_valid_density_matrices(self, rng):
        from swapsim import DensityMatrix

        for _ in range(50):
            pair = random_input_pair(rng)
            t1, t2 = rng.uniform(0.05, 1.0, size=2)
            rho_cf, _ = closed_form_rho(pair, t1, t2)
            report = validate(DensityMatrix(("A", "B"), rho_cf))
            assert report.passed
            assert report.min_eigenvalue >= -1e-10


class TestSuccessProbability:
    def test_ideal_value(self):
        assert success_probability(MAX_ENTANGLED_PAIR, 1.0, 1.0) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_dead_channels_give_zero(self):
        assert success_probability(MAX_ENTANGLED_PAIR, 0.0, 0.0) == 0.0

    def test_equals_summed_bsm_weights(self, rng):
        for _ in range(25):
            pair = random_input_pair(rng)
            t1, t2 = rng.uniform(0.05, 1.0, size=2)
            total = sum(
                swap(pair, t1, t2, BsmSetting.x(s)).p_success for s in (+1, -1)
            )
            assert success_probability(pair, t1, t2) == pytest.approx(
                total, abs=1e-12
            )

    def test_balanced_closed_expression(self):
        for tau in np.linspace(0.05, 1.0, 20):
            expected = 0.5 * tau ** 2 * (2.0 - tau ** 2)
            assert success_probability(
                MAX_ENTANGLED_PAIR, tau, tau
            ) == pytest.approx(expected, abs=1e-12)

    def test_scalar_equals_array_element(self):
        # here libm pow's t ** 2 is one ulp off, while t * t is exact
        t = 0.8709635899560796
        array = success_probability(MAX_ENTANGLED_PAIR, np.array([t]), np.array([t]))
        assert success_probability(MAX_ENTANGLED_PAIR, t, t) == array[0]

    def test_log_slope_tends_to_one(self):
        # balanced channels t1 = t2 = sqrt(t): success ~ t for small t
        ts = np.array([1e-5, 1e-4])
        ps = [
            success_probability(MAX_ENTANGLED_PAIR, np.sqrt(t), np.sqrt(t))
            for t in ts
        ]
        slope = (np.log(ps[1]) - np.log(ps[0])) / (np.log(ts[1]) - np.log(ts[0]))
        assert slope == pytest.approx(1.0, abs=1e-3)


class TestOptimalInputs:
    def test_symmetric_channels(self):
        pair = optimal_inputs(0.7, 0.7, 0.05)
        assert pair.beta.real == pytest.approx(0.05, abs=1e-12)
        assert pair.delta.real == pytest.approx(0.05, abs=1e-12)
        assert pair.alpha.real == pytest.approx(np.sqrt(1 - 0.05 ** 2), abs=1e-12)

    def test_ratio_matches_channels(self):
        pair = optimal_inputs(1.0, 0.2, 0.01)
        ratio = abs(pair.beta * pair.gamma) / abs(pair.alpha * pair.delta)
        assert ratio == pytest.approx(0.2, abs=1e-12)

    def test_balance_condition_holds(self, rng):
        for _ in range(50):
            t1, t2 = rng.uniform(0.05, 1.0, size=2)
            eps = rng.uniform(0.001, 0.5)
            pair = optimal_inputs(t1, t2, eps)
            lhs = abs(pair.alpha * pair.delta) * t2
            rhs = abs(pair.beta * pair.gamma) * t1
            assert abs(lhs - rhs) < 1e-12
            assert min(pair.alpha.real, pair.beta.real, pair.gamma.real,
                       pair.delta.real) >= 0.0

    def test_pair_scale_parameterization(self, rng):
        for _ in range(20):
            t1, t2 = rng.uniform(0.05, 1.0, size=2)
            eps = rng.uniform(0.001, 0.5)
            pair = optimal_inputs(t1, t2, eps)
            expected = eps ** 2 * 2 * t1 * t2 / (t1 ** 2 + t2 ** 2)
            assert abs(pair.beta * pair.delta) == pytest.approx(expected, rel=1e-10)

    def test_coherence_grows_toward_half_as_epsilon_shrinks(self):
        values = []
        for eps in (0.1, 0.01, 0.001):
            pair = optimal_inputs(1.0, 0.2, eps)
            rho, _ = closed_form_rho(pair, 1.0, 0.2)
            values.append(abs(rho[1, 2]))
        assert values[0] < values[1] < values[2] < 0.5
        assert values[2] == pytest.approx(0.5, abs=1e-4)

    @pytest.mark.parametrize("t1,t2", [(0.0, 0.5), (0.5, 0.0)])
    def test_dead_channel_rejected(self, t1, t2):
        with pytest.raises(ValueError, match="0 < t1, t2"):
            optimal_inputs(t1, t2, 0.01)

    @pytest.mark.parametrize("eps", [0.0, -0.1, 0.51])
    def test_bad_epsilon_rejected(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            optimal_inputs(0.5, 0.5, eps)


class TestAsymptoticState:
    def test_balanced_pair_is_maximally_entangled(self):
        pair = optimal_inputs(1.0, 0.3, 0.02)
        ket = asymptotic_state(pair, 1.0, 0.3)
        assert abs(ket.amps[1]) == pytest.approx(abs(ket.amps[2]), abs=1e-14)
        assert abs(ket.amps[0]) == abs(ket.amps[3]) == 0.0

    def test_norm_scales_linearly_with_balanced_transmission(self):
        pair = InputPair(0.995, np.sqrt(1 - 0.995 ** 2), 0.995, np.sqrt(1 - 0.995 ** 2))
        ratios = []
        for t in (1e-1, 1e-2, 1e-3):
            ket = asymptotic_state(pair, np.sqrt(t), np.sqrt(t))
            ratios.append(ket.norm2 / t)
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)
        assert ratios[1] == pytest.approx(ratios[2], rel=1e-12)

    def test_fidelity_with_heralded_state_increases_to_one(self):
        fids = []
        for eps in (1e-1, 1e-2, 1e-3):
            pair = optimal_inputs(0.9, 0.4, eps)
            ket = asymptotic_state(pair, 0.9, 0.4).normalized()
            rho, _ = closed_form_rho(pair, 0.9, 0.4)
            fids.append(float(np.real(ket.amps.conj() @ rho @ ket.amps)))
        assert fids[0] < fids[1] < fids[2] <= 1.0 + 1e-12
        assert fids[2] == pytest.approx(1.0, abs=1e-4)


class TestSymmetries:
    def test_swapping_parties_permutes_qubits(self, rng):
        for _ in range(25):
            pair = random_input_pair(rng)
            t1, t2 = rng.uniform(0.05, 1.0, size=2)
            mirrored = InputPair(pair.gamma, pair.delta, pair.alpha, pair.beta)
            out = swap(pair, t1, t2, BsmSetting.x(+1))
            out_mirrored = swap(mirrored, t2, t1, BsmSetting.x(+1))
            # exchange the two qubits on both the row and the column side
            swapped = out_mirrored.rho_ab.entries.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2)
            np.testing.assert_allclose(
                swapped.reshape(4, 4),
                out.rho_ab.entries,
                atol=1e-12,
            )
            assert out.p_success == pytest.approx(out_mirrored.p_success, abs=1e-12)

    def test_phase_setting_rotates_coherence(self, rng):
        """The heralding phase rotates rho23 by e^{i phase}; populations stay."""
        for _ in range(10):
            pair = random_input_pair(rng)
            t1, t2 = rng.uniform(0.3, 1.0, size=2)
            phi = rng.uniform(0.0, 2 * np.pi)
            base = swap(pair, t1, t2, BsmSetting.x(+1)).rho_ab.entries
            ket = PureState(("C1", "C2"), np.array([0, 1, np.exp(1j * phi), 0]) / np.sqrt(2))
            heralded = project(propagate(build_inputs(pair), t1, t2), ket)
            rotated = partial_trace(heralded, ("E1", "E2")).normalized().entries
            np.testing.assert_allclose(
                np.diag(rotated), np.diag(base), atol=1e-12
            )
            assert rotated[1, 2] == pytest.approx(
                np.exp(1j * phi) * base[1, 2], abs=1e-12
            )

    def test_y_setting_heralds_conjugate_bell_state(self):
        # projecting onto (|01> + i|10>)/sqrt(2) heralds the state with the
        # OPPOSITE coherence phase, rho23 = +i/2
        out = swap(MAX_ENTANGLED_PAIR, 1.0, 1.0, BsmSetting.y(+1))
        assert bell_fidelity(out.rho_ab, +1, -np.pi / 2) == pytest.approx(1.0, abs=1e-12)
        assert bell_fidelity(out.rho_ab, +1, np.pi / 2) == pytest.approx(0.0, abs=1e-12)
        assert out.rho_ab.entries[1, 2] == pytest.approx(0.5j, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(pair=input_pairs(), t1=st.floats(0.05, 1.0), t2=st.floats(0.05, 1.0))
def test_closed_form_equals_brute_force_property(pair, t1, t2):
    from hypothesis import assume

    assume(success_probability(pair, t1, t2) > 1e-6)
    rho_cf, norm = closed_form_rho(pair, t1, t2, +1)
    out = swap(pair, t1, t2, BsmSetting.x(+1))
    np.testing.assert_allclose(out.rho_ab.entries, rho_cf, atol=1e-12)
    total = out.p_success + swap(pair, t1, t2, BsmSetting.x(-1)).p_success
    assert abs(total - norm) < 1e-12


def _small_amplitude_pair(rng):
    """Random pair whose |beta| or |delta| is log-uniform in [1e-7, 1e-2]."""
    base = random_input_pair(rng)
    small = 10.0 ** rng.uniform(-7.0, -2.0) * np.exp(2j * np.pi * rng.uniform())
    large = np.sqrt(1.0 - abs(small) ** 2) * np.exp(2j * np.pi * rng.uniform())
    if rng.integers(2):
        return InputPair(large, small, base.gamma, base.delta)
    return InputPair(base.alpha, base.beta, large, small)


def _weak_pair(rng):
    """Two weak sources, each |xi| log-uniform in [1e-4, 1e-1], either sign."""
    xi_a, xi_b = rng.choice([-1.0, 1.0], size=2) * 10.0 ** rng.uniform(-4.0, -1.0, size=2)
    return spdc_input(SpdcSource(xi_a), SpdcSource(xi_b))


def _heralded(route):
    """The route's result, or None when it rejects the outcome as impossible."""
    try:
        return route()
    except ValueError as exc:
        assert "impossible outcome" in str(exc) or "degenerate" in str(exc), exc
        return None


@pytest.mark.parametrize("make_pair", [random_input_pair, _small_amplitude_pair, _weak_pair])
def test_routes_agree_in_the_hard_regimes(make_pair):
    """Log-uniform t1, t2 in [1e-6, 1]: same tolerances, same rejected draws."""
    rng = np.random.default_rng(4242)
    worst_rho = worst_norm = worst_conc = 0.0
    for _ in range(500):
        pair = make_pair(rng)
        t1, t2 = (10.0 ** rng.uniform(-6.0, 0.0, size=2)).tolist()
        sign = +1 if rng.integers(2) else -1
        brute = _heralded(lambda: swap(pair, t1, t2, BsmSetting.x(sign)))
        other = _heralded(lambda: swap(pair, t1, t2, BsmSetting.x(-sign)))
        closed = _heralded(lambda: closed_form_rho(pair, t1, t2, sign))
        assert (brute is None) == (other is None) == (closed is None), (pair, t1, t2)
        if closed is None:
            continue
        rho_cf, norm = closed
        worst_rho = max(worst_rho, float(np.max(np.abs(brute.rho_ab.entries - rho_cf))))
        worst_norm = max(worst_norm, abs(brute.p_success + other.p_success - norm))
        worst_conc = max(worst_conc, abs(concurrence_wootters(brute.rho_ab)
                                         - concurrence_closed_form(pair, t1, t2)))
    assert worst_rho <= 1e-12
    assert worst_norm <= 1e-12
    assert worst_conc <= 1e-10


def test_weak_pairs_approach_the_asymptotic_state():
    """Brute force vs the asymptotic ket on weak pairs, log-uniform t1, t2.

    The heralded state is the rank-one block |k><k| of the asymptotic ket k
    plus r44 |11><11|, so with K = |k|^2 and N the two-sign weight,
    N - K = r44 <= |beta delta|^2 (t1^2 + t2^2) and the fidelity is K / N.
    """
    rng = np.random.default_rng(4242)
    compared = 0
    for _ in range(500):
        pair = _weak_pair(rng)
        t1, t2 = (10.0 ** rng.uniform(-6.0, 0.0, size=2)).tolist()
        sign = +1 if rng.integers(2) else -1
        brute = _heralded(lambda: swap(pair, t1, t2, BsmSetting.x(sign)))
        if brute is None:
            continue
        other = swap(pair, t1, t2, BsmSetting.x(-sign))
        ket = asymptotic_state(pair, t1, t2, sign)
        k2, n2 = ket.norm2, brute.p_success + other.p_success
        bound = abs(pair.beta * pair.delta) ** 2 * (t1 * t1 + t2 * t2)
        amps = ket.normalized().amps
        fidelity = float(np.real(amps.conj() @ brute.rho_ab.entries @ amps))
        assert -1e-12 <= n2 - k2 <= bound + 1e-12, (pair, t1, t2)
        assert 1.0 - fidelity <= bound / k2 + 1e-12, (pair, t1, t2)
        compared += 1
    assert compared > 400
