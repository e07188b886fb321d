import numpy as np
import pytest
from hypothesis import given, settings

from swapsim import (
    DensityMatrix,
    LabelError,
    LossChannel,
    PureState,
    apply_loss,
    dilate,
    kraus_ops,
    partial_trace,
)

from oracles import finite_floats, random_density, random_pure


class TestLossChannel:
    def test_r_complements_t(self):
        ch = LossChannel(0.6)
        assert ch.r == pytest.approx(0.8, abs=1e-15)
        assert ch.t ** 2 + ch.r ** 2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="transmittivity"):
            LossChannel(bad)


class TestKrausOps:
    def test_lossless_is_identity(self):
        k0, k1 = kraus_ops(LossChannel(1.0))
        np.testing.assert_allclose(k0, np.eye(2))
        np.testing.assert_allclose(k1, np.zeros((2, 2)))

    def test_full_loss(self):
        k0, k1 = kraus_ops(LossChannel(0.0))
        np.testing.assert_allclose(k0, np.diag([1.0, 0.0]))
        np.testing.assert_allclose(k1, [[0, 1], [0, 0]])

    def test_excited_state_damping_values(self):
        # t = 0.6: population keeps t^2 = 0.36, loses 0.64
        ch = LossChannel(0.6)
        rho = DensityMatrix(("m",), np.diag([0.0, 1.0]))
        out = apply_loss(rho, "m", ch)
        np.testing.assert_allclose(out.entries, np.diag([0.64, 0.36]), atol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(t=finite_floats(0.0, 1.0))
    def test_completeness(self, t):
        k0, k1 = kraus_ops(LossChannel(t))
        total = k0.conj().T @ k0 + k1.conj().T @ k1
        np.testing.assert_allclose(total, np.eye(2), atol=1e-12)


class TestApplyLoss:
    def test_lossless_leaves_state_alone(self):
        plus = partial_trace(PureState(("m",), np.array([1.0, 1.0]) / np.sqrt(2)), ())
        out = apply_loss(plus, "m", LossChannel(1.0))
        np.testing.assert_allclose(out.entries, plus.entries, atol=1e-15)

    def test_coherence_scales_by_t(self):
        plus = partial_trace(PureState(("m",), np.array([1.0, 1.0]) / np.sqrt(2)), ())
        out = apply_loss(plus, "m", LossChannel(0.5))
        assert out.entries[0, 1] == pytest.approx(0.5 * 0.5, abs=1e-14)

    def test_unknown_mode_rejected(self, rng):
        with pytest.raises(LabelError, match="not in register"):
            apply_loss(random_density(rng, ("A",)), "B", LossChannel(0.5))

    def test_trace_preserved(self, rng):
        for _ in range(20):
            rho = random_density(rng, ("A", "B"), rank=2)
            out = apply_loss(rho, "B", LossChannel(rng.uniform()))
            assert abs(np.trace(out.entries) - np.trace(rho.entries)) < 1e-12

    def test_population_never_increases(self, rng):
        one = np.diag([0.0, 1.0])
        for _ in range(20):
            rho = random_density(rng, ("A", "B"), rank=2)
            before = np.trace(rho.entries @ np.kron(np.eye(2), one)).real
            out = apply_loss(rho, "B", LossChannel(rng.uniform()))
            after = np.trace(out.entries @ np.kron(np.eye(2), one)).real
            assert after <= before + 1e-12

    def test_composition_multiplies_amplitudes(self, rng):
        for _ in range(20):
            rho = random_density(rng, ("A",), rank=2)
            ta, tb = rng.uniform(size=2)
            twice = apply_loss(apply_loss(rho, "A", LossChannel(ta)), "A", LossChannel(tb))
            once = apply_loss(rho, "A", LossChannel(ta * tb))
            np.testing.assert_allclose(twice.entries, once.entries, atol=1e-12)


class TestDilate:
    def test_photon_amplitude_splits_by_t_and_r(self):
        # alpha|00> + beta|11> on (A, C1); after the channel on C1 the
        # photon term carries t on (1,1,0) and r on (1,0,1)
        alpha, beta = 0.8, 0.6
        psi = PureState(("A", "C1"), np.array([alpha, 0, 0, beta]))
        out = dilate(psi, "C1", "E1", LossChannel(0.6))
        assert out.labels == ("A", "C1", "E1")
        assert out.amps[0b110] == pytest.approx(0.6 * beta, abs=1e-15)
        assert out.amps[0b101] == pytest.approx(0.8 * beta, abs=1e-15)
        assert out.amps[0b000] == pytest.approx(alpha, abs=1e-15)
        assert out.is_normalized()

    def test_lossless_keeps_environment_in_vacuum(self, rng):
        psi = random_pure(rng, ("A", "B"))
        out = dilate(psi, "B", "env", LossChannel(1.0))
        env_excited = out.amps[1::2]
        assert np.max(np.abs(env_excited)) < 1e-15

    def test_full_loss_moves_photon_to_environment(self):
        psi = PureState(("m",), np.array([0.0, 1.0]))
        out = dilate(psi, "m", "env", LossChannel(0.0))
        np.testing.assert_allclose(out.amps, [0, 1, 0, 0])  # |m=0, env=1>

    def test_env_collision_rejected(self, rng):
        psi = random_pure(rng, ("A", "B"))
        with pytest.raises(LabelError, match="collides"):
            dilate(psi, "A", "B", LossChannel(0.5))

    def test_unknown_mode_rejected(self, rng):
        psi = random_pure(rng, ("A",))
        with pytest.raises(LabelError, match="not in register"):
            dilate(psi, "B", "env", LossChannel(0.5))

    def test_unnormalized_input_rejected(self):
        psi = PureState(("A",), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="normalized"):
            dilate(psi, "A", "E", LossChannel(0.5))


def test_dilation_equals_kraus_route_on_1000_draws():
    """The two loss implementations must agree entrywise to 1e-12."""
    rng = np.random.default_rng(99)
    labels_pool = [("A",), ("A", "B"), ("A", "B", "C")]
    worst = 0.0
    for i in range(1000):
        labels = labels_pool[i % 3]
        psi = random_pure(rng, labels)
        mode = labels[int(rng.integers(len(labels)))]
        ch = LossChannel(rng.uniform())
        via_dilation = partial_trace(dilate(psi, mode, "env", ch), "env")
        via_kraus = apply_loss(partial_trace(psi, ()), mode, ch)
        worst = max(worst, float(np.max(np.abs(via_dilation.entries - via_kraus.entries))))
    assert worst < 1e-12
