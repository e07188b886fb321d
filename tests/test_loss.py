import dataclasses
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings

from swapsim import (
    DensityMatrix,
    LabelError,
    LossChannel,
    PureState,
    dilate,
    partial_trace,
)

from oracles import (
    apply_loss,
    finite_floats,
    kraus_ops,
    naive_dilate,
    random_density,
    random_pure,
)


class TestLossChannel:
    def test_r_complements_t(self):
        ch = LossChannel(0.6)
        assert ch.r == pytest.approx(0.8, abs=1e-15)
        assert ch.t ** 2 + ch.r ** 2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="transmittivity"):
            LossChannel(bad)

    @pytest.mark.parametrize("t", [0.0, 1.0, math.nextafter(1.0, 0.0), 5e-324, 0.6])
    def test_r_is_fixed_when_the_channel_is_built(self, t):
        ch = LossChannel(t)
        assert type(ch.r) is float
        assert ch.r == math.sqrt(max(0.0, 1.0 - t * t))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ch.r = 0.5
        moved = dataclasses.replace(ch, t=0.5)
        assert moved.r == math.sqrt(0.75)

    def test_equality_hash_and_repr_see_t_alone(self):
        ch = LossChannel(0.6)
        assert ch == LossChannel(np.float64(0.6)) and ch != LossChannel(0.5)
        assert hash(ch) == hash(LossChannel(0.6)) == hash((0.6,))
        assert repr(ch) == "LossChannel(t=0.6)"
        assert {ch: 1}[LossChannel(0.6)] == 1


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

    @pytest.mark.parametrize("off", [2e-9, -2e-9])
    def test_a_caller_ket_just_past_the_tolerance_is_rejected(self, rng, off):
        psi = random_pure(rng, ("A", "B"))
        loose = PureState(psi.labels, math.sqrt(1.0 + off) * psi.amps)
        with pytest.raises(ValueError) as info:
            dilate(loose, "B", "E", LossChannel(0.5))
        assert str(info.value) == f"input state must be normalized (norm^2 = {loose.norm2})"
        near = PureState(psi.labels, math.sqrt(1.0 + off / 4) * psi.amps)
        assert dilate(near, "B", "E", LossChannel(0.5)).norm2 == near.norm2

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5])
    def test_carried_norm2_agrees_with_a_fresh_sum(self, n_modes):
        """A dilated ket keeps its input's norm2; summing its amplitudes
        again gives the same value to within 1e-15."""
        rng = np.random.default_rng(60 + n_modes)
        labels = tuple(f"m{i}" for i in range(n_modes))
        for t in (0.0, 1.0, *rng.uniform(size=20)):
            psi = random_pure(rng, labels)
            out = dilate(psi, labels[int(rng.integers(n_modes))], "env", LossChannel(t))
            assert out.norm2 == psi.norm2
            assert abs(out.norm2 - float(np.vdot(out.amps, out.amps).real)) <= 1e-15

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5])
    def test_fill_is_bit_identical_to_one_multiply_per_block(self, n_modes):
        """Each photon row of the label plan comes out of one multiply by
        r or t and one index scatter; every bit, signed zeros and
        subnormal products included, is what two separate scalar
        multiplies into a reshaped copy would give."""
        rng = np.random.default_rng(90 + n_modes)
        labels = tuple(f"m{i}" for i in range(n_modes))
        special = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                   complex(5e-324, -1e-310)]
        for t in (0.0, 1.0, 5e-324, 1e-160, math.nextafter(1.0, 0.0), *rng.uniform(size=4)):
            ch = LossChannel(t)
            amps = random_pure(rng, labels).amps.copy()
            k = min(len(special), amps.size - 1)
            amps[rng.choice(amps.size, size=k, replace=False)] = special[:k]
            psi = PureState(labels, amps / math.sqrt(np.vdot(amps, amps).real))
            for pos, mode in enumerate(labels):
                a = psi.amps.reshape(2 ** pos, 2, -1)
                want = np.zeros(a.shape + (2,), dtype=complex)
                want[:, 0, :, 0] = a[:, 0, :]
                np.multiply(ch.t, a[:, 1, :], out=want[:, 1, :, 0])
                np.multiply(ch.r, a[:, 1, :], out=want[:, 0, :, 1])
                got = dilate(psi, mode, "env", ch).amps
                assert got.tobytes() == want.tobytes(), (t, pos)

    def test_a_repeat_call_returns_the_kept_dilation(self, rng):
        psi = random_pure(rng, ("A", "B"))
        ch = LossChannel(0.3)
        out = dilate(psi, "B", "E", ch)
        assert dilate(psi, "B", "E", ch) is out
        # another mode, environment or channel object recomputes
        for mode, env, other in (("A", "E", ch), ("B", "F", ch), ("B", "E", LossChannel(0.3))):
            again = dilate(psi, mode, env, other)
            assert again is not out
            fresh = dilate(PureState(psi.labels, psi.amps), mode, env, LossChannel(0.3))
            assert again.labels == fresh.labels
            assert again.amps.tobytes() == fresh.amps.tobytes()

    def test_an_equal_but_distinct_channel_recomputes(self):
        """``LossChannel(-0.0) == LossChannel(0.0)``, yet their kept-photon
        rows differ in the sign of zero; each call gives the bits of a
        dilation of a fresh ket, whichever channel the slot held before."""
        psi = PureState(("A", "C1"), np.array([0.8, 0, 0, 0.6]))
        plus, minus = LossChannel(0.0), LossChannel(-0.0)
        assert plus == minus and plus is not minus
        fresh = {id(ch): dilate(PureState(psi.labels, psi.amps), "C1", "E1", ch).amps.tobytes()
                 for ch in (plus, minus)}
        assert fresh[id(plus)] != fresh[id(minus)]
        for ch in (plus, minus, plus, minus):
            assert dilate(psi, "C1", "E1", ch).amps.tobytes() == fresh[id(ch)]

    def test_one_slot_a_second_dilation_frees_the_first(self, rng):
        psi = random_pure(rng, ("A", "B"))
        first = weakref.ref(dilate(psi, "B", "E", LossChannel(0.4)))
        assert first() is not None  # kept with psi
        dilate(psi, "B", "E", LossChannel(0.7))
        assert first() is None

    def test_checks_run_before_the_kept_dilation_is_read(self, rng):
        psi = random_pure(rng, ("A", "B"))
        ch = LossChannel(0.5)
        out = dilate(psi, "B", "E", ch)
        with pytest.raises(LabelError, match="collides"):
            dilate(psi, "B", "A", ch)
        with pytest.raises(LabelError, match="not in register"):
            dilate(psi, "Q", "E", ch)
        # a failed call leaves the slot as it was
        assert dilate(psi, "B", "E", ch) is out
        # a dilated ket keeps its own slot, checked the same way
        with pytest.raises(LabelError, match="collides"):
            dilate(out, "A", "E", ch)

    def test_threads_racing_on_one_slot_each_get_their_own_channel(self, rng):
        """Four threads dilate one ket through two shared channels in turn;
        the slot changes hands under them, and every result still has the
        bits of a fresh dilation through the channel its caller passed."""
        psi = random_pure(rng, ("A", "B"))
        channels = (LossChannel(0.3), LossChannel(0.6))
        want = [dilate(PureState(psi.labels, psi.amps), "B", "E", ch).amps.tobytes()
                for ch in channels]
        wrong = []

        def work(offset):
            for i in range(400):
                k = (i + offset) % 2
                if dilate(psi, "B", "E", channels[k]).amps.tobytes() != want[k]:
                    wrong.append((offset, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5])
def test_dilate_matches_the_loop_oracle_at_every_mode_position(n_modes):
    rng = np.random.default_rng(70 + n_modes)
    labels = tuple(f"m{i}" for i in range(n_modes))
    for t in (0.0, 1.0, *rng.uniform(size=3)):
        ch = LossChannel(t)
        for pos, mode in enumerate(labels):
            psi = random_pure(rng, labels)
            out = dilate(psi, mode, "env", ch)
            assert out.labels == labels + ("env",)
            assert np.array_equal(out.amps, naive_dilate(psi.amps, n_modes, pos, ch.t, ch.r))


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5])
def test_dilate_checks_hold_at_every_mode_position(n_modes):
    rng = np.random.default_rng(80 + n_modes)
    labels = tuple(f"m{i}" for i in range(n_modes))
    psi = random_pure(rng, labels)
    loose = PureState(labels, 2.0 * psi.amps)
    ch = LossChannel(0.5)
    for mode in labels:
        with pytest.raises(LabelError, match="collides"):
            dilate(psi, mode, mode, ch)
        with pytest.raises(LabelError, match="not in register"):
            dilate(psi, "absent", "env", ch)
        with pytest.raises(ValueError, match="input state must be normalized"):
            dilate(loose, mode, "env", ch)


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
