import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsim import (
    MAX_ENTANGLED_PAIR,
    DensityMatrix,
    InputPair,
    LossChannel,
    PureState,
    SpdcSource,
    bell_fidelity,
    bsm,
    build_inputs,
    closed_form_rho,
    concurrence_closed_form,
    concurrence_wootters,
    normalized_success,
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
from swapsim.protocol import SETTINGS, _entangling

from oracles import (
    X_BY_SIGN,
    apply_loss,
    asymptotic_state,
    best_split_concurrence,
    input_pairs,
    naive_partial_trace,
    naive_project,
    normalized_ket,
    random_pure,
)


class TestInputPair:
    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            InputPair(1.0, 1.0, 1.0, 0.0)

    def test_complex_amplitudes_accepted(self):
        pair = InputPair(1j / np.sqrt(2), 1 / np.sqrt(2), 1.0, 0.0)
        assert pair.alpha == 1j / np.sqrt(2)

    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "delta"])
    def test_nan_amplitude_rejected(self, field):
        with pytest.raises(ValueError, match="normalized"):
            dataclasses.replace(MAX_ENTANGLED_PAIR, **{field: math.nan})

    def test_kept_products_stay_out_of_equality_and_repr(self, rng):
        pair = random_input_pair(rng)
        again = InputPair(pair.alpha, pair.beta, pair.gamma, pair.delta)
        assert again == pair and hash(again) == hash(pair)
        assert repr(pair) == (f"InputPair(alpha={pair.alpha!r}, beta={pair.beta!r}, "
                              f"gamma={pair.gamma!r}, delta={pair.delta!r})")
        # a replaced amplitude forms its products again
        swapped = dataclasses.replace(pair, alpha=pair.beta, beta=pair.alpha)
        assert swapped._products[1] == abs(pair.alpha * pair.gamma) ** 2


class TestRandomInputPair:
    @staticmethod
    def two_call_pair(rng):
        """The pair as drawn from two ``normal(size=4)`` calls."""
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        a, b, g, d = z[0], z[1], z[2], z[3]
        na = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        nb = math.sqrt(abs(g) ** 2 + abs(d) ** 2)
        return InputPair(a / na, b / na, g / nb, d / nb)

    def test_one_normal_call_draws_the_two_call_stream(self):
        def draws(rng, make_pair):
            for _ in range(200):
                pair = make_pair(rng)
                # the oracle's own draws after each pair
                yield (pair.alpha, pair.beta, pair.gamma, pair.delta,
                       *rng.uniform(0.05, 1.0, size=2).tolist(), int(rng.integers(0, 2)))

        for seed in range(50):
            got = list(draws(np.random.default_rng(seed), random_input_pair))
            want = list(draws(np.random.default_rng(seed), self.two_call_pair))
            # repr shows every bit, and the sign of zero, of each value
            assert repr(got) == repr(want), seed


class TestBsmSetting:
    """A station setting is its name: ``SETTINGS`` maps it to its projector
    ket, and ``bsm`` (so also ``swap``) checks it before anything else."""

    NAMES = ["X+", "X-", "Y+", "Y-", "Z+", "Z-"]
    UNKNOWN = "unknown measurement setting {!r} (choose from X+, X-, Y+, Y-, Z+, Z-)"

    def test_names(self):
        assert list(SETTINGS) == self.NAMES

    def test_entangling_ket(self):
        np.testing.assert_allclose(SETTINGS["Y-"].amps, [0, 1, -1j, 0] / np.sqrt(2), atol=1e-15)

    def _refuses(self, name):
        psi = propagate(build_inputs(MAX_ENTANGLED_PAIR), 0.9, 0.9)
        for call in (lambda: bsm(psi, name), lambda: swap(MAX_ENTANGLED_PAIR, 0.9, 0.9, name)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == self.UNKNOWN.format(name)

    def test_bad_kind_rejected(self):
        self._refuses("bogus")

    @pytest.mark.parametrize("name", ["x", "separable", ["X+"], None])
    def test_old_kinds_and_non_strings_rejected(self, name):
        self._refuses(name)

    @pytest.mark.parametrize("name", NAMES)
    def test_names_round_trip(self, name):
        # vacuum inputs leave no photon to herald: every setting's name
        # passes the check and comes back in the impossible-outcome error
        with pytest.raises(ValueError, match=rf"impossible outcome: .* for setting {re.escape(name)}$"):
            swap(InputPair(1.0, 0.0, 1.0, 0.0), 1.0, 1.0, name)

    def test_name_is_checked_before_the_ket(self, rng):
        with pytest.raises(ValueError, match="unknown measurement setting"):
            bsm(random_pure(rng, ("A", "B")), "bogus")

    def test_a_channel_fault_is_reported_before_the_name(self):
        # swap propagates first, and bsm checks the name as it starts
        with pytest.raises(ValueError, match=r"amplitude transmittivity t = 2\.0 outside"):
            swap(MAX_ENTANGLED_PAIR, 2.0, 0.5, "bogus")

    def test_separable_kets(self):
        np.testing.assert_allclose(SETTINGS["Z+"].amps, [0, 1, 0, 0])
        np.testing.assert_allclose(SETTINGS["Z-"].amps, [0, 0, 1, 0])

    def test_the_table_is_read_only(self):
        with pytest.raises(TypeError):
            SETTINGS["X+"] = SETTINGS["X-"]
        with pytest.raises(TypeError):
            del SETTINGS["Z-"]

    @pytest.mark.parametrize("name", NAMES)
    def test_projector_ket_is_built_once_from_the_table(self, name):
        want = {"X+": _entangling(+1, 0.0), "X-": _entangling(-1, 0.0),
                "Y+": _entangling(+1, math.pi / 2.0), "Y-": _entangling(-1, math.pi / 2.0),
                "Z+": (0.0, 1.0, 0.0, 0.0), "Z-": (0.0, 0.0, 1.0, 0.0)}[name]
        ket = SETTINGS[name]
        assert isinstance(ket, PureState)
        assert ket.labels == ("C1", "C2")
        assert ket.amps.tolist() == [complex(a) for a in want]
        assert not ket.amps.flags.writeable


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

    def test_a_repeat_call_returns_the_kept_ket(self, rng):
        pair = random_input_pair(rng)
        psi = build_inputs(pair)
        assert build_inputs(pair) is psi
        # an equal but distinct pair builds its own ket, with the same bits
        again = dataclasses.replace(pair)
        assert again == pair and hash(again) == hash(pair)
        assert build_inputs(again) is not psi
        assert build_inputs(again).amps.tobytes() == psi.amps.tobytes()
        assert repr(pair) == repr(again)

    def test_a_second_swap_reuses_the_ket_and_its_dilations(self, rng):
        """With the same pair and channel objects, the second outcome's
        ``propagate`` returns the ket the first one made; each outcome has
        the bits of a swap of a fresh pair through fresh channels."""
        pair = random_input_pair(rng)
        ch1, ch2 = LossChannel(0.35), LossChannel(0.8)
        dilated = propagate(build_inputs(pair), ch1, ch2)
        assert propagate(build_inputs(pair), ch1, ch2) is dilated
        for setting in ("X+", "X-", "X+"):
            kept = swap(pair, ch1, ch2, setting)
            fresh = swap(dataclasses.replace(pair), LossChannel(0.35), LossChannel(0.8), setting)
            assert kept.rho_ab.entries.tobytes() == fresh.rho_ab.entries.tobytes()
            assert kept.p_success == fresh.p_success


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
        out = swap(MAX_ENTANGLED_PAIR, 1.0, 1.0, "X+")
        bell = np.array([0, 1, 1, 0]) / np.sqrt(2)
        np.testing.assert_allclose(
            out.rho_ab.entries, np.outer(bell, bell), atol=1e-14
        )
        assert out.p_success == pytest.approx(0.25, abs=1e-12)
        assert out.rho_ab.labels == ("A", "B")

    def test_both_signs_sum_to_half(self):
        p = sum(
            swap(MAX_ENTANGLED_PAIR, 1.0, 1.0, X_BY_SIGN[s]).p_success
            for s in (+1, -1)
        )
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_vacuum_inputs_are_impossible(self):
        with pytest.raises(ValueError, match="impossible outcome"):
            swap(InputPair(1.0, 0.0, 1.0, 0.0), 1.0, 1.0, "X+")

    def test_separable_outcome_has_no_coherence(self):
        out = swap(MAX_ENTANGLED_PAIR, 0.7, 0.9, "Z+")
        assert abs(out.rho_ab.entries[1, 2]) < 1e-14
        out = swap(MAX_ENTANGLED_PAIR, 0.7, 0.9, "Z-")
        assert abs(out.rho_ab.entries[1, 2]) < 1e-14

    def test_requires_flying_modes(self, rng):
        with pytest.raises(ValueError, match="flying modes"):
            bsm(random_pure(rng, ("A", "B")), "X+")

    def test_requires_normalized_ket(self):
        psi = propagate(build_inputs(MAX_ENTANGLED_PAIR), 0.9, 0.9)
        scaled = PureState(psi.labels, np.sqrt(0.5) * psi.amps)
        with pytest.raises(ValueError, match="normalized"):
            bsm(scaled, "X+")

    def test_matches_the_density_matrix_references(self, rng):
        """Ket route vs |psi><psi| traced and projected by the loop oracles."""
        for _ in range(20):
            pair = random_input_pair(rng)
            t1, t2 = rng.uniform(0.05, 1.0, size=2)
            psi = propagate(build_inputs(pair), t1, t2)
            assert psi.labels == ("A", "C1", "C2", "B", "E1", "E2")
            traced = DensityMatrix(
                psi.labels[:4],
                naive_partial_trace(np.outer(psi.amps, psi.amps.conj()), 6, [0, 1, 2, 3]),
            )
            for setting, ket in SETTINGS.items():
                expected = naive_project(traced, ket)
                weight = np.trace(expected).real
                out = bsm(psi, setting)
                np.testing.assert_allclose(
                    out.rho_ab.entries, expected / weight, atol=1e-12
                )
                assert abs(out.p_success - weight) < 1e-12


@pytest.mark.parametrize("off", [2e-9, -2e-9])
def test_caller_kets_off_by_more_than_1e_9_are_rejected_at_every_entry(rng, off):
    """Carrying the checked norm through ``dilate`` skips no check of a ket
    a caller built: ``propagate`` and ``bsm`` reject one whose norm^2 is
    off by more than 1e-9 with the message they always gave, and accept
    one off by less."""
    pair = random_input_pair(rng)
    psi = build_inputs(pair)
    ket = propagate(psi, 0.7, 0.4)
    for call, state in ((lambda s: propagate(s, 0.7, 0.4), psi),
                        (lambda s: bsm(s, "X+"), ket)):
        loose = PureState(state.labels, math.sqrt(1.0 + off) * state.amps)
        with pytest.raises(ValueError) as info:
            call(loose)
        assert str(info.value) == f"input state must be normalized (norm^2 = {loose.norm2})"
        call(PureState(state.labels, math.sqrt(1.0 + off / 4) * state.amps))
    carried = propagate(PureState(psi.labels, math.sqrt(1.0 + off / 4) * psi.amps), 0.7, 0.4)
    assert abs(carried.norm2 - float(np.vdot(carried.amps, carried.amps).real)) <= 1e-15


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
            out = swap(pair, t1, t2, X_BY_SIGN[sign])
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


class TestBroadcastClosedForm:
    """Arrays of t1, t2 give the stack of the scalar calls, bit for bit."""

    T1 = np.array([1e-3, 0.05, 0.3, 0.5, 0.77, 1.0])
    T2 = np.array([0.0, 1e-12, 0.2, 0.5, 0.91, 1.0])

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_grid_equals_scalar_calls(self, rng, sign):
        for pair in (MAX_ENTANGLED_PAIR, *(random_input_pair(rng) for _ in range(5))):
            rho, norm = closed_form_rho(pair, self.T1[:, None], self.T2, sign)
            assert rho.shape == (6, 6, 4, 4) and norm.shape == (6, 6)
            for i, t1 in enumerate(self.T1.tolist()):
                for j, t2 in enumerate(self.T2.tolist()):
                    rho_ij, norm_ij = closed_form_rho(pair, t1, t2, sign)
                    assert (rho[i, j] == rho_ij).all()
                    assert norm[i, j] == norm_ij

    # each closed form, and concurrence_wootters of the closed-form state;
    # closed_form_rho gives its matrix and its norm
    PAIR = InputPair(0.6, 0.8j, 0.8, -0.6)
    AT_ONE_POINT = {
        "closed_form_rho": closed_form_rho,
        "success_probability": success_probability,
        "concurrence_closed_form": concurrence_closed_form,
        "normalized_success": normalized_success,
        "concurrence_wootters": lambda *point: concurrence_wootters(closed_form_rho(*point)[0]),
    }

    def test_scalar_call_gives_a_matrix_and_a_float(self):
        for name, at in self.AT_ONE_POINT.items():
            # a Python float, a numpy float64 and a 0-d array are each one point
            for lone in (0.6, np.float64(0.6), np.array(0.6)):
                got = at(self.PAIR, 0.4, lone)
                if name == "closed_form_rho":
                    rho, got = got
                    assert type(rho) is np.ndarray and rho.shape == (4, 4)
                assert type(got) is float, (name, type(lone))

    # bits, not ==, so that a signed zero would show
    @pytest.mark.parametrize("name", AT_ONE_POINT)
    def test_stack_of_one_stays_an_array_with_the_scalar_bits(self, name):
        at = self.AT_ONE_POINT[name]
        lone, stack = at(self.PAIR, 0.4, 0.6), at(self.PAIR, 0.4, np.array([0.6]))
        if name == "closed_form_rho":
            (rho, lone), (rhos, stack) = lone, stack
            assert rhos.shape == (1, 4, 4)
            assert (rhos[0].view(np.uint64) == rho.view(np.uint64)).all()
        assert type(stack) is np.ndarray and stack.shape == (1,)
        assert stack.view(np.uint64)[0] == np.float64(lone).view(np.uint64)

    def test_stack_is_c_contiguous_with_the_scalar_bell_fidelity_per_row(self, rng):
        pairs, t1, t2, sign = self.pair_stack(rng)
        rho, _ = closed_form_rho(pairs, t1, t2, sign)
        grid, _ = closed_form_rho(pairs[:3], self.T1[:, None], 0.5, -1)
        assert rho.shape == (len(pairs), 4, 4) and grid.shape == (6, 3, 4, 4)
        assert rho.flags.c_contiguous and grid.flags.c_contiguous
        for i, (pair, a, b, s) in enumerate(zip(pairs, t1.tolist(), t2.tolist(), sign.tolist())):
            want = bell_fidelity(closed_form_rho(pair, a, b, s)[0], s)
            assert np.float64(bell_fidelity(rho[i], s)).view(np.uint64) == \
                np.float64(want).view(np.uint64), i

    def test_one_degenerate_point_rejects_the_grid(self):
        with pytest.raises(ValueError) as single:
            closed_form_rho(MAX_ENTANGLED_PAIR, 0.0, 0.0)
        with pytest.raises(ValueError) as grid:
            closed_form_rho(MAX_ENTANGLED_PAIR, np.array([[0.5], [0.0]]), np.array([0.0, 0.5]))
        assert str(grid.value) == str(single.value)

    @staticmethod
    def pair_stack(rng):
        """The maximally entangled pair, weak loss-matched pairs and 1000
        random pairs, with (t1, t2, sign) per pair. The edge transmissions
        0, 1e-12 and 1 each meet a partner drawn from [0.05, 1]."""
        pairs = [MAX_ENTANGLED_PAIR, optimal_inputs(1.0, 0.1, 0.01),
                 optimal_inputs(0.3, 0.9, 1e-3), optimal_inputs(0.05, 1.0, 0.01)]
        pairs += [random_input_pair(rng) for _ in range(1000)]
        t1, t2 = rng.uniform(0.05, 1.0, size=(2, len(pairs)))
        edges = (0.0, 1e-12, 1.0)
        t1[0::10] = np.resize(edges, t1[0::10].size)
        t2[5::10] = np.resize(edges, t2[5::10].size)
        t1[1] = t2[1] = 1.0
        sign = np.where(rng.integers(0, 2, size=len(pairs)) == 0, 1, -1)
        return pairs, t1, t2, sign

    def test_pair_stack_equals_scalar_calls(self, rng):
        pairs, t1, t2, sign = self.pair_stack(rng)
        assert len(set(sign.tolist())) == 2
        rho, norm = closed_form_rho(pairs, t1, t2, sign)
        assert rho.shape == (len(pairs), 4, 4) and norm.shape == (len(pairs),)
        p = success_probability(pairs, t1, t2)
        c = concurrence_closed_form(pairs, t1, t2)
        q = normalized_success(pairs, t1, t2)
        # Python floats and ints per member, as the oracle draws them
        for i, (pair, a, b, s) in enumerate(zip(pairs, t1.tolist(), t2.tolist(), sign.tolist())):
            rho_i, norm_i = closed_form_rho(pair, a, b, s)
            assert (rho[i] == rho_i).all(), i
            assert norm[i] == norm_i, i
            assert p[i] == success_probability(pair, a, b), i
            assert c[i] == concurrence_closed_form(pair, a, b), i
            assert q[i] == normalized_success(pair, a, b), i

    def test_pair_axis_broadcasts_against_a_grid(self, rng):
        pairs = [MAX_ENTANGLED_PAIR, *(random_input_pair(rng) for _ in range(2))]
        rho, norm = closed_form_rho(pairs, self.T1[:, None], 0.5, -1)
        c = concurrence_closed_form(pairs, self.T1[:, None], 0.5)
        assert rho.shape == (6, 3, 4, 4) and norm.shape == c.shape == (6, 3)
        for i, t1 in enumerate(self.T1.tolist()):
            for j, pair in enumerate(pairs):
                rho_ij, norm_ij = closed_form_rho(pair, t1, 0.5, -1)
                assert (rho[i, j] == rho_ij).all() and norm[i, j] == norm_ij
                assert c[i, j] == concurrence_closed_form(pair, t1, 0.5)

    @pytest.mark.parametrize("call", [closed_form_rho, concurrence_closed_form,
                                      normalized_success])
    def test_one_degenerate_pair_rejects_the_stack(self, rng, call):
        dead = InputPair(1.0, 0.0, 1.0, 0.0)  # no photon ever reaches the station
        with pytest.raises(ValueError) as single:
            call(dead, 0.5, 0.5)
        pairs = [random_input_pair(rng), dead, MAX_ENTANGLED_PAIR]
        with pytest.raises(ValueError) as stack:
            call(pairs, np.full(3, 0.5), np.full(3, 0.5))
        assert str(stack.value) == str(single.value)

    @pytest.mark.parametrize("bad", [0, 2, -2, "+"])
    def test_a_bad_sign_array_is_refused(self, bad):
        with pytest.raises(ValueError) as single:
            closed_form_rho(MAX_ENTANGLED_PAIR, 0.5, 0.5, bad)
        # the first bad member names itself, as a lone sign does
        with pytest.raises(ValueError) as stack:
            closed_form_rho([MAX_ENTANGLED_PAIR] * 4, 0.5, 0.5,
                            np.array([1, -1, bad, 0], dtype=object))
        assert str(stack.value) == str(single.value)


class TestSharedRules:
    """Each entry point that takes a sign or heralds a closed form gives
    the one message of the shared rule, word for word."""

    @pytest.mark.parametrize("sign", [0, 2, "+"])
    @pytest.mark.parametrize("call", [
        lambda sign: closed_form_rho(MAX_ENTANGLED_PAIR, 0.5, 0.5, sign),
        lambda sign: asymptotic_state(MAX_ENTANGLED_PAIR, 0.5, 0.5, sign),
        # the sign is checked before the matrix, which here is not a state
        lambda sign: bell_fidelity(np.full((4, 4), np.nan), sign),
    ])
    def test_bad_sign_text(self, call, sign):
        with pytest.raises(ValueError) as info:
            call(sign)
        assert str(info.value) == f"sign must be +1 or -1, got {sign!r}"

    @pytest.mark.parametrize("t1, t2", [
        (0.0, 0.0),
        (np.array(0.0), np.array(0.0)),
        (np.array([0.5, 0.0]), np.array([0.5, 0.0])),
    ])
    @pytest.mark.parametrize("closed_form", [closed_form_rho, concurrence_closed_form])
    def test_degenerate_text(self, closed_form, t1, t2):
        with pytest.raises(ValueError) as info:
            closed_form(MAX_ENTANGLED_PAIR, t1, t2)
        assert str(info.value) == "degenerate inputs: heralding probability is zero"


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
                swap(pair, t1, t2, X_BY_SIGN[s]).p_success for s in (+1, -1)
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

    def test_optimal_only_as_epsilon_vanishes(self):
        """At its own pair scale the rule leaves concurrence to the best split
        of beta * delta: 1.56e-3 at epsilon = 0.5, then a gap that shrinks as
        epsilon^8 (256 times per halving) down to roundoff at 0.01."""
        t1, t2 = 0.05, 0.8
        gaps = {}
        for eps in (0.5, 0.2, 0.1, 0.05, 0.01):
            pair = optimal_inputs(t1, t2, eps)
            scale = (pair.beta * pair.delta).real
            gaps[eps] = best_split_concurrence(t1, t2, scale) - concurrence_closed_form(pair, t1, t2)
        assert gaps[0.5] == pytest.approx(1.558e-3, rel=1e-3)
        assert gaps[0.2] / gaps[0.1] == pytest.approx(256, rel=0.02)
        assert gaps[0.1] / gaps[0.05] == pytest.approx(256, rel=0.05)
        assert 1e-9 < gaps[0.1] < 1e-8
        assert abs(gaps[0.01]) < 1e-14

    def test_balance_holds_at_extreme_loss_ratios(self):
        """The balance and the pair scale hold to 1e-12 at loss ratios t2 / t1
        and t1 / t2 from 1e-80 to 1e-300."""
        for eps in (0.01, 0.5):
            for exponent in range(80, 301, 20):
                for t1, t2 in ((1.0, 10.0 ** -exponent), (10.0 ** -exponent, 1.0)):
                    pair = optimal_inputs(t1, t2, eps)
                    balance = abs(pair.beta * pair.gamma) * t1
                    assert abs(pair.alpha * pair.delta) * t2 == pytest.approx(balance, rel=1e-12, abs=0)
                    h = math.hypot(t1, t2)
                    scale = eps ** 2 * 2 * (t1 / h) * (t2 / h)
                    assert abs(pair.beta * pair.delta) == pytest.approx(scale, rel=1e-12, abs=0)

    @pytest.mark.parametrize("t1,t2,eps", [(5e-324, 0.1, 0.01), (1.0, 5e-324, 0.5),
                                           (1.0, 0.5, 1e-200), (1.0, 1.0, 5e-324)])
    def test_underflowing_pair_scale_rejected(self, t1, t2, eps):
        """Unguarded, the closed form would return a zero delta or beta at the
        first two points and divide by zero at the last two."""
        with pytest.raises(ValueError, match="^degenerate inputs: photon-pair scale "
                           "underflows to zero$"):
            optimal_inputs(t1, t2, eps)

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
            ket = normalized_ket(asymptotic_state(pair, 0.9, 0.4))
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
            out = swap(pair, t1, t2, "X+")
            out_mirrored = swap(mirrored, t2, t1, "X+")
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
            base = swap(pair, t1, t2, "X+").rho_ab.entries
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
        out = swap(MAX_ENTANGLED_PAIR, 1.0, 1.0, "Y+")
        assert bell_fidelity(out.rho_ab, +1, -np.pi / 2) == pytest.approx(1.0, abs=1e-12)
        assert bell_fidelity(out.rho_ab, +1, np.pi / 2) == pytest.approx(0.0, abs=1e-12)
        assert out.rho_ab.entries[1, 2] == pytest.approx(0.5j, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(pair=input_pairs(), t1=st.floats(0.05, 1.0), t2=st.floats(0.05, 1.0))
def test_closed_form_equals_brute_force_property(pair, t1, t2):
    from hypothesis import assume

    assume(success_probability(pair, t1, t2) > 1e-6)
    rho_cf, norm = closed_form_rho(pair, t1, t2, +1)
    out = swap(pair, t1, t2, "X+")
    np.testing.assert_allclose(out.rho_ab.entries, rho_cf, atol=1e-12)
    total = out.p_success + swap(pair, t1, t2, "X-").p_success
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
        brute = _heralded(lambda: swap(pair, t1, t2, X_BY_SIGN[sign]))
        other = _heralded(lambda: swap(pair, t1, t2, X_BY_SIGN[-sign]))
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
        brute = _heralded(lambda: swap(pair, t1, t2, X_BY_SIGN[sign]))
        if brute is None:
            continue
        other = swap(pair, t1, t2, X_BY_SIGN[-sign])
        ket = asymptotic_state(pair, t1, t2, sign)
        k2, n2 = ket.norm2, brute.p_success + other.p_success
        bound = abs(pair.beta * pair.delta) ** 2 * (t1 * t1 + t2 * t2)
        amps = normalized_ket(ket).amps
        fidelity = float(np.real(amps.conj() @ brute.rho_ab.entries @ amps))
        assert -1e-12 <= n2 - k2 <= bound + 1e-12, (pair, t1, t2)
        assert 1.0 - fidelity <= bound / k2 + 1e-12, (pair, t1, t2)
        compared += 1
    assert compared > 400
