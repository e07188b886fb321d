import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsim import (
    MAX_ENTANGLED_PAIR,
    DensityMatrix,
    InputPair,
    bell_fidelity,
    closed_form_rho,
    concurrence_closed_form,
    concurrence_wootters,
    estimate_visibility,
    fringe_scan,
    partial_trace,
    random_input_pair,
    swap,
    visibility_analytic,
)
from swapsim.metrics import FringeScan

from oracles import bell_psi, finite_floats, optimal_t2

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


def _bell_basis():
    """The four Bell kets as the columns of a 4x4 matrix: Phi+, Phi-, Psi+, Psi-."""
    r = np.sqrt(0.5)
    return np.array([[r, r, 0, 0], [0, 0, r, r], [0, 0, r, -r], [r, -r, 0, 0]], dtype=complex)


def _haar_unitary(rng):
    """A Haar-random 2x2 unitary (QR of a complex Gaussian, phases fixed)."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _locally_rotated(rho, rng):
    """``(U x V) rho (U x V)^dag`` for Haar-random U and V: a dense state of
    the same concurrence."""
    uv = np.kron(_haar_unitary(rng), _haar_unitary(rng))
    out = uv @ rho @ uv.conj().T
    return (out + out.conj().T) / 2.0


def _werner(p):
    psi = _bell_basis()[:, 3]
    return p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(4) / 4.0


def _bell_diagonal(weights):
    b = _bell_basis()
    return (b * np.asarray(weights)) @ b.conj().T


def _x_state(rng):
    """A random full-rank X state, ``rho11 rho44 != 0``, with complex
    coherences rho14 and rho23, and its concurrence by the X-state formula
    ``2 max(0, |rho23| - sqrt(rho11 rho44), |rho14| - sqrt(rho22 rho33))``."""
    d = rng.dirichlet(np.ones(4))
    # |rho14|^2 < rho11 rho44 and |rho23|^2 < rho22 rho33: positive definite
    c14 = rng.uniform(0, 0.999) * np.sqrt(d[0] * d[3])
    c23 = rng.uniform(0, 0.999) * np.sqrt(d[1] * d[2])
    rho = np.diag(d).astype(complex)
    rho[0, 3] = c14 * np.exp(1j * rng.uniform(0, 2 * np.pi))
    rho[1, 2] = c23 * np.exp(1j * rng.uniform(0, 2 * np.pi))
    rho[3, 0], rho[2, 1] = np.conj(rho[0, 3]), np.conj(rho[1, 2])
    want = 2.0 * max(0.0, c23 - np.sqrt(d[0] * d[3]), c14 - np.sqrt(d[1] * d[2]))
    return rho, want


class TestWoottersFullRank:
    """References for states of rank 3 and 4, where the spin-flip product
    has four nonzero eigenvalues: each formula is independent of it, and a
    Wootters concurrence that dropped the third and fourth would miss them."""

    @pytest.mark.parametrize("p", [k / 10 for k in range(11)])
    def test_werner_states(self, p):
        want = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert concurrence_wootters(_werner(p)) == pytest.approx(want, abs=1e-12)

    def test_werner_state_at_one_half_is_one_quarter(self):
        assert concurrence_wootters(_werner(0.5)) == pytest.approx(0.25, abs=1e-12)

    def test_bell_diagonal_states(self):
        rng = np.random.default_rng(17)
        weights = [rng.dirichlet(np.ones(4)) for _ in range(30)]
        weights += [(0.7, 0.1, 0.1, 0.1), (0.1, 0.2, 0.3, 0.4), (0.5, 0.5, 0.0, 0.0),
                    (0.25, 0.25, 0.25, 0.25), (0.55, 0.15, 0.15, 0.15)]
        for w in weights:
            want = max(0.0, 2.0 * max(w) - 1.0)
            assert concurrence_wootters(_bell_diagonal(w)) == pytest.approx(want, abs=1e-12), w
        assert sum(max(w) > 0.5 for w in weights) >= 5  # entangled ones too

    def test_x_states(self):
        rng = np.random.default_rng(29)
        entangled = 0
        for _ in range(50):
            rho, want = _x_state(rng)
            assert np.linalg.eigvalsh(rho).min() > 0.0  # full rank
            assert concurrence_wootters(rho) == pytest.approx(want, abs=1e-12)
            entangled += want > 0.0
        assert entangled >= 10

    def test_local_unitaries_keep_the_concurrence(self):
        """Werner, Bell-diagonal and X states under random ``U x V``: dense,
        full-rank states whose concurrence is the formula's."""
        rng = np.random.default_rng(31)
        cases = [(_werner(p), max(0.0, (3.0 * p - 1.0) / 2.0)) for p in (0.2, 0.5, 0.8, 0.95)]
        for _ in range(10):
            w = rng.dirichlet(np.ones(4))
            cases.append((_bell_diagonal(w), max(0.0, 2.0 * max(w) - 1.0)))
            cases.append(_x_state(rng))
        for rho, want in cases:
            for _ in range(3):
                dense = _locally_rotated(rho, rng)
                assert np.count_nonzero(np.abs(dense) < 1e-9) == 0
                assert concurrence_wootters(dense) == pytest.approx(want, abs=1e-12)
        assert sum(want > 0.0 for _, want in cases) >= 10


class TestStackedWootters:
    """A stack (N, 4, 4) gives exactly the per-state values and errors."""

    @staticmethod
    def heralded_states(n, seed):
        rng = np.random.default_rng(seed)
        states = []
        for i in range(n):
            pair = random_input_pair(rng)
            t1, t2 = rng.uniform(0.05, 1.0, size=2)
            if i % 2:
                states.append(heralded_matrix(pair, t1, t2, sign=-1))
            else:
                states.append(swap(pair, t1, t2, "X+").rho_ab.entries)
        return np.array(states)

    def test_stack_equals_per_state_calls(self):
        stack = self.heralded_states(200, seed=31)
        got = concurrence_wootters(stack)
        assert isinstance(got, np.ndarray) and got.shape == (200,)
        assert got.tolist() == [concurrence_wootters(rho) for rho in stack]

    def test_single_state_still_gives_a_float(self):
        rho = self.heralded_states(1, seed=32)[0]
        assert type(concurrence_wootters(rho)) is float
        assert type(concurrence_wootters(DensityMatrix(("A", "B"), rho))) is float

    def test_stack_of_one_and_empty_stack(self):
        rho = self.heralded_states(1, seed=33)
        assert concurrence_wootters(rho).tolist() == [concurrence_wootters(rho[0])]
        assert concurrence_wootters(np.empty((0, 4, 4))).shape == (0,)

    def test_grid_stack_keeps_its_shape(self):
        stack = self.heralded_states(6, seed=35)
        got = concurrence_wootters(stack.reshape(2, 3, 4, 4))
        assert got.shape == (2, 3)
        assert got.ravel().tolist() == concurrence_wootters(stack).tolist()

    @pytest.mark.parametrize("bad", [
        np.eye(4, dtype=complex),                                       # trace 4
        np.eye(4, dtype=complex) / 4.0 + 0.3 * np.eye(4, k=1),          # not Hermitian
        np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex),                # not PSD
    ], ids=["unnormalized", "non-hermitian", "non-psd"])
    @pytest.mark.parametrize("where", [0, 3, 6])
    def test_one_bad_member_raises_the_single_state_error(self, bad, where):
        with pytest.raises(ValueError) as single:
            concurrence_wootters(bad)
        stack = self.heralded_states(7, seed=34)
        stack[where] = bad
        with pytest.raises(ValueError) as stacked:
            concurrence_wootters(stack)
        assert str(stacked.value) == str(single.value)

    def test_wrong_member_shape_rejected(self):
        with pytest.raises(ValueError, match=r"4x4\) matrix, got shape \(2, 4, 3\)"):
            concurrence_wootters(np.zeros((2, 4, 3)))


def _nan_state():
    m = np.eye(4, dtype=complex) / 4.0
    m[1, 2] = np.nan
    return m


class TestSharedValidator:
    """One validator serves every metric, for one state and for stacks."""

    @pytest.mark.parametrize("metric", [
        concurrence_wootters,
        visibility_analytic,
        bell_fidelity,
        lambda rho: fringe_scan(rho, GRID16),
    ], ids=["wootters", "visibility", "fidelity", "fringes"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_entries_rejected(self, metric, bad):
        m = np.eye(4, dtype=complex) / 4.0
        m[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            metric(m)

    @pytest.mark.parametrize("metric", [concurrence_wootters, visibility_analytic],
                             ids=["wootters", "visibility"])
    @pytest.mark.parametrize("where", [0, 3, 6])
    def test_non_finite_stack_member_rejected(self, metric, where):
        stack = np.array([np.eye(4, dtype=complex) / 4.0] * 7)
        stack[where] = _nan_state()
        with pytest.raises(ValueError, match="finite"):
            metric(stack)

    def test_first_bad_member_decides_the_error(self):
        stack = np.array([np.eye(4, dtype=complex) / 4.0] * 4)
        stack[1] = np.eye(4)
        stack[2] = _nan_state()
        with pytest.raises(ValueError, match="normalized"):
            concurrence_wootters(stack)
        stack[1] = _nan_state()
        stack[2] = np.eye(4)
        with pytest.raises(ValueError, match="finite"):
            visibility_analytic(stack)

    @pytest.mark.parametrize("metric", [
        bell_fidelity,
        lambda rho: fringe_scan(rho, GRID16),
    ], ids=["fidelity", "fringes"])
    def test_single_state_metrics_reject_stacks(self, metric):
        stack = np.array([np.eye(4, dtype=complex) / 4.0] * 3)
        with pytest.raises(ValueError, match=r"4x4\) matrix, got shape \(3, 4, 4\)"):
            metric(stack)


class TestStackedVisibility:
    """A stack (..., 4, 4) gives exactly the per-state visibilities and errors."""

    def test_stack_equals_per_state_calls(self):
        stack = TestStackedWootters.heralded_states(300, seed=41)
        got = visibility_analytic(stack)
        assert isinstance(got, np.ndarray) and got.shape == (300,)
        assert got.tolist() == [visibility_analytic(rho) for rho in stack]

    def test_values_are_the_scalar_formula_bit_for_bit(self):
        stack = TestStackedWootters.heralded_states(300, seed=44)
        want = [float(2.0 * abs(m[1, 2]) / (m[1, 1].real + m[2, 2].real)) for m in stack]
        assert visibility_analytic(stack).tolist() == want

    def test_grid_stack_equals_per_state_calls(self):
        t = np.array([0.01, 0.2, 0.5, 1.0])
        rho, _ = closed_form_rho(MAX_ENTANGLED_PAIR, t[:, None], np.append(t, 0.0))
        got = visibility_analytic(rho)
        assert got.shape == (4, 5)
        assert got.ravel().tolist() == [visibility_analytic(m) for m in rho.reshape(-1, 4, 4)]

    def test_single_state_still_gives_a_float(self):
        rho = TestStackedWootters.heralded_states(1, seed=42)[0]
        v = visibility_analytic(rho)
        assert type(v) is float
        assert visibility_analytic(rho[None]).tolist() == [v]
        assert visibility_analytic(DensityMatrix(("A", "B"), rho)) == v

    @pytest.mark.parametrize("where", [0, 3, 6])
    def test_no_signal_member_raises_the_single_state_error(self, where):
        dark = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError) as single:
            visibility_analytic(dark)
        stack = TestStackedWootters.heralded_states(7, seed=43)
        stack[where] = dark
        with pytest.raises(ValueError) as stacked:
            visibility_analytic(stack)
        assert str(stacked.value) == str(single.value)


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

    @pytest.mark.parametrize("pair, t1, t2", [
        (InputPair(1.0, 0.0, 1.0, 0.0), np.array(0.5), np.array(0.5)),
        (InputPair(1.0, 0.0, 1.0, 0.0), np.full(3, 0.5), 0.5),
        (MAX_ENTANGLED_PAIR, np.array([0.5, 0.0]), np.array([0.5, 0.0])),
    ])
    def test_degenerate_array_inputs_rejected(self, pair, t1, t2):
        with pytest.raises(ValueError, match="degenerate"):
            concurrence_closed_form(pair, t1, t2)

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
        out = swap(MAX_ENTANGLED_PAIR, 1.0, 1.0, "X+")
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
        with pytest.raises(ValueError, match="^phase grid must be a nonempty 1-d array$"):
            fringe_scan(partial_trace(bell_psi(), ()), [])

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            FringeScan([1.0, 0.5], [0.5, 0.5], [0.5, 0.5])

    def test_out_of_range_grid_rejected(self):
        with pytest.raises(ValueError, match="2\\*pi"):
            FringeScan([0.0, 7.0], [0.5, 0.5], [0.5, 0.5])

    @pytest.mark.parametrize("thetas, p_plus, p_minus, message", [
        ([], [], [], "phase grid must be a nonempty 1-d array"),
        ([[0.0, 1.0]], [[0.5, 0.5]], [[0.5, 0.5]], "phase grid must be a nonempty 1-d array"),
        ([0.0, 1.0], [0.5], [0.5, 0.5], "probability arrays must match the phase grid"),
        ([0.0, 1.0], [0.5, 0.5], [0.5, 0.5, 0.5], "probability arrays must match the phase grid"),
        ([0.0, 1.0], [1.5, 0.5], [-0.5, 0.5], "probabilities must lie in \\[0, 1\\]"),
        ([0.0, 1.0], [0.5, 0.5], [0.5, 1.0 + 1e-9], "probabilities must lie in \\[0, 1\\]"),
        ([0.0, 1.0], [0.5, 0.6], [0.5, 0.5], "outcome probabilities must sum to a constant"),
    ])
    def test_constructor_checks(self, thetas, p_plus, p_minus, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FringeScan(thetas, p_plus, p_minus)


class TestVisibility:
    def test_bell_state_is_one(self):
        scan = fringe_scan(partial_trace(bell_psi(), ()), GRID16)
        assert estimate_visibility(GRID16, scan.p_plus).v == pytest.approx(1.0, abs=1e-12)
        assert visibility_analytic(partial_trace(bell_psi(), ())) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_matches_state_visibility(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            pair = random_input_pair(rng)
            m = heralded_matrix(pair, *rng.uniform(0.2, 1.0, size=2))
            scan = fringe_scan(m, GRID16)
            assert estimate_visibility(GRID16, scan.p_plus).v == pytest.approx(
                visibility_analytic(m), abs=1e-12
            )

    def test_unbalanced_equal_inputs_value(self):
        # amplitudes (t2, t1) = (0.5, 1) -> V = 2 * 0.5 / 1.25 = 0.8
        m = heralded_matrix(MAX_ENTANGLED_PAIR, 1.0, 0.5)
        assert visibility_analytic(m) == pytest.approx(0.8, abs=1e-12)

    def test_balanced_losses_keep_full_visibility(self):
        for tau in (0.1, 0.4, 0.9):
            m = heralded_matrix(MAX_ENTANGLED_PAIR, tau, tau)
            assert visibility_analytic(m) == pytest.approx(1.0, abs=1e-12)

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
            v = visibility_analytic(m)
            c = concurrence_closed_form(pair, t1, t2)
            assert v >= c - 1e-12
