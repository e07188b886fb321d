import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsim import (
    DensityMatrix,
    LabelError,
    PureState,
    partial_trace,
    project,
    tensor,
    validate,
)

from conftest import (
    bell_phi_plus,
    naive_partial_trace,
    naive_project,
    random_density,
    random_pure,
)


class TestTensor:
    def test_basis_kets_concatenate(self):
        out = tensor(PureState(("A",), [1, 0]), PureState(("B",), [0, 1]))
        assert out.labels == ("A", "B")
        np.testing.assert_allclose(out.amps, [0, 1, 0, 0])

    def test_duplicate_label_rejected(self, rng):
        a = random_pure(rng, ("A", "B"))
        b = random_pure(rng, ("B",))
        with pytest.raises(LabelError, match="duplicate"):
            tensor(a, b)


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        rho = bell_phi_plus().to_density()
        out = partial_trace(rho, "b")
        np.testing.assert_allclose(out.entries, np.eye(2) / 2, atol=1e-15)
        assert out.labels == ("a",)

    def test_product_state_marginal(self, rng):
        rho = random_density(rng, ("A",))
        sigma = random_density(rng, ("B", "C"))
        joint = DensityMatrix(("A", "B", "C"), np.kron(rho.entries, sigma.entries))
        out = partial_trace(joint, ("B", "C"))
        np.testing.assert_allclose(out.entries, rho.entries, atol=1e-14)

    def test_loss_split_populations(self):
        # photon amplitude b splits into b*t (kept) and b*r (lost to env)
        a, b, t, r = 0.8, 0.6, 0.6, 0.8
        psi = PureState(
            ("A", "C1", "E1"),
            np.array([a, 0, 0, 0, 0, b * r, b * t, 0]),
        )
        out = partial_trace(psi.to_density(), "E1")
        assert out.entries[3, 3] == pytest.approx((b * t) ** 2, abs=1e-14)
        assert out.entries[2, 2] == pytest.approx((b * r) ** 2, abs=1e-14)
        assert out.entries[0, 0] == pytest.approx(a ** 2, abs=1e-14)

    def test_discard_everything_leaves_scalar(self, rng):
        rho = random_density(rng, ("A", "B"))
        out = partial_trace(rho, ("A", "B"))
        assert out.labels == ()
        assert out.entries.shape == (1, 1)
        assert out.weight == pytest.approx(rho.weight, abs=1e-12)

    def test_unknown_label_rejected(self, rng):
        with pytest.raises(LabelError, match="unknown"):
            partial_trace(random_density(rng, ("A",)), "nope")

    def test_matches_loop_oracle(self, rng):
        labels = ("A", "B", "C", "D")
        for _ in range(25):
            rho = random_density(rng, labels, rank=3)
            keep_mask = rng.integers(0, 2, size=4)
            if keep_mask.sum() == 0:
                keep_mask[0] = 1
            discard = [lab for lab, m in zip(labels, keep_mask) if m == 0]
            if not discard:
                continue
            keep = [i for i, m in enumerate(keep_mask) if m == 1]
            expected = naive_partial_trace(rho.entries, 4, keep)
            out = partial_trace(rho, discard)
            np.testing.assert_allclose(out.entries, expected, atol=1e-13)


class TestProject:
    def test_bell_onto_vacuum_gives_half(self):
        rho = bell_phi_plus().to_density()
        out = project(rho, PureState(("a", "b"), [1, 0, 0, 0]))
        assert out.labels == ()
        assert out.weight == pytest.approx(0.5, abs=1e-14)

    def test_orthogonal_ket_gives_zero(self):
        rho = bell_phi_plus().to_density()
        out = project(rho, PureState(("a", "b"), [0, 1, 0, 0]))
        assert out.weight == pytest.approx(0.0, abs=1e-14)

    def test_unnormalized_ket_rejected(self, rng):
        rho = random_density(rng, ("A", "B"))
        bad = PureState(("A",), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="normalized"):
            project(rho, bad)

    def test_unknown_ket_label_rejected(self, rng):
        rho = random_density(rng, ("A", "B"))
        with pytest.raises(LabelError, match="unknown"):
            project(rho, PureState(("Z",), [1, 0]))

    def test_matches_loop_oracle(self, rng):
        for _ in range(25):
            rho = random_density(rng, ("A", "B", "C"), rank=3)
            ket = random_pure(rng, ("B", "C"))
            expected = naive_project(rho, ket)
            out = project(rho, ket)
            np.testing.assert_allclose(out.entries, expected, atol=1e-13)
            assert out.labels == ("A",)

    def test_ket_label_order_is_respected(self, rng):
        rho = random_density(rng, ("A", "B", "C"), rank=2)
        ket = random_pure(rng, ("C", "B"))
        out = project(rho, ket)
        out_reordered = project(rho, ket.reorder(("B", "C")))
        np.testing.assert_allclose(out.entries, out_reordered.entries, atol=1e-14)


class TestValidate:
    def test_bell_state_passes(self):
        report = validate(bell_phi_plus().to_density())
        assert report.passed
        assert report.hermiticity_dev < 1e-15
        assert report.min_eigenvalue > -1e-15

    def test_nonhermitian_entry_fails(self):
        entries = np.zeros((2, 2), dtype=complex)
        entries[0, 1] = 1.0
        report = validate(DensityMatrix(("A",), entries, weight=0.0))
        assert not report.passed
        assert report.hermiticity_dev == pytest.approx(1.0)

    def test_trace_mismatch_reported(self, rng):
        rho = random_density(rng, ("A",))
        off = DensityMatrix(rho.labels, rho.entries, weight=rho.weight + 1e-6)
        report = validate(off)
        assert not report.passed
        assert report.trace_dev == pytest.approx(1e-6, rel=1e-3)


class TestImmutability:
    def test_amps_are_read_only(self, rng):
        psi = random_pure(rng, ("A",))
        with pytest.raises(ValueError):
            psi.amps[0] = 0.0

    def test_entries_are_read_only(self, rng):
        rho = random_density(rng, ("A",))
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0.0


class TestConstruction:
    def test_amplitude_length_must_match_modes(self):
        with pytest.raises(ValueError, match="does not fit"):
            PureState(("A", "B"), np.zeros(3))

    def test_matrix_shape_must_match_modes(self):
        with pytest.raises(ValueError, match="does not fit"):
            DensityMatrix(("A",), np.zeros((3, 3)))

    def test_negative_weight_rejected(self, rng):
        rho = random_density(rng, ("A",))
        with pytest.raises(ValueError, match="negative weight"):
            DensityMatrix(rho.labels, rho.entries, weight=-0.5)

    def test_roundoff_negative_weight_clips_to_zero(self, rng):
        rho = random_density(rng, ("A",))
        out = DensityMatrix(rho.labels, rho.entries, weight=-1e-16)
        assert out.weight == 0.0

    def test_normalizing_zero_states_rejected(self):
        with pytest.raises(ValueError, match="zero state"):
            PureState(("A",), np.zeros(2)).normalized()
        with pytest.raises(ValueError, match="zero-weight"):
            DensityMatrix(("A",), np.zeros((2, 2))).normalized()

    def test_reorder_requires_same_label_set(self, rng):
        psi = random_pure(rng, ("A", "B"))
        with pytest.raises(LabelError, match="reorder"):
            psi.reorder(("A", "C"))

    def test_normalized_helpers(self, rng):
        psi = PureState(("A",), np.array([3.0, 4.0]))
        assert not psi.is_normalized()
        assert psi.norm2 == pytest.approx(25.0)
        assert psi.normalized().is_normalized()
        rho = DensityMatrix(("A",), 2.0 * random_density(rng, ("A",)).entries)
        assert rho.normalized().weight == 1.0


class TestJson:
    def test_density_roundtrip(self, rng):
        rho = random_density(rng, ("A", "B"))
        back = DensityMatrix.from_json_dict(rho.to_json_dict())
        assert back.labels == rho.labels
        np.testing.assert_allclose(back.entries, rho.entries)
        assert back.weight == rho.weight


class TestReorder:
    def test_pure_reorder_swaps_bits(self):
        psi = PureState(("A", "B"), [0, 1, 0, 0])
        np.testing.assert_allclose(psi.reorder(("B", "A")).amps, [0, 0, 1, 0])


# ---------------------------------------------------------------- properties

@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_tensor_then_trace_recovers_first_factor(seed):
    rng = np.random.default_rng(seed)
    a = random_density(rng, ("A", "B"))
    b = random_density(rng, ("C",))
    out = partial_trace(DensityMatrix(("A", "B", "C"), np.kron(a.entries, b.entries)), "C")
    # second factor has unit trace, so the first comes back exactly
    np.testing.assert_allclose(out.entries, a.entries, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_partial_trace_preserves_trace(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, ("A", "B", "C"), rank=3)
    out = partial_trace(rho, ("B",))
    assert abs(np.trace(out.entries) - np.trace(rho.entries)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_project_never_increases_weight(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, ("A", "B"), rank=2)
    ket = random_pure(rng, ("B",))
    out = project(rho, ket)
    assert out.weight <= rho.weight + 1e-12


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.1, 1.0))
def test_pure_density_has_single_eigenvalue(seed, scale):
    rng = np.random.default_rng(seed)
    psi = random_pure(rng, ("A", "B"))
    rho = DensityMatrix(psi.labels, scale * psi.to_density().entries)
    ev = np.linalg.eigvalsh(rho.entries)
    assert ev[-1] == pytest.approx(rho.weight, abs=1e-12)
    assert np.all(np.abs(ev[:-1]) < 1e-10)
