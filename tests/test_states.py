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

from oracles import (
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
        out = partial_trace(bell_phi_plus(), "b")
        np.testing.assert_allclose(out.entries, np.eye(2) / 2, atol=1e-15)
        assert out.labels == ("a",)

    def test_product_state_marginal(self, rng):
        a = random_pure(rng, ("A",))
        joint = tensor(a, random_pure(rng, ("B", "C")))
        out = partial_trace(joint, ("B", "C"))
        np.testing.assert_allclose(
            out.entries, np.outer(a.amps, a.amps.conj()), atol=1e-14
        )

    def test_loss_split_populations(self):
        # photon amplitude b splits into b*t (kept) and b*r (lost to env)
        a, b, t, r = 0.8, 0.6, 0.6, 0.8
        psi = PureState(
            ("A", "C1", "E1"),
            np.array([a, 0, 0, 0, 0, b * r, b * t, 0]),
        )
        out = partial_trace(psi, "E1")
        assert out.entries[3, 3] == pytest.approx((b * t) ** 2, abs=1e-14)
        assert out.entries[2, 2] == pytest.approx((b * r) ** 2, abs=1e-14)
        assert out.entries[0, 0] == pytest.approx(a ** 2, abs=1e-14)

    def test_discard_everything_leaves_scalar(self, rng):
        psi = PureState(("A", "B"), 0.5 * random_pure(rng, ("A", "B")).amps)
        out = partial_trace(psi, ("A", "B"))
        assert out.labels == ()
        assert out.entries.shape == (1, 1)
        assert out.weight == pytest.approx(psi.norm2, abs=1e-12)

    def test_discard_nothing_gives_the_ket_projector(self, rng):
        psi = random_pure(rng, ("A", "B", "C"))
        out = partial_trace(psi, ())
        assert out.labels == psi.labels
        np.testing.assert_allclose(
            out.entries, np.outer(psi.amps, psi.amps.conj()), atol=1e-15
        )

    def test_unknown_label_rejected(self, rng):
        with pytest.raises(LabelError, match="unknown"):
            partial_trace(random_pure(rng, ("A",)), "nope")

    def test_matches_loop_oracle(self, rng):
        labels = ("A", "B", "C", "D")
        for _ in range(25):
            psi = random_pure(rng, labels)
            keep_mask = rng.integers(0, 2, size=4)
            if keep_mask.sum() == 0:
                keep_mask[0] = 1
            discard = [lab for lab, m in zip(labels, keep_mask) if m == 0]
            if not discard:
                continue
            keep = [i for i, m in enumerate(keep_mask) if m == 1]
            expected = naive_partial_trace(np.outer(psi.amps, psi.amps.conj()), 4, keep)
            out = partial_trace(psi, discard)
            np.testing.assert_allclose(out.entries, expected, atol=1e-13)


class TestProject:
    def test_bell_onto_vacuum_gives_half(self):
        out = project(bell_phi_plus(), PureState(("a", "b"), [1, 0, 0, 0]))
        assert out.labels == ()
        assert out.norm2 == pytest.approx(0.5, abs=1e-14)

    def test_orthogonal_ket_gives_zero(self):
        out = project(bell_phi_plus(), PureState(("a", "b"), [0, 1, 0, 0]))
        assert out.norm2 == pytest.approx(0.0, abs=1e-14)

    def test_unnormalized_ket_rejected(self, rng):
        psi = random_pure(rng, ("A", "B"))
        bad = PureState(("A",), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="normalized"):
            project(psi, bad)

    def test_unknown_ket_label_rejected(self, rng):
        psi = random_pure(rng, ("A", "B"))
        with pytest.raises(LabelError, match="unknown"):
            project(psi, PureState(("Z",), [1, 0]))

    def test_matches_loop_oracle(self, rng):
        for _ in range(25):
            psi = random_pure(rng, ("A", "B", "C"))
            ket = random_pure(rng, ("B", "C"))
            rho = DensityMatrix(psi.labels, np.outer(psi.amps, psi.amps.conj()))
            expected = naive_project(rho, ket)
            out = project(psi, ket)
            np.testing.assert_allclose(
                np.outer(out.amps, out.amps.conj()), expected, atol=1e-13
            )
            assert out.labels == ("A",)

    def test_ket_label_order_is_respected(self, rng):
        psi = random_pure(rng, ("A", "B", "C"))
        ket = random_pure(rng, ("C", "B"))
        out = project(psi, ket)
        out_reordered = project(psi, ket.reorder(("B", "C")))
        np.testing.assert_allclose(out.amps, out_reordered.amps, atol=1e-14)


class TestValidate:
    def test_bell_state_passes(self):
        report = validate(partial_trace(bell_phi_plus(), ()))
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
    a = random_pure(rng, ("A", "B"))
    b = random_pure(rng, ("C",))
    out = partial_trace(tensor(a, b), "C")
    # second factor has unit norm, so the first comes back exactly
    np.testing.assert_allclose(out.entries, np.outer(a.amps, a.amps.conj()), atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_partial_trace_preserves_trace(seed):
    rng = np.random.default_rng(seed)
    psi = random_pure(rng, ("A", "B", "C"))
    out = partial_trace(psi, ("B",))
    assert abs(np.trace(out.entries) - psi.norm2) < 1e-12


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_project_never_increases_weight(seed):
    rng = np.random.default_rng(seed)
    psi = random_pure(rng, ("A", "B"))
    ket = random_pure(rng, ("B",))
    out = project(psi, ket)
    assert out.norm2 <= psi.norm2 + 1e-12


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.1, 1.0))
def test_pure_density_has_single_eigenvalue(seed, scale):
    rng = np.random.default_rng(seed)
    psi = random_pure(rng, ("A", "B"))
    rho = DensityMatrix(psi.labels, scale * partial_trace(psi, ()).entries)
    ev = np.linalg.eigvalsh(rho.entries)
    assert ev[-1] == pytest.approx(rho.weight, abs=1e-12)
    assert np.all(np.abs(ev[:-1]) < 1e-10)
