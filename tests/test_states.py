import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsim import (
    DensityMatrix,
    LabelError,
    LossChannel,
    PureState,
    bsm,
    build_inputs,
    dilate,
    partial_trace,
    project,
    propagate,
    random_input_pair,
    swap,
    tensor,
    validate,
)
from swapsim import states
from swapsim.protocol import C1, C2, SETTINGS

from oracles import (
    bell_phi_plus,
    from_json_dict,
    naive_partial_trace,
    naive_project,
    normalized_ket,
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

    @pytest.mark.parametrize("left, right", [(("A", "B"), ("B",)), (("A", "B"), ("C", "A")),
                                             (("A",), ("A",))])
    def test_overlap_raises_the_public_constructors_message(self, rng, left, right):
        labels = left + right
        with pytest.raises(LabelError) as public:
            PureState(labels, np.zeros(2 ** len(labels)))
        assert str(public.value) == f"duplicate mode labels in {labels!r}"
        with pytest.raises(LabelError, match=re.escape(str(public.value))):
            tensor(random_pure(rng, left), random_pure(rng, right))


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

    @pytest.mark.parametrize("discard", [(), ("B",), ("A", "C"), ("A", "B", "C")])
    def test_weight_is_the_trace_the_public_constructor_derives(self, rng, discard):
        psi = PureState(("A", "B", "C"), 0.7 * random_pure(rng, ("A", "B", "C")).amps)
        out = partial_trace(psi, discard)
        assert out.weight == DensityMatrix(out.labels, out.entries).weight
        assert type(out.weight) is float

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
        # the same ket on (B, C): |cb> sits at 2c + b, |bc> at 2b + c
        transposed = PureState(("B", "C"), ket.amps[[0, 2, 1, 3]])
        out = project(psi, ket)
        np.testing.assert_allclose(out.amps, project(psi, transposed).amps, atol=1e-14)

    @pytest.mark.parametrize("n_modes", [2, 3, 4, 5, 6])
    def test_every_bit_matches_a_transposed_gather(self, n_modes):
        """``project`` contracts the conjugate of the ket's amplitudes with
        psi's (ket, rest) rows. Every bit, signed zeros and subnormal
        amplitudes included, is what the same ``np.dot`` gives over rows
        gathered by reshape and transpose, for each station setting's ket
        and for random projector kets on any subset of the modes."""
        rng = np.random.default_rng(50 + n_modes)
        special = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                   complex(5e-324, -1e-310)]

        def with_special(labels):
            amps = random_pure(rng, labels).amps.copy()
            k = min(len(special), amps.size - 1)
            amps[rng.choice(amps.size, size=k, replace=False)] = special[:k]
            return amps

        labels = [C1, C2] + [f"m{i}" for i in range(n_modes - 2)]
        kets = list(SETTINGS.values())
        for _ in range(6):
            part = tuple(rng.permutation(labels)[:rng.integers(1, n_modes + 1)].tolist())
            amps = with_special(part)
            kets.append(PureState(part, amps / np.sqrt(np.vdot(amps, amps).real)))
        for ket in kets:
            psi = PureState(tuple(rng.permutation(labels).tolist()), with_special(labels))
            rest = tuple(lab for lab in psi.labels if lab not in ket.labels)
            perm = [psi.labels.index(lab) for lab in ket.labels + rest]
            rows = psi.amps.reshape((2,) * n_modes).transpose(perm).reshape(ket.amps.size, -1)
            want = np.dot(np.conj(ket.amps), rows)
            out = project(psi, ket)
            assert out.labels == rest
            assert out.amps.tobytes() == want.tobytes(), (psi.labels, ket.labels)


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

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LabelError, match=re.escape("duplicate mode labels in ('A', 'A')")):
            PureState(("A", "A"), np.zeros(4))
        with pytest.raises(LabelError, match=re.escape("duplicate mode labels in ('A', 'A')")):
            DensityMatrix(["A", "A"], np.zeros((4, 4)))

    def test_public_constructors_copy(self, rng):
        amps = random_pure(rng, ("A",)).amps.copy()
        entries = random_density(rng, ("A",)).entries.copy()
        psi = PureState(("A",), amps)
        rho = DensityMatrix(("A",), entries)
        assert not np.shares_memory(psi.amps, amps)
        assert not np.shares_memory(rho.entries, entries)
        assert amps.flags.writeable and entries.flags.writeable

    def test_negative_weight_rejected(self, rng):
        rho = random_density(rng, ("A",))
        with pytest.raises(ValueError, match="negative weight"):
            DensityMatrix(rho.labels, rho.entries, weight=-0.5)

    def test_roundoff_negative_weight_clips_to_zero(self, rng):
        rho = random_density(rng, ("A",))
        out = DensityMatrix(rho.labels, rho.entries, weight=-1e-16)
        assert out.weight == 0.0

    def test_normalizing_zero_states_rejected(self):
        with pytest.raises(ValueError, match="zero-weight"):
            DensityMatrix(("A",), np.zeros((2, 2))).normalized()

    def test_normalized_helpers(self, rng):
        psi = PureState(("A",), np.array([3.0, 4.0]))
        assert not psi.is_normalized()
        assert psi.norm2 == pytest.approx(25.0)
        assert normalized_ket(psi).is_normalized()
        rho = DensityMatrix(("A",), 2.0 * random_density(rng, ("A",)).entries)
        assert rho.normalized().weight == 1.0


class TestJson:
    def test_density_roundtrip(self, rng):
        rho = random_density(rng, ("A", "B"))
        back = from_json_dict(rho.to_json_dict())
        assert back.labels == rho.labels
        np.testing.assert_allclose(back.entries, rho.entries)
        assert back.weight == rho.weight


class TestMemoisedBookkeeping:
    """``project``, ``partial_trace`` and ``loss.dilate`` look their label
    bookkeeping up per label tuple; a repeated register must get the
    answer a fresh one would."""

    ORDERS = [("A", "B", "C", "D"), ("D", "B", "A", "C"), ("C", "D", "B", "A"),
              ("B", "A", "D", "C")]

    def test_alternating_calls_over_reordered_registers_match_the_oracles(self, rng):
        ket = random_pure(rng, ("C", "A"))
        for _ in range(3):
            for labels in self.ORDERS:
                psi = random_pure(rng, labels)
                rho = DensityMatrix(labels, np.outer(psi.amps, psi.amps.conj()))
                out = project(psi, ket)
                assert out.labels == tuple(lab for lab in labels if lab not in ket.labels)
                np.testing.assert_allclose(np.outer(out.amps, out.amps.conj()),
                                           naive_project(rho, ket), atol=1e-13)
                discard = ("D", "B")
                traced = partial_trace(psi, discard)
                keep = [i for i, lab in enumerate(labels) if lab not in discard]
                assert traced.labels == tuple(labels[i] for i in keep)
                np.testing.assert_allclose(traced.entries,
                                           naive_partial_trace(rho.entries, 4, keep),
                                           atol=1e-13)

    @pytest.mark.parametrize("discard", ["B", ["B"], ("B",), ["C", "A"], ("C", "A")])
    def test_discard_as_str_list_or_tuple(self, rng, discard):
        psi = random_pure(rng, ("A", "B", "C"))
        names = (discard,) if isinstance(discard, str) else tuple(discard)
        keep = [i for i, lab in enumerate(psi.labels) if lab not in names]
        for _ in range(2):
            out = partial_trace(psi, discard)
            assert out.labels == tuple(psi.labels[i] for i in keep)
            np.testing.assert_allclose(
                out.entries,
                naive_partial_trace(np.outer(psi.amps, psi.amps.conj()), 3, keep),
                atol=1e-13)

    @pytest.mark.parametrize("call, text", [
        (lambda psi: partial_trace(psi, ("B", "Q")), "cannot trace out unknown modes ['Q']"),
        (lambda psi: partial_trace(psi, ["B", "B"]), "duplicate mode labels in ('B', 'B')"),
        (lambda psi: project(psi, PureState(("Q", "A"), [1, 0, 0, 0])),
         "projector acts on unknown modes ['Q']"),
    ])
    def test_label_error_text_is_the_same_on_a_repeated_call(self, rng, call, text):
        states._split.cache_clear()
        psi = random_pure(rng, ("A", "B", "C"))
        sizes = []
        for _ in range(2):
            with pytest.raises(LabelError) as info:
                call(psi)
            assert str(info.value) == text
            sizes.append(states._split.cache_info().currsize)
        # the text is built anew on each call; a repeated failing lookup
        # keeps no more than the first one did
        assert sizes[1] == sizes[0] <= 1

    def test_a_warm_swap_reads_six_plans_and_adds_none(self, rng):
        """Each of the two dilations reads its input and output plans, then
        ``project`` and ``partial_trace`` read one each: six lookups per
        ``swap``, all hits once the registers have been seen."""
        states._split.cache_clear()
        swap(random_input_pair(rng), 0.7, 0.3, "X+")
        cold = states._split.cache_info()
        assert (cold.misses, cold.currsize) == (6, 6)
        for t1, t2, setting in ((0.7, 0.3, "X+"), (0.2, 0.9, "Y-")):
            before = states._split.cache_info()
            swap(random_input_pair(rng), LossChannel(t1), LossChannel(t2), setting)
            after = states._split.cache_info()
            assert (after.hits - before.hits, after.misses - before.misses) == (6, 0)
            assert after.currsize == 6

    def test_norm2_is_computed_once_per_state(self, monkeypatch):
        ket = PureState(("B",), np.array([0.6, 0.8]))
        psi = PureState(("A", "B"), np.array([0.6, 0.0, 0.0, 0.8]))
        n2 = ket.norm2
        monkeypatch.setattr(np, "vdot", lambda *args: pytest.fail("norm2 recomputed"))
        assert ket.norm2 == n2
        assert project(psi, ket).labels == ("A",)


# ------------------------------------------------------ library-built states
# Every operation below hands back a state built without the public
# constructor's copy and checks; each builder returns that state and the
# writable arrays its caller made the inputs from.

def _writable(rng, labels, scale=1.0):
    amps = scale * random_pure(rng, labels).amps
    return amps, PureState(labels, amps)


def _tensor(rng):
    a, psi_a = _writable(rng, ("A", "B"))
    b, psi_b = _writable(rng, ("C",))
    return tensor(psi_a, psi_b), [a, b]


def _dilate(rng):
    a, psi = _writable(rng, ("A", "B"))
    return dilate(psi, "B", "E", LossChannel(rng.uniform())), [a]


def _project(rng):
    a, psi = _writable(rng, ("A", "B", "C"))
    k, ket = _writable(rng, ("C", "A"))
    return project(psi, ket), [a, k]


def _partial_trace(rng):
    a, psi = _writable(rng, ("A", "B", "C"), scale=0.5)
    return partial_trace(psi, ("B",)), [a]


def _density_normalized(rng):
    e = 2.0 * random_density(rng, ("A", "B")).entries
    return DensityMatrix(("A", "B"), e).normalized(), [e]


def _build_inputs(rng):
    return build_inputs(random_input_pair(rng)), []


def _bsm(rng):
    ket = propagate(build_inputs(random_input_pair(rng)), *rng.uniform(0.05, 1.0, size=2))
    a = np.array(ket.amps)
    return bsm(PureState(ket.labels, a), "X+").rho_ab, [a]


@pytest.mark.parametrize("build", [_tensor, _dilate, _project, _partial_trace,
                                   _density_normalized, _build_inputs, _bsm])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_library_built_state_is_owned_and_equals_its_public_rebuild(build, seed):
    out, caller_arrays = build(np.random.default_rng(seed))
    if isinstance(out, PureState):
        arr = out.amps
        rebuilt = PureState(out.labels, arr).amps
    else:
        arr = out.entries
        public = DensityMatrix(out.labels, arr, weight=out.weight)
        rebuilt = public.entries
        assert type(out.weight) is float and out.weight == public.weight
    assert type(out.labels) is tuple and all(type(lab) is str for lab in out.labels)
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[(0,) * arr.ndim] = 0.0
    assert not any(np.shares_memory(arr, c) for c in caller_arrays)
    assert (arr.dtype, arr.shape) == (rebuilt.dtype, rebuilt.shape)
    assert arr.tobytes() == rebuilt.tobytes()


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
