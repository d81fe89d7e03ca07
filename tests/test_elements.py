import cmath
import gc
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oamcomp.compiler import TwoLevelFactor
from oamcomp.elements import (
    _ELEMENT_TYPES,
    _MODE_FIELDS,
    _SEMANTICS,
    BeamSplitter,
    ExtractGate,
    Filter,
    Hologram,
    Mirror,
    Netlist,
    PhaseShifter,
    ReintegrateGate,
    Rows,
    _phase_shift,
    apply_beamsplitter,
    apply_element,
    apply_filter,
    apply_phase_shifter,
    run_netlist,
)
from oamcomp.errors import ValidationError
from oamcomp.extraction import MonteCarloResult
from oamcomp.state import (
    Mode, PhotonState, Record, _mode_field, basis_state, from_amplitudes, survival_probability,
)

from conftest import random_state, states_close


amplitude_maps = st.dictionaries(
    keys=st.tuples(st.integers(0, 3), st.integers(-8, 8)),
    values=st.complex_numbers(max_magnitude=0.4, allow_nan=False, allow_infinity=False),
    max_size=6,
)


def hyp_state(amps):
    return PhotonState(n=2, amplitudes=amps)


class TestPhaseShifter:
    def test_zero_phase_is_identity(self, rng):
        s = random_state(rng, 2)
        assert states_close(apply_phase_shifter(s, 0, 0.0), s)

    def test_pi_flips_sign(self):
        s = apply_phase_shifter(basis_state(0, 2, 2), 0, math.pi)
        assert s.amplitude(0, 2) == pytest.approx(-1, abs=1e-15)

    def test_half_pi_multiplies_by_i(self):
        s = from_amplitudes(0, [1 / math.sqrt(2)] * 2, 1)
        out = apply_phase_shifter(s, 0, math.pi / 2)
        for l in (0, 1):
            assert out.amplitude(0, l) == pytest.approx(1j / math.sqrt(2), abs=1e-15)

    def test_other_modes_untouched(self):
        s = PhotonState(n=1, amplitudes={(0, 0): 0.5, (1, 0): 0.5})
        out = apply_phase_shifter(s, 0, 1.0)
        assert out.amplitude(1, 0) == 0.5

    @given(phi=st.floats(allow_nan=False, allow_infinity=False),
           amp=st.sampled_from([1 + 0j, complex(1, -0.0), complex(-0.0, 1), complex(-1, -0.0)]))
    @example(phi=-0.0, amp=complex(1, -0.0))
    @example(phi=5e-324, amp=complex(1, -0.0))
    def test_factor_is_cmath_exp_bit_for_bit(self, phi, amp):
        """The factor is ``cmath.exp(1j * phi)``, signed zeros included.  The
        oracle multiplies two complex numbers, as ``1j * phi`` did up to
        Python 3.13; 3.14 multiplies a complex by a float part by part, which
        makes the imaginary part of ``1j * -0.0`` -0.0."""
        rows = Rows(1, {(0, 0): [amp]})
        _phase_shift(rows, PhaseShifter(mode=0, phi=phi))
        [got] = rows.get(0, 0)
        want = amp * cmath.exp(1j * complex(phi))
        assert (repr(got.real), repr(got.imag)) == (repr(want.real), repr(want.imag))


class TestHologram:
    def test_zero_shift_is_identity(self, rng):
        s = random_state(rng, 2)
        assert states_close(apply_element(s, Hologram(0, 0)), s)

    def test_shift_down(self):
        out = apply_element(basis_state(0, 3, 2), Hologram(0, -3))
        assert dict(out.amplitudes) == {(0, 0): 1 + 0j}

    @given(k=st.integers(-20, 20), amps=amplitude_maps)
    def test_inverse_shift(self, k, amps):
        s = hyp_state(amps)
        shifted = apply_element(s, Hologram(1, k))
        assert states_close(apply_element(shifted, Hologram(1, -k)), s, tol=0)


class TestBeamSplitter:
    def test_zero_angle_is_identity(self, rng):
        s = random_state(rng, 2)
        assert states_close(apply_beamsplitter(s, 0, 1, 0.0), s)

    def test_full_transfer_sign(self):
        out = apply_beamsplitter(basis_state(0, 5, 3), 0, 1, math.pi / 2)
        assert out.amplitude(1, 5) == pytest.approx(-1, abs=1e-15)
        assert abs(out.amplitude(0, 5)) < 1e-15

    def test_rotation_composition(self, rng):
        s = random_state(rng, 2)
        twice = apply_beamsplitter(apply_beamsplitter(s, 0, 1, math.pi / 4), 0, 1, math.pi / 4)
        once = apply_beamsplitter(s, 0, 1, math.pi / 2)
        assert states_close(twice, once, tol=1e-12)

    def test_rejects_equal_modes(self):
        with pytest.raises(ValidationError):
            apply_beamsplitter(basis_state(0, 0, 1), 2, 2, 0.3)

    @given(t1=st.floats(-3, 3), t2=st.floats(-3, 3), amps=amplitude_maps)
    @settings(max_examples=50)
    def test_angle_additivity(self, t1, t2, amps):
        s = hyp_state(amps)
        seq = apply_beamsplitter(apply_beamsplitter(s, 0, 1, t1), 0, 1, t2)
        combined = apply_beamsplitter(s, 0, 1, t1 + t2)
        assert states_close(seq, combined, tol=1e-12)

    @given(theta=st.floats(-3, 3), amps=amplitude_maps)
    @settings(max_examples=50)
    def test_per_oam_norm_conserved(self, theta, amps):
        # Distinct OAM indices never mix: each l-marginal over the pair is kept.
        s = hyp_state(amps)
        out = apply_beamsplitter(s, 0, 1, theta)

        def marginal(state, l):
            return abs(state.amplitude(0, l)) ** 2 + abs(state.amplitude(1, l)) ** 2

        for l in {l for _, l in amps}:
            assert marginal(out, l) == pytest.approx(marginal(s, l), abs=1e-12)


class TestFilter:
    def test_pure_pass_state(self):
        s = basis_state(0, 0, 2)
        assert states_close(apply_filter(s, 0, 0), s, tol=0)

    def test_absorbs_half(self):
        s = from_amplitudes(0, [1 / math.sqrt(2)] * 2, 1)
        out = apply_filter(s, 0, 0)
        assert dict(out.amplitudes) == {(0, 0): s.amplitude(0, 0)}
        assert survival_probability(out) == pytest.approx(0.5, abs=1e-15)

    def test_nonzero_target_keeps_phase(self):
        s = PhotonState(n=2, amplitudes={(0, 2): 0.6j, (0, 1): 0.8})
        out = apply_filter(s, 0, 2)
        assert dict(out.amplitudes) == {(0, 2): 0.6j}
        assert survival_probability(out) == pytest.approx(0.36)

    def test_matches_hologram_conjugation(self, rng):
        # F_m  ==  H_{+m} . F_0 . H_{-m}
        s = random_state(rng, 2)
        direct = apply_filter(s, 0, 2)
        conjugated = apply_element(
            apply_filter(apply_element(s, Hologram(0, -2)), 0, 0), Hologram(0, 2)
        )
        assert states_close(direct, conjugated, tol=0)

    @given(m=st.integers(-4, 4), amps=amplitude_maps)
    def test_idempotent(self, m, amps):
        s = hyp_state(amps)
        once = apply_filter(s, 0, m)
        assert states_close(apply_filter(once, 0, m), once, tol=0)


class TestMirror:
    def test_zero_fixed_point(self):
        s = basis_state(0, 0, 1)
        assert states_close(apply_element(s, Mirror(0)), s, tol=0)

    def test_negates_index(self):
        out = apply_element(basis_state(0, 3, 2), Mirror(0))
        assert dict(out.amplitudes) == {(0, -3): 1 + 0j}

    @given(amps=amplitude_maps)
    def test_involution(self, amps):
        s = hyp_state(amps)
        assert states_close(apply_element(apply_element(s, Mirror(2)), Mirror(2)), s, tol=0)


@pytest.mark.parametrize(
    "element",
    [
        PhaseShifter(mode=0, phi=0.7),
        Hologram(mode=0, k=-2),
        BeamSplitter(mode_a=0, mode_b=1, theta=1.1),
        Mirror(mode=0),
    ],
)
def test_unitary_elements_preserve_survival(element, rng):
    from oamcomp.elements import apply_element

    for _ in range(5):
        s = random_state(rng, 2)
        out = apply_element(s, element)
        assert survival_probability(out) == pytest.approx(1.0, abs=1e-12)


def test_disjoint_elements_commute(rng):
    from oamcomp.elements import apply_element

    s = PhotonState(
        n=2,
        amplitudes={(0, 1): 0.5, (1, 2): 0.5, (2, 0): 0.5, (3, 1): 0.5},
    )
    a = BeamSplitter(mode_a=0, mode_b=1, theta=0.4)
    b = PhaseShifter(mode=2, phi=1.3)
    ab = apply_element(apply_element(s, a), b)
    ba = apply_element(apply_element(s, b), a)
    assert states_close(ab, ba, tol=1e-12)


class TestNetlist:
    def test_empty_netlist_identity(self, rng):
        s = random_state(rng, 2)
        assert states_close(run_netlist(s, Netlist(n=2, mode_count=1)), s, tol=0)

    def test_inverse_hologram_pair(self, rng):
        s = random_state(rng, 2)
        net = Netlist(n=2, mode_count=1, elements=(Hologram(0, -4), Hologram(0, 4)))
        assert states_close(run_netlist(s, net), s, tol=0)

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValidationError):
            run_netlist(basis_state(0, 0, 1), Netlist(n=2, mode_count=1))

    def test_rejects_state_outside_modes(self):
        with pytest.raises(ValidationError):
            run_netlist(basis_state(5, 0, 1), Netlist(n=1, mode_count=2))

    def test_rejects_element_mode_out_of_range(self):
        with pytest.raises(ValidationError):
            Netlist(n=1, mode_count=2, elements=(PhaseShifter(mode=9, phi=0.0),))

    @pytest.mark.parametrize("mode", [0.5, True, 1.0])
    def test_rejects_element_mode_that_is_not_an_int(self, mode):
        with pytest.raises(ValidationError, match=r"^mode must be an integer, got \S+$"):
            Netlist(n=1, mode_count=2, elements=(Filter(mode=mode, m=0),))

    def test_json_roundtrip(self):
        net = Netlist(
            n=2,
            mode_count=3,
            elements=(
                PhaseShifter(0, 0.5),
                Hologram(1, -2),
                BeamSplitter(0, 2, 0.25),
                Filter(2, 0),
                Mirror(1),
            ),
        )
        assert Netlist.from_json_dict(net.to_json_dict()) == net

    def test_json_rejects_unknown_type(self):
        with pytest.raises(ValidationError):
            Netlist.from_json_dict(
                {"n": 1, "modes": 1, "elements": [{"type": "prism", "mode": 0}]}
            )

    def test_rejects_an_element_of_unknown_type(self):
        """A netlist holds only the element classes, by exact type, as the
        stepping loop dispatches on it; anything else is refused when the
        netlist is built, not when it is written or run."""
        class Prism(Record):  # a record with a mode field, but no element
            mode: Mode

        class SubFilter(Filter):
            pass

        for element in (Prism(mode=0), SubFilter(mode=0, m=0), object()):
            with pytest.raises(ValidationError, match=r"^unknown element "):
                Netlist(n=1, mode_count=1, elements=(element,))
        # Every live Record subclass must have a twin in test_records: let these go.
        del Prism, SubFilter, element
        gc.collect()


def test_every_element_class_has_semantics():
    assert set(_ELEMENT_TYPES.values()) == _SEMANTICS.keys()


@pytest.mark.parametrize("cls", list(_ELEMENT_TYPES.values()), ids=lambda cls: cls.__name__)
def test_mode_fields_are_the_fields_held_to_the_mode_rule(cls):
    """A netlist checks each element's fields annotated ``Mode``, the ones
    its constructor holds to the mode rule, against its mode count."""
    assert _MODE_FIELDS[cls] == tuple(name for name, rule in cls._rules if rule is _mode_field)
    assert _MODE_FIELDS[cls]


@pytest.mark.parametrize("make", [
    lambda: PhaseShifter(mode=0, phi=math.nan),
    lambda: BeamSplitter(mode_a=0, mode_b=1, theta=-math.inf),
    lambda: ExtractGate(m=0, src=0, dst=1, stages=True),
    lambda: ReintegrateGate(m=0, src=0, dst=1, stages=0),
    lambda: ExtractGate(m=0, src=0, dst=1, stages=2**53 + 1),
    lambda: Netlist(n=0, mode_count=1),
    lambda: Netlist(n=54, mode_count=1),
    lambda: PhotonState(n=54),
    lambda: from_amplitudes(0, [1], 54),
    lambda: from_amplitudes(0, [1], 10**12),
    lambda: Netlist(n=1, mode_count=2.5),
    lambda: Netlist(n=1, mode_count=True),
    lambda: Netlist(n=1, mode_count=math.nan),
    lambda: Filter(mode=0, m=0.5),
    lambda: Hologram(mode=0, k=0.5),
    lambda: Mirror(mode=True),
    lambda: ExtractGate(m=1.0, src=0, dst=1),
    lambda: ExtractGate(m=0, src=0.0, dst=1),
    lambda: PhaseShifter(mode=0, phi=True),
    lambda: BeamSplitter(mode_a=0, mode_b=1, theta="x"),
    lambda: TwoLevelFactor(m=True, n_idx=1, theta=0.0, phi_pre=0.0, phi_post=0.0, delta=0.0),
    lambda: TwoLevelFactor(m=0, n_idx=1, theta=0.0, phi_pre=0.0, phi_post=0.0, delta=0.0,
                           m_held_in=1),
    lambda: MonteCarloResult(success=1, state=None, absorbed_at=None),
])
def test_constructors_reject_bad_parameters(make):
    # Each message states the rule broken and the value that broke it: a
    # width outside the bound is refused as such, before 2**n is built.
    with pytest.raises(ValidationError, match=r" must be .*, got \S+$"):
        make()


#: Valid fields of each element class, by its netlist tag.
VALID_FIELDS = {
    "ps": {"mode": 0, "phi": 0.0}, "holo": {"mode": 0, "k": -2},
    "bs": {"mode_a": 0, "mode_b": 1, "theta": 0.1}, "filter": {"mode": 0, "m": -1},
    "mirror": {"mode": 0}, "extract": {"m": -1, "src": 0, "dst": 1},
    "reintegrate": {"m": 3, "src": 1, "dst": 0},
}


@pytest.mark.parametrize("tag", list(_ELEMENT_TYPES))
def test_every_element_refuses_a_negative_mode(tag):
    """Each field that names a spatial mode holds an integer >= 0 on
    construction, not only inside a ``Netlist``; an OAM index (``m``, ``k``)
    may be any integer."""
    cls, fields = _ELEMENT_TYPES[tag], VALID_FIELDS[tag]
    assert fields.items() <= cls(**fields).asdict().items()
    modes = [name for name in cls._fields if name in ("mode", "mode_a", "mode_b", "src", "dst")]
    assert modes
    for name in modes:
        with pytest.raises(ValidationError, match=rf"^{name} must be an integer >= 0, got -1$"):
            cls(**{**fields, name: -1})


def test_a_negative_mode_is_refused_before_it_is_applied():
    with pytest.raises(ValidationError, match=r"^mode must be an integer >= 0, got -1$"):
        apply_element(basis_state(0, 0, 1), Filter(mode=-1, m=0))
