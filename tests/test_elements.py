import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamcomp.elements import (
    BeamSplitter,
    ExtractGate,
    Filter,
    Hologram,
    Mirror,
    Netlist,
    PhaseShifter,
    ReintegrateGate,
    apply_beamsplitter,
    apply_filter,
    apply_hologram,
    apply_mirror,
    apply_phase_shifter,
    check_reflection_parity,
    run_netlist,
)
from oamcomp.errors import ValidationError
from oamcomp.state import PhotonState, basis_state, from_amplitudes, states_close, survival_probability

from conftest import random_state


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


class TestHologram:
    def test_zero_shift_is_identity(self, rng):
        s = random_state(rng, 2)
        assert states_close(apply_hologram(s, 0, 0), s)

    def test_shift_down(self):
        out = apply_hologram(basis_state(0, 3, 2), 0, -3)
        assert dict(out.amplitudes) == {(0, 0): 1 + 0j}

    @given(k=st.integers(-20, 20), amps=amplitude_maps)
    def test_inverse_shift(self, k, amps):
        s = hyp_state(amps)
        assert states_close(apply_hologram(apply_hologram(s, 1, k), 1, -k), s, tol=0)


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
        conjugated = apply_hologram(
            apply_filter(apply_hologram(s, 0, -2), 0, 0), 0, 2
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
        assert states_close(apply_mirror(s, 0), s, tol=0)

    def test_negates_index(self):
        assert dict(apply_mirror(basis_state(0, 3, 2), 0).amplitudes) == {(0, -3): 1 + 0j}

    @given(amps=amplitude_maps)
    def test_involution(self, amps):
        s = hyp_state(amps)
        assert states_close(apply_mirror(apply_mirror(s, 2), 2), s, tol=0)


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


@pytest.mark.parametrize("make", [
    lambda: PhaseShifter(mode=0, phi=math.nan),
    lambda: BeamSplitter(mode_a=0, mode_b=1, theta=-math.inf),
    lambda: ExtractGate(m=0, src=0, dst=1, stages=True),
    lambda: ReintegrateGate(m=0, src=0, dst=1, stages=0),
])
def test_constructors_reject_bad_parameters(make):
    with pytest.raises(ValidationError):
        make()


class TestReflectionParity:
    def test_no_mirrors_passes(self):
        report = check_reflection_parity(Netlist(n=1, mode_count=2))
        assert report.ok and report.total == 0

    def test_single_mirror_fails(self):
        net = Netlist(n=1, mode_count=2, elements=(Mirror(0),))
        report = check_reflection_parity(net)
        assert report.failing_modes == [0]
        assert not report.ok

    def test_paired_mirrors_pass(self):
        net = Netlist(n=1, mode_count=2, elements=(Mirror(0), Mirror(0)))
        report = check_reflection_parity(net)
        assert report.passes(0) and report.ok and report.total == 2
