import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oamcomp.compiler import compile_unitary, haar_random_unitary
from oamcomp.elements import (
    OCCUPANCY_TOL,
    BeamSplitter,
    ExtractGate,
    Filter,
    Hologram,
    Mirror,
    Netlist,
    ReintegrateGate,
    apply_element,
    run_netlist,
)
from oamcomp.errors import ValidationError
from oamcomp.extraction import (
    ExtractionSpec,
    component_survival,
    expand_netlist,
    extraction_survival,
    ideal_extract,
    ideal_reintegrate,
    lower_extract_to_netlist,
    lower_reintegrate_to_netlist,
    loss_profile,
    monte_carlo_run,
    monte_carlo_survival,
    survival_lower_bound,
    zeno_extract,
    zeno_reintegrate,
)
from oamcomp.state import (
    PhotonState,
    basis_state,
    from_amplitudes,
    normalized,
    states_close,
    survival_probability,
)

from conftest import random_state


class TestIdealExtract:
    def test_moves_target_component(self):
        out = ideal_extract(basis_state(0, 3, 2), ExtractionSpec(m=3, src=0, dst=1))
        assert dict(out.amplitudes) == {(1, 0): 1 + 0j}

    def test_other_components_untouched(self):
        s = basis_state(0, 1, 2)
        out = ideal_extract(s, ExtractionSpec(m=3, src=0, dst=1))
        assert states_close(out, s, tol=0)

    def test_splits_superposition(self):
        s = from_amplitudes(0, [0.6, 0.8j], 1)
        out = ideal_extract(s, ExtractionSpec(m=1, src=0, dst=1))
        assert out.amplitude(0, 0) == 0.6
        assert out.amplitude(1, 0) == 0.8j

    def test_rejects_occupied_destination(self):
        s = PhotonState(n=1, amplitudes={(0, 0): 0.5, (1, 0): 0.5})
        with pytest.raises(ValidationError):
            ideal_extract(s, ExtractionSpec(m=0, src=0, dst=1))

    def test_rejects_src_equal_dst(self):
        with pytest.raises(ValidationError):
            ExtractionSpec(m=0, src=1, dst=1)


class TestIdealReintegrate:
    def test_roundtrip_is_identity(self, rng):
        spec = ExtractionSpec(m=2, src=0, dst=1)
        s = random_state(rng, 2)
        back = ideal_reintegrate(ideal_extract(s, spec), spec)
        assert states_close(back, s, tol=1e-12)

    def test_single_term_inverse(self):
        out = ideal_reintegrate(
            basis_state(1, 0, 3), ExtractionSpec(m=5, src=0, dst=1)
        )
        assert dict(out.amplitudes) == {(0, 5): 1 + 0j}

    def test_empty_destination_noop(self):
        s = basis_state(0, 1, 2)
        out = ideal_reintegrate(s, ExtractionSpec(m=3, src=0, dst=1))
        assert states_close(out, s, tol=0)

    def test_rejects_occupied_target(self):
        s = PhotonState(n=1, amplitudes={(0, 1): 0.5, (1, 0): 0.5})
        with pytest.raises(ValidationError):
            ideal_reintegrate(s, ExtractionSpec(m=1, src=0, dst=1))


class TestLowering:
    def test_single_stage_shape(self):
        net = lower_extract_to_netlist(ExtractionSpec(m=0, src=0, dst=1, stages=1))
        assert [type(el) for el in net.elements] == [
            Hologram, BeamSplitter, Filter, Hologram
        ]
        out = run_netlist(basis_state(0, 0, 1), net)
        assert survival_probability(out) == pytest.approx(1.0, abs=1e-12)
        assert out.amplitude(1, 0) == pytest.approx(1, abs=1e-12)

    def test_stage_count_and_angle(self):
        net = lower_extract_to_netlist(ExtractionSpec(m=2, src=0, dst=1, stages=3))
        splitters = [el for el in net.elements if isinstance(el, BeamSplitter)]
        filters = [el for el in net.elements if isinstance(el, Filter)]
        assert len(splitters) == 3 and len(filters) == 3
        for bs in splitters:
            assert bs.theta == pytest.approx(math.pi / 6)

    def test_simulated_survival_n100(self):
        net = lower_extract_to_netlist(
            ExtractionSpec(m=0, src=0, dst=1, stages=100), width=1
        )
        out = run_netlist(basis_state(0, 1, 1), net)
        # cos^200(pi/200), evaluated directly
        assert survival_probability(out) == pytest.approx(
            0.9756269141438981, abs=1e-12
        )

    def test_cannot_lower_ideal(self):
        with pytest.raises(ValidationError):
            lower_extract_to_netlist(ExtractionSpec(m=0, src=0, dst=1))


class TestZenoExtract:
    def test_target_component_lossless(self):
        for stages in (1, 4, 57):
            spec = ExtractionSpec(m=3, src=0, dst=1, stages=stages)
            out = zeno_extract(basis_state(0, 3, 2), spec)
            assert out.amplitude(1, 0) == pytest.approx(1, abs=1e-12)
            assert survival_probability(out) == pytest.approx(1.0, abs=1e-12)

    def test_bystander_survival_n3(self):
        spec = ExtractionSpec(m=0, src=0, dst=1, stages=3)
        out = zeno_extract(basis_state(0, 1, 1), spec)
        assert survival_probability(out) == pytest.approx(27 / 64, abs=1e-12)

    def test_matches_lowered_netlist(self, rng):
        spec = ExtractionSpec(m=1, src=0, dst=1, stages=17)
        s = random_state(rng, 2)
        via_gate = zeno_extract(s, spec)
        via_netlist = run_netlist(s, lower_extract_to_netlist(spec, width=2))
        assert states_close(via_gate, via_netlist, tol=1e-12)

    def test_converges_to_ideal(self, rng):
        s = random_state(rng, 2)
        ideal = ideal_extract(s, ExtractionSpec(m=2, src=0, dst=1))
        for stages in (10, 100, 1000):
            spec = ExtractionSpec(m=2, src=0, dst=1, stages=stages)
            out = normalized(zeno_extract(s, spec))
            deviation = math.sqrt(
                sum(
                    abs(out.amplitude(*k) - ideal.amplitude(*k)) ** 2
                    for k in set(out.amplitudes) | set(ideal.amplitudes)
                )
            )
            assert deviation <= math.pi**2 / (8 * stages) + 10 / stages**2

    def test_convergence_rate_is_one_over_n(self, rng):
        # Log-log slope of the renormalized deviation should be ~ -1.
        s = random_state(rng, 2)
        ideal = ideal_extract(s, ExtractionSpec(m=1, src=0, dst=1))
        stages_list = [10, 30, 100, 300, 1000]
        devs = []
        for stages in stages_list:
            out = normalized(
                zeno_extract(s, ExtractionSpec(m=1, src=0, dst=1, stages=stages))
            )
            devs.append(
                math.sqrt(
                    sum(
                        abs(out.amplitude(*k) - ideal.amplitude(*k)) ** 2
                        for k in set(out.amplitudes) | set(ideal.amplitudes)
                    )
                )
            )
        slope = np.polyfit(np.log(stages_list), np.log(devs), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)


class TestSurvivalFormula:
    def test_all_weight_on_target(self):
        spec = ExtractionSpec(m=2, src=0, dst=1, stages=5)
        assert extraction_survival(spec, [0, 0, 1, 0]) == pytest.approx(1.0)

    def test_all_weight_off_target_n100(self):
        spec = ExtractionSpec(m=0, src=0, dst=1, stages=100)
        value = extraction_survival(spec, [0, 1])
        assert value == pytest.approx(0.9756269141438981, abs=1e-12)
        assert value >= survival_lower_bound(100)

    def test_equal_split_n3(self):
        spec = ExtractionSpec(m=0, src=0, dst=1, stages=3)
        coeffs = [math.sqrt(0.5), math.sqrt(0.5)]
        assert extraction_survival(spec, coeffs) == pytest.approx(
            0.7109375, abs=1e-12
        )

    def test_matches_simulation(self, rng):
        for stages in (1, 2, 7, 40):
            spec = ExtractionSpec(m=1, src=0, dst=1, stages=stages)
            s = random_state(rng, 2)
            simulated = survival_probability(zeno_extract(s, spec))
            analytic = extraction_survival(spec, s.coefficients(0))
            assert simulated == pytest.approx(analytic, abs=1e-12)

    def test_monotone_in_stages(self):
        values = [component_survival(stages) for stages in range(1, 30)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestZenoReintegrate:
    def test_roundtrip_renormalized(self, rng):
        spec = ExtractionSpec(m=2, src=0, dst=1, stages=1000)
        s = random_state(rng, 2)
        back = normalized(zeno_reintegrate(zeno_extract(s, spec), spec))
        deviation = math.sqrt(
            sum(
                abs(back.amplitude(*k) - s.amplitude(*k)) ** 2
                for k in set(back.amplitudes) | set(s.amplitudes)
            )
        )
        assert deviation < 1e-2

    def test_target_component_exact(self):
        spec = ExtractionSpec(m=3, src=0, dst=1, stages=25)
        out = zeno_reintegrate(zeno_extract(basis_state(0, 3, 2), spec), spec)
        assert out.amplitude(0, 3) == pytest.approx(1, abs=1e-12)

    def test_filter_first_ordering_same_on_extracted(self):
        spec = ExtractionSpec(m=1, src=0, dst=1, stages=9)
        extracted = basis_state(1, 0, 1)
        clean = zeno_reintegrate(extracted, spec, filter_first=False)
        reversed_order = zeno_reintegrate(extracted, spec, filter_first=True)
        assert states_close(clean, reversed_order, tol=1e-12)

    def test_clean_ordering_leaves_aux_empty(self, rng):
        spec = ExtractionSpec(m=0, src=0, dst=1, stages=20)
        s = random_state(rng, 2)
        back = zeno_reintegrate(zeno_extract(s, spec), spec)
        junk = [
            (key, amp) for key, amp in back.amplitudes.items()
            if key[0] == 1 and abs(amp) > 1e-12
        ]
        assert junk == []


class TestMonteCarlo:
    def test_expand_replaces_macros(self):
        from oamcomp.elements import ExtractGate

        net = Netlist(
            n=1, mode_count=2,
            elements=(ExtractGate(m=0, src=0, dst=1, stages=4),),
        )
        expanded = expand_netlist(net)
        assert all(not isinstance(el, ExtractGate) for el in expanded.elements)
        assert len(expanded) == 2 + 2 * 4

    def test_success_rate_tracks_survival(self):
        spec = ExtractionSpec(m=0, src=0, dst=1, stages=3)
        net = Netlist(
            n=1, mode_count=2,
            elements=tuple(lower_extract_to_netlist(spec).elements),
        )
        s = basis_state(0, 1, 1)
        rng = np.random.default_rng(7)
        rate = monte_carlo_survival(s, net, runs=4000, rng=rng)
        # true survival 27/64 = 0.421875; 4 sigma binomial bound
        sigma = math.sqrt(0.421875 * (1 - 0.421875) / 4000)
        assert abs(rate - 0.421875) < 4 * sigma

    def test_successful_run_state_is_normalized(self):
        spec = ExtractionSpec(m=0, src=0, dst=1, stages=50)
        net = lower_extract_to_netlist(spec, width=1)
        result = monte_carlo_run(
            basis_state(0, 0, 1), net, np.random.default_rng(0)
        )
        assert result.success
        assert survival_probability(result.state) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_given_seed(self):
        spec = ExtractionSpec(m=0, src=0, dst=1, stages=2)
        net = lower_extract_to_netlist(spec, width=1)
        s = basis_state(0, 1, 1)
        runs_a = [
            monte_carlo_run(s, net, np.random.default_rng(3)).success
            for _ in range(1)
        ]
        runs_b = [
            monte_carlo_run(s, net, np.random.default_rng(3)).success
            for _ in range(1)
        ]
        assert runs_a == runs_b

    def test_deep_chain_runs_stay_valid(self):
        # Renormalising after every passed filter used to push the state's
        # norm past 1 + eps here: 6 of these 8 runs raised.
        net, _ = compile_unitary(
            haar_random_unitary(8, np.random.default_rng(0)), spec_stages=500
        )
        rng = np.random.default_rng(0)
        for _ in range(8):
            result = monte_carlo_run(basis_state(0, 0, 3), net, rng)
            if result.success:
                assert survival_probability(result.state) == pytest.approx(1.0, abs=1e-12)

    def test_zero_norm_input_absorbed_at_first_filter(self):
        net = Netlist(
            n=1, mode_count=2,
            elements=(Mirror(0), ExtractGate(m=0, src=0, dst=1, stages=4)),
        )
        result = monte_carlo_run(PhotonState(n=1), net, np.random.default_rng(0))
        # mirror, then the chain: hologram, beamsplitter, filter
        assert (result.success, result.absorbed_at) == (False, 3)
        assert monte_carlo_survival(PhotonState(n=1), net, 10, np.random.default_rng(0)) == 0

    def test_netlist_without_filters_always_passes(self):
        net = Netlist(n=1, mode_count=1, elements=(Mirror(0), Mirror(0)))
        s = basis_state(0, 1, 1)
        assert monte_carlo_survival(s, net, 10, np.random.default_rng(0)) == 1
        assert monte_carlo_run(s, net, np.random.default_rng(0)).success


def filter_oracle(state, netlist):
    """Index of every Filter of ``expand_netlist(netlist)``, with the squared
    norm just before and just after it, from primitive-by-primitive runs."""
    indices, before, after = [], [], []
    for index, el in enumerate(expand_netlist(netlist).elements):
        norm2 = survival_probability(state)
        state = apply_element(state, el)
        if isinstance(el, Filter):
            indices.append(index)
            before.append(norm2)
            after.append(survival_probability(state))
    return indices, np.array(before), np.array(after)


amplitude_maps = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(-4, 8)),
    st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False),
    max_size=10,
)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["extract", "reintegrate", "reintegrate_filter_first"]),
    stages=st.integers(1, 2000),
    m=st.integers(-3, 5),
    modes=st.permutations([0, 1, 2]),
    amps=amplitude_maps,
    residue=st.floats(0, OCCUPANCY_TOL),
)
def test_closed_form_gate_matches_primitive_chain(kind, stages, m, modes, amps, residue):
    src, dst = modes[0], modes[1]
    spec = ExtractionSpec(m=m, src=src, dst=dst, stages=stages)
    # Anything anywhere, aux modes included, except in the slot the gate
    # requires vacant, which holds at most occupancy-tolerance residue.
    amps = {**amps, ((dst, 0) if kind == "extract" else (src, m)): residue}
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    if norm > 1:
        amps = {key: a / norm for key, a in amps.items()}
    state = PhotonState(n=2, amplitudes=amps)
    if kind == "extract":
        fused = zeno_extract(state, spec)
        chain = lower_extract_to_netlist(spec)
    else:
        filter_first = kind == "reintegrate_filter_first"
        fused = zeno_reintegrate(state, spec, filter_first=filter_first)
        chain = lower_reintegrate_to_netlist(spec, filter_first=filter_first)
    # The lowered chain, widened to take any test state.
    chain = replace(chain, n=2, mode_count=3)
    assert states_close(fused, run_netlist(state, chain), tol=1e-12)


def test_loss_profile_matches_expanded_filters(rng):
    compiled, _ = compile_unitary(haar_random_unitary(4, rng), spec_stages=25)
    net = Netlist(
        n=2, mode_count=3,
        elements=(
            ExtractGate(m=1, src=0, dst=1, stages=40),
            ExtractGate(m=3, src=0, dst=2, stages=1),
            BeamSplitter(mode_a=1, mode_b=2, theta=0.3),
            Filter(mode=2, m=0),
            ReintegrateGate(m=3, src=0, dst=2, stages=7),
            ReintegrateGate(m=1, src=0, dst=1, stages=40),
            Hologram(mode=0, k=1),
            Filter(mode=0, m=2),
            Hologram(mode=0, k=-1),
            *compiled.elements,
        ),
    )
    # Aux-mode content off OAM 0 leaks into the chains as well.
    amps = {(0, l): complex(*rng.normal(size=2)) for l in range(4)}
    amps.update({(1, 2): 0.4j, (2, -1): 0.3, (1, -2): 0.2})
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    s = PhotonState(n=2, amplitudes={key: a / norm for key, a in amps.items()})
    indices, before, after = filter_oracle(s, net)
    profile = loss_profile(s, net)
    absorption = profile.absorption()
    assert list(absorption) == indices
    assert np.max(np.abs(np.array(list(absorption.values())) - (before - after))) <= 1e-12
    for u in rng.uniform(0, profile.initial, size=200):
        first = next((i for i, norm2 in zip(indices, after) if norm2 <= u), None)
        assert profile.absorbed_at(u) == first


def test_analytic_netlist_survival_matches_simulation(rng):
    """The closed-form gates' netlist survival equals the primitive chain's."""
    net = Netlist(
        n=2, mode_count=3,
        elements=(
            ExtractGate(m=1, src=0, dst=1, stages=200),
            ExtractGate(m=2, src=0, dst=2, stages=200),
            BeamSplitter(mode_a=1, mode_b=2, theta=0.3),
            ReintegrateGate(m=2, src=0, dst=2, stages=200),
            ReintegrateGate(m=1, src=0, dst=1, stages=200),
        ),
    )
    s = random_state(rng, 2)
    simulated = survival_probability(run_netlist(s, expand_netlist(net)))
    analytic = survival_probability(run_netlist(s, net))
    assert simulated == pytest.approx(analytic, abs=1e-11)
