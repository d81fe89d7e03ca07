import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oamcomp.compiler import compile_unitary, haar_random_unitary
from oamcomp.elements import (
    BeamSplitter,
    ExtractGate,
    Filter,
    Hologram,
    Mirror,
    Netlist,
    ReintegrateGate,
    Rows,
    apply_element,
    iter_steps,
    run_netlist,
)
from oamcomp.errors import ValidationError
from oamcomp.extraction import (
    ExtractionSpec,
    component_survival,
    expand_netlist,
    monte_carlo_run,
    survival_lower_bound,
)
from oamcomp.state import (
    RESIDUE_TOL,
    PhotonState,
    basis_state,
    from_amplitudes,
    norm,
    normalized,
    survival_probability,
)

from conftest import Draws, invoke_cli, random_state, states_close


def chain(gate, n=1, mode_count=2):
    """The gate's primitive chain: ``expand_netlist`` of a one-gate netlist."""
    return expand_netlist(Netlist(n=n, mode_count=mode_count, elements=(gate,)))


def sample_cli(tmp_path, state, netlist, runs, seed=0) -> dict:
    """The ``monte_carlo`` block that ``oamc simulate --monte-carlo runs`` writes."""
    for name, obj in (("s.json", state), ("net.json", netlist)):
        (tmp_path / name).write_text(json.dumps(obj.to_json_dict()))
    result = invoke_cli([
        "simulate", "--netlist", str(tmp_path / "net.json"), "--input", str(tmp_path / "s.json"),
        "--output", str(tmp_path / "out.json"), "--monte-carlo", str(runs), "--seed", str(seed),
    ])
    assert result.exit_code == 0, result.output
    return json.loads((tmp_path / "out.json").read_text())["monte_carlo"]


class TestIdealExtract:
    def test_moves_target_component(self):
        out = apply_element(basis_state(0, 3, 2), ExtractGate(m=3, src=0, dst=1))
        assert dict(out.amplitudes) == {(1, 0): 1 + 0j}

    def test_other_components_untouched(self):
        s = basis_state(0, 1, 2)
        out = apply_element(s, ExtractGate(m=3, src=0, dst=1))
        assert states_close(out, s, tol=0)

    def test_splits_superposition(self):
        s = from_amplitudes(0, [0.6, 0.8j], 1)
        out = apply_element(s, ExtractGate(m=1, src=0, dst=1))
        assert out.amplitude(0, 0) == 0.6
        assert out.amplitude(1, 0) == 0.8j

    def test_swaps_with_occupied_destination(self):
        """The quarter turn of the pair: ``(src, m)`` goes to ``(dst, 0)``,
        and what was there comes back to ``(src, m)`` negated."""
        s = PhotonState(n=1, amplitudes={(0, 0): 0.5, (1, 0): 0.5})
        out = apply_element(s, ExtractGate(m=0, src=0, dst=1))
        assert dict(out.amplitudes) == {(1, 0): 0.5, (0, 0): -0.5}

    def test_refuses_to_absorb_aux_weight(self):
        """Every finite chain absorbs a ``dst`` amplitude off OAM 0, and so
        does their limit; an ideal gate is lossless, so it refuses one,
        before any row changes, and absorbs only residue."""
        s = PhotonState(n=1, amplitudes={(0, 0): 0.6, (1, 1): 0.8})
        rows = Rows.from_state(s)
        with pytest.raises(ValidationError, match=r"ideal gate would absorb \(mode 1, OAM 1\)"):
            next(iter_steps(rows, [ExtractGate(m=0, src=0, dst=1)]))
        assert rows.column() == dict(s.amplitudes)
        for stages, leaked in ((10, 0.01253), (1000, 1.575e-6)):
            gate = ExtractGate(m=0, src=0, dst=1, stages=stages)
            out = apply_element(s, gate)
            assert states_close(out, run_netlist(s, chain(gate)), tol=1e-12)
            assert abs(out.amplitude(0, 1)) ** 2 == pytest.approx(leaked, rel=1e-3)
        residue = PhotonState(n=1, amplitudes={(0, 0): 0.6, (1, 1): RESIDUE_TOL})
        out = apply_element(residue, ExtractGate(m=0, src=0, dst=1))
        assert dict(out.amplitudes) == {(1, 0): 0.6}

    def test_rejects_src_equal_dst(self):
        with pytest.raises(ValidationError):
            ExtractionSpec(m=0, src=1, dst=1)


class TestIdealReintegrate:
    def test_roundtrip_is_identity(self, rng):
        s = random_state(rng, 2)
        extracted = apply_element(s, ExtractGate(m=2, src=0, dst=1))
        back = apply_element(extracted, ReintegrateGate(m=2, src=0, dst=1))
        assert states_close(back, s, tol=1e-12)

    def test_single_term_inverse(self):
        out = apply_element(basis_state(1, 0, 3), ReintegrateGate(m=5, src=0, dst=1))
        assert dict(out.amplitudes) == {(0, 5): 1 + 0j}

    def test_empty_destination_noop(self):
        s = basis_state(0, 1, 2)
        out = apply_element(s, ReintegrateGate(m=3, src=0, dst=1))
        assert states_close(out, s, tol=0)

    def test_swaps_with_occupied_target(self):
        s = PhotonState(n=1, amplitudes={(0, 1): 0.5, (1, 0): 0.5})
        out = apply_element(s, ReintegrateGate(m=1, src=0, dst=1))
        assert dict(out.amplitudes) == {(0, 1): 0.5, (1, 0): -0.5}


class TestLowering:
    def test_single_stage_shape(self):
        net = chain(ExtractGate(m=0, src=0, dst=1, stages=1))
        assert [type(el) for el in net.elements] == [
            Hologram, BeamSplitter, Filter, Hologram
        ]
        out = run_netlist(basis_state(0, 0, 1), net)
        assert survival_probability(out) == pytest.approx(1.0, abs=1e-12)
        assert out.amplitude(1, 0) == pytest.approx(1, abs=1e-12)

    def test_stage_count_and_angle(self):
        net = chain(ExtractGate(m=2, src=0, dst=1, stages=3))
        splitters = [el for el in net.elements if isinstance(el, BeamSplitter)]
        filters = [el for el in net.elements if isinstance(el, Filter)]
        assert len(splitters) == 3 and len(filters) == 3
        for bs in splitters:
            assert bs.theta == pytest.approx(math.pi / 6)

    def test_simulated_survival_n100(self):
        net = chain(ExtractGate(m=0, src=0, dst=1, stages=100))
        out = run_netlist(basis_state(0, 1, 1), net)
        # cos^200(pi/200), evaluated directly
        assert survival_probability(out) == pytest.approx(
            0.9756269141438981, abs=1e-12
        )


class TestZenoExtract:
    def test_target_component_lossless(self):
        for stages in (1, 4, 57):
            gate = ExtractGate(m=3, src=0, dst=1, stages=stages)
            out = apply_element(basis_state(0, 3, 2), gate)
            assert out.amplitude(1, 0) == pytest.approx(1, abs=1e-12)
            assert survival_probability(out) == pytest.approx(1.0, abs=1e-12)

    def test_bystander_survival_n3(self):
        out = apply_element(basis_state(0, 1, 1), ExtractGate(m=0, src=0, dst=1, stages=3))
        assert survival_probability(out) == pytest.approx(27 / 64, abs=1e-12)

    def test_matches_lowered_netlist(self, rng):
        gate = ExtractGate(m=1, src=0, dst=1, stages=17)
        s = random_state(rng, 2)
        via_gate = apply_element(s, gate)
        via_netlist = run_netlist(s, chain(gate, n=2))
        assert states_close(via_gate, via_netlist, tol=1e-12)

    def test_converges_to_ideal(self, rng):
        s = random_state(rng, 2)
        ideal = apply_element(s, ExtractGate(m=2, src=0, dst=1))
        for stages in (10, 100, 1000):
            out = normalized(apply_element(s, ExtractGate(m=2, src=0, dst=1, stages=stages)))
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
        ideal = apply_element(s, ExtractGate(m=1, src=0, dst=1))
        stages_list = [10, 30, 100, 300, 1000]
        devs = []
        for stages in stages_list:
            out = normalized(apply_element(s, ExtractGate(m=1, src=0, dst=1, stages=stages)))
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
        gate = ExtractGate(m=2, src=0, dst=1, stages=5)
        out = apply_element(basis_state(0, 2, 2), gate)
        assert survival_probability(out) == pytest.approx(1.0)

    def test_all_weight_off_target_n100(self):
        gate = ExtractGate(m=0, src=0, dst=1, stages=100)
        value = survival_probability(apply_element(basis_state(0, 1, 1), gate))
        assert value == pytest.approx(0.9756269141438981, abs=1e-12)
        assert value == pytest.approx(component_survival(100), abs=1e-12)
        assert value >= survival_lower_bound(100)

    def test_equal_split_n3(self):
        gate = ExtractGate(m=0, src=0, dst=1, stages=3)
        s = from_amplitudes(0, [math.sqrt(0.5), math.sqrt(0.5)], 1)
        assert survival_probability(apply_element(s, gate)) == pytest.approx(
            0.7109375, abs=1e-12
        )

    def test_matches_simulation(self, rng):
        """The target keeps its weight; the rest survives ``component_survival``."""
        for stages in (1, 2, 7, 40):
            gate = ExtractGate(m=1, src=0, dst=1, stages=stages)
            s = random_state(rng, 2)
            simulated = survival_probability(apply_element(s, gate))
            kept = abs(s.amplitude(0, 1)) ** 2
            analytic = kept + (1 - kept) * component_survival(stages)
            assert simulated == pytest.approx(analytic, abs=1e-12)

    def test_monotone_in_stages(self):
        values = [component_survival(stages) for stages in range(1, 30)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestZenoReintegrate:
    def test_roundtrip_renormalized(self, rng):
        spec = dict(m=2, src=0, dst=1, stages=1000)
        s = random_state(rng, 2)
        extracted = apply_element(s, ExtractGate(**spec))
        back = normalized(apply_element(extracted, ReintegrateGate(**spec)))
        deviation = math.sqrt(
            sum(
                abs(back.amplitude(*k) - s.amplitude(*k)) ** 2
                for k in set(back.amplitudes) | set(s.amplitudes)
            )
        )
        assert deviation < 1e-2

    def test_target_component_exact(self):
        spec = dict(m=3, src=0, dst=1, stages=25)
        extracted = apply_element(basis_state(0, 3, 2), ExtractGate(**spec))
        out = apply_element(extracted, ReintegrateGate(**spec))
        assert out.amplitude(0, 3) == pytest.approx(1, abs=1e-12)

    def test_clean_ordering_leaves_aux_empty(self, rng):
        spec = dict(m=0, src=0, dst=1, stages=20)
        s = random_state(rng, 2)
        back = apply_element(apply_element(s, ExtractGate(**spec)), ReintegrateGate(**spec))
        junk = [
            (key, amp) for key, amp in back.amplitudes.items()
            if key[0] == 1 and abs(amp) > 1e-12
        ]
        assert junk == []


class TestMonteCarlo:
    def test_expand_replaces_macros(self):
        net = Netlist(
            n=1, mode_count=2,
            elements=(ExtractGate(m=0, src=0, dst=1, stages=4),),
        )
        expanded = expand_netlist(net)
        assert all(not isinstance(el, ExtractGate) for el in expanded.elements)
        assert len(expanded) == 2 + 2 * 4

    def test_success_rate_tracks_survival(self, tmp_path):
        net = chain(ExtractGate(m=0, src=0, dst=1, stages=3))
        mc = sample_cli(tmp_path, basis_state(0, 1, 1), net, runs=4000, seed=7)
        # true survival 27/64 = 0.421875; 4 sigma binomial bound
        sigma = math.sqrt(0.421875 * (1 - 0.421875) / 4000)
        assert abs(mc["success_rate"] - 0.421875) < 4 * sigma
        assert mc["successes"] == round(mc["success_rate"] * 4000)

    def test_successful_run_state_is_normalized(self):
        net = chain(ExtractGate(m=0, src=0, dst=1, stages=50))
        result = monte_carlo_run(
            basis_state(0, 0, 1), net, np.random.default_rng(0)
        )
        assert result.success
        assert survival_probability(result.state) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_given_seed(self):
        net = chain(ExtractGate(m=0, src=0, dst=1, stages=2))
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

    def test_zero_norm_input_absorbed_at_first_filter(self, tmp_path):
        net = Netlist(
            n=1, mode_count=2,
            elements=(Mirror(0), ExtractGate(m=0, src=0, dst=1, stages=4)),
        )
        result = monte_carlo_run(PhotonState(n=1), net, np.random.default_rng(0))
        # mirror, then the chain: hologram, beamsplitter, filter
        assert (result.success, result.absorbed_at) == (False, 3)
        assert sample_cli(tmp_path, PhotonState(n=1), net, runs=10)["successes"] == 0

    def test_zero_norm_input_passes_a_lossless_netlist(self, tmp_path):
        net = Netlist(
            n=1, mode_count=2,
            elements=(Mirror(0), ExtractGate(m=0, src=0, dst=1), BeamSplitter(0, 1, 0.3)),
        )
        # An amplitude of 1e-170 is a state whose squared norm underflows to 0.
        for s in (PhotonState(n=1), PhotonState(n=1, amplitudes={(0, 0): 1e-170})):
            result = monte_carlo_run(s, net, np.random.default_rng(0))
            assert (result.success, result.absorbed_at) == (True, None)
            assert result.state == run_netlist(s, net)
            assert sample_cli(tmp_path, s, net, runs=10)["successes"] == 10

    def test_ideal_gates_never_absorb(self):
        net, _ = compile_unitary(haar_random_unitary(4, np.random.default_rng(1)), "ideal")
        result = monte_carlo_run(basis_state(0, 0, 2), net, np.random.default_rng(0))
        assert (result.success, result.absorbed_at) == (True, None)
        assert expand_netlist(net) == net

    def test_output_norm_above_the_input_norm_passes(self, tmp_path):
        """Rounding in an ideal netlist can leave the output a bit heavier than
        the input; a run still passes with probability 1, not above it."""
        # An ideal two-level stage on levels 0 and 1 around one beamsplitter:
        # cos(0.08)**2 + sin(0.08)**2 rounds to 1 + 2.2e-16.
        net = Netlist(n=1, mode_count=3, elements=(
            ExtractGate(m=0, src=0, dst=1), ExtractGate(m=1, src=0, dst=2),
            BeamSplitter(mode_a=1, mode_b=2, theta=0.08),
            ReintegrateGate(m=1, src=0, dst=2), ReintegrateGate(m=0, src=0, dst=1)))
        s = basis_state(0, 0, 1)
        assert survival_probability(run_netlist(s, net)) > 1.0
        assert sample_cli(tmp_path, s, net, runs=10)["successes"] == 10

    def test_netlist_without_filters_always_passes(self, tmp_path):
        net = Netlist(n=1, mode_count=1, elements=(Mirror(0), Mirror(0)))
        s = basis_state(0, 1, 1)
        assert sample_cli(tmp_path, s, net, runs=10)["successes"] == 10
        assert monte_carlo_run(s, net, np.random.default_rng(0)).success


def filter_oracle(state, netlist):
    """Index of every Filter of ``expand_netlist(netlist)``, with the squared
    norm just after it, from primitive-by-primitive runs."""
    indices, after = [], []
    for index, el in enumerate(expand_netlist(netlist).elements):
        state = apply_element(state, el)
        if isinstance(el, Filter):
            indices.append(index)
            after.append(survival_probability(state))
    return indices, np.array(after)


amplitudes = st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False)
amplitude_maps = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(-4, 8)), amplitudes, max_size=10)


@settings(max_examples=60, deadline=None)
@given(
    gate_class=st.sampled_from([ExtractGate, ReintegrateGate]),
    stages=st.integers(1, 2000),
    m=st.integers(-3, 5),
    modes=st.permutations([0, 1, 2]),
    amps=amplitude_maps,
    pair=st.tuples(amplitudes, amplitudes),
)
def test_closed_form_gate_matches_primitive_chain(gate_class, stages, m, modes, amps, pair):
    src, dst = modes[0], modes[1]
    gate = gate_class(m=m, src=src, dst=dst, stages=stages)
    # Anything anywhere, aux modes off OAM 0 included, and both slots of the
    # rotated pair occupied.
    amps = {**amps, (dst, 0): pair[0], (src, m): pair[1]}
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    if norm > 1:
        amps = {key: a / norm for key, a in amps.items()}
    state = PhotonState(n=2, amplitudes=amps)
    fused = apply_element(state, gate)
    assert states_close(fused, run_netlist(state, chain(gate, n=2, mode_count=3)), tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    gate_class=st.sampled_from([ExtractGate, ReintegrateGate]),
    m=st.integers(-3, 5),
    modes=st.permutations([0, 1, 2]),
    amps=amplitude_maps,
)
def test_ideal_gate_is_the_limit_of_its_chain(gate_class, m, modes, amps):
    """On a state whose ``dst`` holds nothing off OAM 0, the renormalized
    output of the ``N``-stage gate is within ``1/N`` of the ideal gate's."""
    src, dst = modes[0], modes[1]
    amps = {key: a for key, a in amps.items() if key[0] != dst or key[1] == 0}
    scale = norm(amps.values())
    assume(scale > 0)
    state = PhotonState(n=2, amplitudes={key: a / scale for key, a in amps.items()})
    ideal = apply_element(state, gate_class(m=m, src=src, dst=dst))
    for stages in (10, 100, 1000, 10**4):
        out = normalized(apply_element(state, gate_class(m=m, src=src, dst=dst, stages=stages)))
        gap = norm(out.amplitude(*k) - ideal.amplitude(*k)
                   for k in set(out.amplitudes) | set(ideal.amplitudes))
        assert gap <= 1 / stages


def test_monte_carlo_run_matches_expanded_filters(rng):
    """A run drawing ``u`` is absorbed at the first filter of the primitive
    chain after which the survival is at most ``u``: for 200 uniform draws,
    and for ``u`` within 1e-12 of the survival after each filter, which
    holds every filter's survival to the primitive-by-primitive oracle."""
    # The second netlist mixes ideal gates, lossless single elements of the
    # expansion, with finite ones.
    for compiled_stages, inner_stages in ((25, (1, 7)), ("ideal", ("ideal", 7))):
        compiled, _ = compile_unitary(haar_random_unitary(4, rng), compiled_stages)
        net = Netlist(
            n=2, mode_count=3,
            elements=(
                ExtractGate(m=1, src=0, dst=1, stages=40),
                ExtractGate(m=3, src=0, dst=2, stages=inner_stages[0]),
                BeamSplitter(mode_a=1, mode_b=2, theta=0.3),
                Filter(mode=2, m=0),
                ReintegrateGate(m=3, src=0, dst=2, stages=inner_stages[1]),
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
        if compiled_stages == "ideal":  # the ideal gate into mode 2 would refuse it
            del amps[(2, -1)]
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
        s = PhotonState(n=2, amplitudes={key: a / norm for key, a in amps.items()})
        indices, after = filter_oracle(s, net)
        initial = survival_probability(s)
        probes = np.concatenate([after - 1e-12, after + 1e-12]) / initial
        for draw in [*rng.uniform(0, 1, size=200), *probes]:
            u = draw * initial  # as the run computes it
            first = next((i for i, norm2 in zip(indices, after) if norm2 <= u), None)
            assert monte_carlo_run(s, net, Draws(draw)).absorbed_at == first


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
