import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oamcomp.compiler import compile_unitary, haar_random_unitary
from oamcomp.elements import run_netlist
from oamcomp.errors import LeakageError, ValidationError
from oamcomp.readout import (
    born_distribution,
    demux,
    repeated_run_readout,
    sample_full_measurement,
    sorter_cost,
)
from oamcomp.state import RESIDUE_TOL, PhotonState, basis_state, from_amplitudes

from conftest import Draws, random_state, states_close

SQ2 = 1 / math.sqrt(2)


class TestSampleFullMeasurement:
    def test_basis_state_deterministic(self, rng):
        s = basis_state(0, 5, 3)
        assert all(sample_full_measurement(s, 0, rng) == 5 for _ in range(20))

    def test_born_frequencies(self):
        s = from_amplitudes(0, [SQ2, SQ2], 1)
        rng = np.random.default_rng(99)
        hits = sum(sample_full_measurement(s, 0, rng) for _ in range(10_000))
        assert abs(hits / 10_000 - 0.5) < 0.02

    def test_subnormalized_post_selection(self, rng):
        s = PhotonState(n=2, amplitudes={(0, 2): 0.5})
        assert sample_full_measurement(s, 0, rng) == 2

    def test_rejects_zero_survival(self, rng):
        with pytest.raises(ValidationError):
            sample_full_measurement(PhotonState(n=1), 0, rng)

    def test_draw_just_below_one_picks_the_last_outcome(self):
        # The cumulative weights sum to 1 - 2**-53 here; divided by their
        # last, as numpy's ``choice`` divides them, they end at exactly 1.
        s = PhotonState(n=2, amplitudes={(0, 0): 0.1, (0, 1): 0.1, (0, 2): 0.5})
        assert sample_full_measurement(s, 0, Draws(1.0 - 2**-53)) == 2

    def test_never_picks_an_outcome_of_weight_zero(self):
        # 1e-170 squared underflows to a Born weight of 0.0.
        s = PhotonState(n=1, amplitudes={(0, 0): 1e-170, (0, 1): 1.0})
        assert born_distribution(s, 0) == {0: 0.0, 1: 1.0}
        assert sample_full_measurement(s, 0, Draws(0.0)) == 1

    def test_seeded_reproducibility(self):
        s = from_amplitudes(0, [0.5] * 4, 2)
        draws_a = [
            sample_full_measurement(s, 0, np.random.default_rng(5)) for _ in range(3)
        ]
        draws_b = [
            sample_full_measurement(s, 0, np.random.default_rng(5)) for _ in range(3)
        ]
        assert draws_a == draws_b


@st.composite
def readout_states(draw) -> PhotonState:
    """A state of 1-6 qubits whose register (mode 0) holds weight, possibly
    sparse or subnormalized, plus up to four residue amplitudes (at most
    ``RESIDUE_TOL``) in other modes or outside mode 0's range."""
    n = draw(st.integers(1, 6))
    dim = 1 << n
    part = st.floats(-1, 1, allow_subnormal=False)
    levels = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim, unique=True))
    amps = {(0, l): complex(draw(part), draw(part)) for l in levels}
    scale = max(1.0, math.sqrt(sum(abs(a) ** 2 for a in amps.values())))
    amps = {key: a / scale for key, a in amps.items()}
    outside = st.tuples(st.integers(0, 3), st.integers(-2, dim + 1)).filter(
        lambda key: not (key[0] == 0 and 0 <= key[1] < dim))
    tiny = st.floats(-RESIDUE_TOL / 2, RESIDUE_TOL / 2)
    for key in draw(st.lists(outside, max_size=4, unique=True)):
        amps[key] = complex(draw(tiny), draw(tiny))
    state = PhotonState(n=n, amplitudes=amps)
    assume(sum(abs(state.amplitude(0, l)) ** 2 for l in range(dim)) > 0.0)
    return state


@settings(max_examples=200, deadline=None)
@given(state=readout_states(), seed=st.integers(0, 2**70))
def test_sorter_matches_numpy_choice(state, seed):
    """The sorter picks, with one uniform, the outcome that numpy's ``choice``
    picks from the same stream with the Born weights, three times running."""
    probs = born_distribution(state, 0)
    ours, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        want = list(probs)[numpy_rng.choice(len(probs), p=list(probs.values()))]
        assert sample_full_measurement(state, 0, ours) == want
    assert ours.random() == numpy_rng.random()


def marginal_oracle(state: PhotonState, rng) -> str:
    """Run ``k`` reads 1 when its uniform draw falls below the summed
    probability of the outcomes whose bit string has a 1 at bit ``k``."""
    probs = born_distribution(state, 0)
    bits = []
    for k in range(state.n):
        p_one = sum(p for l, p in probs.items() if format(l, f"0{state.n}b")[-1 - k] == "1")
        bits.append("1" if rng.random() < p_one else "0")
    return "".join(reversed(bits))


class TestRepeatedRunReadout:
    def test_deterministic_output(self, rng):
        bits, cost = repeated_run_readout(basis_state(0, 6, 3), rng)
        assert bits == "110"
        assert cost.runs == 3 and cost.decision_points == 1

    def test_all_basis_values(self, rng):
        for n in (1, 2, 4):
            for l in range(1 << n):
                bits, _ = repeated_run_readout(basis_state(0, l, n), rng)
                assert bits == format(l, f"0{n}b")

    def test_superposition_bits_are_bernoulli(self):
        # Caller-beware: bits across runs are independent samples.
        rng = np.random.default_rng(13)
        s = from_amplitudes(0, [SQ2, 0, 0, SQ2], 2)
        strings = {repeated_run_readout(s, rng)[0] for _ in range(200)}
        assert strings == {"00", "01", "10", "11"}

    def test_superposition_bits_at_fixed_seed(self):
        # Bit k is drawn in run k, k = 0 .. n-1, one uniform draw per run;
        # another order or count of draws changes these pinned values.
        rng = np.random.default_rng(3)
        s = from_amplitudes(0, [0.6, 0, 0.48j, 0.64], 2)
        strings = [repeated_run_readout(s, rng)[0] for _ in range(8)]
        assert strings == ["11", "10", "11", "10", "10", "11", "10", "00"]
        assert rng.random() == 0.28420116374879145

    @settings(max_examples=200, deadline=None)
    @given(state=readout_states(), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_bit_marginal_oracle(self, state, seed):
        """Bit ``k`` is one uniform draw, in run ``k``, against the marginal
        of ``born_distribution`` that bit ``k`` is 1, on states of 1-6 qubits
        with residue outside the register."""
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert repeated_run_readout(state, rng)[0] == marginal_oracle(state, oracle_rng)
        assert rng.random() == oracle_rng.random()  # one draw per run


class TestDemux:
    def test_basis_mapping_and_cost(self):
        amps, cost = demux(basis_state(0, 5, 3), 0)
        assert amps == {"101": 1 + 0j}
        assert cost.cnot_count == 5

    def test_linear_relabeling(self):
        s = from_amplitudes(0, [SQ2, 0, 0, SQ2], 2)
        amps, _ = demux(s, 0)
        assert amps["00"] == pytest.approx(SQ2)
        assert amps["11"] == pytest.approx(SQ2)

    def test_rejects_out_of_range(self):
        s = PhotonState(n=2, amplitudes={(0, -1): 1.0})
        with pytest.raises(LeakageError) as err:
            demux(s, 0)
        assert err.value.offenders == [(0, -1)]

    def test_rejects_wrong_mode(self):
        with pytest.raises(LeakageError):
            demux(basis_state(1, 0, 2), 0)

    def test_drops_rounding_residue_of_a_finite_stage_run(self):
        # The aux modes of this output hold 1.6e-16 and 6e-17 of rounding
        # residue from the Zeno chains: not leakage.
        net, _ = compile_unitary(haar_random_unitary(4, np.random.default_rng(901)), 100)
        out = run_netlist(basis_state(0, 0, 2), net)
        assert out.modes() == {0, 1, 2}
        amps, _ = demux(out, 0)
        assert amps == {format(l, "02b"): out.amplitude(0, l) for l in range(4)}

    def test_rejects_weight_above_the_residue_tolerance(self):
        amps = {(0, 0): 0.5, (1, 0): 2 * RESIDUE_TOL, (0, 2): RESIDUE_TOL}
        s = PhotonState(n=1, amplitudes=amps)
        with pytest.raises(LeakageError) as err:
            demux(s, 0)
        assert err.value.offenders == [(1, 0)]

    def test_remux_inverse(self, rng):
        """Relabeling the path qubits back onto mode 0 gives the state back."""
        s = random_state(rng, 3)
        amps, _ = demux(s, 0)
        back = {(0, int(bits, 2)): amp for bits, amp in amps.items()}
        assert states_close(PhotonState(n=3, amplitudes=back), s, tol=0)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_cnot_cost_formula(self, n):
        _, cost = demux(basis_state(0, 0, n), 0)
        assert cost.cnot_count == 2 * n - 1


class TestSorterCost:
    def test_small(self):
        cost, warn = sorter_cost(1)
        assert cost.arms == 2 and cost.decision_points == 1 and not warn

    def test_n10_warns(self):
        cost, warn = sorter_cost(10)
        assert cost.arms == 1024 and cost.decision_points == 10 and warn

    def test_vs_demux(self):
        cost, _ = sorter_cost(3)
        _, demux_cost = demux(basis_state(0, 0, 3), 0)
        assert cost.arms == 8 and demux_cost.cnot_count == 5

    @pytest.mark.parametrize("n", [0, 54, 10**12])
    def test_rejects_width_outside_bound(self, n):
        # 2**n is never built: the bound is checked first.
        with pytest.raises(ValidationError, match=f"qubit count .* got {n}$"):
            sorter_cost(n)


def test_born_distribution_normalized(rng):
    s = random_state(rng, 2)
    probs = born_distribution(s, 0)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
