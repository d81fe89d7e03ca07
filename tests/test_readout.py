import math

import numpy as np
import pytest

from oamcomp.compiler import compile_unitary, haar_random_unitary
from oamcomp.elements import run_netlist
from oamcomp.errors import LeakageError, ValidationError
from oamcomp.readout import (
    PathQubitState,
    born_distribution,
    demux,
    measure_bit,
    repeated_run_readout,
    sample_full_measurement,
    sorter_cost,
)
from oamcomp.state import RESIDUE_TOL, PhotonState, basis_state, from_amplitudes

from conftest import random_state, states_close

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

    def test_seeded_reproducibility(self):
        s = from_amplitudes(0, [0.5] * 4, 2)
        draws_a = [
            sample_full_measurement(s, 0, np.random.default_rng(5)) for _ in range(3)
        ]
        draws_b = [
            sample_full_measurement(s, 0, np.random.default_rng(5)) for _ in range(3)
        ]
        assert draws_a == draws_b


class TestMeasureBit:
    def test_deterministic_bits_of_five(self, rng):
        s = basis_state(0, 5, 3)  # 101
        for k, expected in [(0, 1), (1, 0), (2, 1)]:
            bit, collapsed = measure_bit(s, 0, k, rng)
            assert bit == expected
            assert states_close(collapsed, s, tol=1e-12)

    def test_collapse_of_bell_like_state(self):
        s = from_amplitudes(0, [SQ2, 0, 0, SQ2], 2)
        rng = np.random.default_rng(21)
        seen = set()
        for _ in range(50):
            bit, collapsed = measure_bit(s, 0, 0, rng)
            target = 3 if bit else 0
            assert abs(collapsed.amplitude(0, target)) == pytest.approx(1.0, abs=1e-12)
            seen.add(bit)
        assert seen == {0, 1}

    def test_zero_state_any_bit(self, rng):
        s = basis_state(0, 0, 3)
        for k in range(3):
            bit, collapsed = measure_bit(s, 0, k, rng)
            assert bit == 0
            assert states_close(collapsed, s, tol=1e-12)

    def test_branch_probabilities_sum_to_one(self, rng):
        s = random_state(rng, 3)
        weights = {0: 0.0, 1: 0.0}
        for l in range(8):
            weights[(l >> 1) & 1] += abs(s.amplitude(0, l)) ** 2
        assert weights[0] + weights[1] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bit_out_of_range(self, rng):
        with pytest.raises(ValidationError):
            measure_bit(basis_state(0, 0, 2), 0, 2, rng)


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


class TestDemux:
    def test_basis_mapping_and_cost(self):
        path, cost = demux(basis_state(0, 5, 3), 0)
        assert dict(path.amplitudes) == {"101": 1 + 0j}
        assert cost.cnot_count == 5

    def test_linear_relabeling(self):
        s = from_amplitudes(0, [SQ2, 0, 0, SQ2], 2)
        path, _ = demux(s, 0)
        assert path.amplitudes["00"] == pytest.approx(SQ2)
        assert path.amplitudes["11"] == pytest.approx(SQ2)

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
        path, _ = demux(out, 0)
        assert dict(path.amplitudes) == {format(l, "02b"): out.amplitude(0, l) for l in range(4)}

    def test_rejects_weight_above_the_residue_tolerance(self):
        amps = {(0, 0): 0.5, (1, 0): 2 * RESIDUE_TOL, (0, 2): RESIDUE_TOL}
        s = PhotonState(n=1, amplitudes=amps)
        with pytest.raises(LeakageError) as err:
            demux(s, 0)
        assert err.value.offenders == [(1, 0)]

    def test_remux_inverse(self, rng):
        """Relabeling the path qubits back onto mode 0 gives the state back."""
        s = random_state(rng, 3)
        path, _ = demux(s, 0)
        back = {(0, int(bits, 2)): amp for bits, amp in path.amplitudes.items()}
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


def test_path_qubit_state_validates_keys():
    with pytest.raises(ValidationError):
        PathQubitState(n=2, amplitudes={"012": 1.0})


@pytest.mark.parametrize("amp", [float("nan"), float("inf"), 1e200])
def test_path_qubit_state_norm_guard_fails_closed(amp):
    # A NaN norm must trip the guard, and squaring 1e200 must not overflow.
    with pytest.raises(ValidationError):
        PathQubitState(n=1, amplitudes={"0": amp})
