"""Readout strategies for the OAM register and their cost accounting.

Three routes out of the photon: a full branching sorter (exponential arms),
bitwise readout over repeated runs (one binary decision per run), and an
ideal demultiplexer into path-encoded qubits (priced at ``2 n - 1`` path
CNOT gates, annotated rather than simulated).  The samplers take an
:class:`oamcomp.rng.Generator` or a ``numpy.random.Generator``; from the
same seed both draw the same outcomes.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from .errors import LeakageError, ValidationError
from .rng import Generator
from .state import (RESIDUE_TOL, PhotonState, Record, checked_norm2, normalized,
                    register_size, weights)

#: Sorter arm count above which plans are flagged as exponentially large.
DEFAULT_ARM_BUDGET = 512


class ReadoutCost(Record):
    decision_points: int = 0
    arms: int = 0
    runs: int = 0
    cnot_count: int = 0


class PathQubitState(Record):
    """Path-encoded register: amplitudes keyed by n-bit strings."""

    n: int
    amplitudes: Mapping[str, complex]

    def __post_init__(self) -> None:
        amps = {k: complex(v) for k, v in self.amplitudes.items() if v != 0}
        for bits in amps:
            if len(bits) != self.n or set(bits) - {"0", "1"}:
                raise ValidationError(f"bad bit string key {bits!r} for n={self.n}")
        checked_norm2(amps)
        object.__setattr__(self, "amplitudes", MappingProxyType(amps))


def sample_full_measurement(
    state: PhotonState, mode: int, rng: Generator
) -> int:
    """Sample an OAM index from :func:`born_distribution`."""
    probs = born_distribution(state, mode)
    indices = list(probs)
    return int(indices[rng.choice(len(indices), p=list(probs.values()))])


def measure_bit(
    state: PhotonState, mode: int, bit_k: int, rng: Generator
) -> tuple[int, PhotonState]:
    """Projectively measure one bit of the OAM index; collapse and renormalize."""
    if not 0 <= bit_k < state.n:
        raise ValidationError(f"bit index {bit_k} out of range for n={state.n}")
    probs = born_distribution(state, mode)
    p_one = sum(p for l, p in probs.items() if (l >> bit_k) & 1)
    bit = 1 if rng.random() < p_one else 0
    keep = {
        key: amp
        for key, amp in state.amplitudes.items()
        if key[0] == mode and ((key[1] >> bit_k) & 1) == bit
    }
    return bit, normalized(PhotonState(n=state.n, amplitudes=keep))


def repeated_run_readout(
    state: PhotonState, rng: Generator, mode: int = 0
) -> tuple[str, ReadoutCost]:
    """Read bit ``k`` of ``state`` in run ``k``, for ``k = 0 .. n-1``, each
    run on a fresh copy of the state; the n runs assemble the full value.

    Exact only when the prepared output is (nearly) a single basis state; for
    genuine superpositions the per-run bits are independent samples and the
    assembled string need not describe any single basis state.  The returned
    string is MSB-first (``b_{n-1} ... b_0``).
    """
    bits = [measure_bit(state, mode, k, rng)[0] for k in range(state.n)]
    string = "".join(map(str, reversed(bits)))
    # One binary decision point per run.
    return string, ReadoutCost(decision_points=1, arms=2, runs=state.n, cnot_count=0)


def demux(state: PhotonState, mode: int) -> tuple[PathQubitState, ReadoutCost]:
    """Relabel OAM amplitudes as path-qubit bit strings (ideal demultiplexer).

    Amplitudes outside ``mode``'s computational range, in any mode, are
    leakage unless they are rounding residue."""
    register = _register(state.amplitudes.items(), mode, state.dim)
    amps = {format(l, f"0{state.n}b"): amp for l, amp in register.items()}
    cost = ReadoutCost(cnot_count=2 * state.n - 1, runs=1)
    return PathQubitState(n=state.n, amplitudes=amps), cost


def sorter_cost(n: int) -> tuple[ReadoutCost, bool]:
    """Cost of a full branching sorter; second value flags more than
    ``DEFAULT_ARM_BUDGET`` arms."""
    arms = register_size(n)
    cost = ReadoutCost(decision_points=n, arms=arms, runs=1, cnot_count=0)
    return cost, arms > DEFAULT_ARM_BUDGET


def _register(amplitudes, mode: int, dim: int) -> dict[int, complex]:
    """The amplitudes ``((m, l), amp)`` at ``m == mode`` and ``0 <= l <
    dim``, by ``l``.  Any other is leakage unless it is rounding residue (at
    most ``RESIDUE_TOL``), which is dropped."""
    register, offenders = {}, []
    for (m, l), amp in amplitudes:
        if m == mode and 0 <= l < dim:
            register[l] = amp
        elif not abs(amp) <= RESIDUE_TOL:
            offenders.append((m, l))
    if offenders:
        raise LeakageError(sorted(offenders))
    return register


def born_distribution(state: PhotonState, mode: int) -> dict[int, float]:
    """Post-selected outcome probabilities of a full measurement, by OAM
    index.  Amplitudes in ``mode`` outside its computational range are
    leakage, as in :func:`demux`, unless they are rounding residue."""
    in_mode = [(key, amp) for key, amp in state.amplitudes.items() if key[0] == mode]
    register = _register(in_mode, mode, state.dim)
    weight = dict(zip(register, weights(register.values())))
    total = sum(weight.values())
    if total <= 0.0:
        raise ValidationError("state has no surviving amplitude in that mode")
    return {l: w / total for l, w in sorted(weight.items())}
