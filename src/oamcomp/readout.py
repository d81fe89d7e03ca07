"""Readout strategies for the OAM register and their cost accounting.

Three routes out of the photon, each reading the register (``mode``'s
computational range) once and returning plain data: a full branching sorter
(exponential arms) samples one OAM index from :func:`born_distribution`;
bitwise readout over repeated runs (one binary decision per run) draws bit
``k`` from the same distribution's marginal; an ideal demultiplexer
relabels the amplitudes as path-qubit bit strings (priced at ``2 n - 1``
path CNOT gates, annotated rather than simulated).  The samplers call only
``rng.random()``, so they take a ``random.Random``, as the CLI seeds it, or a
``numpy.random.Generator``, from which the sorter draws what its ``choice``
draws.
"""

from __future__ import annotations

import bisect
from itertools import accumulate
from random import Random

from .errors import LeakageError, ValidationError
from .state import RESIDUE_TOL, PhotonState, Record, register_size, weights

#: Sorter arm count above which plans are flagged as exponentially large.
DEFAULT_ARM_BUDGET = 512


class ReadoutCost(Record):
    decision_points: int = 0
    arms: int = 0
    runs: int = 0
    cnot_count: int = 0


def sample_full_measurement(state: PhotonState, mode: int, rng: Random) -> int:
    """Sample an OAM index from :func:`born_distribution` with one
    ``rng.random()``, as ``numpy.random.Generator.choice`` samples weights:
    ``bisect_right`` in the cumulative sums divided by the last."""
    probs = born_distribution(state, mode)
    cdf = list(accumulate(probs.values()))
    return list(probs)[bisect.bisect_right([x / cdf[-1] for x in cdf], rng.random())]


def repeated_run_readout(
    state: PhotonState, rng: Random, mode: int = 0
) -> tuple[str, ReadoutCost]:
    """Read bit ``k`` of ``state`` in run ``k``, for ``k = 0 .. n-1``, each
    run on a fresh copy of the state; the n runs assemble the full value.
    Run ``k`` draws one uniform and reads 1 if it falls below the
    probability, under :func:`born_distribution`, that bit ``k`` is 1.

    Exact only when the prepared output is (nearly) a single basis state; for
    genuine superpositions the per-run bits are independent samples and the
    assembled string need not describe any single basis state.  The returned
    string is MSB-first (``b_{n-1} ... b_0``).
    """
    probs = born_distribution(state, mode)
    bits = [int(rng.random() < sum(p for l, p in probs.items() if l >> k & 1))
            for k in range(state.n)]
    string = "".join(map(str, reversed(bits)))
    # One binary decision point per run.
    return string, ReadoutCost(decision_points=1, arms=2, runs=state.n, cnot_count=0)


def demux(state: PhotonState, mode: int) -> tuple[dict[str, complex], ReadoutCost]:
    """Relabel OAM amplitudes as path-qubit amplitudes keyed by ``n``-bit
    strings (ideal demultiplexer).

    Amplitudes outside ``mode``'s computational range, in any mode, are
    leakage unless they are rounding residue."""
    register = _register(state.amplitudes.items(), mode, state.dim)
    amps = {format(l, f"0{state.n}b"): amp for l, amp in register.items()}
    return amps, ReadoutCost(cnot_count=2 * state.n - 1, runs=1)


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
