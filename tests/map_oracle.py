"""The unoptimised element semantics: one amplitude map in, a new map out.

A map is ``(mode, l) -> value``, where a value is a complex amplitude, or a
numpy array of ``k`` amplitudes when ``k`` inputs go through a netlist
together.  Every function rebuilds the whole map, so each element costs a
pass over every key; the package's row engine (``oamcomp.elements.Rows``)
rewrites only the rows an element acts on, and the tests hold it to these
functions.  Only the guards look at the values' type.
"""

import cmath
import math

import numpy as np

from oamcomp.elements import (
    IDEAL, BeamSplitter, ExtractGate, ExtractionSpec, Filter, Hologram, Mirror,
    PhaseShifter, ReintegrateGate, is_lossy,
)
from oamcomp.errors import LeakageError, ValidationError
from oamcomp.state import NORM_EPS, RESIDUE_TOL, checked_norm2


def _phase_shift(amps, el):
    """Multiply every amplitude in ``el.mode`` by ``exp(i * phi)``."""
    factor = cmath.exp(1j * el.phi)
    return {key: (amp * factor if key[0] == el.mode else amp) for key, amp in amps.items()}


def _hologram(amps, el):
    """Shift every OAM index in ``el.mode`` by ``k`` (bijective relabeling)."""
    return {((m, l + el.k) if m == el.mode else (m, l)): amp for (m, l), amp in amps.items()}


def _beamsplitter(amps, el):
    """Rotate the ``(mode_a, mode_b)`` amplitude pair at every OAM index."""
    mode_a, mode_b = el.mode_a, el.mode_b
    c, s = math.cos(el.theta), math.sin(el.theta)
    out = {key: amp for key, amp in amps.items() if key[0] not in (mode_a, mode_b)}
    for l in {l for m, l in amps if m in (mode_a, mode_b)}:
        a, b = amps.get((mode_a, l), 0), amps.get((mode_b, l), 0)
        out[(mode_a, l)] = a * c + b * s
        out[(mode_b, l)] = -a * s + b * c
    return out


def _filter(amps, el):
    """Project ``el.mode`` onto OAM ``m``; everything else in that mode is absorbed."""
    return {key: amp for key, amp in amps.items() if key[0] != el.mode or key[1] == el.m}


def _mirror(amps, el):
    """Reflect OAM in ``el.mode``: amplitude at ``l`` moves to ``-l``."""
    return {((m, -l) if m == el.mode else (m, l)): amp for (m, l), amp in amps.items()}


def _check_vacant(amps, slot, role):
    vacant = abs(amps.get(slot, 0)) <= RESIDUE_TOL  # a numpy array for columns
    if not (vacant if isinstance(vacant, bool) else vacant.all()):
        raise ValidationError(f"{role} (mode {slot[0]}, OAM {slot[1]}) already occupied")


def _move(amps, source, target):
    # The move replaces the target's residue (at most RESIDUE_TOL) whether
    # the source is absent or, as in a column of a batched map, present at 0.
    out = dict(amps)
    out.pop(target, None)
    if source in out:
        out[target] = out.pop(source)
    return out


def _zeno_chain(amps, spec: ExtractionSpec, theta: float):
    """Exact output of the ``N``-stage chain with beamsplitter angle ``theta``:
    the pair ``(amp(dst, 0), amp(src, m))`` rotates by ``N theta``; at
    ``j != 0`` the ``dst`` part is absorbed and the ``src`` part decays by
    ``cos theta`` per stage after the first."""
    src, dst, m, stages = spec.src, spec.dst, spec.m, spec.stages
    c, s = math.cos(theta), math.sin(theta)
    c_n, s_n = math.cos(stages * theta), math.sin(stages * theta)
    decay = c ** (stages - 1)
    out = {key: amp for key, amp in amps.items() if key[0] not in (src, dst)}
    for j in {l if mode == dst else l - m for mode, l in amps if mode in (src, dst)}:
        a, b = amps.get((dst, j), 0), amps.get((src, j + m), 0)
        if j == 0:
            out[(dst, j)], out[(src, j + m)] = a * c_n + b * s_n, -a * s_n + b * c_n
        else:
            out[(src, j + m)] = (-a * s + b * c) * decay
    return out


def _macro(amps, gate):
    source, target, sign, role = (gate.src, gate.m), (gate.dst, 0), 1, "destination"
    if isinstance(gate, ReintegrateGate):
        source, target, sign, role = target, source, -1, "reintegration target"
    _check_vacant(amps, target, role)
    if gate.stages == IDEAL:
        return _move(amps, source, target)
    return _zeno_chain(amps, gate, sign * gate.theta)


_SEMANTICS = {
    PhaseShifter: _phase_shift, Hologram: _hologram, BeamSplitter: _beamsplitter,
    Filter: _filter, Mirror: _mirror, ExtractGate: _macro, ReintegrateGate: _macro,
}


def column_norms(amps) -> np.ndarray:
    """Squared norm of every column of a column map, failing on a NaN."""
    rows = np.array(list(amps.values()))
    norm2 = (rows.real ** 2 + rows.imag ** 2).sum(axis=0)
    if not (norm2 <= 1.0 + NORM_EPS).all():
        raise ValidationError(f"squared norm {np.max(norm2)} exceeds 1 + eps")
    return norm2


def run(amps, elements, norm_guard=checked_norm2):
    """The map after ``elements``, with ``norm_guard`` run after each, and
    the guard's last value."""
    norm2 = norm_guard(amps)
    for el in elements:
        amps = _SEMANTICS[type(el)](amps, el)
        norm2 = norm_guard(amps)
    return amps, norm2


def basis_response(netlist):
    """The batched basis response as a numpy column map: the matrix and
    each basis input's survival, with the same checks as the package's."""
    d = 1 << netlist.n
    basis = np.eye(d, dtype=complex)
    out, survival = run({(0, l): basis[l] for l in range(d)}, netlist.elements, column_norms)
    absent = np.zeros(d, dtype=complex)
    effective = np.array([out.get((0, l), absent) for l in range(d)])
    if not any(map(is_lossy, netlist.elements)):
        offenders = sorted(
            (mode, l) for (mode, l), row in out.items()
            if (mode != 0 or not 0 <= l < d) and not (np.abs(row) <= RESIDUE_TOL).all()
        )
        if offenders:
            raise LeakageError(offenders)
        return effective, survival
    return unit_columns(effective), survival


def unit_columns(effective):
    """``effective`` with each column divided by its norm; raises if a
    column's norm is below the smallest normal double.  The magnitudes are
    scaled by each column's largest before the norm is taken:
    ``np.linalg.norm`` loses a norm below about 1e-154 to underflow."""
    peak = np.abs(effective).max(axis=0)
    norms = peak * np.linalg.norm(np.abs(effective) / np.where(peak > 0.0, peak, 1.0), axis=0)
    absorbed = np.flatnonzero(norms < np.finfo(float).tiny)
    if absorbed.size:
        raise ValidationError(f"basis input {absorbed[0]} was fully absorbed")
    return effective / norms
