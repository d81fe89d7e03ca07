"""Optical element IR and exact netlist execution.

Five primitives (phase shifter, hologram, beamsplitter, OAM filter, mirror)
plus two macro gates (extract / reintegrate) that the compiler emits.  The
executor applies a macro gate either ideally or, at a finite stage count, as
the exact closed form of its Zeno chain; the chain itself, as primitives, is
built in :mod:`oamcomp.extraction`.

Beamsplitter convention: the mode-pair amplitudes ``(a, b)`` at each OAM
index transform by the proper rotation ``[[cos t, sin t], [-sin t, cos t]]``,
so repeated application composes as a rotation by the summed angle.  Distinct
OAM indices never mix.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from typing import Union

from .errors import ValidationError
from .state import ModeOAM, PhotonState

#: Marker for the lossless, infinite-stage limit of the extraction gate.
IDEAL = "ideal"

Stages = Union[int, str]  # positive int or IDEAL


@dataclass(frozen=True)
class PhaseShifter:
    mode: int
    phi: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.phi):
            raise ValidationError(f"phase must be finite, got {self.phi!r}")


@dataclass(frozen=True)
class Hologram:
    mode: int
    k: int


@dataclass(frozen=True)
class BeamSplitter:
    mode_a: int
    mode_b: int
    theta: float

    def __post_init__(self) -> None:
        if self.mode_a == self.mode_b:
            raise ValidationError("beamsplitter requires two distinct modes")
        if not math.isfinite(self.theta):
            raise ValidationError(f"beamsplitter angle must be finite, got {self.theta!r}")


@dataclass(frozen=True)
class Filter:
    """Absorbing projector: passes OAM index ``m`` in ``mode``, absorbs the rest."""

    mode: int
    m: int


@dataclass(frozen=True)
class Mirror:
    mode: int


@dataclass(frozen=True)
class ExtractionSpec:
    """Parameters of one extraction gate on the mode pair ``(src, dst)``.

    ``stages`` is a positive beamsplitter count, or :data:`IDEAL` for the
    lossless infinite-stage limit.
    """

    m: int
    src: int
    dst: int
    stages: Stages = IDEAL

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValidationError("extraction requires src != dst")
        # ``type`` rather than ``isinstance``: a bool is an int.
        if self.stages != IDEAL and not (type(self.stages) is int and self.stages >= 1):
            raise ValidationError(f"stage count must be a positive integer, got {self.stages!r}")

    @property
    def theta(self) -> float:
        if self.stages == IDEAL:
            raise ValidationError("ideal gate has no beamsplitter angle")
        return math.pi / (2 * self.stages)


@dataclass(frozen=True)
class ExtractGate(ExtractionSpec):
    """Macro: move the OAM-``m`` component of ``src`` to OAM 0 of ``dst``."""


@dataclass(frozen=True)
class ReintegrateGate(ExtractionSpec):
    """Macro: inverse of :class:`ExtractGate` on the same mode pair."""


Element = Union[
    PhaseShifter, Hologram, BeamSplitter, Filter, Mirror, ExtractGate, ReintegrateGate
]


@dataclass(frozen=True)
class Netlist:
    """Ordered element program over ``mode_count`` spatial modes, width ``n``."""

    n: int
    mode_count: int
    elements: tuple[Element, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        if self.mode_count < 1:
            raise ValidationError("mode_count must be >= 1")
        for el in self.elements:
            for mode in _element_modes(el):
                if not 0 <= mode < self.mode_count:
                    raise ValidationError(
                        f"element {el!r} references mode {mode} outside [0, {self.mode_count})"
                    )

    def __len__(self) -> int:
        return len(self.elements)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "modes": self.mode_count,
            "elements": [_element_to_json(el) for el in self.elements],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Netlist":
        try:
            n = int(data["n"])
            modes = int(data["modes"])
            elements = [_element_from_json(entry) for entry in data["elements"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, ValidationError):
                raise
            raise ValidationError(f"malformed netlist JSON: {exc}") from exc
        return cls(n=n, mode_count=modes, elements=tuple(elements))


def _element_modes(el: Element) -> tuple[int, ...]:
    if isinstance(el, BeamSplitter):
        return (el.mode_a, el.mode_b)
    if isinstance(el, ExtractionSpec):
        return (el.src, el.dst)
    return (el.mode,)


#: Netlist JSON ``type`` tag of each element class; the other JSON keys are
#: the class's field names.
_ELEMENT_TYPES = {
    "ps": PhaseShifter, "holo": Hologram, "bs": BeamSplitter, "filter": Filter,
    "mirror": Mirror, "extract": ExtractGate, "reintegrate": ReintegrateGate,
}
_ELEMENT_TAGS = {cls: tag for tag, cls in _ELEMENT_TYPES.items()}
_ELEMENT_FIELDS = {cls: fields(cls) for cls in _ELEMENT_TAGS}


def _element_to_json(el: Element) -> dict:
    if type(el) not in _ELEMENT_TAGS:
        raise ValidationError(f"unknown element {el!r}")
    return {"type": _ELEMENT_TAGS[type(el)], **vars(el)}


def _element_from_json(entry: dict) -> Element:
    cls = _ELEMENT_TYPES.get(entry["type"])
    if cls is None:
        raise ValidationError(f"unknown element type {entry['type']!r}")
    return cls(**{f.name: _field_from_json(f.type, entry[f.name]) for f in _ELEMENT_FIELDS[cls]})


def _field_from_json(kind: str, value) -> float | Stages:
    if isinstance(value, bool):
        raise ValidationError(f"expected a number, got {value!r}")
    if kind == "float":
        return float(value)
    return IDEAL if kind == "Stages" and value == IDEAL else int(value)


# ---------------------------------------------------------------------------
# Primitive semantics.  All are pure: state in, new state out.


def apply_phase_shifter(state: PhotonState, mode: int, phi: float) -> PhotonState:
    """Multiply every amplitude in ``mode`` by ``exp(i * phi)``."""
    factor = cmath.exp(1j * phi)
    amps = {
        key: (amp * factor if key[0] == mode else amp)
        for key, amp in state.amplitudes.items()
    }
    return PhotonState(n=state.n, amplitudes=amps)


def apply_hologram(state: PhotonState, mode: int, k: int) -> PhotonState:
    """Shift every OAM index in ``mode`` by ``k`` (bijective relabeling)."""
    amps = {}
    for (m, l), amp in state.amplitudes.items():
        amps[(m, l + k) if m == mode else (m, l)] = amp
    return PhotonState(n=state.n, amplitudes=amps)


def apply_beamsplitter(
    state: PhotonState, mode_a: int, mode_b: int, theta: float
) -> PhotonState:
    """Rotate the ``(mode_a, mode_b)`` amplitude pair at every OAM index."""
    if mode_a == mode_b:
        raise ValidationError("beamsplitter requires two distinct modes")
    c, s = math.cos(theta), math.sin(theta)
    amps = {
        key: amp for key, amp in state.amplitudes.items() if key[0] not in (mode_a, mode_b)
    }
    indices = {l for m, l in state.amplitudes if m in (mode_a, mode_b)}
    for l in indices:
        a = state.amplitude(mode_a, l)
        b = state.amplitude(mode_b, l)
        new_a = a * c + b * s
        new_b = -a * s + b * c
        if new_a != 0:
            amps[(mode_a, l)] = new_a
        if new_b != 0:
            amps[(mode_b, l)] = new_b
    return PhotonState(n=state.n, amplitudes=amps)


def apply_filter(state: PhotonState, mode: int, m: int) -> PhotonState:
    """Project ``mode`` onto OAM ``m``; everything else in that mode is absorbed."""
    amps = {
        key: amp
        for key, amp in state.amplitudes.items()
        if key[0] != mode or key[1] == m
    }
    return PhotonState(n=state.n, amplitudes=amps)


def apply_mirror(state: PhotonState, mode: int) -> PhotonState:
    """Reflect OAM in ``mode``: amplitude at ``l`` moves to ``-l``."""
    amps = {}
    for (m, l), amp in state.amplitudes.items():
        amps[(m, -l) if m == mode else (m, l)] = amp
    return PhotonState(n=state.n, amplitudes=amps)


def apply_element(state: PhotonState, el: Element) -> PhotonState:
    if isinstance(el, PhaseShifter):
        return apply_phase_shifter(state, el.mode, el.phi)
    if isinstance(el, Hologram):
        return apply_hologram(state, el.mode, el.k)
    if isinstance(el, BeamSplitter):
        return apply_beamsplitter(state, el.mode_a, el.mode_b, el.theta)
    if isinstance(el, Filter):
        return apply_filter(state, el.mode, el.m)
    if isinstance(el, Mirror):
        return apply_mirror(state, el.mode)
    if isinstance(el, (ExtractGate, ReintegrateGate)):
        return apply_macro(state, el)
    raise ValidationError(f"unknown element {el!r}")


# ---------------------------------------------------------------------------
# Macro gate semantics.

#: Occupancy guard: amplitudes below this are floating-point residue from a
#: previous Zeno chain, not a second photon component.
OCCUPANCY_TOL = 1e-9


def _check_vacant(state: PhotonState, slot: ModeOAM, role: str) -> None:
    if not abs(state.amplitudes.get(slot, 0)) <= OCCUPANCY_TOL:
        raise ValidationError(f"{role} (mode {slot[0]}, OAM {slot[1]}) already occupied")


def _move(state: PhotonState, source: ModeOAM, target: ModeOAM, role: str) -> PhotonState:
    _check_vacant(state, target, role)
    amps = dict(state.amplitudes)
    if source in amps:
        amps[target] = amps.pop(source)
    return PhotonState(n=state.n, amplitudes=amps)


def ideal_extract(state: PhotonState, spec: ExtractionSpec) -> PhotonState:
    """Move the amplitude at ``(src, m)`` to ``(dst, 0)``; all else untouched."""
    return _move(state, (spec.src, spec.m), (spec.dst, 0), "destination")


def ideal_reintegrate(state: PhotonState, spec: ExtractionSpec) -> PhotonState:
    """Inverse of :func:`ideal_extract`: ``(dst, 0)`` back to ``(src, m)``."""
    return _move(state, (spec.dst, 0), (spec.src, spec.m), "reintegration target")


def zeno_extract(state: PhotonState, spec: ExtractionSpec) -> PhotonState:
    """The finite-``N`` chain; ``l != m`` components are attenuated."""
    _check_vacant(state, (spec.dst, 0), "destination")
    return _zeno_chain(state, spec, spec.theta, filter_first=False)


def zeno_reintegrate(
    state: PhotonState, spec: ExtractionSpec, filter_first: bool = False
) -> PhotonState:
    """The inverse chain, at angle ``-pi/2N``; see ``lower_reintegrate_to_netlist``."""
    _check_vacant(state, (spec.src, spec.m), "reintegration target")
    return _zeno_chain(state, spec, -spec.theta, filter_first)


def _zeno_chain(
    state: PhotonState, spec: ExtractionSpec, theta: float, filter_first: bool
) -> PhotonState:
    """Exact output of the ``N``-stage chain with beamsplitter angle ``theta``.

    The chain is hologram ``-m`` on ``src``, ``N`` times a beamsplitter on
    ``(dst, src)`` and an OAM-0 filter on ``dst``, then hologram ``+m``.  It
    acts on each pair ``(a, b) = (amp(dst, j), amp(src, j + m))`` on its own.
    At ``j = 0`` the filter passes everything, so the stages compose to the
    rotation by ``N theta``.  At ``j != 0`` the first filter absorbs the
    ``dst`` part and each later stage scales the ``src`` part by
    ``cos theta``.  With ``filter_first`` each filter precedes its
    beamsplitter, ``R (P R)^{N-1} P``: ``a`` is absorbed at once and the last
    rotation leaves ``b sin theta cos^{N-1} theta`` in ``dst``.
    """
    src, dst, m, stages = spec.src, spec.dst, spec.m, spec.stages
    c, s = math.cos(theta), math.sin(theta)
    c_n, s_n = math.cos(stages * theta), math.sin(stages * theta)
    decay = c ** (stages - 1)
    amps = {
        key: amp for key, amp in state.amplitudes.items() if key[0] not in (src, dst)
    }
    pairs = {l if mode == dst else l - m for mode, l in state.amplitudes if mode in (src, dst)}
    for j in pairs:
        a, b = state.amplitude(dst, j), state.amplitude(src, j + m)
        if j == 0:
            a, b = a * c_n + b * s_n, -a * s_n + b * c_n
        elif filter_first:
            a, b = b * s * decay, b * c * decay
        else:
            a, b = 0, (-a * s + b * c) * decay
        if a:
            amps[(dst, j)] = a
        if b:
            amps[(src, j + m)] = b
    return PhotonState(n=state.n, amplitudes=amps)


def apply_macro(state: PhotonState, gate: ExtractGate | ReintegrateGate) -> PhotonState:
    """The ideal move, or at a finite stage count the exact Zeno chain."""
    extract = isinstance(gate, ExtractGate)
    if gate.stages == IDEAL:
        return (ideal_extract if extract else ideal_reintegrate)(state, gate)
    return (zeno_extract if extract else zeno_reintegrate)(state, gate)


def check_state_fits(state: PhotonState, netlist: Netlist) -> None:
    """Reject a state whose width or occupied modes do not fit ``netlist``."""
    if state.n != netlist.n:
        raise ValidationError(
            f"state width {state.n} does not match netlist width {netlist.n}"
        )
    if state.max_mode() >= netlist.mode_count:
        raise ValidationError(
            f"state occupies mode {state.max_mode()} outside the netlist's "
            f"{netlist.mode_count} modes"
        )


def run_netlist(state: PhotonState, netlist: Netlist) -> PhotonState:
    """Apply all elements in order; the result may be sub-normalized."""
    check_state_fits(state, netlist)
    for el in netlist.elements:
        state = apply_element(state, el)
    return state


@dataclass(frozen=True)
class ReflectionParityReport:
    """Mirror counts per mode; a mode fails on an odd total."""

    counts: dict[int, int]
    total: int

    @property
    def failing_modes(self) -> list[int]:
        return sorted(m for m, c in self.counts.items() if c % 2 == 1)

    @property
    def ok(self) -> bool:
        return not self.failing_modes

    def passes(self, mode: int) -> bool:
        return self.counts.get(mode, 0) % 2 == 0


def check_reflection_parity(netlist: Netlist) -> ReflectionParityReport:
    """Count explicit mirror elements per mode over the whole netlist."""
    counts = {mode: 0 for mode in range(netlist.mode_count)}
    for el in netlist.elements:
        if isinstance(el, Mirror):
            counts[el.mode] += 1
    return ReflectionParityReport(counts=counts, total=sum(counts.values()))
