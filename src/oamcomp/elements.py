"""Optical element IR and exact netlist execution.

Five primitives (phase shifter, hologram, beamsplitter, OAM filter, mirror)
plus two macro gates (extract / reintegrate) that the compiler emits.  The
executor applies a macro gate either ideally or, at a finite stage count, as
the exact closed form of its Zeno chain; the chain itself, as primitives, is
built in :mod:`oamcomp.extraction`.  The executor runs one input state, or
many inputs at once as the columns of one amplitude map, and checks every
input's norm after every element.

Beamsplitter convention: the mode-pair amplitudes ``(a, b)`` at each OAM
index transform by the proper rotation ``[[cos t, sin t], [-sin t, cos t]]``,
so repeated application composes as a rotation by the summed angle.  Distinct
OAM indices never mix.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Mapping, Union

from .errors import ValidationError
from .state import NORM_EPS, ModeOAM, PhotonState, _json_int, _json_real

if TYPE_CHECKING:
    import numpy as np

#: Marker for the lossless, infinite-stage limit of the extraction gate.
IDEAL = "ideal"

Stages = Union[int, str]  # positive int or IDEAL

#: Largest finite stage count: the gate's closed form takes ``N theta`` in
#: double precision, which holds every integer only up to ``2**53``.
MAX_STAGES = 2**53


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
        if self.stages != IDEAL and not (
            type(self.stages) is int and 1 <= self.stages <= MAX_STAGES
        ):
            raise ValidationError(
                f"stage count must be an integer in [1, 2**53], got {self.stages!r}"
            )

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
        if self.n < 1:
            raise ValidationError(f"qubit count must be >= 1, got {self.n}")
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
            n = _json_int(data["n"])
            modes = _json_int(data["modes"])
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
    if kind == "float":
        return _json_real(value)
    return IDEAL if kind == "Stages" and value == IDEAL else _json_int(value)


# ---------------------------------------------------------------------------
# Element semantics on an amplitude map ``(mode, l) -> value``.  A value is a
# complex amplitude, or a numpy array of ``k`` amplitudes when ``k`` inputs go
# through a netlist together: every element is linear and acts on each input
# alike, so one pass computes all of them.  The functions are pure, map in,
# new map out; they may keep exact zeros, which ``PhotonState`` drops.  Only
# the guards look at the values' type, and only a column map reaches numpy.

Amplitudes = Mapping[ModeOAM, Union[complex, "np.ndarray"]]


def _phase_shift(amps: Amplitudes, el: PhaseShifter) -> dict:
    """Multiply every amplitude in ``el.mode`` by ``exp(i * phi)``."""
    factor = cmath.exp(1j * el.phi)
    return {key: (amp * factor if key[0] == el.mode else amp) for key, amp in amps.items()}


def _hologram(amps: Amplitudes, el: Hologram) -> dict:
    """Shift every OAM index in ``el.mode`` by ``k`` (bijective relabeling)."""
    return {((m, l + el.k) if m == el.mode else (m, l)): amp for (m, l), amp in amps.items()}


def _beamsplitter(amps: Amplitudes, el: BeamSplitter) -> dict:
    """Rotate the ``(mode_a, mode_b)`` amplitude pair at every OAM index."""
    mode_a, mode_b = el.mode_a, el.mode_b
    c, s = math.cos(el.theta), math.sin(el.theta)
    out = {key: amp for key, amp in amps.items() if key[0] not in (mode_a, mode_b)}
    for l in {l for m, l in amps if m in (mode_a, mode_b)}:
        a, b = amps.get((mode_a, l), 0), amps.get((mode_b, l), 0)
        out[(mode_a, l)] = a * c + b * s
        out[(mode_b, l)] = -a * s + b * c
    return out


def _filter(amps: Amplitudes, el: Filter) -> dict:
    """Project ``el.mode`` onto OAM ``m``; everything else in that mode is absorbed."""
    return {key: amp for key, amp in amps.items() if key[0] != el.mode or key[1] == el.m}


def _mirror(amps: Amplitudes, el: Mirror) -> dict:
    """Reflect OAM in ``el.mode``: amplitude at ``l`` moves to ``-l``."""
    return {((m, -l) if m == el.mode else (m, l)): amp for (m, l), amp in amps.items()}


#: Occupancy guard: amplitudes below this are floating-point residue from a
#: previous Zeno chain, not a second photon component.
OCCUPANCY_TOL = 1e-9


def _check_vacant(amps: Amplitudes, slot: ModeOAM, role: str) -> None:
    vacant = abs(amps.get(slot, 0)) <= OCCUPANCY_TOL  # a numpy array for columns
    if not (vacant if isinstance(vacant, bool) else vacant.all()):
        raise ValidationError(f"{role} (mode {slot[0]}, OAM {slot[1]}) already occupied")


def _move(amps: Amplitudes, source: ModeOAM, target: ModeOAM) -> dict:
    out = dict(amps)
    if source in out:
        out[target] = out.pop(source)
    return out


def _zeno_chain(amps: Amplitudes, spec: ExtractionSpec, theta: float,
                filter_first: bool) -> dict:
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
    out = {key: amp for key, amp in amps.items() if key[0] not in (src, dst)}
    for j in {l if mode == dst else l - m for mode, l in amps if mode in (src, dst)}:
        a, b = amps.get((dst, j), 0), amps.get((src, j + m), 0)
        if j == 0:
            out[(dst, j)], out[(src, j + m)] = a * c_n + b * s_n, -a * s_n + b * c_n
        elif filter_first:
            out[(dst, j)], out[(src, j + m)] = b * s * decay, b * c * decay
        else:
            out[(src, j + m)] = (-a * s + b * c) * decay
    return out


def _extract(amps: Amplitudes, spec: ExtractionSpec, ideal: bool) -> dict:
    """Move ``(src, m)`` to ``(dst, 0)``: ideally, or through the finite chain."""
    _check_vacant(amps, (spec.dst, 0), "destination")
    if ideal:
        return _move(amps, (spec.src, spec.m), (spec.dst, 0))
    return _zeno_chain(amps, spec, spec.theta, filter_first=False)


def _reintegrate(amps: Amplitudes, spec: ExtractionSpec, ideal: bool,
                 filter_first: bool = False) -> dict:
    """Inverse of :func:`_extract`: ``(dst, 0)`` back to ``(src, m)``."""
    _check_vacant(amps, (spec.src, spec.m), "reintegration target")
    if ideal:
        return _move(amps, (spec.dst, 0), (spec.src, spec.m))
    return _zeno_chain(amps, spec, -spec.theta, filter_first)


def _macro(amps: Amplitudes, gate: ExtractGate | ReintegrateGate) -> dict:
    """The ideal move, or at a finite stage count the exact Zeno chain."""
    move = _extract if isinstance(gate, ExtractGate) else _reintegrate
    return move(amps, gate, gate.stages == IDEAL)


_SEMANTICS = {
    PhaseShifter: _phase_shift, Hologram: _hologram, BeamSplitter: _beamsplitter,
    Filter: _filter, Mirror: _mirror, ExtractGate: _macro, ReintegrateGate: _macro,
}


def step(amps: Amplitudes, el: Element) -> dict:
    """The amplitude map after element ``el``."""
    semantics = _SEMANTICS.get(type(el))
    if semantics is None:
        raise ValidationError(f"unknown element {el!r}")
    return semantics(amps, el)


def squared_norms(amps: Amplitudes) -> float:
    """Squared norm of the one input that ``amps`` holds as complex scalars.

    Raises when it exceeds ``1 + NORM_EPS`` or is not a number: no element
    adds weight, so that is a fault, caught at the element that made it.
    """
    norm2 = sum(x * x for x in map(abs, amps.values()))
    if not norm2 <= 1.0 + NORM_EPS:
        raise ValidationError(f"squared norm {norm2} exceeds 1 + eps")
    return norm2


def propagate(amps: Amplitudes, elements, norm_guard=squared_norms) -> dict:
    """Apply ``elements`` in order, checking the norm after each with
    ``norm_guard``: :func:`squared_norms` for one input, the column-wise check
    of :func:`oamcomp.compiler.basis_response` for a column map."""
    for el in elements:
        amps = step(amps, el)
        norm_guard(amps)
    return dict(amps)


# ---------------------------------------------------------------------------
# The same semantics on one validated state: state in, new state out.


def _on_state(state: PhotonState, semantics, *args) -> PhotonState:
    return PhotonState(n=state.n, amplitudes=semantics(state.amplitudes, *args))


def apply_element(state: PhotonState, el: Element) -> PhotonState:
    return _on_state(state, step, el)


def apply_phase_shifter(state: PhotonState, mode: int, phi: float) -> PhotonState:
    """Multiply every amplitude in ``mode`` by ``exp(i * phi)``."""
    return apply_element(state, PhaseShifter(mode=mode, phi=phi))


def apply_hologram(state: PhotonState, mode: int, k: int) -> PhotonState:
    """Shift every OAM index in ``mode`` by ``k`` (bijective relabeling)."""
    return apply_element(state, Hologram(mode=mode, k=k))


def apply_beamsplitter(
    state: PhotonState, mode_a: int, mode_b: int, theta: float
) -> PhotonState:
    """Rotate the ``(mode_a, mode_b)`` amplitude pair at every OAM index."""
    return apply_element(state, BeamSplitter(mode_a=mode_a, mode_b=mode_b, theta=theta))


def apply_filter(state: PhotonState, mode: int, m: int) -> PhotonState:
    """Project ``mode`` onto OAM ``m``; everything else in that mode is absorbed."""
    return apply_element(state, Filter(mode=mode, m=m))


def apply_mirror(state: PhotonState, mode: int) -> PhotonState:
    """Reflect OAM in ``mode``: amplitude at ``l`` moves to ``-l``."""
    return apply_element(state, Mirror(mode=mode))


def apply_macro(state: PhotonState, gate: ExtractGate | ReintegrateGate) -> PhotonState:
    """The ideal move, or at a finite stage count the exact Zeno chain."""
    return _on_state(state, _macro, gate)


def ideal_extract(state: PhotonState, spec: ExtractionSpec) -> PhotonState:
    """Move the amplitude at ``(src, m)`` to ``(dst, 0)``; all else untouched."""
    return _on_state(state, _extract, spec, True)


def ideal_reintegrate(state: PhotonState, spec: ExtractionSpec) -> PhotonState:
    """Inverse of :func:`ideal_extract`: ``(dst, 0)`` back to ``(src, m)``."""
    return _on_state(state, _reintegrate, spec, True)


def zeno_extract(state: PhotonState, spec: ExtractionSpec) -> PhotonState:
    """The finite-``N`` chain; ``l != m`` components are attenuated."""
    return _on_state(state, _extract, spec, False)


def zeno_reintegrate(
    state: PhotonState, spec: ExtractionSpec, filter_first: bool = False
) -> PhotonState:
    """The inverse chain, at angle ``-pi/2N``; see ``lower_reintegrate_to_netlist``."""
    return _on_state(state, _reintegrate, spec, False, filter_first)


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
    return PhotonState(n=state.n, amplitudes=propagate(state.amplitudes, netlist.elements))


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
