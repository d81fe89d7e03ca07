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
from .state import (
    RESIDUE_TOL, ModeOAM, PhotonState, _json_int, _json_real, checked_norm2, register_size,
)

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


def is_lossy(el: Element) -> bool:
    """Whether ``el`` can absorb the photon: a filter, or a macro gate at a
    finite stage count, whose chain holds ``N`` filters."""
    return isinstance(el, Filter) or isinstance(el, ExtractionSpec) and el.stages != IDEAL


@dataclass(frozen=True)
class Netlist:
    """Ordered element program over ``mode_count`` spatial modes, width ``n``."""

    n: int
    mode_count: int
    elements: tuple[Element, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        register_size(self.n)
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


def _check_vacant(amps: Amplitudes, slot: ModeOAM, role: str) -> None:
    vacant = abs(amps.get(slot, 0)) <= RESIDUE_TOL  # a numpy array for columns
    if not (vacant if isinstance(vacant, bool) else vacant.all()):
        raise ValidationError(f"{role} (mode {slot[0]}, OAM {slot[1]}) already occupied")


def _move(amps: Amplitudes, source: ModeOAM, target: ModeOAM) -> dict:
    # The move replaces the target's residue (at most RESIDUE_TOL) whether
    # the source is absent or, as in a column of a batched map, present at 0.
    out = dict(amps)
    out.pop(target, None)
    if source in out:
        out[target] = out.pop(source)
    return out


def _zeno_chain(amps: Amplitudes, spec: ExtractionSpec, theta: float) -> dict:
    """Exact output of the ``N``-stage chain with beamsplitter angle ``theta``.

    The chain is hologram ``-m`` on ``src``, ``N`` times a beamsplitter on
    ``(dst, src)`` and an OAM-0 filter on ``dst``, then hologram ``+m``.  It
    acts on each pair ``(a, b) = (amp(dst, j), amp(src, j + m))`` on its own.
    At ``j = 0`` the filter passes everything, so the stages compose to the
    rotation by ``N theta``.  At ``j != 0`` the first filter absorbs the
    ``dst`` part and each later stage scales the ``src`` part by
    ``cos theta``.
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
        else:
            out[(src, j + m)] = (-a * s + b * c) * decay
    return out


def _macro(amps: Amplitudes, gate: ExtractGate | ReintegrateGate) -> dict:
    """Extract moves ``(src, m)`` to ``(dst, 0)`` and reintegrate moves it
    back: ideally, or at a finite stage count through the exact Zeno chain,
    at angle ``+pi/2N`` to extract and ``-pi/2N`` to reintegrate."""
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


def step(amps: Amplitudes, el: Element) -> dict:
    """The amplitude map after element ``el``."""
    semantics = _SEMANTICS.get(type(el))
    if semantics is None:
        raise ValidationError(f"unknown element {el!r}")
    return semantics(amps, el)


def iter_steps(amps: Amplitudes, elements, norm_guard=checked_norm2):
    """Apply ``elements`` in order, yielding ``(element, map, norm2)`` after
    each, where ``norm2`` is what ``norm_guard`` returns for the new map:
    :func:`~oamcomp.state.checked_norm2` for one input, the column-wise check
    of :func:`oamcomp.compiler.basis_response` for a column map.  The guard
    raises on a fault, at the element that made it.  This is the one
    stepping loop; :func:`run_netlist`, the basis response and the Monte
    Carlo sampler read it."""
    for el in elements:
        amps = step(amps, el)
        yield el, amps, norm_guard(amps)


# ---------------------------------------------------------------------------
# The same semantics on one validated state: state in, new state out.


def apply_element(state: PhotonState, el: Element) -> PhotonState:
    """The state after element ``el``; a macro gate is applied as its class
    and ``stages`` say."""
    return PhotonState(n=state.n, amplitudes=step(state.amplitudes, el))


def apply_phase_shifter(state: PhotonState, mode: int, phi: float) -> PhotonState:
    """Multiply every amplitude in ``mode`` by ``exp(i * phi)``."""
    return apply_element(state, PhaseShifter(mode=mode, phi=phi))


def apply_beamsplitter(
    state: PhotonState, mode_a: int, mode_b: int, theta: float
) -> PhotonState:
    """Rotate the ``(mode_a, mode_b)`` amplitude pair at every OAM index."""
    return apply_element(state, BeamSplitter(mode_a=mode_a, mode_b=mode_b, theta=theta))


def apply_filter(state: PhotonState, mode: int, m: int) -> PhotonState:
    """Project ``mode`` onto OAM ``m``; everything else in that mode is absorbed."""
    return apply_element(state, Filter(mode=mode, m=m))


def apply_macro(state: PhotonState, gate: ExtractGate | ReintegrateGate) -> PhotonState:
    """The ideal move, or at a finite stage count the exact Zeno chain."""
    return apply_element(state, gate)


def check_state_fits(state: PhotonState, netlist: Netlist) -> None:
    """Reject a state whose width or occupied modes do not fit ``netlist``."""
    if state.n != netlist.n:
        raise ValidationError(
            f"state width {state.n} does not match netlist width {netlist.n}"
        )
    top = max(state.modes(), default=-1)
    if top >= netlist.mode_count:
        raise ValidationError(
            f"state occupies mode {top} outside the netlist's {netlist.mode_count} modes"
        )


def run_netlist(state: PhotonState, netlist: Netlist) -> PhotonState:
    """Apply all elements in order; the result may be sub-normalized."""
    check_state_fits(state, netlist)
    amps = state.amplitudes
    for _, amps, _ in iter_steps(amps, netlist.elements):
        pass
    return PhotonState(n=state.n, amplitudes=amps)


def check_reflection_parity(netlist: Netlist) -> list[int]:
    """The modes that hold an odd number of mirrors, sorted.  An odd count
    flips the OAM signs on that path, so an empty list means the netlist
    passes."""
    odd: set[int] = set()
    for el in netlist.elements:
        if isinstance(el, Mirror):
            odd ^= {el.mode}
    return sorted(odd)
