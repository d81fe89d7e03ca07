"""Optical element IR and exact netlist execution.

Five primitives (phase shifter, hologram, beamsplitter, OAM filter, mirror)
plus two macro gates (extract / reintegrate) that the compiler emits.  The
executor applies a macro gate as its Zeno chain's exact closed form, or as
that form's limit, a signed swap, when ideal; the chain of primitives is
built in :mod:`oamcomp.extraction`.  The executor, :class:`Rows`, runs one
input state, or many inputs at once as rows of amplitudes, rewrites only the
rows each element acts on, and guards every input's norm after every
element.  It is plain Python: this module does not import numpy.

Beamsplitter convention: the mode-pair amplitudes ``(a, b)`` at each OAM
index transform by the proper rotation ``[[cos t, sin t], [-sin t, cos t]]``,
so repeated application composes as a rotation by the summed angle.  Distinct
OAM indices never mix.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from itertools import repeat
from operator import add, mul, neg, sub, truediv

from .errors import ValidationError
from .state import (
    NORM_EPS, RESIDUE_TOL, Mode, ModeOAM, PhotonState, Record, _int_field, check_norm2,
    register_size, weights,
)

#: Marker for the lossless, infinite-stage limit of the extraction gate.
IDEAL = "ideal"

Stages = int | str  # positive int or IDEAL

#: Largest finite stage count: the gate's closed form takes ``N theta`` in
#: double precision, which holds every integer only up to ``2**53``.
MAX_STAGES = 2**53


class PhaseShifter(Record):
    mode: Mode
    phi: float


class Hologram(Record):
    mode: Mode
    k: int


class BeamSplitter(Record):
    mode_a: Mode
    mode_b: Mode
    theta: float

    def __post_init__(self) -> None:
        if self.mode_a == self.mode_b:
            raise ValidationError("beamsplitter requires two distinct modes")


class Filter(Record):
    """Absorbing projector: passes OAM index ``m`` in ``mode``, absorbs the rest."""

    mode: Mode
    m: int


class Mirror(Record):
    mode: Mode


class ExtractionSpec(Record):
    """Parameters of one extraction gate on the mode pair ``(src, dst)``.

    ``stages`` is a positive beamsplitter count, or :data:`IDEAL` for the
    lossless infinite-stage limit.
    """

    m: int
    src: Mode
    dst: Mode
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


class ExtractGate(ExtractionSpec):
    """Macro: move the OAM-``m`` component of ``src`` to OAM 0 of ``dst``."""


class ReintegrateGate(ExtractionSpec):
    """Macro: inverse of :class:`ExtractGate` on the same mode pair."""


Element = PhaseShifter | Hologram | BeamSplitter | Filter | Mirror | ExtractGate | ReintegrateGate


def is_lossy(el: Element) -> bool:
    """Whether ``el`` can absorb the photon: a filter, or a macro gate at a
    finite stage count, whose chain holds ``N`` filters."""
    return isinstance(el, Filter) or isinstance(el, ExtractionSpec) and el.stages != IDEAL


class Netlist(Record):
    """Ordered element program over ``mode_count`` spatial modes, width ``n``."""

    n: int
    mode_count: int
    elements: tuple[Element, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        register_size(self.n)
        if self.mode_count < 1:
            raise ValidationError(f"mode_count must be an integer >= 1, got {self.mode_count!r}")
        for el in self.elements:
            names = _MODE_FIELDS.get(type(el))
            if names is None:
                raise ValidationError(f"unknown element {el!r}")
            for name in names:
                mode = getattr(el, name)
                if mode >= self.mode_count:  # each element refuses a negative mode
                    raise ValidationError(f"element {el!r} references mode {mode!r}, "
                                          f"not an integer in [0, {self.mode_count})")

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
            n = _int_field("n", data["n"])
            modes = _int_field("modes", data["modes"])
            elements = [_element_from_json(entry) for entry in data["elements"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed netlist JSON: {exc}") from exc
        return cls(n=n, mode_count=modes, elements=tuple(elements))


#: Netlist JSON ``type`` tag of each element class; the other JSON keys are
#: the class's field names.
_ELEMENT_TYPES = {
    "ps": PhaseShifter, "holo": Hologram, "bs": BeamSplitter, "filter": Filter,
    "mirror": Mirror, "extract": ExtractGate, "reintegrate": ReintegrateGate,
}
_ELEMENT_TAGS = {cls: tag for tag, cls in _ELEMENT_TYPES.items()}
#: The fields annotated ``Mode`` of each element class, by exact type: a
#: netlist holds only these classes, and checks these fields against its modes.
_MODE_FIELDS = {cls: tuple(name for name, kind in cls._fields.items() if kind == "Mode")
                for cls in _ELEMENT_TYPES.values()}


def _element_to_json(el: Element) -> dict:
    return {"type": _ELEMENT_TAGS[type(el)], **el.asdict()}


def _element_from_json(entry: dict) -> Element:
    cls = _ELEMENT_TYPES.get(entry["type"])
    if cls is None:
        raise ValidationError(f"unknown element type {entry['type']!r}")
    if len(entry) > 1 + len(cls._fields):  # a key besides "type" and the fields
        raise ValueError(f"a {entry['type']!r} element has only the keys {['type', *cls._fields]}")
    return cls(**{name: entry[name] for name in cls._fields})


# ---------------------------------------------------------------------------
# Element semantics on rows.  ``Rows`` holds the amplitudes of ``k`` inputs
# at once: one input state is ``k = 1``, the compiler's basis response
# ``k = d``.  Every element is linear and acts on each input alike, so one
# pass computes all of them, and each element rewrites only its own rows.


class Rows:
    """Amplitudes of ``k`` inputs as rows ``(mode, l) -> [k complex]``.

    Input ``i``'s amplitude at ``(mode, l)`` is entry ``i`` of the row there
    times the mode's scale.  The scale carries the decay that a finite gate
    puts on every ``src`` row it does not mix, so those rows are not
    rewritten; it is folded into the rows before it can underflow.  Rows
    exist only where an input put amplitude, never per declared mode, and
    may hold exact zeros.

    Each row is stored once, as the pair ``(entries, weights)`` in
    ``rows[mode][l]``, both in stored units (before the scale).  ``norm2``
    is an upper bound on each input's squared norm: every row written adds
    its change of weight, and a decay, which only removes weight, leaves it
    as it is.  :meth:`check` makes it exact again.  Every change to the
    totals assigns a new list, never an edit in place, so a list that passed
    the norm guard holds until ``norm2`` is another object.
    """

    __slots__ = ("k", "rows", "scale", "norm2")

    #: A mode's scale is folded into its rows once it falls below this, so
    #: that a stored entry (amplitude over scale) stays far from overflow.
    RESCALE_BELOW = 1e-100

    def __init__(self, k: int, amplitudes: Mapping[ModeOAM, list[complex]]):
        self.k = k
        self.rows: dict[int, dict[int, tuple[list[complex], list[float]]]] = {}
        self.scale: dict[int, float] = {}
        for (mode, l), row in amplitudes.items():
            self.rows.setdefault(mode, {})[l] = row, None  # weighed by resync
            self.scale[mode] = 1.0
        self.resync()

    @classmethod
    def from_state(cls, state: PhotonState) -> "Rows":
        return cls(1, {key: [amp] for key, amp in state.amplitudes.items()})

    def column(self) -> dict[ModeOAM, complex]:
        """The first input's amplitude map (the only one when ``k = 1``)."""
        return {key: self.get(*key)[0] for key in self.keys()}

    def weight_in(self, mode: int, skip: int | None = None) -> float:
        """The first input's squared norm in ``mode``, leaving out the row
        at OAM ``skip``: its rows' weights times the mode's scale squared."""
        rows = self.rows.get(mode)
        if not rows:
            return 0.0
        scale = self.scale[mode]
        return sum(w[0] for l, (_, w) in rows.items() if l != skip) * (scale * scale)

    def keys(self) -> list[ModeOAM]:
        return [(mode, l) for mode, rows in self.rows.items() for l in rows]

    def levels(self, mode: int):
        """The OAM indices that hold a row in ``mode``."""
        return self.rows.get(mode, {}).keys()

    def occupied(self, mode: int, l: int) -> bool:
        """Whether some input holds more than rounding residue (at most
        ``RESIDUE_TOL``) in the row at ``(mode, l)``; a NaN counts as weight."""
        return not all(abs(z) <= RESIDUE_TOL for z in self.get(mode, l))

    def _account(self, mode: int, delta: list[float]) -> None:
        """Add ``delta``, a change of stored weight in ``mode``, to the totals."""
        scale = self.scale[mode]
        if scale != 1.0:
            delta = list(map(mul, delta, repeat(scale * scale)))
        self.norm2 = list(map(add, self.norm2, delta))

    def get(self, mode: int, l: int) -> list[complex] | None:
        """The amplitudes at ``(mode, l)``, or None where no row is."""
        rows = self.rows.get(mode)
        if rows is None or l not in rows:
            return None
        row, scale = rows[l][0], self.scale[mode]
        return row if scale == 1.0 else list(map(mul, row, repeat(scale)))

    def put(self, mode: int, l: int, row: list[complex]) -> None:
        """Set the amplitudes at ``(mode, l)`` to ``row``."""
        rows, scale = self.rows.setdefault(mode, {}), self.scale.setdefault(mode, 1.0)
        if scale != 1.0:
            row = list(map(truediv, row, repeat(scale)))
        new, old = weights(row), rows.get(l)  # |entry| <= 1 / RESCALE_BELOW: finite
        rows[l] = row, new
        self._account(mode, new if old is None else list(map(sub, new, old[1])))

    def pop(self, mode: int, l: int) -> list[complex] | None:
        """Remove the row at ``(mode, l)``, returning it as :meth:`get` does."""
        row = self.get(mode, l)
        if row is not None:
            self._account(mode, list(map(neg, self.rows[mode].pop(l)[1])))
        return row

    def swap(self, source: ModeOAM, target: ModeOAM) -> None:
        """Move the row at ``source`` to ``target``, and the one there, negated, to ``source``."""
        (src, l_src), (dst, l_dst) = source, target
        if l_dst in self.levels(dst) or self.scale.get(src, 1.0) != self.scale.get(dst, 1.0):
            row, back = self.pop(src, l_src), self.pop(dst, l_dst)
            if row is not None:
                self.put(dst, l_dst, row)
            if back is not None:
                self.put(src, l_src, list(map(neg, back)))
        elif l_src in self.levels(src):
            # A vacant target at one scale: the row moves with its weights, the totals stay.
            self.scale.setdefault(dst, 1.0)
            self.rows.setdefault(dst, {})[l_dst] = self.rows[src].pop(l_src)

    def relabel(self, mode: int, sign: int, shift: int) -> None:
        """Move every row of ``mode`` from ``l`` to ``sign * l + shift``."""
        if mode in self.rows:
            self.rows[mode] = {sign * l + shift: pair for l, pair in self.rows[mode].items()}

    def decay(self, mode: int, factor: float) -> None:
        """Scale every row of ``mode`` by ``factor``, through the mode's scale.

        A factor in ``[-1, 1]`` only removes weight, so ``norm2`` stays an
        upper bound.  Any other factor, NaN included, is a fault: it makes
        the totals NaN, so that the guard recomputes them.
        """
        if not abs(factor) <= 1.0:
            self.norm2 = [math.nan] * self.k
        if mode not in self.rows:
            return
        scale = self.scale[mode] = self.scale[mode] * factor
        if scale < self.RESCALE_BELOW:  # fold: the weights are recomputed, finite as in put
            rows, self.scale[mode] = self.rows[mode], 1.0
            for l, (row, _) in rows.items():
                row = list(map(mul, row, repeat(scale)))
                rows[l] = row, weights(row)

    def resync(self) -> None:
        """Recompute every row's weights, and so an exact ``norm2``, from its entries."""
        norm2 = [0.0] * self.k
        for mode, rows in self.rows.items():
            total = [0.0] * self.k
            for l, (row, _) in rows.items():
                rows[l] = row, weights(row)
                total = list(map(add, total, rows[l][1]))
            scale = self.scale[mode]
            norm2 = list(map(add, norm2, map(mul, total, repeat(scale * scale))))
        self.norm2 = norm2

    def check(self) -> None:
        """Recompute ``norm2`` and raise, as :func:`~oamcomp.state.check_norm2`
        does, if any input's exceeds ``1 + NORM_EPS`` or is NaN."""
        self.resync()
        worst = max(self.norm2)
        check_norm2(next((x for x in self.norm2 if x != x), worst))


def _phase_shift(rows: Rows, el: PhaseShifter) -> None:
    """Multiply every amplitude in ``el.mode`` by ``exp(i * phi)``."""
    # cmath.exp(1j * phi) bit for bit, as Python <= 3.13 computes it, without
    # cmath: there 1j * -0.0 has imaginary part +0.0, so sin takes -0.0 + 0.0.
    factor = complex(math.cos(el.phi), math.sin(el.phi + 0.0))
    for l in list(rows.levels(el.mode)):
        rows.put(el.mode, l, list(map(mul, rows.get(el.mode, l), repeat(factor))))


def _hologram(rows: Rows, el: Hologram) -> None:
    """Shift every OAM index in ``el.mode`` by ``k`` (bijective relabeling)."""
    rows.relabel(el.mode, 1, el.k)


def _beamsplitter(rows: Rows, el: BeamSplitter) -> None:
    """Rotate the ``(mode_a, mode_b)`` amplitude pair at every OAM index."""
    mode_a, mode_b = el.mode_a, el.mode_b
    c, s = math.cos(el.theta), math.sin(el.theta)
    absent = [0j] * rows.k
    for l in rows.levels(mode_a) | rows.levels(mode_b):
        a, b = rows.get(mode_a, l) or absent, rows.get(mode_b, l) or absent
        rows.put(mode_a, l, [x * c + y * s for x, y in zip(a, b)])
        rows.put(mode_b, l, [-x * s + y * c for x, y in zip(a, b)])


def _filter(rows: Rows, el: Filter) -> None:
    """Project ``el.mode`` onto OAM ``m``; everything else in that mode is absorbed."""
    for l in [l for l in rows.levels(el.mode) if l != el.m]:
        rows.pop(el.mode, l)


def _mirror(rows: Rows, el: Mirror) -> None:
    """Reflect OAM in ``el.mode``: amplitude at ``l`` moves to ``-l``."""
    rows.relabel(el.mode, -1, 0)


def _zeno_chain(rows: Rows, spec: ExtractionSpec, theta: float) -> None:
    """Exact output of the ``N``-stage chain with beamsplitter angle ``theta``.

    The chain is hologram ``-m`` on ``src``, ``N`` times a beamsplitter on
    ``(dst, src)`` and an OAM-0 filter on ``dst``, then hologram ``+m``.  It
    acts on each pair ``(a, b) = (amp(dst, j), amp(src, j + m))`` on its own.
    At ``j = 0`` the filter passes everything, so the stages compose to the
    rotation by ``N theta``.  At ``j != 0`` the first filter absorbs the
    ``dst`` part and each later stage scales the ``src`` part by
    ``cos theta``.  Where ``dst`` holds nothing at ``j``, that is the same
    factor on every such ``src`` row: the mode's scale takes it, and only
    the pairs that mix are rewritten.
    """
    src, dst, m, stages = spec.src, spec.dst, spec.m, spec.stages
    c, s = math.cos(theta), math.sin(theta)
    c_n, s_n = math.cos(stages * theta), math.sin(stages * theta)
    decay = c ** (stages - 1)
    pairs = {j: (rows.pop(dst, j), rows.pop(src, j + m)) for j in {0, *rows.levels(dst)}}
    rows.decay(src, c * decay)
    absent = [0j] * rows.k
    for j, (a, b) in pairs.items():
        if a is None and b is None:
            continue
        a, b = a or absent, b or absent
        if j == 0:
            rows.put(dst, j, [x * c_n + y * s_n for x, y in zip(a, b)])
            rows.put(src, j + m, [-x * s_n + y * c_n for x, y in zip(a, b)])
        else:
            rows.put(src, j + m, [(-x * s + y * c) * decay for x, y in zip(a, b)])


def component_survival(stages: Stages) -> float:
    """Survival probability of a non-extracted component, ``cos^{2N}(pi/2N)``."""
    if stages == IDEAL:
        return 1.0
    return math.cos(math.pi / (2 * stages)) ** (2 * stages)


def survival_lower_bound(stages: int) -> float:
    """First-order estimate ``1 - pi^2 / (4 N)`` of the survival probability."""
    return 1.0 - math.pi**2 / (4 * stages)


def _macro(rows: Rows, gate: ExtractGate | ReintegrateGate) -> None:
    """The Zeno chain at angle ``+pi/2N`` to extract and ``-pi/2N`` to
    reintegrate, in closed form, or ideally its ``N -> inf`` limit: the pair
    ``(amp(dst, 0), amp(src, m))`` turns a quarter turn, no ``src`` row decays,
    and ``dst`` is absorbed off OAM 0, which a lossless gate refuses above residue."""
    source, target, sign = (gate.src, gate.m), (gate.dst, 0), 1
    if isinstance(gate, ReintegrateGate):
        source, target, sign = target, source, -1
    if gate.stages != IDEAL:
        _zeno_chain(rows, gate, sign * gate.theta)
        return
    levels = rows.levels(gate.dst)  # a row off OAM 0 is rare: test for one cheaply
    absorbed = sorted(l for l in levels if l != 0) if len(levels) > (0 in levels) else ()
    for l in absorbed:  # every check before any change
        if rows.occupied(gate.dst, l):
            raise ValidationError(f"ideal gate would absorb (mode {gate.dst}, OAM {l})")
    for l in absorbed:  # residue, at most RESIDUE_TOL
        rows.pop(gate.dst, l)
    rows.swap(source, target)  # the quarter turn: a swap with one sign


_SEMANTICS = {
    PhaseShifter: _phase_shift, Hologram: _hologram, BeamSplitter: _beamsplitter,
    Filter: _filter, Mirror: _mirror, ExtractGate: _macro, ReintegrateGate: _macro,
}

_NORM_LIMIT = 1.0 + NORM_EPS


def iter_steps(rows: Rows, elements):
    """Apply ``elements`` to ``rows`` in place, yielding each element after
    it is applied.  This is the one stepping loop; :func:`run_netlist`, the
    basis response and the Monte Carlo sampler read it.

    The norm guard reads the totals ``rows.norm2``, upper bounds on each
    input's squared norm, so a fault that lifts a norm past ``1 + NORM_EPS``
    trips it at its element.  When one exceeds that or is NaN, it
    recomputes them from the rows and raises only if the recomputed value
    does too, so neither rounding nor an absorbed loss in the totals trips
    it; at the end it recomputes them and checks once more, leaving
    ``rows.norm2`` exact.  It skips totals that passed and no element replaced.
    """
    passed = None
    for el in elements:
        semantics = _SEMANTICS.get(type(el))
        if semantics is None:
            raise ValidationError(f"unknown element {el!r}")
        semantics(rows, el)
        if rows.norm2 is not passed:
            total = sum(rows.norm2)  # NaN if any total is
            if not (max(rows.norm2) <= _NORM_LIMIT and total == total):
                rows.check()
            passed = rows.norm2
        yield el
    rows.check()


# ---------------------------------------------------------------------------
# The same semantics on one validated state: state in, new state out.


def apply_element(state: PhotonState, el: Element) -> PhotonState:
    """The state after element ``el``; a macro gate is applied as its class
    and ``stages`` say."""
    return _run(state, (el,))


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


def _run(state: PhotonState, elements) -> PhotonState:
    rows = Rows.from_state(state)
    for _ in iter_steps(rows, elements):
        pass
    return PhotonState(n=state.n, amplitudes=rows.column())


def run_netlist(state: PhotonState, netlist: Netlist) -> PhotonState:
    """Apply all elements in order; the result may be sub-normalized."""
    check_state_fits(state, netlist)
    return _run(state, netlist.elements)
