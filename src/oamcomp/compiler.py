"""Lowering of arbitrary unitaries to optical netlists.

A ``d x d`` unitary (``d = 2**n``) is factored into two-level unitaries by
column-wise Givens elimination in Reck's form: each factor is one
beamsplitter rotation followed by one phase shifter, and the leftover
diagonal phase of each level is folded into the first factor that touches
that level.  The pair of affected OAM levels is routed through extraction
gates into two auxiliary spatial modes where that 2x2 stage acts.  Three
spatial modes suffice for any circuit: one primary register mode plus two
reusable aux modes.

A level that two consecutive factors route through the same aux mode stays
there between them: the first factor does not reintegrate it and the second
does not extract it again, as each factor's hold flags say.  Each factor is
still lowered on its own, so a compiled netlist is the concatenation of its
factors' lowerings.  Ideally the dropped pair, a signed swap and its
inverse, is the identity, so an ideal netlist's map is bit for bit the same;
at a finite stage count each dropped pair is two lossy gates fewer.  Each
column's rows are eliminated in the order :func:`elimination_rows` gives, so
that every pair of consecutive factors of a Haar draw shares one level: the
draw lowers to ``d(d - 1) + 2`` gates, not ``2d(d - 1)``, the least that
extract and reintegrate pairs through two aux modes need without swaps.
"""

from __future__ import annotations

import math

from .errors import InternalError, ValidationError
from .elements import (
    IDEAL,
    BeamSplitter,
    Element,
    ExtractGate,
    ExtractionSpec,
    Netlist,
    PhaseShifter,
    ReintegrateGate,
    Stages,
)
from .state import Record, norm
# ``unitary_from_json`` and ``reconstruct_and_verify`` are re-exported:
# oambench/layers.py reads them here.
from .verification import (  # noqa: F401
    Matrix, _frobenius2, _square, _verify, reconstruct_and_verify, unitary_from_json,
)

UNITARITY_TOL = 1e-9
#: Residual above which an IDEAL-mode compile is treated as an internal bug.
IDEAL_RESIDUAL_GUARD = 1e-6


def qubit_count_for(d: int) -> int:
    n = d.bit_length() - 1
    if d < 2 or (1 << n) != d:
        raise ValidationError(f"dimension {d} is not a power of two >= 2")
    return n


class TwoLevelFactor(Record):
    """Two-level unitary on OAM levels ``m`` and ``n_idx``, held as its
    optical angles: it acts there as
    ``exp(i delta) * diag(exp(i phi_pre), 1) @ R(theta) @ diag(exp(i phi_post), 1)``
    with ``R(theta) = [[cos, sin], [-sin, cos]]`` (the beamsplitter rotation).
    It is unitary by construction; :func:`decompose_two_level` checks its
    input once.

    The hold flags say whether level ``m``, which the factor routes through
    aux mode ``aux_b``, and level ``n_idx``, routed through ``aux_c``, arrive
    there held by the previous factor (``*_held_in``) and stay there for the
    next one (``*_held_out``).  A factor's lowering assumes that its
    neighbours hold the levels its flags name; with every flag ``False``,
    the default, it stands alone."""

    m: int
    n_idx: int
    theta: float
    phi_pre: float
    phi_post: float
    delta: float
    m_held_in: bool = False
    m_held_out: bool = False
    n_held_in: bool = False
    n_held_out: bool = False

    def __post_init__(self) -> None:
        if self.m == self.n_idx or self.m < 0 or self.n_idx < 0:
            raise ValidationError(
                f"factor needs two distinct non-negative levels, got ({self.m}, {self.n_idx})"
            )


def elimination_rows(col: int, d: int) -> list[int]:
    """The rows whose entries in column ``col`` the elimination of a ``d x d``
    matrix nulls, in the order it nulls them.

    Any order gives the same product.  This one ends column ``c`` on row
    ``d - 1`` when ``d - 3 - c`` is even, else on row ``d - 2``, and starts
    column ``c + 1`` on that row; the rows in between run in ascending
    order.  Factors apply in reverse elimination order, so the last factor
    of column ``c + 1`` and the first of column ``c`` share that row as
    ``n_idx``, and it stays in ``aux_c`` between them.
    """
    def last(c: int) -> int:
        return d - 1 if (d - 3 - c) % 2 == 0 else d - 2

    head = [last(col - 1)] if col else []
    tail = [last(col)] if col < d - 2 else []
    ends = head + tail
    return head + [row for row in range(col + 1, d) if row not in ends] + tail


def decompose_two_level(U: Matrix) -> list[TwoLevelFactor]:
    """Factor ``U`` into two-level unitaries, listed in application order.

    The product ``F_k @ ... @ F_1`` of the embedded factors reconstructs
    ``U``; the first list entry is applied first.  Each entry below the
    diagonal is nulled by ``G = R(theta)^T diag(exp(-i phi), 1)``, so each
    factor ``G^dagger = diag(exp(i phi), 1) R(theta)`` is one beamsplitter
    (``theta``) and one phase (``phi_pre = phi``).  The residual diagonal
    acts first: the phases ``p`` and ``q`` of the two levels are folded into
    the first factor, in application order, that touches them, as
    ``G^dagger diag(exp(i p), exp(i q)) = exp(i q) G^dagger diag(exp(i (p -
    q)), 1)`` (``delta = q``, ``phi_post = p - q``), and a level that no
    factor touches keeps a phase-only factor ``diag(exp(i phi_pre), 1)``.
    A level that consecutive factors both name as ``m``, or both as
    ``n_idx``, is held in its aux mode between them: the earlier factor's
    ``*_held_out`` and the later one's ``*_held_in`` are set.  Column ``c``
    pivots on row ``c``, so its factors all share ``m = c``; its rows run in
    the order of :func:`elimination_rows`, so that a column's first factor
    in application order shares ``n_idx`` with the previous column's last.

    This is the compiler's one unitarity check.  A row whose squared norm is
    not within ``UNITARITY_TOL`` of 1 (NaN, inf, a huge entry) is refused
    before a rotation takes its ``abs``.  The rotations ``G`` are unitary, so
    ``||U^dagger U - I||_F <= 2r + r^2`` where ``r`` is the Frobenius distance
    of ``W = G U`` from a diagonal of unit phases; ``r`` above
    ``UNITARITY_TOL / 2`` is refused.
    """
    working = _square(U)
    for i, row in enumerate(working):
        norm2 = _frobenius2(row)
        if not abs(norm2 - 1.0) <= UNITARITY_TOL:
            raise ValidationError(f"matrix is not unitary: row {i} has squared norm {norm2:.3e}")
    d = len(working)
    eliminations: list[tuple[int, int, float, float]] = []
    for col in range(d - 1):
        top = working[col]
        for row in elimination_rows(col, d):
            low = working[row]
            b = low[col]
            if abs(b) <= 1e-14:
                continue
            a = top[col]
            r = norm((a, b))
            c, s = abs(a) / r, abs(b) / r
            e = -(b / abs(b)) * (a.conjugate() / abs(a)) if a else 1 + 0j  # exp(-i phi)
            ce, se = c * e, s * e
            # The rotation touches rows col and row; their entries left of
            # col are already eliminated, and it would keep their sum of
            # squares, all that the residual below reads of them.
            pairs = list(zip(top[col:], low[col:]))
            top[col:] = [ce * x - s * y for x, y in pairs]
            low[col:] = [se * x + c * y for x, y in pairs]
            # math.atan2(z.imag, z.real) is cmath.phase(z), bit for bit.
            phi = -math.atan2(e.imag, e.real)
            eliminations.append((col, row, math.atan2(abs(b), abs(a)), phi))

    # working is now diagonal (phases); U = G_1^† ... G_K^† D, applied D first.
    # Its distance from that includes the entries skipped above and must be
    # checked before a zero diagonal entry is divided by its magnitude.
    residual = math.sqrt(sum(_frobenius2(row[:i] + row[i + 1:]) + (abs(row[i]) - 1.0) ** 2
                             for i, row in enumerate(working)))
    if not residual <= UNITARITY_TOL / 2:
        raise ValidationError(f"matrix is not unitary: its elimination leaves residual "
                              f"{residual:.3e}, above {UNITARITY_TOL / 2:.1e}")
    pending: dict[int, float] = {}
    for level in range(d):
        phase = working[level][level]
        phase = phase / abs(phase)  # magnitude drift inherits U's unitarity slack
        if abs(phase - 1.0) > 1e-13:
            pending[level] = math.atan2(phase.imag, phase.real)
    folded = []  # (m, n_idx, theta, phi_pre, phi_post, delta) of each factor
    for col, row, theta, phi in reversed(eliminations):
        p, q = pending.pop(col, 0.0), pending.pop(row, 0.0)
        folded.append((col, row, theta, phi, p - q, q))
    angles = [(level, (level + 1) % d, 0.0, phi, 0.0, 0.0)
              for level, phi in pending.items()] + folded
    # Whether the two factors at each boundary share m, and n_idx; the
    # first and the last boundary have a factor on one side only.
    shared = [(False, False), *((a[0] == b[0], a[1] == b[1])
                                for a, b in zip(angles, angles[1:])), (False, False)]
    return [TwoLevelFactor(*a, m_held_in=into[0], n_held_in=into[1],
                           m_held_out=out[0], n_held_out=out[1])
            for a, into, out in zip(angles, shared, shared[1:])]


def lower_two_level(
    factor: TwoLevelFactor,
    mode_plan: tuple[int, int, int] = (0, 1, 2),
    spec_stages: Stages = IDEAL,
) -> list[Element]:
    """Element sequence realizing one factor via two extraction gates.

    The ``m`` and ``n_idx`` components are pulled into OAM 0 of the two aux
    modes, the 2x2 stage acts there with phase shifters and one
    beamsplitter, and both components are folded back into the source mode.
    The determinant phase ``delta`` is applied to both aux modes: in the
    full space it is a physical phase relative to the untouched components.
    On ``aux_b`` it merges with ``phi_pre`` into one phase shifter, as
    ``exp(i delta) diag(exp(i phi_pre), 1) = diag(exp(i (phi_pre + delta)),
    exp(i delta))``.  So a factor of :func:`decompose_two_level` lowers to
    one beamsplitter and one phase shifter, plus ``phi_post`` and the
    ``aux_c`` phase where level phases were folded into it.

    A level that the factor's flags name as held in is not extracted: the
    previous factor's lowering left it in its aux mode.  One held out is not
    reintegrated: the next factor's lowering takes it from there.  A factor
    with ``theta == 0`` and ``delta == 0`` is a phase on level ``m`` alone,
    so unless its flags hold ``n_idx``, that level is not routed at all.
    """
    src, aux_b, aux_c = mode_plan
    if len({src, aux_b, aux_c}) != 3:
        raise ValidationError("mode plan needs three distinct modes")
    n_idle = (factor.theta == 0.0 and factor.delta == 0.0
              and not factor.n_held_in and not factor.n_held_out)
    seq: list[Element] = []
    if not factor.m_held_in:
        seq.append(ExtractGate(m=factor.m, src=src, dst=aux_b, stages=spec_stages))
    if not (factor.n_held_in or n_idle):
        seq.append(ExtractGate(m=factor.n_idx, src=src, dst=aux_c, stages=spec_stages))
    if factor.phi_post != 0.0:
        seq.append(PhaseShifter(mode=aux_b, phi=factor.phi_post))
    if factor.theta != 0.0:
        seq.append(BeamSplitter(mode_a=aux_b, mode_b=aux_c, theta=factor.theta))
    if factor.phi_pre + factor.delta != 0.0:
        seq.append(PhaseShifter(mode=aux_b, phi=factor.phi_pre + factor.delta))
    if factor.delta != 0.0:
        seq.append(PhaseShifter(mode=aux_c, phi=factor.delta))
    if not (factor.n_held_out or n_idle):
        seq.append(ReintegrateGate(m=factor.n_idx, src=src, dst=aux_c, stages=spec_stages))
    if not factor.m_held_out:
        seq.append(ReintegrateGate(m=factor.m, src=src, dst=aux_b, stages=spec_stages))
    return seq


class CompileReport(Record):
    """``gate_count`` is the number of extraction and reintegration gates
    in the netlist: the only elements the compiler emits that absorb the
    photon at a finite stage count."""

    factor_count: int
    element_count: int
    gate_count: int
    analytic_survival: float
    min_survival: float
    verification_residual: float


def compile_unitary(
    U: Matrix, spec_stages: Stages = IDEAL
) -> tuple[Netlist, CompileReport]:
    """Full pipeline: decompose, lower each factor, verify, report.

    ``analytic_survival`` in the report is the exact survival probability of
    the basis state ``|0>`` in mode 0, and ``min_survival`` the least over
    the basis inputs of mode 0, both read off the verification pass (1.0 in
    IDEAL mode, which absorbs nothing); neither is an estimate.
    """
    n = qubit_count_for(len(U))
    factors = decompose_two_level(U)
    seq: list[Element] = []
    for factor in factors:
        seq.extend(lower_two_level(factor, (0, 1, 2), spec_stages))
    netlist = Netlist(n=n, mode_count=3, elements=tuple(seq))
    residual, survival = _verify(netlist, U)
    if spec_stages == IDEAL and not residual <= IDEAL_RESIDUAL_GUARD:
        raise InternalError(f"internal compile bug: ideal-mode residual {residual:.3e}")
    report = CompileReport(
        factor_count=len(factors),
        element_count=len(netlist),
        gate_count=sum(isinstance(el, ExtractionSpec) for el in seq),
        analytic_survival=1.0 if spec_stages == IDEAL else float(survival[0]),
        min_survival=1.0 if spec_stages == IDEAL else float(min(survival)),
        verification_residual=residual,
    )
    return netlist, report


def haar_random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    import numpy as np

    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases.conjugate()
