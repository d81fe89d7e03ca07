"""Lowering of arbitrary unitaries to optical netlists.

A ``d x d`` unitary (``d = 2**n``) is factored into two-level unitaries by
column-wise Givens elimination in Reck's form: each factor is one
beamsplitter rotation followed by one phase shifter, and the leftover
diagonal phase of each level is folded into the first factor that touches
that level.  The pair of affected OAM levels is routed through extraction
gates into two auxiliary spatial modes where that 2x2 stage acts.  Three
spatial modes suffice for any circuit: one primary register mode plus two
reusable aux modes.
"""

from __future__ import annotations

import cmath
import math
import sys
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .errors import InternalError, LeakageError, ValidationError
from .elements import (
    IDEAL,
    BeamSplitter,
    Element,
    ExtractGate,
    Netlist,
    PhaseShifter,
    ReintegrateGate,
    Rows,
    Stages,
    is_lossy,
)
from .state import Record, _json_int, _json_real, norm
from . import elements as _elements

if TYPE_CHECKING:
    import numpy as np

#: A ``d x d`` matrix: any sequence of ``d`` rows of ``d`` complex numbers,
#: such as nested lists or a numpy array.
Matrix = Sequence[Sequence[complex]]

UNITARITY_TOL = 1e-9
FACTOR_TOL = 1e-10
#: Residual above which an IDEAL-mode compile is treated as an internal bug.
IDEAL_RESIDUAL_GUARD = 1e-6


def _square(matrix: Matrix) -> list[list[complex]]:
    """``matrix`` as a new list of rows of ``complex``; raises unless it is
    square."""
    try:
        rows = [[complex(z) for z in row] for row in matrix]
    except TypeError as exc:
        raise ValidationError(f"expected a square matrix: {exc}") from exc
    lengths = sorted({len(row) for row in rows})
    if lengths and lengths != [len(rows)]:
        raise ValidationError(
            f"expected a square matrix, got {len(rows)} rows of length {lengths}")
    return rows


def _frobenius2(entries) -> float:
    """Squared Frobenius norm of the complex ``entries``; a huge entry gives
    inf, as ``re * re`` overflows to inf where ``abs`` would raise."""
    return sum(z.real * z.real + z.imag * z.imag for z in entries)


def check_unitary(matrix: Matrix, tol: float = UNITARITY_TOL) -> list[list[complex]]:
    """``matrix`` as a list of rows of ``complex``; raises unless it is
    unitary within ``tol``: the Frobenius norm of ``U^dagger U - I``, summed
    from the upper triangle of the Hermitian product."""
    rows = _square(matrix)
    columns = list(zip(*rows))
    total = 0.0
    for i, column in enumerate(columns):
        conj = [z.conjugate() for z in column]
        gram = [sum(map(mul, conj, other)) for other in columns[i:]]
        gram[0] -= 1.0
        total += 2.0 * _frobenius2(gram) - _frobenius2(gram[:1])
    residual = math.sqrt(total)
    if not residual <= tol:
        raise ValidationError(
            f"matrix is not unitary: residual {residual:.3e} exceeds {tol:.1e}"
        )
    return rows


def qubit_count_for(d: int) -> int:
    n = d.bit_length() - 1
    if d < 2 or (1 << n) != d:
        raise ValidationError(f"dimension {d} is not a power of two >= 2")
    return n


def unitary_from_json(data: dict) -> list[list[complex]]:
    try:
        d = _json_int(data["d"])
        matrix = [[complex(_json_real(re), _json_real(im)) for re, im in row]
                  for row in data["rows"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed unitary JSON: {exc}") from exc
    if not all(map(cmath.isfinite, (z for row in matrix for z in row))):
        raise ValidationError("unitary JSON holds a non-finite entry")
    if len(matrix) != d or any(len(row) != d for row in matrix):
        lengths = sorted({len(row) for row in matrix})
        raise ValidationError(
            f"declared dimension {d} does not match {len(matrix)} rows of length {lengths}"
        )
    return matrix


class TwoLevelFactor(Record):
    """2x2 unitary acting on OAM levels ``m`` and ``n_idx`` only; ``u2`` is
    stored as a tuple of two rows, each a tuple of two ``complex``."""

    m: int
    n_idx: int
    u2: Matrix

    __eq__, __hash__ = object.__eq__, object.__hash__  # by identity

    def __post_init__(self) -> None:
        if self.m == self.n_idx or self.m < 0 or self.n_idx < 0:
            raise ValidationError(
                f"factor needs two distinct non-negative levels, got ({self.m}, {self.n_idx})"
            )
        u2 = check_unitary(self.u2, FACTOR_TOL)
        if len(u2) != 2:
            raise ValidationError(f"factor matrix must be 2x2, got {len(u2)}x{len(u2)}")
        object.__setattr__(self, "u2", tuple(map(tuple, u2)))


class U2Params(Record):
    """Phases and rotation angle realizing a 2x2 unitary optically.

    Reconstruction:
    ``exp(i delta) * diag(exp(i phi_pre), 1) @ R(theta) @ diag(exp(i phi_post), 1)``
    with ``R(theta) = [[cos, sin], [-sin, cos]]`` (the beamsplitter rotation).
    """

    theta: float
    phi_pre: float
    phi_post: float
    delta: float


def u2_to_optics(u2: Matrix) -> U2Params:
    """Solve the four optical parameters for an arbitrary 2x2 unitary."""
    return _optics(check_unitary(u2, tol=FACTOR_TOL))


def _optics(u2) -> U2Params:
    """:func:`u2_to_optics` of ``u2``, two rows of two ``complex`` already
    checked unitary."""
    (u_mm, u_mn), (u_nm, u_nn) = u2
    if abs(u_mn) == 0.0:
        # Diagonal: no beamsplitter needed.
        delta = cmath.phase(u_nn)
        return U2Params(
            theta=0.0,
            phi_pre=cmath.phase(u_mm) - delta,
            phi_post=0.0,
            delta=delta,
        )
    if abs(u_mm) == 0.0:
        # Anti-diagonal: full transfer; phi_pre fixed to 0 by convention.
        delta = cmath.phase(u_mn)
        return U2Params(
            theta=math.pi / 2,
            phi_pre=0.0,
            phi_post=cmath.phase(-u_nm) - delta,
            delta=delta,
        )
    theta = math.atan2(abs(u_mn), abs(u_mm))
    delta = cmath.phase(u_nn)
    return U2Params(
        theta=theta,
        phi_pre=cmath.phase(u_mn) - delta,
        phi_post=cmath.phase(-u_nm) - delta,
        delta=delta,
    )


def decompose_two_level(U: Matrix) -> list[TwoLevelFactor]:
    """Factor ``U`` into two-level unitaries, listed in application order.

    The product ``F_k @ ... @ F_1`` of the embedded factors reconstructs
    ``U``; the first list entry is applied first.  Each entry below the
    diagonal is nulled by ``G = R(theta)^T diag(exp(-i phi), 1)``, so each
    factor ``G^dagger = diag(exp(i phi), 1) R(theta)`` is one beamsplitter
    and one phase.  The residual diagonal acts first: each level's phase is
    folded into the first factor, in application order, that touches the
    level, and a level that no factor touches keeps a degenerate
    ``diag(exp(i phi), 1)`` factor.  Raises unless ``U`` is unitary.
    """
    working = check_unitary(U)
    d = len(working)
    eliminations: list[tuple[int, int, float, float, complex]] = []
    for col in range(d - 1):
        top = working[col]
        for row in range(col + 1, d):
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
            # col are already eliminated, and no later step reads them.
            pairs = list(zip(top[col:], low[col:]))
            top[col:] = [ce * x - s * y for x, y in pairs]
            low[col:] = [se * x + c * y for x, y in pairs]
            eliminations.append((col, row, c, s, e))

    # working is now diagonal (phases); U = G_1^† ... G_K^† D, applied D first.
    pending: dict[int, complex] = {}
    for level in range(d):
        phase = working[level][level]
        phase = phase / abs(phase)  # magnitude drift inherits U's unitarity slack
        if abs(phase - 1.0) > 1e-13:
            pending[level] = phase
    folded: list[TwoLevelFactor] = []
    for col, row, c, s, e in reversed(eliminations):
        p, q = pending.pop(col, 1.0), pending.pop(row, 1.0)
        ei = e.conjugate()  # exp(i phi)
        u2 = ((c * ei * p, s * ei * q), (-s * p, c * q))  # G^† diag(p, q)
        folded.append(TwoLevelFactor(m=col, n_idx=row, u2=u2))
    return [TwoLevelFactor(m=level, n_idx=(level + 1) % d, u2=((phase, 0j), (0j, 1 + 0j)))
            for level, phase in pending.items()] + folded


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
    """
    src, aux_b, aux_c = mode_plan
    if len({src, aux_b, aux_c}) != 3:
        raise ValidationError("mode plan needs three distinct modes")
    params = _optics(factor.u2)  # checked unitary when the factor was built
    seq: list[Element] = [
        ExtractGate(m=factor.m, src=src, dst=aux_b, stages=spec_stages),
        ExtractGate(m=factor.n_idx, src=src, dst=aux_c, stages=spec_stages),
    ]
    if params.phi_post != 0.0:
        seq.append(PhaseShifter(mode=aux_b, phi=params.phi_post))
    if params.theta != 0.0:
        seq.append(BeamSplitter(mode_a=aux_b, mode_b=aux_c, theta=params.theta))
    if params.phi_pre + params.delta != 0.0:
        seq.append(PhaseShifter(mode=aux_b, phi=params.phi_pre + params.delta))
    if params.delta != 0.0:
        seq.append(PhaseShifter(mode=aux_c, phi=params.delta))
    seq.append(ReintegrateGate(m=factor.n_idx, src=src, dst=aux_c, stages=spec_stages))
    seq.append(ReintegrateGate(m=factor.m, src=src, dst=aux_b, stages=spec_stages))
    return seq


class CompileReport(Record):
    factor_count: int
    element_count: int
    analytic_survival: float
    verification_residual: float


def basis_response(netlist: Netlist) -> tuple[list[list[complex]], list[float]]:
    """The ``d x d`` map the netlist applies to the computational basis of
    mode 0, as a list of rows, and each basis input's survival probability
    over all modes.

    All ``d`` basis inputs go through the netlist in one pass, as ``d``
    entries of each row of one :class:`~oamcomp.elements.Rows`; the survival
    is its norm guard's last value (all ones for an empty netlist).
    Lossless netlists are checked for leakage outside the computational
    subspace of mode 0; the columns of lossy (finite-stage) netlists are
    renormalized to their conditional states, if above the smallest normal double.
    """
    d = 1 << netlist.n
    rows = Rows(d, {(0, l): [1 + 0j if i == l else 0j for i in range(d)] for l in range(d)})
    for _ in _elements.iter_steps(rows, netlist.elements):
        pass
    effective = [rows.get(0, l) or [0j] * d for l in range(d)]
    if not any(map(is_lossy, netlist.elements)):
        offenders = sorted((mode, l) for mode, l in rows.keys()
                           if (mode != 0 or not 0 <= l < d) and rows.occupied(mode, l))
        if offenders:
            raise LeakageError(offenders)
        return effective, rows.norm2
    norms = [norm(column) for column in zip(*effective)]
    tiny = [r < sys.float_info.min for r in norms]  # too few bits left to renormalize
    if any(tiny):
        raise ValidationError(f"basis input {tiny.index(True)} was fully absorbed")
    return [[z / r for z, r in zip(row, norms)] for row in effective], rows.norm2


def _verify(netlist: Netlist, U: Matrix) -> tuple[float, list[float]]:
    """The residual of :func:`reconstruct_and_verify` and the survival of
    :func:`basis_response`, from its one pass."""
    U = _square(U)
    if len(U) != 1 << netlist.n:
        raise ValidationError(
            f"unitary dimension {len(U)} does not match netlist width {netlist.n}"
        )
    effective, survival = basis_response(netlist)
    # A huge entry of ``U`` gives inf, refused on output.
    residual2 = _frobenius2(e - u for got, want in zip(effective, U) for e, u in zip(got, want))
    return math.sqrt(residual2), survival


def reconstruct_and_verify(netlist: Netlist, U: Matrix) -> float:
    """Frobenius distance between the netlist's :func:`basis_response` and ``U``."""
    return _verify(netlist, U)[0]


def compile_unitary(
    U: Matrix, spec_stages: Stages = IDEAL
) -> tuple[Netlist, CompileReport]:
    """Full pipeline: decompose, lower each factor, verify, report.

    ``analytic_survival`` in the report is the exact survival probability of
    the basis state ``|0>`` in mode 0, read off the verification pass (1.0 in
    IDEAL mode, which absorbs nothing); it is not an estimate.
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
        analytic_survival=1.0 if spec_stages == IDEAL else float(survival[0]),
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
