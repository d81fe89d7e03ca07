"""Lowering of arbitrary unitaries to optical netlists.

A ``d x d`` unitary (``d = 2**n``) is factored into two-level unitaries by
column-wise Givens elimination, each factor is expressed as pre/post phase
shifters around a single beamsplitter rotation, and the pair of affected OAM
levels is routed through extraction gates into two auxiliary spatial modes
where that 2x2 stage acts.  Three spatial modes suffice for any circuit: one
primary register mode plus two reusable aux modes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalError, LeakageError, ValidationError
from .elements import (
    IDEAL,
    BeamSplitter,
    Element,
    ExtractGate,
    Netlist,
    PhaseShifter,
    ReintegrateGate,
    Stages,
    is_lossy,
)
from .state import NORM_EPS, RESIDUE_TOL, _json_int, _json_real
from . import elements as _elements

UNITARITY_TOL = 1e-9
FACTOR_TOL = 1e-10
#: Residual above which an IDEAL-mode compile is treated as an internal bug.
IDEAL_RESIDUAL_GUARD = 1e-6


def unitarity_residual(matrix: np.ndarray) -> float:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {matrix.shape}")
    d = matrix.shape[0]
    # A huge entry makes the residual inf or NaN, which every check rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(matrix.conj().T @ matrix - np.eye(d)))


def check_unitary(matrix: np.ndarray, tol: float = UNITARITY_TOL) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    residual = unitarity_residual(matrix)
    if not residual <= tol:
        raise ValidationError(
            f"matrix is not unitary: residual {residual:.3e} exceeds {tol:.1e}"
        )
    return matrix


def qubit_count_for(d: int) -> int:
    n = d.bit_length() - 1
    if d < 2 or (1 << n) != d:
        raise ValidationError(f"dimension {d} is not a power of two >= 2")
    return n


def unitary_from_json(data: dict) -> np.ndarray:
    try:
        d = _json_int(data["d"])
        rows = data["rows"]
        matrix = np.array(
            [[complex(_json_real(re), _json_real(im)) for re, im in row] for row in rows],
            dtype=complex,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed unitary JSON: {exc}") from exc
    if not np.isfinite(matrix).all():
        raise ValidationError("unitary JSON holds a non-finite entry")
    if matrix.shape != (d, d):
        raise ValidationError(
            f"declared dimension {d} does not match a {matrix.shape} entry grid"
        )
    return matrix


def unitary_to_json(matrix: np.ndarray) -> dict:
    matrix = np.asarray(matrix, dtype=complex)
    return {
        "d": matrix.shape[0],
        "rows": [[[z.real, z.imag] for z in row] for row in matrix],
    }


@dataclass(frozen=True, eq=False)
class TwoLevelFactor:
    """2x2 unitary acting on OAM levels ``m`` and ``n_idx`` only."""

    m: int
    n_idx: int
    u2: np.ndarray

    def __post_init__(self) -> None:
        if self.m == self.n_idx or self.m < 0 or self.n_idx < 0:
            raise ValidationError(
                f"factor needs two distinct non-negative levels, got ({self.m}, {self.n_idx})"
            )
        u2 = np.asarray(self.u2, dtype=complex)
        if u2.shape != (2, 2):
            raise ValidationError(f"factor matrix must be 2x2, got {u2.shape}")
        if not unitarity_residual(u2) <= FACTOR_TOL:
            raise ValidationError("factor matrix is not unitary")
        object.__setattr__(self, "u2", u2)


@dataclass(frozen=True)
class U2Params:
    """Phases and rotation angle realizing a 2x2 unitary optically.

    Reconstruction:
    ``exp(i delta) * diag(exp(i phi_pre), 1) @ R(theta) @ diag(exp(i phi_post), 1)``
    with ``R(theta) = [[cos, sin], [-sin, cos]]`` (the beamsplitter rotation).
    """

    theta: float
    phi_pre: float
    phi_post: float
    delta: float


def u2_to_optics(u2: np.ndarray) -> U2Params:
    """Solve the four optical parameters for an arbitrary 2x2 unitary."""
    u2 = check_unitary(u2, tol=FACTOR_TOL)
    u_mm, u_mn = u2[0, 0], u2[0, 1]
    u_nm, u_nn = u2[1, 0], u2[1, 1]
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


def decompose_two_level(U: np.ndarray) -> list[TwoLevelFactor]:
    """Factor ``U`` into two-level unitaries, listed in application order.

    The product ``F_k @ ... @ F_1`` of the embedded factors reconstructs
    ``U``; the first list entry is applied first.  Residual diagonal phases
    come out as degenerate ``diag(exp(i phi), 1)`` factors.
    """
    U = check_unitary(U)
    d = U.shape[0]
    working = U.copy()
    eliminations: list[tuple[int, int, np.ndarray]] = []
    for col in range(d - 1):
        for row in range(col + 1, d):
            b = working[row, col]
            if abs(b) <= 1e-14:
                continue
            a = working[col, col]
            r = math.hypot(abs(a), abs(b))
            g2 = np.array(
                [[a.conjugate() / r, b.conjugate() / r], [b / r, -a / r]],
                dtype=complex,
            )
            pair = [col, row]  # the only rows the rotation touches
            working[pair] = g2 @ working[pair]
            eliminations.append((col, row, g2))

    factors: list[TwoLevelFactor] = []
    # working is now diagonal (phases); U = G_1^† ... G_K^† D, applied D first.
    for level in range(d):
        phase = working[level, level]
        phase = phase / abs(phase)  # magnitude drift inherits U's unitarity slack
        if abs(phase - 1.0) > 1e-13:
            partner = (level + 1) % d
            factors.append(
                TwoLevelFactor(
                    m=level, n_idx=partner, u2=np.diag([phase, 1.0]).astype(complex)
                )
            )
    for col, row, g2 in reversed(eliminations):
        factors.append(TwoLevelFactor(m=col, n_idx=row, u2=g2.conj().T))
    return factors


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
    """
    src, aux_b, aux_c = mode_plan
    if len({src, aux_b, aux_c}) != 3:
        raise ValidationError("mode plan needs three distinct modes")
    params = u2_to_optics(factor.u2)
    seq: list[Element] = [
        ExtractGate(m=factor.m, src=src, dst=aux_b, stages=spec_stages),
        ExtractGate(m=factor.n_idx, src=src, dst=aux_c, stages=spec_stages),
    ]
    if params.phi_post != 0.0:
        seq.append(PhaseShifter(mode=aux_b, phi=params.phi_post))
    if params.theta != 0.0:
        seq.append(BeamSplitter(mode_a=aux_b, mode_b=aux_c, theta=params.theta))
    if params.phi_pre != 0.0:
        seq.append(PhaseShifter(mode=aux_b, phi=params.phi_pre))
    if params.delta != 0.0:
        seq.append(PhaseShifter(mode=aux_b, phi=params.delta))
        seq.append(PhaseShifter(mode=aux_c, phi=params.delta))
    seq.append(ReintegrateGate(m=factor.n_idx, src=src, dst=aux_c, stages=spec_stages))
    seq.append(ReintegrateGate(m=factor.m, src=src, dst=aux_b, stages=spec_stages))
    return seq


@dataclass(frozen=True)
class CompileReport:
    factor_count: int
    element_count: int
    analytic_survival: float
    verification_residual: float


def _column_norms(amps) -> np.ndarray:
    """Squared norm of every column of a column map; the batched counterpart
    of :func:`oamcomp.state.checked_norm2`, failing on a NaN as it does."""
    rows = np.array(list(amps.values()))
    norm2 = (rows.real ** 2 + rows.imag ** 2).sum(axis=0)
    if not (norm2 <= 1.0 + NORM_EPS).all():
        raise ValidationError(f"squared norm {np.max(norm2)} exceeds 1 + eps")
    return norm2


def basis_response(netlist: Netlist) -> tuple[np.ndarray, np.ndarray]:
    """The ``d x d`` map the netlist applies to the computational basis of
    mode 0, and each basis input's survival probability over all modes.

    All ``d`` basis inputs go through the netlist in one pass, as the columns
    of one amplitude map; the survival is the norm guard's last value (all
    ones for an empty netlist).  Lossless netlists are checked for leakage
    outside the computational subspace of mode 0; the columns of lossy
    (finite-stage) netlists are renormalized to their conditional states.
    """
    d = 1 << netlist.n
    basis = np.eye(d, dtype=complex)
    out, survival = {(0, l): basis[l] for l in range(d)}, np.ones(d)
    for _, out, survival in _elements.iter_steps(out, netlist.elements, _column_norms):
        pass
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
    norms = np.linalg.norm(effective, axis=0)
    absorbed = np.flatnonzero(norms == 0.0)
    if absorbed.size:
        raise ValidationError(f"basis input {absorbed[0]} was fully absorbed")
    return effective / norms, survival


def _verify(netlist: Netlist, U: np.ndarray) -> tuple[float, np.ndarray]:
    """The residual of :func:`reconstruct_and_verify` and the survival of
    :func:`basis_response`, from its one pass."""
    U = np.asarray(U, dtype=complex)
    d = U.shape[0]
    if d != 1 << netlist.n:
        raise ValidationError(
            f"unitary dimension {d} does not match netlist width {netlist.n}"
        )
    effective, survival = basis_response(netlist)
    with np.errstate(over="ignore"):  # a huge entry of ``U`` gives inf, refused on output
        return float(np.linalg.norm(effective - U)), survival


def reconstruct_and_verify(netlist: Netlist, U: np.ndarray) -> float:
    """Frobenius distance between the netlist's :func:`basis_response` and ``U``."""
    return _verify(netlist, U)[0]


def compile_unitary(
    U: np.ndarray, spec_stages: Stages = IDEAL
) -> tuple[Netlist, CompileReport]:
    """Full pipeline: decompose, lower each factor, verify, report.

    ``analytic_survival`` in the report is the exact survival probability of
    the basis state ``|0>`` in mode 0, read off the verification pass (1.0 in
    IDEAL mode, which absorbs nothing); it is not an estimate.
    """
    U = check_unitary(U)
    n = qubit_count_for(U.shape[0])
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
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases.conjugate()
