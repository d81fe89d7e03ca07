"""Verification of a netlist against a target unitary.

The netlist runs once on all ``d`` computational basis inputs of mode 0, and
the map it applies is compared with the target in Frobenius norm.  The
compiler's residual guard reads the same pass.  This module imports only
``errors``, ``state`` and ``elements``: ``oamc verify`` loads it and not the
compiler, whose elimination and lowering verification never runs.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence

from .errors import LeakageError, ValidationError
from .elements import Netlist, Rows, is_lossy, iter_steps
from .state import _int_field, _real_field, norm

#: A ``d x d`` matrix: any sequence of ``d`` rows of ``d`` complex numbers,
#: such as nested lists or a numpy array.
Matrix = Sequence[Sequence[complex]]


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


def unitary_from_json(data: dict) -> list[list[complex]]:
    try:
        d = _int_field("d", data["d"])
        matrix = [[complex(_real_field("entry", re), _real_field("entry", im)) for re, im in row]
                  for row in data["rows"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed unitary JSON: {exc}") from exc
    if len(matrix) != d or any(len(row) != d for row in matrix):
        lengths = sorted({len(row) for row in matrix})
        raise ValidationError(
            f"declared dimension {d} does not match {len(matrix)} rows of length {lengths}"
        )
    return matrix


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
    for _ in iter_steps(rows, netlist.elements):
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
