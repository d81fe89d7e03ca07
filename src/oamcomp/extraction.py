"""Extraction gate as its chain of primitives, and absorption sampling.

The gate moves the OAM-``m`` component of a superposition in one spatial mode
into OAM 0 of another mode.  Physically it is realized by a chain of ``N``
weak beamsplitters at angle ``pi / (2 N)`` interleaved with OAM-0 filters:
the targeted component rotates losslessly into the destination mode (the
beamsplitter is a rotation, so the chain composes to a quarter turn), while
every other component is repeatedly clipped by the filters and survives with
probability ``cos(pi / (2 N)) ** (2 N)``, which tends to 1 as ``N`` grows.

The gate is the netlist element ``ExtractGate`` or ``ReintegrateGate`` of
:mod:`oamcomp.elements`, which holds its semantics, ideal and in the chain's
exact closed form, and its survival formulas.  This module keeps what the
tests and ``oambench/layers.py`` read: :func:`expand_netlist`, whose chain of
primitives the tests hold the closed form to, and the Monte Carlo sampler.
No ``oamc`` command loads it.
"""

from __future__ import annotations

import bisect
import math
from random import Random

# ``apply_element`` is re-exported as ``apply_macro``: oambench/layers.py reads it here.
from .elements import (  # noqa: F401
    BeamSplitter, Element, ExtractGate, Filter, Hologram, Netlist, ReintegrateGate, Rows,
    apply_element as apply_macro, check_state_fits, is_lossy, iter_steps,
)
from .state import PhotonState, Record, normalized, survival_probability


def _chain_elements(gate: ExtractGate | ReintegrateGate) -> list[Element]:
    """The gate's finite chain, at angle ``pi/2N`` to extract and ``-pi/2N``
    to reintegrate."""
    theta = gate.theta if isinstance(gate, ExtractGate) else -gate.theta
    # Beamsplitter argument order (dst first) fixes the sign so that the
    # extracted amplitude arrives at (dst, 0) with factor +1.
    stage = [BeamSplitter(mode_a=gate.dst, mode_b=gate.src, theta=theta),
             Filter(mode=gate.dst, m=0)]
    return [Hologram(mode=gate.src, k=-gate.m), *stage * gate.stages,
            Hologram(mode=gate.src, k=gate.m)]


def expand_netlist(netlist: Netlist) -> Netlist:
    """Replace every finite-stage macro gate by its primitive chain.  An
    ideal gate is lossless and stays one element."""
    elements: list[Element] = []
    for el in netlist.elements:
        if is_lossy(el) and not isinstance(el, Filter):
            elements.extend(_chain_elements(el))
        else:
            elements.append(el)
    return Netlist(n=netlist.n, mode_count=netlist.mode_count, elements=tuple(elements))


class MonteCarloResult(Record):
    success: bool
    state: PhotonState | None
    absorbed_at: int | None  # element index of the absorbing filter, if any


def monte_carlo_run(
    state: PhotonState, netlist: Netlist, rng: Random
) -> MonteCarloResult:
    """Sample one physical run: the photon is absorbed at one filter or passes all.

    One uniform draw ``u`` in ``[0, |psi|^2)`` picks the first filter of
    :func:`expand_netlist`'s netlist after which the survival probability is
    at most ``u``, so filter ``k`` absorbs with probability ``(|psi_{k-1}|^2
    - |psi_k|^2) / |psi|^2``, and a run that passes returns the normalized
    conditional state.  An input whose squared norm is 0 (or underflows to
    0) draws ``u = 0``: the first filter absorbs it, and a netlist with none
    passes it as it is.

    The survivals come off one pass of :func:`run_netlist`'s stepping loop,
    summed from the engine's row weights at each lossy element.  Only
    ``rng.random()`` is called: ``rng`` is a ``random.Random`` or a
    ``numpy.random.Generator``.
    Inside a finite gate (hologram, ``N`` times beamsplitter and filter,
    hologram) only the ``l != m`` components of ``src`` lose weight, by
    ``cos^2 theta`` per filter after the first, and they hold all of their
    remaining weight at the gate's output.  So the output fixes the survival
    after each of the gate's filters, and a bisection finds the absorbing one.
    """
    check_state_fits(state, netlist)
    u = rng.random() * survival_probability(state)
    absorbed_at, index, rows = None, 0, Rows.from_state(state)
    # Run on after an absorption, so that a later fault raises as in run_netlist.
    for el in iter_steps(rows, netlist.elements):
        gate = is_lossy(el) and not isinstance(el, Filter)
        if absorbed_at is None and is_lossy(el):
            norm2 = sum(map(rows.weight_in, rows.rows))
            first, count, leak, cos = index, 1, 0.0, 1.0
            if gate:
                leak = rows.weight_in(el.src, skip=el.m)
                first, count, cos = index + 2, el.stages, math.cos(el.theta)

            def absorbs(j: int) -> bool:
                return (norm2 - leak) + leak * cos ** (2 * (j + 1 - count)) <= u

            if absorbs(count - 1):
                absorbed_at = first + 2 * bisect.bisect_left(range(count), True, key=absorbs)
        index += 2 * el.stages + 2 if gate else 1
    final = PhotonState(n=state.n, amplitudes=rows.column())
    if absorbed_at is not None:
        return MonteCarloResult(success=False, state=None, absorbed_at=absorbed_at)
    passed = normalized(final) if survival_probability(final) else final
    return MonteCarloResult(success=True, state=passed, absorbed_at=None)
