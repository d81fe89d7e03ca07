"""Extraction gate: Zeno-chain lowering, survival accounting, absorption sampling.

The gate moves the OAM-``m`` component of a superposition in one spatial mode
into OAM 0 of another mode.  Physically it is realized by a chain of ``N``
weak beamsplitters at angle ``pi / (2 N)`` interleaved with OAM-0 filters:
the targeted component rotates losslessly into the destination mode (the
beamsplitter is a rotation, so the chain composes to a quarter turn), while
every other component is repeatedly clipped by the filters and survives with
probability ``cos(pi / (2 N)) ** (2 N)``, which tends to 1 as ``N`` grows.

The gate's semantics, ideal and in the chain's exact closed form, live with
the other elements' in :mod:`oamcomp.elements` and are re-exported here.  The
chain of primitives built below is the physical elaboration of the gate and
the oracle that tests hold the closed form to.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .elements import (  # noqa: F401  (the gate semantics are re-exported)
    IDEAL, OCCUPANCY_TOL, BeamSplitter, Element, ExtractGate, ExtractionSpec, Filter,
    Hologram, Netlist, ReintegrateGate, Stages, apply_element, apply_macro,
    check_state_fits, ideal_extract, ideal_reintegrate, squared_norms, step, zeno_extract,
    zeno_reintegrate,
)
from .state import PhotonState, normalized, survival_probability


def _chain_elements(spec: ExtractionSpec, sign: int, filter_first: bool) -> list[Element]:
    """The chain at angle ``sign * pi/2N``: +1 extracts, -1 reintegrates."""
    if spec.stages == IDEAL:
        raise ValidationError("the ideal gate has no finite Zeno chain")
    # Beamsplitter argument order (dst first) fixes the sign so that the
    # extracted amplitude arrives at (dst, 0) with factor +1.
    stage = [BeamSplitter(mode_a=spec.dst, mode_b=spec.src, theta=sign * spec.theta),
             Filter(mode=spec.dst, m=0)]
    if filter_first:
        stage.reverse()
    return [Hologram(mode=spec.src, k=-spec.m), *stage * spec.stages,
            Hologram(mode=spec.src, k=spec.m)]


def lower_extract_to_netlist(spec: ExtractionSpec, width: int = 1) -> Netlist:
    """Zeno-chain elaboration of the gate into the five primitives."""
    elements = _chain_elements(spec, 1, filter_first=False)
    return Netlist(n=width, mode_count=max(spec.src, spec.dst) + 1, elements=elements)


def lower_reintegrate_to_netlist(
    spec: ExtractionSpec, width: int = 1, filter_first: bool = False
) -> Netlist:
    """Inverse chain, at angle ``-pi/2N``.

    ``filter_first=True`` gives the strict element-wise reversal of the
    extract chain; the default places each filter after its beamsplitter so
    the final leaked amplitudes are absorbed and the aux mode ends empty.
    Both orderings act identically on the extracted component.
    """
    elements = _chain_elements(spec, -1, filter_first)
    return Netlist(n=width, mode_count=max(spec.src, spec.dst) + 1, elements=elements)


# ---------------------------------------------------------------------------
# Analytic survival accounting.


def component_survival(stages: Stages) -> float:
    """Survival probability of a non-extracted component, ``cos^{2N}(pi/2N)``."""
    if stages == IDEAL:
        return 1.0
    return math.cos(math.pi / (2 * stages)) ** (2 * stages)


def survival_lower_bound(stages: int) -> float:
    """First-order estimate ``1 - pi^2 / (4 N)`` of the survival probability."""
    return 1.0 - math.pi**2 / (4 * stages)


def extraction_survival(spec: ExtractionSpec, input_coeffs) -> float:
    """Survival for an input superposition held entirely in the source mode."""
    weights = [abs(complex(c)) ** 2 for c in input_coeffs]
    kept = weights[spec.m] if 0 <= spec.m < len(weights) else 0.0
    rest = sum(weights) - kept
    return kept + rest * component_survival(spec.stages)


# ---------------------------------------------------------------------------
# Monte Carlo absorption sampling.


def expand_netlist(netlist: Netlist) -> Netlist:
    """Replace every finite-stage macro gate by its primitive chain."""
    elements: list[Element] = []
    for el in netlist.elements:
        if isinstance(el, (ExtractGate, ReintegrateGate)):
            sign = 1 if isinstance(el, ExtractGate) else -1
            elements.extend(_chain_elements(el, sign, filter_first=False))
        else:
            elements.append(el)
    return replace(netlist, elements=tuple(elements))


class _FilterRun(NamedTuple):
    """``count`` consecutive filters of the expanded netlist, at indices
    ``first + 2 j``.  The survival after the ``j``-th is the closed form
    ``floor + leak * cos ** (2 (j + 1 - count))`` of a Zeno chain; a lone
    filter is a run of one with no leak."""

    first: int
    count: int
    floor: float
    leak: float = 0.0
    cos: float = 1.0

    def survival(self, j: int) -> float:
        return self.floor + self.leak * self.cos ** (2 * (j + 1 - self.count))


@dataclass(frozen=True)
class LossProfile:
    """Where a photon can be absorbed along a netlist, from one exact pass.

    ``initial`` is the input's squared norm and ``final`` the output state.
    ``runs`` covers every filter of :func:`expand_netlist`'s netlist in
    order, one run per finite gate or lone filter, so the profile does not
    grow with the stage count.
    """

    initial: float
    final: PhotonState
    runs: tuple[_FilterRun, ...]

    def absorption(self) -> dict[int, float]:
        """Probability that each filter absorbs the photon, ``|psi_{k-1}|^2 -
        |psi_k|^2``, by the filter's index (one entry per filter of a chain)."""
        after = {r.first + 2 * j: r.survival(j) for r in self.runs for j in range(r.count)}
        return dict(zip(after, -np.diff(list(after.values()), prepend=self.initial)))

    def absorbed_at(self, u: float) -> int | None:
        """Index of the first filter after which the survival is at most ``u``
        (``None`` if there is none): where a run drawing ``u`` is absorbed.
        Survival falls along a run, so its last filter tells whether the run
        holds that index, and a bisection finds it."""
        for r in self.runs:
            if r.survival(r.count - 1) <= u:
                j = bisect.bisect_left(range(r.count), True, key=lambda j: r.survival(j) <= u)
                return r.first + 2 * j
        return None

    def success_probability(self) -> float:
        """Probability that one run passes every filter."""
        if not self.initial:
            return float(not self.runs)
        return min([self.initial, *(r.survival(r.count - 1) for r in self.runs)]) / self.initial


def loss_profile(state: PhotonState, netlist: Netlist) -> LossProfile:
    """Run ``state`` through ``netlist`` once, recording the survival after
    every filter of the netlist's expansion.

    A finite-stage gate expands to hologram, ``N`` times (beamsplitter,
    filter), hologram.  Inside it only the ``l != m`` components of ``src``
    lose weight, by ``cos^2 theta`` per filter after the first, and they hold
    all of their remaining weight at the gate's output; so the output fixes
    the survival after each of the gate's filters.
    """
    check_state_fits(state, netlist)
    runs: list[_FilterRun] = []
    index, amps = 0, state.amplitudes
    for el in netlist.elements:
        macro = isinstance(el, (ExtractGate, ReintegrateGate))
        if macro and el.stages == IDEAL:
            raise ValidationError("the ideal gate has no finite Zeno chain")
        amps = step(amps, el)
        norm2 = squared_norms(amps)
        if macro:
            leak = sum(abs(amp) ** 2 for (mode, l), amp in amps.items()
                       if mode == el.src and l != el.m)
            runs.append(_FilterRun(index + 2, el.stages, norm2 - leak, leak, math.cos(el.theta)))
            index += 2 * el.stages + 2
            continue
        if isinstance(el, Filter):
            runs.append(_FilterRun(index, 1, norm2))
        index += 1
    final = PhotonState(n=state.n, amplitudes=amps)
    return LossProfile(survival_probability(state), final, tuple(runs))


@dataclass(frozen=True)
class MonteCarloResult:
    success: bool
    state: PhotonState | None
    absorbed_at: int | None  # element index of the absorbing filter, if any


def monte_carlo_run(
    state: PhotonState, netlist: Netlist, rng: np.random.Generator
) -> MonteCarloResult:
    """Sample one physical run: the photon is absorbed at one filter or passes all.

    One uniform draw ``u`` in ``[0, |psi|^2)`` picks the first filter after
    which the survival probability is at most ``u``, so filter ``k`` absorbs
    with probability ``(|psi_{k-1}|^2 - |psi_k|^2) / |psi|^2``.  On success
    the returned state is the normalized conditional state; the success
    frequency over many runs estimates the survival probability.
    """
    profile = loss_profile(state, netlist)
    absorbed = profile.absorbed_at(rng.random() * profile.initial)
    if absorbed is not None:
        return MonteCarloResult(success=False, state=None, absorbed_at=absorbed)
    final = normalized(profile.final) if profile.final.amplitudes else profile.final
    return MonteCarloResult(success=True, state=final, absorbed_at=None)


def monte_carlo_survival(
    state: PhotonState, netlist: Netlist, runs: int, rng: np.random.Generator
) -> float:
    """Empirical survival frequency over ``runs`` sampled physical runs."""
    if runs < 1:
        raise ValidationError("need at least one Monte Carlo run")
    p = loss_profile(state, netlist).success_probability()
    return int(rng.binomial(runs, p)) / runs
