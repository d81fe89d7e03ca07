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

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .elements import (  # noqa: F401  (the gate semantics are re-exported)
    IDEAL, OCCUPANCY_TOL, BeamSplitter, Element, ExtractGate, ExtractionSpec, Filter,
    Hologram, Netlist, ReintegrateGate, Stages, apply_element, apply_macro,
    check_state_fits, ideal_extract, ideal_reintegrate, zeno_extract, zeno_reintegrate,
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


@dataclass(frozen=True)
class LossProfile:
    """Where a photon can be absorbed along a netlist, from one exact pass.

    ``initial`` is the input's squared norm and ``final`` the output state.
    ``filters`` holds the index of every filter in :func:`expand_netlist`'s
    netlist and ``survival`` the squared norm just after each.
    """

    initial: float
    final: PhotonState
    filters: np.ndarray
    survival: np.ndarray

    def absorption(self) -> np.ndarray:
        """Probability that each filter absorbs the photon, ``|psi_{k-1}|^2 - |psi_k|^2``."""
        return -np.diff(self.survival, prepend=self.initial)

    def absorbed_at(self, u: float) -> int | None:
        """Index of the first filter after which the survival is at most ``u``
        (``None`` if there is none): where a run drawing ``u`` is absorbed."""
        hit = np.flatnonzero(self.survival <= u)
        return int(self.filters[hit[0]]) if hit.size else None

    def success_probability(self) -> float:
        """Probability that one run passes every filter."""
        if not self.initial:
            return float(not self.survival.size)
        return float(self.survival.min(initial=self.initial) / self.initial)


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
    initial = survival_probability(state)
    filters, survival = [np.zeros(0, dtype=int)], [np.zeros(0)]
    index = 0
    for el in netlist.elements:
        if isinstance(el, (ExtractGate, ReintegrateGate)):
            if el.stages == IDEAL:
                raise ValidationError("the ideal gate has no finite Zeno chain")
            state = apply_macro(state, el)
            leak = sum(abs(amp) ** 2 for (mode, l), amp in state.amplitudes.items()
                       if mode == el.src and l != el.m)
            to_go = np.arange(1 - el.stages, 1)  # k - N for the gate's filters k = 1..N
            filters.append(index + 2 * el.stages + 2 * to_go)
            survival.append(survival_probability(state) - leak
                            + leak * math.cos(el.theta) ** (2 * to_go))
            index += 2 * el.stages + 2
            continue
        state = apply_element(state, el)
        if isinstance(el, Filter):
            filters.append(np.array([index]))
            survival.append(np.array([survival_probability(state)]))
        index += 1
    return LossProfile(initial, state, np.concatenate(filters), np.concatenate(survival))


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
