"""Independent reference interpreter for the oamcomp netlist JSON format.

It reads the same JSON files the ``oamc`` CLI writes and evaluates them with
dense numpy arrays. It imports nothing from ``oamcomp``, so a bug in the
package's element, extraction or compiler semantics cannot hide itself in
the check.

Semantics, from the netlist format and the paper's optical model:

* the photon's amplitudes form an array ``(mode, OAM index l, column)``; a
  column is one input state, so a basis response is one call;
* ``ps`` multiplies a mode by ``exp(i phi)``; ``holo`` shifts its OAM index
  by ``k``; ``mirror`` maps ``l`` to ``-l``; ``filter`` keeps only OAM ``m``
  of a mode and absorbs the rest; ``bs`` rotates the pair ``(a, b)`` of two
  modes at every ``l`` by ``[[cos t, sin t], [-sin t, cos t]]``;
* an ideal ``extract`` moves ``(src, m)`` to ``(dst, 0)`` and an ideal
  ``reintegrate`` moves it back;
* a finite-stage gate with ``N`` stages is the Zeno chain: hologram
  ``-m`` on ``src``, ``N`` times a beamsplitter ``(dst, src)`` at angle
  ``+pi/2N`` (extract) or ``-pi/2N`` (reintegrate) followed by an OAM-0
  filter on ``dst``, then hologram ``+m`` on ``src``.
"""

from __future__ import annotations

import math

import numpy as np

IDEAL = "ideal"
#: Monte Carlo successes must lie within this many binomial standard
#: deviations (plus one) of ``runs * reference survival``.
MC_SIGMAS = 4.5


def unitary_from_json(data: dict) -> np.ndarray:
    rows = [[complex(re, im) for re, im in row] for row in data["rows"]]
    return np.array(rows, dtype=complex)


def state_vector(data: dict, d: int) -> np.ndarray:
    """Mode-0 computational amplitudes of a state file (other entries must be 0)."""
    vec = np.zeros(d, dtype=complex)
    for entry in data["amplitudes"]:
        if entry["mode"] != 0 or not 0 <= entry["l"] < d:
            raise ValueError(f"input state has amplitude outside mode 0: {entry}")
        vec[entry["l"]] += complex(entry["re"], entry["im"])
    return vec


class Field:
    """Amplitudes over ``modes x [-w, w] x columns`` for a batch of inputs."""

    def __init__(self, modes: int, w: int, columns: np.ndarray):
        d, count = columns.shape
        self.w = w
        self.amp = np.zeros((modes, 2 * w + 1, count), dtype=complex)
        self.amp[0, w : w + d, :] = columns

    def shift(self, mode: int, k: int) -> None:
        row = self.amp[mode]
        if k and np.any(row[-k:] if k > 0 else row[:-k]):
            raise ValueError("OAM index left the reference window")
        self.amp[mode] = np.roll(row, k, axis=0)

    def rotate(self, mode_a: int, mode_b: int, theta: float) -> None:
        c, s = math.cos(theta), math.sin(theta)
        a, b = self.amp[mode_a].copy(), self.amp[mode_b].copy()
        self.amp[mode_a] = c * a + s * b
        self.amp[mode_b] = c * b - s * a

    def project(self, mode: int, m: int) -> None:
        kept = self.amp[mode, self.w + m].copy()
        self.amp[mode] = 0
        self.amp[mode, self.w + m] = kept

    def move(self, mode_from: int, l_from: int, mode_to: int, l_to: int) -> None:
        self.amp[mode_to, self.w + l_to] = self.amp[mode_from, self.w + l_from]
        self.amp[mode_from, self.w + l_from] = 0

    def zeno_chain(self, src: int, dst: int, m: int, stages: int, sign: float) -> None:
        theta = sign * math.pi / (2 * stages)
        self.shift(src, -m)
        for _ in range(stages):
            self.rotate(dst, src, theta)
            self.project(dst, 0)
        self.shift(src, m)


def _window(netlist: dict) -> int:
    d = 1 << netlist["n"]
    reach = d
    for el in netlist["elements"]:
        if el["type"] == "holo":
            reach += abs(el["k"])
        elif el["type"] in ("extract", "reintegrate"):
            reach = max(reach, d + abs(el["m"]))
    return reach


def run(netlist: dict, columns: np.ndarray, ideal_macros: bool = False) -> Field:
    """Evolve each column (mode-0 computational amplitudes) through ``netlist``.

    ``ideal_macros`` evaluates every macro gate in its lossless limit, which
    gives the netlist's ideal response whatever stage count it was built for.
    """
    field = Field(netlist["modes"], _window(netlist), columns)
    for el in netlist["elements"]:
        kind = el["type"]
        if kind == "ps":
            field.amp[el["mode"]] *= np.exp(1j * el["phi"])
        elif kind == "holo":
            field.shift(el["mode"], el["k"])
        elif kind == "bs":
            field.rotate(el["mode_a"], el["mode_b"], el["theta"])
        elif kind == "filter":
            field.project(el["mode"], el["m"])
        elif kind == "mirror":
            field.amp[el["mode"]] = field.amp[el["mode"], ::-1].copy()
        elif kind in ("extract", "reintegrate"):
            src, dst, m = el["src"], el["dst"], el["m"]
            if ideal_macros or el["stages"] == IDEAL:
                if kind == "extract":
                    field.move(src, m, dst, 0)
                else:
                    field.move(dst, 0, src, m)
            else:
                sign = 1.0 if kind == "extract" else -1.0
                field.zeno_chain(src, dst, m, int(el["stages"]), sign)
        else:
            raise ValueError(f"unknown element type {kind!r}")
    return field


def is_lossless(netlist: dict) -> bool:
    return not any(
        el["type"] == "filter"
        or (el["type"] in ("extract", "reintegrate") and el["stages"] != IDEAL)
        for el in netlist["elements"]
    )


def computational(field: Field, d: int) -> np.ndarray:
    """Mode-0 amplitudes at ``l = 0 .. d-1``, one column per input."""
    return field.amp[0, field.w : field.w + d, :]


def leakage(field: Field, d: int) -> float:
    """Largest amplitude outside mode 0's computational levels."""
    outside = field.amp.copy()
    outside[0, field.w : field.w + d, :] = 0
    return float(np.max(np.abs(outside), initial=0.0))


def survival(field: Field) -> np.ndarray:
    """Squared norm of each column: the probability the photon survived."""
    return np.sum(np.abs(field.amp) ** 2, axis=(0, 1))


def residual(netlist: dict, field: Field, U: np.ndarray) -> float:
    """Frobenius distance of the basis response to ``U``.

    ``field`` holds the basis inputs as its first ``d`` columns. Lossy
    netlists are compared through their renormalised conditional columns,
    which is how ``verification_residual`` is defined.
    """
    d = U.shape[0]
    effective = computational(field, d)[:, :d].copy()
    if not is_lossless(netlist):
        effective /= np.linalg.norm(effective, axis=0)
    return float(np.linalg.norm(effective - U))


def amplitudes(field: Field, column: int) -> dict[tuple[int, int], complex]:
    """Non-zero amplitudes of one column, keyed by ``(mode, l)``."""
    modes, ls = np.nonzero(field.amp[:, :, column])
    return {
        (int(mode), int(l) - field.w): complex(field.amp[mode, l, column])
        for mode, l in zip(modes, ls)
    }


def mc_bound(runs: int, p: float) -> float:
    """Largest accepted ``|successes - runs * p|`` for ``runs`` sampled runs."""
    return MC_SIGMAS * math.sqrt(runs * p * (1 - p)) + 1
