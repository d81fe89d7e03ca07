"""Single-photon state over spatial modes and orbital-angular-momentum indices.

Amplitudes are stored sparsely as a map ``(mode, l) -> complex``.  The state
is deliberately left unnormalized: the squared norm is the probability that
the photon has survived every filter so far, and the shortfall from 1 is the
cumulative absorption probability.  All operations return new states.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import ValidationError

#: Tolerance for squared-norm checks (double precision headroom).
NORM_EPS = 1e-12

ModeOAM = tuple[int, int]


def _json_int(value) -> int:
    """A JSON integer field: a bool or a float such as ``1.9`` is refused."""
    if type(value) is not int:
        raise ValidationError(f"expected an integer, got {value!r}")
    return value


def _json_real(value) -> float:
    """A JSON real field: any JSON number, but not a bool or a string."""
    if not isinstance(value, (float, int)) or isinstance(value, bool):
        raise ValidationError(f"expected a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class PhotonState:
    """Immutable sparse amplitude map for exactly one photon.

    ``n`` is the qubit count; computational basis states occupy OAM indices
    ``0 <= l < 2**n`` but any integer index is representable (mirrors and
    holograms can move amplitude outside the computational range).
    """

    n: int
    amplitudes: Mapping[ModeOAM, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"qubit count must be >= 1, got {self.n}")
        amps = {k: complex(v) for k, v in self.amplitudes.items() if v != 0}
        for mode, l in amps:
            if mode < 0:
                raise ValidationError(f"negative spatial mode index {mode}")
        # ``x * x`` rather than ``x ** 2``: it overflows to inf, not an exception.
        norm2 = sum(x * x for x in map(abs, amps.values()))
        if not norm2 <= 1.0 + NORM_EPS:
            raise ValidationError(f"squared norm {norm2} exceeds 1 + eps")
        object.__setattr__(self, "amplitudes", MappingProxyType(amps))

    @property
    def dim(self) -> int:
        """Size of the computational range, ``2**n``."""
        return 1 << self.n

    def amplitude(self, mode: int, l: int) -> complex:
        return self.amplitudes.get((mode, l), 0j)

    def modes(self) -> set[int]:
        return {mode for mode, _ in self.amplitudes}

    def max_mode(self) -> int:
        """Largest occupied spatial mode index, or -1 for the empty state."""
        return max((mode for mode, _ in self.amplitudes), default=-1)

    def coefficients(self, mode: int) -> list[complex]:
        """Computational-range coefficients ``[amp(mode, 0) .. amp(mode, 2^n - 1)]``."""
        return [self.amplitude(mode, l) for l in range(self.dim)]

    def to_json_dict(self) -> dict:
        entries = [
            {"mode": mode, "l": l, "re": amp.real, "im": amp.imag}
            for (mode, l), amp in sorted(self.amplitudes.items())
        ]
        return {"n": self.n, "amplitudes": entries}

    @classmethod
    def from_json_dict(cls, data: dict) -> "PhotonState":
        try:
            n = _json_int(data["n"])
            amps: dict[ModeOAM, complex] = {}
            for entry in data["amplitudes"]:
                key = (_json_int(entry["mode"]), _json_int(entry["l"]))
                amp = complex(_json_real(entry["re"]), _json_real(entry["im"]))
                if not cmath.isfinite(amp):
                    raise ValueError(f"non-finite amplitude at {key}")
                amps[key] = amps.get(key, 0j) + amp
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed state JSON: {exc}") from exc
        return cls(n=n, amplitudes=amps)


def basis_state(mode: int, l: int, n: int) -> PhotonState:
    """Photon definitely in ``mode`` with OAM index ``l``."""
    return PhotonState(n=n, amplitudes={(mode, l): 1.0 + 0j})


def from_amplitudes(mode: int, coeffs: Iterable[complex], n: int) -> PhotonState:
    """State with ``coeffs[l]`` at ``(mode, l)`` for the computational range."""
    coeffs = [complex(c) for c in coeffs]
    if len(coeffs) != 1 << n:
        raise ValidationError(
            f"expected {1 << n} coefficients for n={n}, got {len(coeffs)}"
        )
    return PhotonState(n=n, amplitudes={(mode, l): c for l, c in enumerate(coeffs)})


def survival_probability(state: PhotonState) -> float:
    """Squared norm: the probability the photon has not been absorbed."""
    return sum(abs(a) ** 2 for a in state.amplitudes.values())


def overlap(a: PhotonState, b: PhotonState) -> complex:
    """Inner product <a|b> over the shared sparse support."""
    if a.n != b.n:
        raise ValidationError(f"width mismatch: {a.n} vs {b.n}")
    small, large = (a, b) if len(a.amplitudes) <= len(b.amplitudes) else (b, a)
    total = 0j
    for key, amp in small.amplitudes.items():
        other = large.amplitudes.get(key)
        if other is not None:
            if small is a:
                total += amp.conjugate() * other
            else:
                total += other.conjugate() * amp
    return total


def states_close(a: PhotonState, b: PhotonState, tol: float = 1e-12) -> bool:
    """Amplitude-map equality up to ``tol`` per entry."""
    keys = set(a.amplitudes) | set(b.amplitudes)
    return all(abs(a.amplitude(*k) - b.amplitude(*k)) <= tol for k in keys)


def normalized(state: PhotonState) -> PhotonState:
    """Renormalize the conditional (post-selected) state to unit norm."""
    norm = math.sqrt(survival_probability(state))
    if norm == 0.0:
        raise ValidationError("cannot normalize a fully absorbed state")
    return PhotonState(
        n=state.n,
        amplitudes={k: v / norm for k, v in state.amplitudes.items()},
    )
