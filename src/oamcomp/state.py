"""Single-photon state over spatial modes and orbital-angular-momentum indices.

Amplitudes are stored sparsely as a map ``(mode, l) -> complex``.  The state
is deliberately left unnormalized: the squared norm is the probability that
the photon has survived every filter so far, and the shortfall from 1 is the
cumulative absorption probability.  All operations return new states.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from types import MappingProxyType

from .errors import ValidationError

#: Tolerance for squared-norm checks (double precision headroom).
NORM_EPS = 1e-12

#: Amplitudes of magnitude at most this are rounding residue of a Zeno
#: chain, not photon weight: an ideal gate absorbs residue but no more, and
#: residue outside the computational range is not leakage.  Every check is
#: written ``not (abs(x) <= RESIDUE_TOL)``, so a NaN counts as weight.
RESIDUE_TOL = 1e-9

#: Largest qubit count: every OAM index ``l < 2**n`` and the sorter's
#: ``2**n`` arms are then integers a double holds exactly, as ``MAX_STAGES``
#: bounds the stage count.
MAX_QUBITS = 53

ModeOAM = tuple[int, int]

#: A spatial mode index: the annotation of every element field that names a
#: mode, held to :func:`_mode_field`.
Mode = int


def register_size(n: int) -> int:
    """``2**n``, the size of an ``n``-qubit register's computational range.
    Raises unless ``n`` is an ``int`` (not a bool or a float) in
    ``[1, MAX_QUBITS]``, before ``2**n`` is built."""
    if type(n) is not int or not 1 <= n <= MAX_QUBITS:
        raise ValidationError(
            f"qubit count must be an integer in [1, {MAX_QUBITS}], got {n!r}")
    return 1 << n


def check_norm2(norm2: float) -> float:
    """``norm2``, a squared norm; raises when it exceeds ``1 + NORM_EPS`` or
    is not a number: one photon's weight is at most 1, and no element adds
    any."""
    if not norm2 <= 1.0 + NORM_EPS:
        raise ValidationError(f"squared norm {norm2} exceeds 1 + eps")
    return norm2


def weights(values: Iterable[complex]) -> list[float]:
    """``|z|^2`` of each complex ``z``, as ``x * x`` of ``x = abs(z)``: correctly
    rounded, where libm's ``x ** 2`` misrounds some.  ``abs`` raises ``OverflowError``
    past the largest double; only a square overflows, to inf."""
    return [x * x for x in map(abs, values)]


def norm(values: Iterable[complex]) -> float:
    """Euclidean norm of the complex ``values``: ``hypot`` of the magnitudes
    scales, where squares of magnitudes below 1e-154 would lose precision."""
    return math.hypot(*map(abs, values))


def checked_norm2(amps: Mapping) -> float:
    """Squared norm of a map of complex amplitudes, checked by
    :func:`check_norm2`; a magnitude beyond the largest double is inf."""
    try:
        norm2 = sum(weights(amps.values()))
    except OverflowError:  # from ``abs``
        norm2 = math.inf
    return check_norm2(norm2)


def _int_field(name: str, value) -> int:
    """``value`` of the integer field ``name``; a bool or a float is refused."""
    if type(value) is not int:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return value


def _mode_field(name: str, value) -> int:
    """``value`` of the spatial-mode field ``name``: an integer, as
    :func:`_int_field` holds it, and ``>= 0``."""
    if type(value) is not int or value < 0:
        _int_field(name, value)  # raises unless an integer
        raise ValidationError(f"{name} must be an integer >= 0, got {value!r}")
    return value


def _real_field(name: str, value) -> float:
    """``value`` of the real field ``name``, as a ``float``: a finite real
    number, but not a bool (nor a string, which is no number)."""
    real = math.nan
    try:
        if type(value) is float or type(value) is int:
            real = float(value)
        elif type(value) is not bool:
            import numbers  # here, not at the top: a JSON number never gets here
            if isinstance(value, numbers.Real):
                real = float(value)
    except OverflowError:  # an int beyond the largest double
        pass
    if math.isfinite(real):
        return real
    raise ValidationError(f"{name} must be a finite number, got {value!r}")


def _bool_field(name: str, value) -> bool:
    """``value`` of the flag field ``name``: ``True`` or ``False``, not a
    number that reads as one."""
    if type(value) is not bool:
        raise ValidationError(f"{name} must be a bool, got {value!r}")
    return value


#: The rule of each field annotation that has one.
_FIELD_RULES = {"int": _int_field, "float": _real_field, "Mode": _mode_field,
                "bool": _bool_field}


class Record:
    """A frozen record, as ``@dataclass(frozen=True)`` makes one but without
    generated code: the fields are the annotations, after the bases', and a
    class attribute is a default.  A field annotated ``int``, ``float``,
    ``Mode`` or ``bool`` is held to its rule in ``_FIELD_RULES``, and
    ``__post_init__`` runs last; only it may set a field, with
    ``object.__setattr__``."""

    _fields: dict = {}  # field name -> annotation, a string
    _required: frozenset = frozenset()  # the fields without a default

    def __init_subclass__(cls) -> None:
        cls._fields = {**cls._fields, **cls.__annotations__}
        cls._required = frozenset(name for name in cls._fields if not hasattr(cls, name))
        # Every field with its default, in order: an instance's __dict__ starts as a copy.
        cls._defaults = {name: getattr(cls, name, None) for name in cls._fields}
        cls._rules = tuple((name, _FIELD_RULES[kind]) for name, kind in cls._fields.items()
                           if kind in _FIELD_RULES)

    def __init__(self, *args, **kwargs) -> None:
        values = dict(zip(self._fields, args), **kwargs) if args else kwargs
        # An argument past the last field, or a field given twice, is lost.
        if len(values) < len(args) + len(kwargs) or not (
                self._required <= values.keys() <= self._fields.keys()):
            raise TypeError(f"{type(self).__name__} takes the fields {list(self._fields)}")
        fields = self.__dict__
        fields.update(self._defaults, **values)
        for name, rule in self._rules:
            fields[name] = rule(name, fields[name])
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")
    __delattr__ = __setattr__

    def asdict(self) -> dict:
        """The fields by name, in order."""
        return dict(self.__dict__)

    def __eq__(self, other) -> bool:
        return self.__dict__ == other.__dict__ if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({body})"


class PhotonState(Record):
    """Immutable sparse amplitude map for exactly one photon.

    ``n`` is the qubit count; computational basis states occupy OAM indices
    ``0 <= l < 2**n`` but any integer index is representable (mirrors and
    holograms can move amplitude outside the computational range).
    """

    n: int
    amplitudes: Mapping[ModeOAM, complex] = MappingProxyType({})

    def __post_init__(self) -> None:
        register_size(self.n)
        for key in self.amplitudes:  # every key, before zeros are dropped
            if type(key) is not tuple or [*map(type, key)] != [int, int]:
                raise ValidationError(f"amplitude key must be two integers, got {key!r}")
            _mode_field("mode", key[0])
        amps = {k: complex(v) for k, v in self.amplitudes.items() if v != 0}
        checked_norm2(amps)
        object.__setattr__(self, "amplitudes", MappingProxyType(amps))

    @property
    def dim(self) -> int:
        """Size of the computational range, ``2**n``."""
        return 1 << self.n

    def amplitude(self, mode: int, l: int) -> complex:
        return self.amplitudes.get((mode, l), 0j)

    def modes(self) -> set[int]:
        return {mode for mode, _ in self.amplitudes}

    def to_json_dict(self) -> dict:
        entries = [
            {"mode": mode, "l": l, "re": amp.real, "im": amp.imag}
            for (mode, l), amp in sorted(self.amplitudes.items())
        ]
        return {"n": self.n, "amplitudes": entries}

    @classmethod
    def from_json_dict(cls, data: dict) -> "PhotonState":
        try:
            n = _int_field("n", data["n"])
            amps: dict[ModeOAM, complex] = {}
            for entry in data["amplitudes"]:
                key = (_mode_field("mode", entry["mode"]), _int_field("l", entry["l"]))
                if key in amps:
                    raise ValueError(f"amplitude at (mode, l) = {key} given twice")
                amps[key] = complex(_real_field("re", entry["re"]), _real_field("im", entry["im"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed state JSON: {exc}") from exc
        return cls(n=n, amplitudes=amps)


def basis_state(mode: int, l: int, n: int) -> PhotonState:
    """Photon definitely in ``mode`` with OAM index ``l``."""
    return PhotonState(n=n, amplitudes={(mode, l): 1.0 + 0j})


def from_amplitudes(mode: int, coeffs: Iterable[complex], n: int) -> PhotonState:
    """State with ``coeffs[l]`` at ``(mode, l)`` for the computational range."""
    dim = register_size(n)
    coeffs = [complex(c) for c in coeffs]
    if len(coeffs) != dim:
        raise ValidationError(f"expected {dim} coefficients for n={n}, got {len(coeffs)}")
    return PhotonState(n=n, amplitudes={(mode, l): c for l, c in enumerate(coeffs)})


def survival_probability(state: PhotonState) -> float:
    """Squared norm: the probability the photon has not been absorbed."""
    return sum(weights(state.amplitudes.values()), 0.0)


def normalized(state: PhotonState) -> PhotonState:
    """Renormalize the conditional (post-selected) state to unit norm."""
    scale = norm(state.amplitudes.values())
    if scale == 0.0:
        raise ValidationError("cannot normalize a fully absorbed state")
    return PhotonState(n=state.n, amplitudes={k: v / scale for k, v in state.amplitudes.items()})
