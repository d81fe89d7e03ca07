import cmath
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oamcomp.elements import Rows
from oamcomp.errors import ValidationError
from oamcomp.readout import born_distribution
from oamcomp.state import (
    PhotonState,
    _real_field,
    basis_state,
    checked_norm2,
    from_amplitudes,
    normalized,
    survival_probability,
)

from conftest import coefficients, random_state


class TestBasisState:
    def test_single_amplitude(self):
        s = basis_state(0, 0, 2)
        assert dict(s.amplitudes) == {(0, 0): 1 + 0j}
        assert survival_probability(s) == 1.0

    def test_bit_string_encoding(self):
        # l = 3 encodes "11" for n = 2.
        s = basis_state(0, 3, 2)
        assert coefficients(s) == [0, 0, 0, 1 + 0j]

    def test_negative_oam_allowed(self):
        s = basis_state(1, -2, 2)
        assert s.amplitude(1, -2) == 1 + 0j

    def test_rejects_width_below_one(self):
        with pytest.raises(ValidationError):
            basis_state(0, 0, 0)

    @pytest.mark.parametrize("build", [
        lambda: PhotonState(n=True),
        lambda: PhotonState(n=2.0),
        lambda: from_amplitudes(0, [1, 0], True),
    ], ids=["bool-state", "float-state", "bool-amplitudes"])
    def test_rejects_a_width_that_is_not_an_int(self, build):
        with pytest.raises(ValidationError, match="^(n|qubit count) must be an integer"):
            build()

    @pytest.mark.parametrize("key", [(0.5, 0), (0, "x"), (True, 0), (0, 1.0), 0, (0, 0, 0)],
                             ids=["float-mode", "str-oam", "bool-mode", "float-oam", "int",
                                  "triple"])
    def test_rejects_a_key_that_is_not_two_ints(self, key):
        # (True, 0) would be written as "mode": true, which the reader refuses.
        with pytest.raises(ValidationError, match="amplitude key must be two integers"):
            PhotonState(n=1, amplitudes={key: 1.0})

    @pytest.mark.parametrize("key, message", [
        ("x", "^amplitude key must be two integers, got 'x'$"),
        ((-1, 0), r"^mode must be an integer >= 0, got -1$"),
    ], ids=["str", "negative-mode"])
    def test_checks_every_key_before_dropping_zeros(self, key, message):
        """A bad key is refused even where its amplitude is 0, which the
        state drops."""
        with pytest.raises(ValidationError, match=message):
            PhotonState(n=1, amplitudes={key: 0, (0, 0): 1})


class TestFromAmplitudes:
    def test_equal_superposition(self):
        s = from_amplitudes(0, [1 / math.sqrt(2)] * 2, 1)
        assert survival_probability(s) == pytest.approx(1.0, abs=1e-15)

    def test_identity_case(self):
        assert dict(from_amplitudes(0, [1, 0, 0, 0], 2).amplitudes) == dict(
            basis_state(0, 0, 2).amplitudes
        )

    def test_derived_norm(self):
        s = from_amplitudes(0, [0.6, 0, 0, 0.8j], 2)
        assert survival_probability(s) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            from_amplitudes(0, [1, 0, 0], 2)

    def test_rejects_supernormalized(self):
        with pytest.raises(ValidationError):
            from_amplitudes(0, [1.0, 0.1], 1)

    def test_rejects_overflowing_amplitude(self):
        with pytest.raises(ValidationError):
            from_amplitudes(0, [1e308, 0.0], 1)

    @pytest.mark.parametrize("amp", [1.5e308 + 1.5e308j, 1e308 + 1e308j])
    def test_rejects_a_magnitude_beyond_the_largest_double(self, amp):
        """``abs`` of the first raises ``OverflowError``; the second's
        magnitude is finite but its square is not."""
        with pytest.raises(ValidationError, match="squared norm inf exceeds 1 \\+ eps"):
            PhotonState(n=1, amplitudes={(0, 0): amp})

    def test_rejects_nan_amplitude(self):
        with pytest.raises(ValidationError):
            from_amplitudes(0, [float("nan"), 0.0], 1)

    def test_readback_roundtrip(self, rng):
        s = random_state(rng, 3)
        assert coefficients(from_amplitudes(0, coefficients(s), 3)) == coefficients(s)


class TestSurvivalProbability:
    def test_empty_state_is_absorbed(self):
        assert survival_probability(PhotonState(n=1)) == 0.0

    def test_subnormalized(self):
        s = PhotonState(n=1, amplitudes={(0, 0): 0.5})
        assert survival_probability(s) == pytest.approx(0.25)


def correctly_rounded_weight(z: complex) -> float:
    return float(Fraction(abs(z)) ** 2)


magnitudes = st.floats(1e-160, 1.0)
phases = st.floats(-math.pi, math.pi)


@settings(max_examples=300, deadline=None)
@given(magnitude=magnitudes, phase=phases, other=magnitudes)
# libm's ``pow`` rounds this magnitude's square up: 0.9928113146342529.
@example(magnitude=0.9963991743444255, phase=0.0, other=0.05)
def test_every_weight_is_correctly_rounded(magnitude, phase, other):
    """The survival, the scalar norm guard, the row engine's total and the
    Born rule square each magnitude as exactly rounded arithmetic does."""
    z = cmath.rect(magnitude, phase)
    weight = correctly_rounded_weight(z)
    state = PhotonState(n=1, amplitudes={(0, 0): z})
    assert survival_probability(state) == weight
    assert checked_norm2({(0, 0): z}) == weight
    rows = Rows.from_state(state)
    rows.check()
    assert rows.norm2 == [weight]
    w1 = correctly_rounded_weight(other)
    assume(weight + w1 <= 1.0)
    pair = PhotonState(n=1, amplitudes={(0, 0): z, (0, 1): other})
    assert born_distribution(pair, 0) == {0: weight / (weight + w1), 1: w1 / (weight + w1)}


def test_normalized_restores_unit_norm():
    s = PhotonState(n=1, amplitudes={(0, 0): 0.3, (0, 1): 0.4j})
    assert survival_probability(normalized(s)) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("amp", [1.77e-160, 1e-200, 3e-310])
def test_normalized_restores_unit_norm_below_the_subnormal_squares(amp):
    """Squares of these amplitudes are subnormal or 0, so a norm taken from
    them is off by up to 1e-5, or 0; the state still normalizes."""
    s = PhotonState(n=1, amplitudes={(0, 0): amp, (0, 1): amp * 1j})
    out = normalized(s)
    assert survival_probability(out) == pytest.approx(1.0, abs=1e-14)


def test_normalize_empty_rejected():
    with pytest.raises(ValidationError):
        normalized(PhotonState(n=1))


def test_json_roundtrip(rng):
    s = random_state(rng, 2)
    assert dict(PhotonState.from_json_dict(s.to_json_dict()).amplitudes) == dict(
        s.amplitudes
    )


def test_json_rejects_garbage():
    with pytest.raises(ValidationError):
        PhotonState.from_json_dict({"n": 1})


def test_json_rejects_a_repeated_key():
    entry = {"mode": 0, "l": 1, "re": 0.6, "im": 0.0}
    with pytest.raises(ValidationError, match=r"^malformed state JSON: .* given twice$"):
        PhotonState.from_json_dict({"n": 1, "amplitudes": [entry, {**entry, "re": 0.2}]})


@pytest.mark.parametrize("value", [np.float32(0.5), np.int64(3), Fraction(1, 2)],
                         ids=["float32", "int64", "fraction"])
def test_real_field_takes_any_real_number(value):
    """A real number of any type but bool is a real field, stored as a float;
    only a type other than float and int makes the rule load ``numbers``."""
    real = _real_field("phi", value)
    assert type(real) is float and real == value


@pytest.mark.parametrize("value", [Decimal("0.5"), True, "0.5"], ids=["decimal", "bool", "str"])
def test_real_field_refuses_what_is_no_real_number(value):
    message = f"^phi must be a finite number, got {re.escape(repr(value))}$"
    with pytest.raises(ValidationError, match=message):
        _real_field("phi", value)
