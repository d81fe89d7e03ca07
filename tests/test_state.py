import math

import pytest

from oamcomp.errors import ValidationError
from oamcomp.state import (
    PhotonState,
    basis_state,
    from_amplitudes,
    normalized,
    overlap,
    survival_probability,
)

from conftest import random_state


class TestBasisState:
    def test_single_amplitude(self):
        s = basis_state(0, 0, 2)
        assert dict(s.amplitudes) == {(0, 0): 1 + 0j}
        assert survival_probability(s) == 1.0

    def test_bit_string_encoding(self):
        # l = 3 encodes "11" for n = 2.
        s = basis_state(0, 3, 2)
        assert s.coefficients(0) == [0, 0, 0, 1 + 0j]

    def test_negative_oam_allowed(self):
        s = basis_state(1, -2, 2)
        assert s.amplitude(1, -2) == 1 + 0j

    def test_rejects_width_below_one(self):
        with pytest.raises(ValidationError):
            basis_state(0, 0, 0)


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

    def test_rejects_nan_amplitude(self):
        with pytest.raises(ValidationError):
            from_amplitudes(0, [float("nan"), 0.0], 1)

    def test_readback_roundtrip(self, rng):
        s = random_state(rng, 3)
        assert from_amplitudes(0, s.coefficients(0), 3).coefficients(0) == s.coefficients(0)


class TestSurvivalProbability:
    def test_empty_state_is_absorbed(self):
        assert survival_probability(PhotonState(n=1)) == 0.0

    def test_subnormalized(self):
        s = PhotonState(n=1, amplitudes={(0, 0): 0.5})
        assert survival_probability(s) == pytest.approx(0.25)


class TestOverlap:
    def test_self_overlap(self, rng):
        s = random_state(rng, 2)
        assert overlap(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_oam(self):
        assert overlap(basis_state(0, 0, 1), basis_state(0, 1, 1)) == 0

    def test_distinct_spatial_modes(self):
        assert overlap(basis_state(0, 3, 2), basis_state(1, 3, 2)) == 0

    def test_conjugate_symmetry(self, rng):
        a, b = random_state(rng, 2), random_state(rng, 2)
        assert overlap(a, b) == pytest.approx(overlap(b, a).conjugate(), abs=1e-14)

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValidationError):
            overlap(basis_state(0, 0, 1), basis_state(0, 0, 2))


def test_normalized_restores_unit_norm():
    s = PhotonState(n=1, amplitudes={(0, 0): 0.3, (0, 1): 0.4j})
    assert survival_probability(normalized(s)) == pytest.approx(1.0, abs=1e-14)


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
