import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oamcomp.compiler import (
    TwoLevelFactor,
    check_unitary,
    compile_unitary,
    decompose_two_level,
    embed_factor,
    haar_random_unitary,
    lower_two_level,
    product_of_factors,
    qubit_count_for,
    reconstruct_and_verify,
    u2_to_optics,
    unitary_from_json,
    unitary_to_json,
)
from oamcomp.elements import Mirror, Netlist, check_reflection_parity, run_netlist
from oamcomp.errors import LeakageError, ValidationError
from oamcomp.state import basis_state, survival_probability

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestDecompose:
    def test_identity_has_no_factors(self):
        assert decompose_two_level(np.eye(4, dtype=complex)) == []

    def test_hadamard_single_factor(self):
        factors = decompose_two_level(HADAMARD)
        product = product_of_factors(factors, 2)
        assert np.linalg.norm(product - HADAMARD) < 1e-12

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_random_unitary_product_oracle(self, d, rng):
        # Oracle: explicit matrix product of the emitted embedded factors.
        for _ in range(5):
            U = haar_random_unitary(d, rng)
            factors = decompose_two_level(U)
            assert len(factors) <= d * (d - 1) // 2 + d
            product = product_of_factors(factors, d)
            assert np.linalg.norm(product - U) < 1e-9

    def test_d4_random_factor_budget(self, rng):
        U = haar_random_unitary(4, rng)
        nontrivial = [
            f for f in decompose_two_level(U)
            if np.linalg.norm(f.u2 - np.eye(2)) > 1e-12 and abs(f.u2[0, 1]) > 1e-12
        ]
        assert len(nontrivial) <= 6

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            decompose_two_level(np.ones((3, 3), dtype=complex))


def full_matrix_decompose(U):
    """The elimination with every Givens rotation applied as a full ``d x d``
    product, O(d^5): the oracle of the two-row rotation.  Factors as
    ``(m, n_idx, u2)`` in application order."""
    d = U.shape[0]
    working, eliminations = U.copy(), []
    for col in range(d - 1):
        for row in range(col + 1, d):
            b = working[row, col]
            if abs(b) <= 1e-14:
                continue
            a = working[col, col]
            r = math.hypot(abs(a), abs(b))
            g2 = np.array([[a.conjugate() / r, b.conjugate() / r], [b / r, -a / r]])
            full = np.eye(d, dtype=complex)
            full[np.ix_([col, row], [col, row])] = g2
            working = full @ working
            eliminations.append((col, row, g2))
    factors = []
    for level in range(d):
        phase = working[level, level] / abs(working[level, level])
        if abs(phase - 1.0) > 1e-13:
            factors.append((level, (level + 1) % d, np.diag([phase, 1.0])))
    factors += [(col, row, g2.conj().T) for col, row, g2 in reversed(eliminations)]
    return factors


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 32), seed=st.integers(0, 2**32 - 1))
def test_two_row_rotation_matches_full_matrix_oracle(d, seed):
    U = haar_random_unitary(d, np.random.default_rng(seed))
    factors = decompose_two_level(U)
    oracle = full_matrix_decompose(U)
    assert [(f.m, f.n_idx) for f in factors] == [(m, n) for m, n, _ in oracle]
    for f, (_, _, u2) in zip(factors, oracle):
        assert np.max(np.abs(f.u2 - u2)) <= 1e-12
    assert np.linalg.norm(product_of_factors(factors, d) - U) <= 1e-12


class TestEmbedFactor:
    def test_identity_block(self):
        f = TwoLevelFactor(m=0, n_idx=1, u2=np.eye(2, dtype=complex))
        assert np.array_equal(embed_factor(f, 4), np.eye(4))

    def test_pauli_x_full_dim(self):
        f = TwoLevelFactor(m=0, n_idx=1, u2=PAULI_X)
        assert np.array_equal(embed_factor(f, 2), PAULI_X)

    def test_offdiagonal_placement(self):
        f = TwoLevelFactor(m=1, n_idx=3, u2=HADAMARD)
        M = embed_factor(f, 4)
        assert M[0, 0] == 1 and M[2, 2] == 1
        assert M[1, 1] == pytest.approx(HADAMARD[0, 0])
        assert M[1, 3] == pytest.approx(HADAMARD[0, 1])
        assert M[3, 1] == pytest.approx(HADAMARD[1, 0])
        assert np.linalg.norm(M.conj().T @ M - np.eye(4)) < 1e-12

    def test_rejects_out_of_range(self):
        f = TwoLevelFactor(m=1, n_idx=3, u2=np.eye(2, dtype=complex))
        with pytest.raises(ValidationError):
            embed_factor(f, 2)


class TestU2ToOptics:
    def test_identity_canonical(self):
        p = u2_to_optics(np.eye(2, dtype=complex))
        assert (p.theta, p.phi_pre, p.phi_post, p.delta) == (0.0, 0.0, 0.0, 0.0)

    def test_real_rotation(self):
        c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
        rot = np.array([[c, s], [-s, c]], dtype=complex)
        p = u2_to_optics(rot)
        assert p.theta == pytest.approx(math.pi / 4)
        assert (p.phi_pre, p.phi_post, p.delta) == (0.0, 0.0, 0.0)

    def test_antidiagonal(self):
        u2 = np.array([[0, 1j], [1j, 0]], dtype=complex)
        p = u2_to_optics(u2)
        assert p.theta == pytest.approx(math.pi / 2)
        assert p.phi_pre == 0.0
        assert np.linalg.norm(p.matrix() - u2) < 1e-12

    def test_reconstruction_on_random_unitaries(self, rng):
        for _ in range(1000):
            u2 = haar_random_unitary(2, rng)
            p = u2_to_optics(u2)
            assert 0 <= p.theta <= math.pi / 2
            assert np.linalg.norm(p.matrix() - u2) < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            u2_to_optics(np.array([[1, 1], [0, 1]], dtype=complex))


class TestLowerTwoLevel:
    def test_identity_factor_roundtrip(self):
        f = TwoLevelFactor(m=0, n_idx=1, u2=np.eye(2, dtype=complex))
        net = Netlist(n=2, mode_count=3, elements=tuple(lower_two_level(f)))
        for l in range(4):
            out = run_netlist(basis_state(0, l, 2), net)
            assert out.amplitude(0, l) == pytest.approx(1, abs=1e-12)

    def test_pauli_x_swaps_basis(self):
        f = TwoLevelFactor(m=0, n_idx=1, u2=PAULI_X)
        net = Netlist(n=2, mode_count=3, elements=tuple(lower_two_level(f)))
        out = run_netlist(basis_state(0, 0, 2), net)
        assert abs(out.amplitude(0, 1)) == pytest.approx(1, abs=1e-12)

    def test_hadamard_on_inner_levels(self):
        f = TwoLevelFactor(m=1, n_idx=2, u2=HADAMARD)
        net = Netlist(n=2, mode_count=3, elements=tuple(lower_two_level(f)))
        out = run_netlist(basis_state(0, 1, 2), net)
        assert out.amplitude(0, 1) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert out.amplitude(0, 2) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_untouched_components_exact(self, rng):
        U = haar_random_unitary(2, rng)
        f = TwoLevelFactor(m=1, n_idx=2, u2=U)
        net = Netlist(n=2, mode_count=3, elements=tuple(lower_two_level(f)))
        for l in (0, 3):
            out = run_netlist(basis_state(0, l, 2), net)
            assert out.amplitude(0, l) == pytest.approx(1, abs=1e-12)

    def test_rejects_degenerate_mode_plan(self):
        f = TwoLevelFactor(m=0, n_idx=1, u2=PAULI_X)
        with pytest.raises(ValidationError):
            lower_two_level(f, mode_plan=(0, 0, 1))


class TestCompileUnitary:
    def test_identity_empty(self):
        net, report = compile_unitary(np.eye(4, dtype=complex))
        assert len(net) == 0
        assert report.verification_residual == 0.0
        assert report.factor_count == 0

    def test_hadamard(self):
        net, report = compile_unitary(HADAMARD)
        assert report.verification_residual < 1e-10
        assert report.analytic_survival == 1.0

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_random_roundtrip(self, d, rng):
        for _ in range(3):
            U = haar_random_unitary(d, rng)
            net, report = compile_unitary(U)
            assert report.verification_residual < 1e-9
            assert report.factor_count <= d * (d - 1) // 2 + d

    def test_compiled_netlists_have_even_reflections(self, rng):
        net, _ = compile_unitary(haar_random_unitary(4, rng))
        assert check_reflection_parity(net).ok

    def test_finite_stage_report(self, rng):
        U = haar_random_unitary(4, rng)
        net, report = compile_unitary(U, spec_stages=2000)
        assert report.verification_residual < 1e-2
        assert 0 < report.analytic_survival <= 1
        s = basis_state(0, 0, 2)
        assert survival_probability(run_netlist(s, net)) == pytest.approx(
            report.analytic_survival, abs=1e-9
        )

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            compile_unitary(2 * np.eye(2, dtype=complex))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValidationError):
            qubit_count_for(7)


class TestReconstructAndVerify:
    def test_empty_netlist_vs_identity(self):
        net = Netlist(n=2, mode_count=1)
        assert reconstruct_and_verify(net, np.eye(4, dtype=complex)) == 0.0

    def test_compiled_hadamard(self):
        net, _ = compile_unitary(HADAMARD)
        assert reconstruct_and_verify(net, HADAMARD) < 1e-10

    def test_flags_leakage(self):
        # A lossless netlist that moves amplitude out of the computational range.
        net = Netlist(n=1, mode_count=1, elements=(Mirror(0),))
        with pytest.raises(LeakageError):
            reconstruct_and_verify(net, np.eye(2, dtype=complex))

    def test_dimension_mismatch(self):
        net = Netlist(n=2, mode_count=1)
        with pytest.raises(ValidationError):
            reconstruct_and_verify(net, np.eye(2, dtype=complex))


def test_unitary_json_roundtrip(rng):
    U = haar_random_unitary(4, rng)
    assert np.allclose(unitary_from_json(unitary_to_json(U)), U)


def test_unitary_json_shape_mismatch():
    with pytest.raises(ValidationError):
        unitary_from_json({"d": 3, "rows": [[[1, 0]]]})


def test_non_finite_matrix_is_not_unitary():
    with pytest.raises(ValidationError):
        check_unitary(np.array([[np.nan, 0], [0, 1]], dtype=complex))


def test_haar_unitary_is_unitary(rng):
    for d in (2, 4, 8):
        check_unitary(haar_random_unitary(d, rng))
