import cmath
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oamcomp.compiler import (
    TwoLevelFactor,
    basis_response,
    check_unitary,
    compile_unitary,
    decompose_two_level,
    haar_random_unitary,
    lower_two_level,
    qubit_count_for,
    reconstruct_and_verify,
    u2_to_optics,
    unitary_from_json,
)
from oamcomp.elements import (
    IDEAL, ExtractGate, Mirror, Netlist, ReintegrateGate, check_reflection_parity, run_netlist,
)
from oamcomp.errors import LeakageError, ValidationError
from oamcomp.state import basis_state, survival_probability

from conftest import unitary_to_json

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def column_norms(U, stages) -> list[float]:
    """The norm of each column of the unnormalized basis response of ``U``'s
    netlist at ``stages``: each basis input of mode 0 run on its own."""
    n = qubit_count_for(len(U))
    elements = [el for factor in decompose_two_level(U)
                for el in lower_two_level(factor, (0, 1, 2), stages)]
    netlist = Netlist(n=n, mode_count=3, elements=tuple(elements))
    outs = (run_netlist(basis_state(0, l, n), netlist) for l in range(len(U)))
    return [math.hypot(*(abs(out.amplitude(0, l)) for l in range(len(U)))) for out in outs]


def embed_factor(factor: TwoLevelFactor, d: int) -> np.ndarray:
    """Full-dimension matrix: identity except the 2x2 block on (m, n_idx)."""
    if factor.m >= d or factor.n_idx >= d:
        raise ValidationError(
            f"factor levels ({factor.m}, {factor.n_idx}) out of range for d={d}"
        )
    matrix = np.eye(d, dtype=complex)
    matrix[np.ix_([factor.m, factor.n_idx], [factor.m, factor.n_idx])] = factor.u2
    return matrix


def product_of_factors(factors: list[TwoLevelFactor], d: int) -> np.ndarray:
    """Matrix product of the embedded factors in application order: the
    oracle of the decomposition."""
    result = np.eye(d, dtype=complex)
    for factor in factors:
        result = embed_factor(factor, d) @ result
    return result


def optics_matrix(p) -> np.ndarray:
    """The 2x2 unitary that :class:`U2Params` ``p`` realizes:
    ``exp(i delta) diag(exp(i phi_pre), 1) R(theta) diag(exp(i phi_post), 1)``."""
    c, s = math.cos(p.theta), math.sin(p.theta)
    rot = np.array([[c, s], [-s, c]], dtype=complex)
    pre = np.diag([cmath.exp(1j * p.phi_pre), 1.0])
    post = np.diag([cmath.exp(1j * p.phi_post), 1.0])
    return cmath.exp(1j * p.delta) * (pre @ rot @ post)


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
            if np.linalg.norm(np.subtract(f.u2, np.eye(2))) > 1e-12 and abs(f.u2[0][1]) > 1e-12
        ]
        assert len(nontrivial) <= 6

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            decompose_two_level(np.ones((3, 3), dtype=complex))


def full_matrix_decompose(U):
    """The elimination with every rotation ``G = R(theta)^T diag(exp(-i phi),
    1)`` applied as a full ``d x d`` product, O(d^5), and each level's phase
    folded into the first factor that touches it by a scan of the whole
    list: the oracle of the two-row rotation and the one-pass fold.  Factors
    as ``(m, n_idx, u2)`` in application order."""
    d = U.shape[0]
    working, eliminations = U.copy(), []
    for col in range(d - 1):
        for row in range(col + 1, d):
            b = working[row, col]
            if abs(b) <= 1e-14:
                continue
            a = working[col, col]
            theta = math.atan2(abs(b), abs(a))
            e = -(b / abs(b)) * (a.conjugate() / abs(a)) if a != 0 else 1.0
            rot = np.array([[math.cos(theta), math.sin(theta)],
                            [-math.sin(theta), math.cos(theta)]])
            g2 = rot.T @ np.diag([e, 1.0])
            full = np.eye(d, dtype=complex)
            full[np.ix_([col, row], [col, row])] = g2
            working = full @ working
            eliminations.append((col, row, g2))
    factors = [[col, row, g2.conj().T] for col, row, g2 in reversed(eliminations)]
    untouched = []
    for level in range(d):
        phase = working[level, level] / abs(working[level, level])
        if abs(phase - 1.0) <= 1e-13:
            continue
        first = next((f for f in factors if level in f[:2]), None)
        if first is None:
            untouched.append((level, (level + 1) % d, np.diag([phase, 1.0])))
        else:
            first[2] = first[2] @ np.diag([phase, 1.0] if first[0] == level else [1.0, phase])
    return untouched + [tuple(f) for f in factors]


def four_parameter_decompose(U):
    """The unoptimised elimination: each entry nulled by the four-parameter
    rotation ``[[a*, b*], [b, -a]] / r`` as a full ``d x d`` product, and the
    residual phases as degenerate ``diag(exp(i phi), 1)`` factors applied
    first.  Factors as ``(m, n_idx, u2)`` in application order."""
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


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 32), seed=st.integers(0, 2**32 - 1))
def test_two_parameter_rotation_matches_four_parameter_elimination(d, seed):
    """The two forms null the same entries in the same order, with rotations
    of the same magnitudes; only the old residual-phase factors go, as the
    new form folds every phase of a Haar draw into a factor."""
    U = haar_random_unitary(d, np.random.default_rng(seed))
    factors = decompose_two_level(U)
    old = four_parameter_decompose(U)
    eliminated = [(m, n, u2) for m, n, u2 in old if u2[0, 1] != 0]
    assert [(f.m, f.n_idx) for f in factors] == [(m, n) for m, n, _ in eliminated]
    for f, (_, _, u2) in zip(factors, eliminated):
        assert np.max(np.abs(np.abs(f.u2) - np.abs(u2))) <= 1e-12
    assert np.linalg.norm(product_of_factors(factors, d) - U) <= 1e-12
    old_factors = [TwoLevelFactor(m=m, n_idx=n, u2=u2) for m, n, u2 in old]
    assert np.linalg.norm(product_of_factors(old_factors, d) - U) <= 1e-12


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
        assert np.linalg.norm(optics_matrix(p) - u2) < 1e-12

    def test_reconstruction_on_random_unitaries(self, rng):
        for _ in range(1000):
            u2 = haar_random_unitary(2, rng)
            p = u2_to_optics(u2)
            assert 0 <= p.theta <= math.pi / 2
            assert np.linalg.norm(optics_matrix(p) - u2) < 1e-12

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
        assert check_reflection_parity(net) == []

    def test_finite_stage_report(self, rng):
        U = haar_random_unitary(4, rng)
        net, report = compile_unitary(U, spec_stages=2000)
        assert report.verification_residual < 1e-2
        assert 0 < report.analytic_survival <= 1
        s = basis_state(0, 0, 2)
        assert survival_probability(run_netlist(s, net)) == pytest.approx(
            report.analytic_survival, abs=1e-9
        )

    @pytest.mark.parametrize("stages", [1, 2, 7, 100, 500])
    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_survival_matches_a_separate_run(self, d, stages):
        """The report's survival, read off the verification pass, against a
        run of ``|0>`` on its own: equal within rounding, not bit-equal."""
        rng = np.random.default_rng(1000 * d + stages)
        for U in (haar_random_unitary(d, rng) for _ in range(3)):
            if stages == 1 and min(column_norms(U, stages)) < sys.float_info.min:
                # A one-stage gate keeps cos(pi/2) = 6e-17 of every component
                # it does not extract: a basis input whose column's norm is
                # below the smallest normal double is fully absorbed, and any
                # other is renormalized.
                with pytest.raises(ValidationError, match="fully absorbed"):
                    compile_unitary(U, spec_stages=stages)
                continue
            net, report = compile_unitary(U, spec_stages=stages)
            alone = survival_probability(run_netlist(basis_state(0, 0, net.n), net))
            assert abs(report.analytic_survival - alone) <= 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            compile_unitary(2 * np.eye(2, dtype=complex))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValidationError):
            qubit_count_for(7)


class TestElementBudget:
    """Each factor of a Haar draw costs one beamsplitter, one phase shifter
    and four gates, and each level's phase at most one more phase shifter."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_haar_budget(self, n, seed):
        d = 1 << n
        _, report = compile_unitary(haar_random_unitary(d, np.random.default_rng(seed)))
        assert report.factor_count == d * (d - 1) // 2
        assert report.element_count <= 6 * report.factor_count + d

    @pytest.mark.parametrize("name, U, before", [
        ("X", PAULI_X, 6),
        ("CNOT", np.eye(4, dtype=complex)[[0, 1, 3, 2]], 6),
        ("diagonal", np.diag(np.exp(1j * np.array([0.1, 0.2, 0.3, 0.4]))), 20),
        ("reversal of 8 levels", np.eye(8, dtype=complex)[::-1], 24),
        ("i*I", 1j * np.eye(4), 20),
        ("H+diag(i,-1)", np.block([[HADAMARD, np.zeros((2, 2))],
                                   [np.zeros((2, 2)), np.diag([1j, -1])]]), 18),
        ("QFT8", np.array([[cmath.exp(2j * math.pi * j * k / 8) for k in range(8)]
                           for j in range(8)]) / math.sqrt(8), 250),
    ])
    def test_structured_unitaries_do_not_grow(self, name, U, before):
        """``before`` is the count of the four-parameter elimination."""
        _, report = compile_unitary(U)
        assert report.verification_residual <= 1e-12
        assert report.element_count <= before


@pytest.mark.parametrize("stages", [IDEAL, 100])
def test_compile_is_the_factorwise_lowering(stages, rng):
    """``compile_unitary``'s netlist is ``lower_two_level`` of each factor of
    ``decompose_two_level``, element for element: the benchmark's traced
    compile replays it that way and requires the same bytes."""
    U = haar_random_unitary(8, rng)
    seq = [el for f in decompose_two_level(U) for el in lower_two_level(f, (0, 1, 2), stages)]
    replay = Netlist(n=3, mode_count=3, elements=tuple(seq))
    assert compile_unitary(U, stages)[0].to_json_dict() == replay.to_json_dict()


class TestBasisResponse:
    @pytest.mark.parametrize("pairs", [260, 270])
    def test_renormalizes_a_tiny_column(self, pairs):
        """Each two-stage gate halves basis input 1, which it does not
        extract: after 520 gates its column has norm 0.5**520 (3e-157), whose
        square is subnormal, after 540 gates 0.5**540 (3e-163), whose square
        is 0.  Renormalized by ``hypot``, the column has unit norm."""
        pair = (ExtractGate(m=0, src=0, dst=1, stages=2),
                ReintegrateGate(m=0, src=0, dst=1, stages=2))
        columns = list(zip(*basis_response(Netlist(n=1, mode_count=2, elements=pair * pairs))[0]))
        norm2 = sum(Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 for z in columns[1])
        assert abs(math.sqrt(norm2) - 1.0) <= 1e-15

    @pytest.mark.parametrize("pairs", [515, 537])
    def test_absorbs_a_subnormal_column(self, pairs):
        """After 1,030 and 1,074 gates basis input 1's column is not zero
        but subnormal (9e-311 and 5e-324), with too few bits left to be
        renormalized: it counts as fully absorbed."""
        pair = (ExtractGate(m=0, src=0, dst=1, stages=2),
                ReintegrateGate(m=0, src=0, dst=1, stages=2))
        netlist = Netlist(n=1, mode_count=2, elements=pair * pairs)
        assert 0.0 < abs(run_netlist(basis_state(0, 1, 1), netlist).amplitude(0, 1)) < sys.float_info.min
        with pytest.raises(ValidationError, match="basis input 1 was fully absorbed"):
            basis_response(netlist)


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
