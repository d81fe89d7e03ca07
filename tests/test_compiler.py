import cmath
import functools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oamcomp.compiler import (
    TwoLevelFactor,
    compile_unitary,
    decompose_two_level,
    elimination_rows,
    haar_random_unitary,
    lower_two_level,
    qubit_count_for,
)
from oamcomp.elements import (
    IDEAL, ExtractGate, Mirror, Netlist, ReintegrateGate, run_netlist,
)
from oamcomp.errors import LeakageError, ValidationError
from oamcomp.state import basis_state, survival_probability
from oamcomp.verification import basis_response, reconstruct_and_verify, unitary_from_json

from conftest import unitary_to_json

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def lowered(factors: list[TwoLevelFactor], d: int, stages) -> Netlist:
    """The netlist of ``factors`` on ``d`` levels: each factor's lowering in turn."""
    return Netlist(n=qubit_count_for(d), mode_count=3, elements=tuple(
        el for f in factors for el in lower_two_level(f, (0, 1, 2), stages)))


def column_norms(U, stages) -> list[float]:
    """The norm of each column of the unnormalized basis response of ``U``'s
    netlist at ``stages``: each basis input of mode 0 run on its own."""
    n = qubit_count_for(len(U))
    netlist = lowered(decompose_two_level(U), len(U), stages)
    outs = (run_netlist(basis_state(0, l, n), netlist) for l in range(len(U)))
    return [math.hypot(*(abs(out.amplitude(0, l)) for l in range(len(U)))) for out in outs]


def optics_matrix(f: TwoLevelFactor) -> np.ndarray:
    """The 2x2 unitary that the angles of factor ``f`` realize:
    ``exp(i delta) diag(exp(i phi_pre), 1) R(theta) diag(exp(i phi_post), 1)``."""
    c, s = math.cos(f.theta), math.sin(f.theta)
    rot = np.array([[c, s], [-s, c]], dtype=complex)
    pre = np.diag([cmath.exp(1j * f.phi_pre), 1.0])
    post = np.diag([cmath.exp(1j * f.phi_post), 1.0])
    return cmath.exp(1j * f.delta) * (pre @ rot @ post)


def factor_of(u2, m: int = 0, n_idx: int = 1) -> TwoLevelFactor:
    """The one factor that :func:`decompose_two_level` finds for the 2x2
    unitary ``u2``, moved to the levels ``(m, n_idx)``."""
    (f,) = decompose_two_level(u2)
    return TwoLevelFactor(**dict(f.asdict(), m=m, n_idx=n_idx))


def embed(m: int, n_idx: int, u2, d: int) -> np.ndarray:
    """Full-dimension matrix: identity except the 2x2 block ``u2`` on (m, n_idx)."""
    matrix = np.eye(d, dtype=complex)
    matrix[np.ix_([m, n_idx], [m, n_idx])] = u2
    return matrix


def embed_factor(factor: TwoLevelFactor, d: int) -> np.ndarray:
    """:func:`embed` of the factor's :func:`optics_matrix`."""
    if factor.m >= d or factor.n_idx >= d:
        raise ValidationError(
            f"factor levels ({factor.m}, {factor.n_idx}) out of range for d={d}"
        )
    return embed(factor.m, factor.n_idx, optics_matrix(factor), d)


def product(blocks, d: int) -> np.ndarray:
    """Matrix product of the embedded blocks ``(m, n_idx, u2)`` in
    application order."""
    result = np.eye(d, dtype=complex)
    for m, n_idx, u2 in blocks:
        result = embed(m, n_idx, u2, d) @ result
    return result


def product_of_factors(factors: list[TwoLevelFactor], d: int) -> np.ndarray:
    """Matrix product of the embedded factors in application order: the
    oracle of the decomposition."""
    return product([(f.m, f.n_idx, optics_matrix(f)) for f in factors], d)


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
        u2s = map(optics_matrix, decompose_two_level(U))
        nontrivial = [u2 for u2 in u2s
                      if np.linalg.norm(u2 - np.eye(2)) > 1e-12 and abs(u2[0][1]) > 1e-12]
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
        for row in elimination_rows(col, d):
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
        for row in elimination_rows(col, d):
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
        assert np.max(np.abs(optics_matrix(f) - u2)) <= 1e-12
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
        assert np.max(np.abs(np.abs(optics_matrix(f)) - np.abs(u2))) <= 1e-12
    assert np.linalg.norm(product_of_factors(factors, d) - U) <= 1e-12
    assert np.linalg.norm(product(old, d) - U) <= 1e-12


#: The identity on levels (0, 1), from explicit angles: no factor of
#: :func:`decompose_two_level` is one.
IDENTITY_FACTOR = TwoLevelFactor(m=0, n_idx=1, theta=0.0, phi_pre=0.0, phi_post=0.0, delta=0.0)
ANGLES = ("theta", "phi_pre", "phi_post", "delta")


@given(z=st.complex_numbers(allow_nan=False, allow_infinity=False))
@example(z=complex(-0.0, -0.0))
@example(z=complex(-1.0, -0.0))
@example(z=complex(5e-324, -5e-324))
@example(z=complex(2.0**52, 2.0**-1023))
def test_atan2_is_cmath_phase_bit_for_bit(z):
    """``decompose_two_level`` reads a phase as ``math.atan2(z.imag, z.real)``,
    which is ``cmath.phase(z)``, signed zeros and subnormals included.  Only
    where the phase underflows to zero, which needs ``|z.real|`` about 2**1074
    times ``|z.imag|`` and so no phase of a unit number, does ``cmath`` raise."""
    try:
        want = cmath.phase(z)
    except OverflowError:
        assert math.atan2(z.imag, z.real) == 0.0
    else:
        assert repr(math.atan2(z.imag, z.real)) == repr(want)


class TestTwoLevelFactor:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("angle", ANGLES)
    def test_rejects_a_non_finite_angle(self, angle, value):
        with pytest.raises(ValidationError, match=f"^{angle} must be a finite number, got "):
            TwoLevelFactor(**dict(IDENTITY_FACTOR.asdict(), **{angle: value}))

    @pytest.mark.parametrize("m, n_idx", [(1, 1), (0, 0), (-1, 1), (0, -2)])
    def test_rejects_equal_or_negative_levels(self, m, n_idx):
        with pytest.raises(ValidationError, match="two distinct non-negative levels"):
            TwoLevelFactor(**dict(IDENTITY_FACTOR.asdict(), m=m, n_idx=n_idx))


class TestEmbedFactor:
    def test_identity_block(self):
        assert np.array_equal(embed_factor(IDENTITY_FACTOR, 4), np.eye(4))

    def test_pauli_x_full_dim(self):
        assert np.linalg.norm(embed_factor(factor_of(PAULI_X), 2) - PAULI_X) < 1e-15

    def test_offdiagonal_placement(self):
        M = embed_factor(factor_of(HADAMARD, 1, 3), 4)
        assert M[0, 0] == 1 and M[2, 2] == 1
        assert M[1, 1] == pytest.approx(HADAMARD[0, 0])
        assert M[1, 3] == pytest.approx(HADAMARD[0, 1])
        assert M[3, 1] == pytest.approx(HADAMARD[1, 0])
        assert np.linalg.norm(M.conj().T @ M - np.eye(4)) < 1e-12

    def test_rejects_out_of_range(self):
        f = TwoLevelFactor(**dict(IDENTITY_FACTOR.asdict(), m=1, n_idx=3))
        with pytest.raises(ValidationError):
            embed_factor(f, 2)


class TestU2ToOptics:
    """The optical angles of a 2x2 unitary, as :func:`decompose_two_level`
    finds them."""

    def test_identity_canonical(self):
        assert decompose_two_level(np.eye(2, dtype=complex)) == []

    def test_real_rotation(self):
        c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
        f = factor_of(np.array([[c, s], [-s, c]], dtype=complex))
        assert f.theta == pytest.approx(math.pi / 4)
        assert (f.phi_pre, f.phi_post, f.delta) == (0.0, 0.0, 0.0)

    def test_antidiagonal(self):
        u2 = np.array([[0, 1j], [1j, 0]], dtype=complex)
        f = factor_of(u2)
        assert f.theta == pytest.approx(math.pi / 2)
        assert f.phi_pre == 0.0
        assert np.linalg.norm(optics_matrix(f) - u2) < 1e-12

    def test_reconstruction_on_random_unitaries(self, rng):
        for _ in range(1000):
            u2 = haar_random_unitary(2, rng)
            f = factor_of(u2)
            assert 0 <= f.theta <= math.pi / 2
            assert np.linalg.norm(optics_matrix(f) - u2) < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            decompose_two_level(np.array([[1, 1], [0, 1]], dtype=complex))


class TestLowerTwoLevel:
    def test_identity_factor_roundtrip(self):
        net = Netlist(n=2, mode_count=3, elements=tuple(lower_two_level(IDENTITY_FACTOR)))
        for l in range(4):
            out = run_netlist(basis_state(0, l, 2), net)
            assert out.amplitude(0, l) == pytest.approx(1, abs=1e-12)

    def test_pauli_x_swaps_basis(self):
        f = TwoLevelFactor(m=0, n_idx=1, theta=math.pi / 2, phi_pre=0.0, phi_post=math.pi,
                           delta=0.0)
        net = Netlist(n=2, mode_count=3, elements=tuple(lower_two_level(f)))
        out = run_netlist(basis_state(0, 0, 2), net)
        assert abs(out.amplitude(0, 1)) == pytest.approx(1, abs=1e-12)

    def test_hadamard_on_inner_levels(self):
        f = factor_of(HADAMARD, 1, 2)
        net = Netlist(n=2, mode_count=3, elements=tuple(lower_two_level(f)))
        out = run_netlist(basis_state(0, 1, 2), net)
        assert out.amplitude(0, 1) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert out.amplitude(0, 2) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_untouched_components_exact(self, rng):
        f = factor_of(haar_random_unitary(2, rng), 1, 2)
        net = Netlist(n=2, mode_count=3, elements=tuple(lower_two_level(f)))
        for l in (0, 3):
            out = run_netlist(basis_state(0, l, 2), net)
            assert out.amplitude(0, l) == pytest.approx(1, abs=1e-12)

    def test_rejects_degenerate_mode_plan(self):
        with pytest.raises(ValidationError):
            lower_two_level(factor_of(PAULI_X), mode_plan=(0, 0, 1))


class TestCompileUnitary:
    def test_identity_empty(self):
        net, report = compile_unitary(np.eye(4, dtype=complex))
        assert len(net) == 0
        assert report.verification_residual == 0.0
        assert report.factor_count == 0

    def test_hadamard(self):
        net, report = compile_unitary(HADAMARD)
        assert report.verification_residual < 1e-10
        assert report.analytic_survival == report.min_survival == 1.0

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_random_roundtrip(self, d, rng):
        for _ in range(3):
            U = haar_random_unitary(d, rng)
            net, report = compile_unitary(U)
            assert report.verification_residual < 1e-9
            assert report.factor_count <= d * (d - 1) // 2 + d

    def test_compiled_netlists_have_even_reflections(self, rng):
        # A mirror flips the OAM signs on its path; the compiler emits none.
        net, _ = compile_unitary(haar_random_unitary(4, rng))
        assert not any(isinstance(el, Mirror) for el in net.elements)

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
        """The report's survivals, read off the verification pass, against
        runs of each basis input on its own: ``|0>``'s and the least, equal
        within rounding, not bit-equal."""
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
            alone = [survival_probability(run_netlist(basis_state(0, l, net.n), net))
                     for l in range(d)]
            assert abs(report.analytic_survival - alone[0]) <= 1e-12
            assert abs(report.min_survival - min(alone)) <= 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            compile_unitary(2 * np.eye(2, dtype=complex))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValidationError):
            qubit_count_for(7)


class TestElementBudget:
    """Each factor of a Haar draw costs one beamsplitter, one phase shifter
    and at most four gates, and each level's phase at most one more phase
    shifter.  Column ``c`` of the elimination is a run of factors on level
    ``c``, held in ``aux_b`` along the run, and each column's first factor
    shares its ``n_idx`` with the previous column's last: every one of the
    ``F - 1`` boundaries between the ``F = d(d - 1)/2`` factors holds one
    level, so of ``2d(d - 1)`` gates, ``d(d - 1) - 2`` go."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_haar_budget(self, n, seed):
        d = 1 << n
        net, report = compile_unitary(haar_random_unitary(d, np.random.default_rng(seed)))
        gates = sum(isinstance(el, (ExtractGate, ReintegrateGate)) for el in net.elements)
        assert report.factor_count == d * (d - 1) // 2
        assert gates == report.gate_count == d * (d - 1) + 2
        assert report.element_count <= gates + 2 * report.factor_count + d

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


def unheld(factors: list[TwoLevelFactor]) -> list[TwoLevelFactor]:
    """``factors`` with every hold flag cleared: each extracts and
    reintegrates both of its levels."""
    return [TwoLevelFactor(**dict(f.asdict(), m_held_in=False, m_held_out=False,
                                  n_held_in=False, n_held_out=False)) for f in factors]


#: ``(name, d, before, gates)`` of each structured unitary of
#: :meth:`TestHeldLevels.test_structured_unitaries_keep_the_unheld_map`.
STRUCTURED = [
    ("CZ", 4, 4, 2), ("CZ", 8, 4, 2), ("T", 4, 12, 6), ("T", 8, 28, 14), ("T", 128, 508, 254),
    ("cyclic", 4, 12, 12), ("cyclic", 8, 28, 28), ("H", 4, 16, 14), ("H", 8, 68, 58),
    ("QFT", 4, 16, 14), ("QFT", 8, 68, 58), ("block", 4, 4, 4), ("block", 8, 16, 16),
    ("block+phase", 4, 8, 6), ("block+phase", 8, 20, 18), ("pair+phase", 4, 6, 6),
]


class TestHeldLevels:
    """A level held in its aux mode between two factors drops a gate pair
    that is, ideally, a signed swap and its inverse."""

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_ideal_map_is_that_of_the_unheld_factors(self, d, seed):
        U = haar_random_unitary(d, np.random.default_rng(seed))
        factors = decompose_two_level(U)
        held, _ = compile_unitary(U)
        assert basis_response(held) == basis_response(lowered(unheld(factors), d, IDEAL))

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_worst_survival_does_not_fall(self, d, seed):
        """Fewer lossy gates: the least survival over basis inputs does not
        fall.  Not every input's survival need rise: at d=16 and 3 or 7
        stages, where each is about 1e-60 or less, one or two can fall."""
        factors = decompose_two_level(haar_random_unitary(d, np.random.default_rng(seed)))
        for stages in (3, 7, 100, 2000):
            _, held = basis_response(lowered(factors, d, stages))
            _, plain = basis_response(lowered(unheld(factors), d, stages))
            assert min(held) >= min(plain), stages

    @pytest.mark.parametrize("name, d, before, gates", STRUCTURED,
                             ids=[f"{name}-{d}-{before}" for name, d, before, _ in STRUCTURED])
    def test_structured_unitaries_keep_the_unheld_map(self, name, d, before, gates):
        """Unitaries whose elimination skips entries or leaves phase-only
        factors, with their dummy ``n_idx = (level + 1) % d``, next to
        rotations: the n-qubit controlled Z ``diag(1, ..., 1, -1)``, ``T`` on
        each qubit, the cyclic permutation ``l -> l + 1``, ``H`` on each
        qubit, the QFT, and a Haar block on levels ``1 .. d/2`` with the
        other levels untouched, or with ``i`` on level ``d - 1``, and a Haar
        pair on levels 0 and 2 with ``i`` on level 1, whose phase-only factor
        holds level 2 for the next factor.  ``gates``
        is the ideal gate count, ``before`` that of the ascending row order
        with both levels of every phase-only factor routed: a phase-only
        factor now routes only the level it touches."""
        n = qubit_count_for(d)
        block = np.eye(d, dtype=complex)
        block[1:1 + d // 2, 1:1 + d // 2] = haar_random_unitary(d // 2, np.random.default_rng(d))
        pair = np.diag([1.0, 1j] + [1.0] * (d - 2))
        pair[np.ix_([0, 2], [0, 2])] = haar_random_unitary(2, np.random.default_rng(d))
        U = {
            "CZ": np.diag([1.0] * (d - 1) + [-1.0]).astype(complex),
            "T": np.diag([cmath.exp(1j * math.pi / 4 * bin(l).count("1")) for l in range(d)]),
            "cyclic": np.roll(np.eye(d, dtype=complex), 1, axis=0),
            "H": functools.reduce(np.kron, [HADAMARD] * n),
            "QFT": np.array([[cmath.exp(2j * math.pi * j * k / d) for k in range(d)]
                             for j in range(d)]) / math.sqrt(d),
            "block": block,
            "block+phase": block @ np.diag([1] * (d - 1) + [1j]),
            "pair+phase": pair,
        }[name]
        held, report = compile_unitary(U)
        assert report.gate_count == gates <= before
        unheld_net = lowered(unheld(decompose_two_level(U)), d, IDEAL)
        assert basis_response(held) == basis_response(unheld_net)

    def test_flags_name_the_neighbours_levels(self):
        """Four levels: column 2 is (2, 3), column 1 is (1, 3), (1, 2) and
        column 0 is (0, 2), (0, 3), (0, 1), in application order: level 3
        is held from column 2 into column 1, level 2 from column 1 into
        column 0, and level ``c`` along column ``c``."""
        factors = decompose_two_level(haar_random_unitary(4, np.random.default_rng(0)))
        assert [(f.m, f.n_idx) for f in factors] == [(2, 3), (1, 3), (1, 2), (0, 2), (0, 3),
                                                     (0, 1)]
        flags = [(f.m_held_in, f.m_held_out, f.n_held_in, f.n_held_out) for f in factors]
        assert flags == [(False, False, False, True), (False, True, True, False),
                         (True, False, False, True), (False, True, True, False),
                         (True, True, False, False), (True, False, False, False)]

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 32), seed=st.integers(0, 2**32 - 1))
    def test_every_boundary_holds_one_level(self, d, seed):
        """Each column's rows are all of those below its pivot, once, and on
        a Haar draw exactly one level, ``m`` or ``n_idx``, is held across
        each boundary between consecutive factors: the floor of
        ``d(d - 1) + 2`` gates."""
        for col in range(d - 1):
            assert sorted(elimination_rows(col, d)) == list(range(col + 1, d))
        factors = decompose_two_level(haar_random_unitary(d, np.random.default_rng(seed)))
        assert not (factors[0].m_held_in or factors[0].n_held_in)
        assert not (factors[-1].m_held_out or factors[-1].n_held_out)
        for a, b in zip(factors, factors[1:]):
            assert a.m_held_out + a.n_held_out == 1, (a, b)
            assert (a.m_held_out, a.n_held_out) == (b.m_held_in, b.n_held_in), (a, b)

    @pytest.mark.parametrize("d", [8, 16])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_worst_survival_does_not_fall_from_the_ascending_order(self, d, seed):
        """Fewer lossy gates than the ascending row order gives: the least
        survival over basis inputs does not fall at d=8 and d=16 (on seeds
        0-399 at 100 and 200 stages it rose on every one, by x1.095 or
        more).  At d=4 it can fall slightly: on seeds 0-399 at 100 stages it
        fell on 14, by x0.981 at most."""
        U = haar_random_unitary(d, np.random.default_rng(seed))
        for stages in (100, 200):
            snake = compile_unitary(U, stages)[1].min_survival
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr("oamcomp.compiler.elimination_rows",
                              lambda col, d: list(range(col + 1, d)))
                ascending = compile_unitary(U, stages)[1].min_survival
            assert snake >= ascending, stages


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
        decompose_two_level(np.array([[np.nan, 0], [0, 1]], dtype=complex))


def test_haar_unitary_is_unitary(rng):
    for d in (2, 4, 8):
        decompose_two_level(haar_random_unitary(d, rng))


def gram_residual(U) -> float:
    """``||U^dagger U - I||_F``: the oracle of the unitarity check."""
    U = np.asarray(U)
    return float(np.linalg.norm(U.conj().T @ U - np.eye(len(U))))


def perturbed(U, kind: str, eps: float, rng) -> np.ndarray:
    """``U`` moved by about ``eps``: by a random matrix of Frobenius norm
    ``eps`` (generic), by a column scaling ``1 + eps * x`` (diagonal drift),
    or in one entry by ``eps`` times a random phase (single entry)."""
    d = len(U)
    if kind == "generic":
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return U + eps * z / np.linalg.norm(z)
    if kind == "diagonal drift":
        return U * (1 + eps * rng.normal(size=d))
    moved = U.copy()
    moved[rng.integers(d), rng.integers(d)] += eps * np.exp(2j * math.pi * rng.random())
    return moved


@pytest.mark.parametrize("kind", ["generic", "diagonal drift", "single entry"])
@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_unitarity_check_is_no_looser_than_the_gram_rule(d, kind):
    """Whatever ``decompose_two_level`` accepts is unitary within
    ``UNITARITY_TOL`` by the Gram residual, over perturbations of ``1e-11``
    to ``1e-7``; both outcomes occur."""
    rng = np.random.default_rng(d)
    accepted = refused = 0
    for eps in np.logspace(-11, -7, 17):
        for _ in range(3):
            U = perturbed(haar_random_unitary(d, rng), kind, eps, rng)
            try:
                decompose_two_level(U)
            except ValidationError as exc:
                assert str(exc).startswith("matrix is not unitary"), exc
                refused += 1
                continue
            assert gram_residual(U) <= 1e-9 * (1 + 1e-9), (eps, gram_residual(U))
            accepted += 1
    assert accepted and refused


@pytest.mark.parametrize("U", [
    2 * HADAMARD,
    np.array([[1, 0], [0, 0]], dtype=complex),
    np.array([[1, 0], [1, 0]], dtype=complex),
    np.array([[1, 0], [np.nan, 1]], dtype=complex),
    np.array([[1, 0], [0, np.inf]], dtype=complex),
    np.array([[1.5e308 + 1.5e308j, 0], [0, 1]], dtype=complex),
], ids=["2U", "zero-row", "rank-one-unit-rows", "nan", "inf", "overflowing-square"])
def test_unitarity_check_refuses_cleanly(U):
    """Each is refused as not unitary, never with the ``OverflowError`` of
    ``abs`` or the ``ZeroDivisionError`` of a zero diagonal's phase: the
    rank-one matrix's rows have unit norm, and its elimination leaves a zero
    on the diagonal."""
    with pytest.raises(ValidationError, match="^matrix is not unitary"):
        decompose_two_level(U)
