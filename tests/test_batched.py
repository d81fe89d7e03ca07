"""The batched basis response against one validated run per basis input,
and the row engine against the unoptimised map semantics of ``map_oracle``."""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oamcomp import elements
from oamcomp.compiler import compile_unitary, haar_random_unitary
from oamcomp.elements import (
    IDEAL,
    BeamSplitter,
    ExtractGate,
    Filter,
    Hologram,
    Mirror,
    Netlist,
    PhaseShifter,
    ReintegrateGate,
    run_netlist,
)
from oamcomp.errors import LeakageError, ValidationError
from oamcomp.extraction import monte_carlo_run
from oamcomp.state import PhotonState, basis_state, normalized, survival_probability
from oamcomp.verification import basis_response, reconstruct_and_verify

import map_oracle
from conftest import Draws, coefficients


def per_column_response(netlist: Netlist) -> tuple[np.ndarray, np.ndarray]:
    """The unoptimised basis response, and each input's survival:
    ``run_netlist`` on each basis input.

    Every column is run before any output is looked at, as in the batched
    pass, which finds a fault (norm, an ideal gate's refusal) in any column
    before it checks outputs for leakage or absorption.
    """
    d = 1 << netlist.n
    outs = [run_netlist(basis_state(0, col, netlist.n), netlist) for col in range(d)]
    lossless = not any(
        isinstance(el, Filter)
        or isinstance(el, (ExtractGate, ReintegrateGate)) and el.stages != IDEAL
        for el in netlist.elements
    )
    if lossless:
        offenders = sorted({
            (mode, l)
            for out in outs
            for (mode, l), amp in out.amplitudes.items()
            if (mode != 0 or not 0 <= l < d) and abs(amp) > 1e-9
        })
        if offenders:
            raise LeakageError(offenders)
    effective = np.array([coefficients(out) for out in outs], dtype=complex).T
    if not lossless:
        effective = map_oracle.unit_columns(effective)
    return effective, np.array([survival_probability(out) for out in outs])


def outcome(response, netlist):
    try:
        return response(netlist), None
    except ValidationError as exc:
        return None, exc


def assert_same_response(netlist: Netlist) -> bool:
    """Both paths give the same matrix, survival and residual, or the same
    error class."""
    batched, batched_error = outcome(basis_response, netlist)
    oracle, oracle_error = outcome(per_column_response, netlist)
    assert type(batched_error) is type(oracle_error), (batched_error, oracle_error)
    if isinstance(oracle_error, LeakageError):
        assert batched_error.offenders == oracle_error.offenders
    elif "absorbed" in str(oracle_error):
        assert str(batched_error) == str(oracle_error)
    if oracle_error is not None:
        return False
    for got, want in zip(batched, oracle):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    U = haar_random_unitary(1 << netlist.n, np.random.default_rng(netlist.n))
    residual = reconstruct_and_verify(netlist, U)
    assert abs(residual - np.linalg.norm(oracle[0] - U)) <= 1e-12
    return True


@st.composite
def netlists(draw):
    n = draw(st.integers(1, 3))
    mode_count = draw(st.integers(2, 4))
    mode = st.integers(0, mode_count - 1)
    pair = st.permutations(range(mode_count)).map(lambda p: p[:2])
    oam = st.integers(-2, (1 << n) + 1)
    angle = st.floats(-2 * math.pi, 2 * math.pi)
    stages = st.one_of(st.just(IDEAL), st.integers(1, 50))

    def two_mode(cls, *rest):
        return pair.flatmap(lambda p: st.builds(cls, st.just(p[0]), st.just(p[1]), *rest))

    def gate(cls):
        return pair.flatmap(
            lambda p: st.builds(cls, m=oam, src=st.just(p[0]), dst=st.just(p[1]),
                                stages=stages))

    element = st.one_of(
        st.builds(PhaseShifter, mode, angle),
        st.builds(Hologram, mode, st.integers(-3, 3)),
        two_mode(BeamSplitter, angle),
        st.builds(Filter, mode, oam),
        st.builds(Mirror, mode),
        gate(ExtractGate),
        gate(ReintegrateGate),
    )
    return Netlist(n=n, mode_count=mode_count, elements=draw(st.lists(element, max_size=12)))


def _amplifying_phase_shift(rows, el):
    """A faulty phase shifter with gain 1.5, to trip the norm guard."""
    for l in list(rows.levels(el.mode)):
        rows.put(el.mode, l, [z * 1.5 for z in rows.get(el.mode, l)])


def _decaying_phase_shift(rows, el):
    """The same fault through the mode's scale: a decay by 1.5."""
    rows.decay(el.mode, 1.5)


def _amplifying_map_phase_shift(amps, el):
    """The same faulty phase shifter in the map oracle's semantics."""
    return {key: amp * 1.5 if key[0] == el.mode else amp for key, amp in amps.items()}


@st.composite
def states(draw, netlist: Netlist) -> PhotonState:
    """A state on ``netlist``'s modes, of up to six amplitudes and norm at
    most 1."""
    keys = st.tuples(st.integers(0, netlist.mode_count - 1), st.integers(-2, 1 << netlist.n))
    amps = draw(st.dictionaries(keys, st.complex_numbers(max_magnitude=1), max_size=6))
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return PhotonState(n=netlist.n, amplitudes={k: a / max(norm, 1.0) for k, a in amps.items()})


@settings(max_examples=300, deadline=None)
@given(netlist=netlists(), faulty=st.booleans())
# An ideal gate whose source is empty for input 0 while its target holds the
# rounding residue (6e-17) of the N=1 rotation: the per-column run, where the
# source is absent, and the batched one, where it is a zero entry, must both
# swap that residue out of mode 0, so both find input 0 fully absorbed.
@example(netlist=Netlist(n=1, mode_count=3, elements=(
    ExtractGate(m=0, src=0, dst=1, stages=1),
    ExtractGate(m=1, src=0, dst=2, stages=IDEAL),
    ReintegrateGate(m=0, src=0, dst=2, stages=IDEAL),
)), faulty=False)
def test_batched_response_matches_per_column_runs(netlist, faulty):
    if not faulty:
        assert_same_response(netlist)
        return
    with mock.patch.dict(elements._SEMANTICS, {PhaseShifter: _amplifying_phase_shift}):
        assert_same_response(netlist)


@settings(max_examples=200, deadline=None)
@given(netlist=netlists(), faulty=st.booleans(), data=st.data())
def test_monte_carlo_run_reads_the_run_netlist_pass(netlist, faulty, data):
    """The sampler reads the same stepping loop as ``run_netlist``: the same
    error class, or, on a run that passes (a draw of 0 passes every filter
    that leaves any weight), the same output state, normalized.  A run that
    is absorbed still steps to the end, so a later fault raises in it too."""
    state = data.draw(states(netlist))
    semantics = {PhaseShifter: _amplifying_phase_shift} if faulty else {}
    with mock.patch.dict(elements._SEMANTICS, semantics):
        final, final_error = outcome(lambda net: run_netlist(state, net), netlist)
        result, result_error = outcome(lambda net: monte_carlo_run(state, net, Draws(0.0)), netlist)
        draw = data.draw(st.floats(0, 1, exclude_max=True))
        _, drawn_error = outcome(lambda net: monte_carlo_run(state, net, Draws(draw)), netlist)
    assert type(result_error) is type(final_error) is type(drawn_error)
    if final_error is None and result.success:
        # A state of norm 0, or one whose squared norm underflows to 0, passes
        # a lossless netlist as it is.
        expected = normalized(final) if survival_probability(final) else final
        assert dict(result.state.amplitudes) == dict(expected.amplitudes)


@pytest.mark.parametrize("d", [2, 4, 8])
@pytest.mark.parametrize("stages", [IDEAL, 3, 50])
def test_compiled_netlists_match_per_column_runs(d, stages):
    U = haar_random_unitary(d, np.random.default_rng(d))
    netlist, _ = compile_unitary(U, stages)
    assert assert_same_response(netlist)


@pytest.mark.parametrize("netlist, error, message", [
    (Netlist(n=1, mode_count=2, elements=(Hologram(mode=0, k=2),)),
     LeakageError, r"\[\(0, 2\), \(0, 3\)\]"),
    (Netlist(n=2, mode_count=2, elements=(
        BeamSplitter(mode_a=0, mode_b=1, theta=0.5), ExtractGate(m=1, src=0, dst=1))),
     ValidationError, "ideal gate would absorb .mode 1, OAM 1."),
    (Netlist(n=2, mode_count=1, elements=(Filter(mode=0, m=2),)),
     ValidationError, "basis input 0 was fully absorbed"),
    (Netlist(n=1, mode_count=1, elements=(PhaseShifter(mode=0, phi=0.0),)),
     ValidationError, "squared norm 2.25 exceeds 1 \\+ eps"),
])
def test_batched_errors_name_the_fault(netlist, error, message):
    """Leaks list every leaking key of any column, absorption names the first
    absorbed column; phase shifters amplify here, to trip the norm guard."""
    with mock.patch.dict(elements._SEMANTICS, {PhaseShifter: _amplifying_phase_shift}):
        with pytest.raises(error, match=message) as caught:
            basis_response(netlist)
    assert type(caught.value) is error


#: A number in an error message: an int, a float in ``repr`` form, or nan/inf.
NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:e[-+]?\d+)?|nan|inf")


def assert_same_error(got, want):
    """The same error class, the same leaking keys, and the same message up
    to its numbers, which may differ in rounding by 1e-12 relative."""
    assert type(got) is type(want), (got, want)
    if want is None:
        return
    if isinstance(want, LeakageError):
        assert got.offenders == want.offenders
    got_text, want_text = str(got), str(want)
    assert NUMBER.sub("#", got_text) == NUMBER.sub("#", want_text), (got_text, want_text)
    for x, y in zip(NUMBER.findall(got_text), NUMBER.findall(want_text)):
        assert x == y or math.isclose(float(x), float(y), rel_tol=1e-12), (got_text, want_text)


def oracle_run(state: PhotonState, netlist: Netlist) -> PhotonState:
    amps, _ = map_oracle.run(dict(state.amplitudes), netlist.elements)
    return PhotonState(n=state.n, amplitudes=amps)


def assert_engine_matches_oracle(netlist: Netlist, states) -> None:
    """Each state through ``run_netlist`` and through the map oracle, and
    the basis response through both: the same error, or results within
    1e-12."""
    for state in states:
        (got, got_error), (want, want_error) = (
            outcome(lambda net: run(state, net), netlist) for run in (run_netlist, oracle_run))
        assert_same_error(got_error, want_error)
        if want_error is None:
            keys = set(got.amplitudes) | set(want.amplitudes)
            assert all(abs(got.amplitude(*k) - want.amplitude(*k)) <= 1e-12 for k in keys)
    (got, got_error), (want, want_error) = (
        outcome(response, netlist) for response in (basis_response, map_oracle.basis_response))
    assert_same_error(got_error, want_error)
    if want_error is None:
        for got_part, want_part in zip(got, want):
            np.testing.assert_allclose(got_part, want_part, rtol=0, atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(case=netlists().flatmap(lambda net: st.tuples(st.just(net), states(net))),
       fault=st.sampled_from([None, _amplifying_phase_shift, _decaying_phase_shift]))
# The decay by 1.5 leaves the totals below the amplified norm, and the filter
# then absorbs the amplified mode: the fault must still raise at its element.
@example(case=(Netlist(n=1, mode_count=2, elements=(
    PhaseShifter(mode=0, phi=0.0), Filter(mode=0, m=5),
)), PhotonState(n=1, amplitudes={(0, 1): 1.0})), fault=_decaying_phase_shift)
def test_engine_matches_the_map_oracle(case, fault):
    """The row engine, its per-mode scale and its upper-bound norm guard
    included, against the map semantics it replaced: every basis input and
    one drawn state on their own, and the basis response as one pass.  A
    faulty phase shifter amplifies through ``Rows.put`` or ``Rows.decay``."""
    netlist, drawn = case
    inputs = [basis_state(0, l, netlist.n) for l in range(1 << netlist.n)] + [drawn]
    if fault is None:
        assert_engine_matches_oracle(netlist, inputs)
        return
    with mock.patch.dict(elements._SEMANTICS, {PhaseShifter: fault}), \
            mock.patch.dict(map_oracle._SEMANTICS, {PhaseShifter: _amplifying_map_phase_shift}):
        assert_engine_matches_oracle(netlist, inputs)


@pytest.mark.parametrize("d, stages", [(16, IDEAL), (16, 200), (32, 2000)])
def test_compile_recomputes_the_norms_once(d, stages):
    """The totals, upper bounds on each input's squared norm, stay within
    ``1 + NORM_EPS`` through a whole compile, so the guard recomputes them
    from the rows (``O(rows x d)``) once, at the end, and never mid-run; the
    survival read after the loop is that exact recompute."""
    checked = []
    check = elements.Rows.check

    def counted(rows):
        checked.append(rows)
        check(rows)

    U = haar_random_unitary(d, np.random.default_rng(d))
    with mock.patch.object(elements.Rows, "check", counted):
        netlist, _ = compile_unitary(U, stages)
        assert len(checked) == 1
        _, survival = basis_response(netlist)
    rows = checked[-1]
    exact = [math.fsum(abs(rows.get(*key)[i]) ** 2 for key in rows.keys()) for i in range(d)]
    assert survival == pytest.approx(exact, rel=1e-12)


def test_deep_decay_matches_the_map_oracle():
    """1,200 two-stage gates halve the amplitude they do not extract each
    time, to 0.5**1200 (below the smallest double): the row engine's mode
    scale must be folded into the rows on the way, or it underflows to 0."""
    pair = (ExtractGate(m=0, src=0, dst=1, stages=2), ReintegrateGate(m=0, src=0, dst=1, stages=2))
    netlist = Netlist(n=1, mode_count=2, elements=pair * 600)
    state = PhotonState(n=1, amplitudes={(0, 0): 0.6, (0, 1): 0.8j})
    assert_engine_matches_oracle(netlist, [state, basis_state(0, 1, 1)])
    assert survival_probability(run_netlist(state, netlist)) == pytest.approx(0.36, rel=1e-12)
