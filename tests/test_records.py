"""The record base ``state.Record`` held to ``dataclasses``: every record
class behaves as a frozen dataclass twin that is declared with the same
fields and defaults, holds the same fields to the same rules and runs the
same ``__post_init__``."""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from oamcomp import compiler, elements, extraction, readout, state
from oamcomp.compiler import TwoLevelFactor
from oamcomp.elements import IDEAL, ExtractGate, Filter, Hologram, ReintegrateGate
from oamcomp.errors import ValidationError
from oamcomp.state import Record, basis_state

#: Each record class's fields as a dataclass declares them: a name, or a
#: name and its default, as a ``dataclasses.field``.
GATE = ["m", "src", "dst", ("stages", dataclasses.field(default=IDEAL))]
DECLARED = {
    state.PhotonState: ["n", ("amplitudes", dataclasses.field(default_factory=dict))],
    elements.PhaseShifter: ["mode", "phi"],
    elements.Hologram: ["mode", "k"],
    elements.BeamSplitter: ["mode_a", "mode_b", "theta"],
    elements.Filter: ["mode", "m"],
    elements.Mirror: ["mode"],
    elements.ExtractionSpec: GATE,
    elements.ExtractGate: GATE,
    elements.ReintegrateGate: GATE,
    elements.Netlist: ["n", "mode_count", ("elements", dataclasses.field(default=()))],
    extraction.MonteCarloResult: ["success", "state", "absorbed_at"],
    compiler.TwoLevelFactor: ["m", "n_idx", "theta", "phi_pre", "phi_post", "delta",
                              *[(name, dataclasses.field(default=False)) for name in (
                                  "m_held_in", "m_held_out", "n_held_in", "n_held_out")]],
    compiler.CompileReport: ["factor_count", "element_count", "gate_count",
                             "analytic_survival", "min_survival", "verification_residual"],
    readout.ReadoutCost: [(name, dataclasses.field(default=0))
                          for name in ("decision_points", "arms", "runs", "cnot_count")],
}


def twin(cls):
    """A frozen dataclass named as ``cls``, with its declared fields, that
    holds each field annotated ``int``, ``float``, ``Mode`` or ``bool`` to
    its rule and then runs ``cls.__post_init__``."""
    fields = [(f[0], object, f[1]) if isinstance(f, tuple) else f for f in DECLARED[cls]]
    rules = [(name, state._FIELD_RULES[kind]) for name, kind in cls._fields.items()
             if kind in state._FIELD_RULES]

    def __post_init__(self):
        for name, rule in rules:
            object.__setattr__(self, name, rule(name, getattr(self, name)))
        cls.__post_init__(self)

    return dataclasses.make_dataclass(
        cls.__name__, fields, namespace={"__post_init__": __post_init__}, frozen=True)


TWINS = {cls: twin(cls) for cls in DECLARED}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_has_a_twin():
    assert set(_subclasses(Record)) == set(DECLARED)


small = st.integers(-2, 5)
#: An int field's value: mostly an int, else a bool, a whole float or a string.
ints = small | st.sampled_from([3, True, 1.0, "x"])
reals = st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, 0.5, math.inf, 2, True])
amplitude = st.sampled_from([0j, 0.5, -0.5j]) | st.complex_numbers(
    max_magnitude=0.8, allow_nan=False)
stages = st.just(IDEAL) | st.integers(-1, 4) | st.sampled_from([True, 2.0, "x"])
some_elements = st.lists(
    st.builds(Filter, mode=st.integers(0, 3), m=small)
    | st.builds(elements.Mirror, mode=st.integers(0, 5))
    | st.builds(ExtractGate, m=small, src=st.integers(0, 1), dst=st.integers(2, 3)),
    max_size=3).map(tuple)
angles = reals | st.sampled_from([math.nan, -math.inf, "x"])
#: A bool field's value: mostly a bool, else a number that reads as one.
flags = st.booleans() | st.sampled_from([0, 1, 1.0])

#: Keyword arguments of each record class, valid and invalid alike.
ARGUMENTS = {
    state.PhotonState: st.fixed_dictionaries({
        "n": st.integers(-1, 3) | st.just(True),
        "amplitudes": st.dictionaries(st.tuples(st.integers(-1, 2), small), amplitude,
                                      max_size=3)}),
    elements.PhaseShifter: st.fixed_dictionaries({"mode": ints, "phi": reals}),
    elements.Hologram: st.fixed_dictionaries({"mode": small, "k": ints}),
    elements.BeamSplitter: st.fixed_dictionaries(
        {"mode_a": ints, "mode_b": small, "theta": reals}),
    elements.Filter: st.fixed_dictionaries({"mode": small, "m": ints}),
    elements.Mirror: st.fixed_dictionaries({"mode": ints}),
    elements.Netlist: st.fixed_dictionaries(
        {"n": st.integers(0, 3), "mode_count": ints, "elements": some_elements}),
    extraction.MonteCarloResult: st.fixed_dictionaries({
        "success": flags, "state": st.none() | st.just(basis_state(0, 1, 1)),
        "absorbed_at": st.none() | small}),
    compiler.TwoLevelFactor: st.fixed_dictionaries(
        {"m": small, "n_idx": ints, "theta": angles, "phi_pre": angles, "phi_post": angles,
         "delta": angles, "m_held_in": flags, "m_held_out": flags, "n_held_in": flags,
         "n_held_out": flags}),
    compiler.CompileReport: st.fixed_dictionaries(
        {"factor_count": small, "element_count": ints, "gate_count": small,
         "analytic_survival": reals, "min_survival": reals,
         "verification_residual": reals}),
    readout.ReadoutCost: st.fixed_dictionaries(
        {"decision_points": small, "arms": small, "runs": ints, "cnot_count": small}),
}
for _gate in (elements.ExtractionSpec, ExtractGate, ReintegrateGate):
    ARGUMENTS[_gate] = st.fixed_dictionaries(
        {"m": ints, "src": small, "dst": small, "stages": stages})


def outcome(fn):
    """``fn()``'s value, or what it raised: a ``ValidationError`` with its
    message, else the kind of error (dataclasses' ``FrozenInstanceError`` is
    an ``AttributeError``)."""
    try:
        return fn()
    except ValidationError as exc:
        return ValidationError, str(exc)
    except (TypeError, AttributeError) as exc:
        return TypeError if isinstance(exc, TypeError) else AttributeError


def field_dict(record) -> dict:
    """The fields of a record or of a dataclass, by name."""
    if dataclasses.is_dataclass(record):
        return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
    return record.asdict()


def behaviour(cls, declared: list, one: dict, other: dict) -> list:
    """What ``cls``, whose fields are ``declared`` as in :data:`DECLARED`,
    does with the arguments ``one`` and ``other``, in terms that a record
    and its twin share."""
    first = outcome(lambda: cls(**one))
    if not isinstance(first, cls):
        return [first]
    values = [one[f if isinstance(f, str) else f[0]] for f in declared]
    required = [one[f] for f in declared if isinstance(f, str)]
    again, second = cls(*values), outcome(lambda: cls(**other))
    seen = [repr(first), field_dict(first), first == again, first == first,
            first == second, outcome(lambda: hash(first) == hash(again))]
    if cls.__eq__ is not object.__eq__:
        seen.append(outcome(lambda: hash(first)))
    for name in one:
        seen.append(outcome(lambda: setattr(first, name, 0)))
        seen.append(outcome(lambda: delattr(first, name)))
    seen += [
        # The defaults of the fields left out.
        outcome(lambda: field_dict(cls(*required))),
        # A missing, unexpected, surplus or repeated argument.
        outcome(lambda: cls(*required[:-1])) if required else None,
        outcome(lambda: cls(**one, bogus=1)),
        outcome(lambda: cls(*values, 0)),
        outcome(lambda: cls(*values, **dict([next(iter(one.items()))]))),
    ]
    return seen


@pytest.mark.parametrize("cls", list(ARGUMENTS), ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_record_behaves_as_its_dataclass_twin(cls, data):
    one, other = data.draw(ARGUMENTS[cls]), data.draw(ARGUMENTS[cls])
    declared = DECLARED[cls]
    assert behaviour(cls, declared, one, other) == behaviour(TWINS[cls], declared, one, other)


@pytest.mark.parametrize("a, b", [
    (ExtractGate(m=1, src=0, dst=2, stages=5), ReintegrateGate(m=1, src=0, dst=2, stages=5)),
    (Filter(mode=0, m=1), Hologram(mode=0, k=1)),
], ids=["gates", "filter-hologram"])
def test_equal_fields_of_two_classes_are_unequal(a, b):
    twin_a, twin_b = (TWINS[type(r)](**r.asdict()) for r in (a, b))
    assert tuple(a.asdict().values()) == tuple(b.asdict().values())
    assert (a == b, b == a, a != b) == (twin_a == twin_b, twin_b == twin_a,
                                        twin_a != twin_b) == (False, False, True)


def test_two_level_factors_compare_by_value():
    angles = {"theta": math.pi / 2, "phi_pre": 0.0, "phi_post": math.pi, "delta": 0.0}
    f, g = TwoLevelFactor(m=0, n_idx=1, **angles), TwoLevelFactor(m=0, n_idx=1, **angles)
    assert f == g and hash(f) == hash(g)
    assert len({f, g}) == 1
    assert f != TwoLevelFactor(m=1, n_idx=0, **angles)
