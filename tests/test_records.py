"""The package's records (subclasses of `market.Record`) are immutable
values: fields are fixed, equality and hash read exactly the compared
fields, derived fields are not constructor arguments, and every other
field can be passed by position or keyword, is required, and no other
argument is taken."""

from __future__ import annotations

from fractions import Fraction

import pytest

from fairsignal.ironing import monotone_fair_scheme
from fairsignal.lp import LinearProgram, solve_lp
from fairsignal.market import Record, Signal, ValueDistribution
from fairsignal.oracles import buyer_optimal_lb_instance, universal_lb_instance
from fairsignal.splitmatch import BinarySignalEntry, binary_shares, split_and_match
from fairsignal.steps import scheme_surplus

# Fields left out of equality and hash: each follows from the compared
# fields, or is a solver's working state.
UNCOMPARED = {
    "Signal": {"optimal_price_index"},
    "SignalingScheme": {"surpluses", "total_surplus", "revenue"},
    "BinarySignalEntry": {"shares"},
    "DecomposedScheme": {"singletons", "surpluses", "total_surplus"},
    "StepFunction": {"integrals"},
    "SurplusProfile": {"total"},
    "LPResult": {"_tableau"},
}
# Fields the constructor derives, which it does not take.
DERIVED = {
    "Signal": {"optimal_price_index"},
    "SignalingScheme": {"surpluses", "total_surplus", "revenue"},
    "DecomposedScheme": {"singletons", "surpluses", "total_surplus"},
    "StepFunction": {"integrals"},
}


def one_of_each() -> dict[str, Record]:
    """One record of every class, from a prior whose smoothing lifts a
    class, so that every pipeline artifact is populated."""
    dist = ValueDistribution.from_pairs([5, 23, 25], ["2/3", "1/6", "1/6"])
    result = monotone_fair_scheme(dist)
    scheme = result.final.to_signaling_scheme()
    profile = scheme_surplus(scheme)
    lp = LinearProgram(
        (Fraction(1), Fraction(1)),
        (
            (((0, Fraction(1)), (1, Fraction(2))), Fraction(4)),
            (((0, Fraction(3)), (1, Fraction(1))), Fraction(6)),
        ),
    )
    records = [
        dist,
        scheme.entries[0][0],
        scheme,
        result.base.binaries[0],
        result.base.singletons[0],
        result.base,
        profile.step_function,
        profile,
        result.ironed.intervals[0],
        result.ironed,
        result.pairings[0][0],
        result,
        lp,
        solve_lp(lp),
        buyer_optimal_lb_instance(2),
        universal_lb_instance("1/100"),
    ]
    return {type(r).__name__: r for r in records}


RECORDS = one_of_each()


def fields(record: Record) -> list[str]:
    return list(type(record).__annotations__)


def arguments(record: Record) -> dict:
    """The constructor arguments that rebuild ``record``, by keyword, in
    declaration order."""
    derived = DERIVED.get(type(record).__name__, set())
    return {field: getattr(record, field) for field in fields(record) if field not in derived}


def with_field(record: Record, name: str, value) -> Record:
    """A copy of ``record`` with field ``name`` set to ``value``."""
    twin = object.__new__(type(record))
    for field in fields(record):
        object.__setattr__(twin, field, value if field == name else getattr(record, field))
    return twin


def test_every_record_class_is_covered():
    assert {cls.__name__ for cls in Record.__subclasses__()} == set(RECORDS)
    assert len(RECORDS) == 16


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_has_a_docstring(name):
    assert type(RECORDS[name]).__doc__


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_set_or_deleted(name):
    record = RECORDS[name]
    for field in fields(record):
        value = getattr(record, field)
        with pytest.raises(AttributeError, match=field):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=field):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.planted = 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_and_hash_read_exactly_the_compared_fields(name):
    record = RECORDS[name]
    uncompared = UNCOMPARED.get(name, set())
    assert uncompared <= set(fields(record))
    for field in fields(record):
        twin = with_field(record, field, object())
        if field in uncompared:
            assert twin == record
            assert hash(twin) == hash(record)
        else:
            assert twin != record
    assert record != object()
    assert hash(type(record)(**arguments(record))) == hash(record)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_constructor_takes_every_field_but_the_derived_by_keyword(name):
    record = RECORDS[name]
    given = arguments(record)
    assert type(record)(**given) == record
    for field in DERIVED.get(name, set()):
        with pytest.raises(TypeError, match=field):
            type(record)(**given, **{field: getattr(record, field)})


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_positional_construction_equals_keyword_construction(name):
    record = RECORDS[name]
    given = arguments(record)
    built = type(record)(*given.values())
    assert built == type(record)(**given) == record
    # the uncompared fields too are bound in declaration order
    assert {field: getattr(built, field) for field in given} == given


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_omitting_a_required_field_raises_naming_it(name):
    record = RECORDS[name]
    given = arguments(record)
    for field in given:
        rest = {other: value for other, value in given.items() if other != field}
        with pytest.raises(TypeError, match=f"missing required argument '{field}'"):
            type(record)(**rest)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_an_argument_beyond_the_fields_raises(name):
    record = RECORDS[name]
    cls, given = type(record), arguments(record)
    with pytest.raises(TypeError, match=f"takes {len(given)} arguments, {len(given) + 1} given"):
        cls(*given.values(), None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'spare'"):
        cls(**given, spare=None)
    first = next(iter(given))
    with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
        cls(*given.values(), **{first: given[first]})


def test_binary_repr_is_unchanged():
    # the priced-at-giver InvariantViolation prints it
    dist = ValueDistribution.from_pairs([1, 2], ["1/2", "1/2"])
    binary = BinarySignalEntry(0, 1, Fraction(1, 2), binary_shares(dist, 0, 1))
    assert repr(binary) == "BinarySignalEntry(giver=0, taker=1, weight=Fraction(1, 2))"


def test_repr_shows_the_compared_fields():
    dist = ValueDistribution.from_pairs([1, 2], ["1/2", "1/2"])
    assert repr(dist) == (
        "ValueDistribution(values=(Fraction(1, 1), Fraction(2, 1)), "
        "masses=(Fraction(1, 2), Fraction(1, 2)))"
    )
    stage = split_and_match(dist)
    assert repr(stage) == f"DecomposedScheme(dist={dist!r}, binaries={stage.binaries!r})"
    assert repr(Signal.singleton(dist, 1)) == f"Signal(dist={dist!r}, shares=((1, (1, 1)),))"
