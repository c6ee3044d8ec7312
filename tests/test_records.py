"""The seven records keep the contract they had as 

Each record is a plain class over `dualcomplex._Record`, so a command that
computes does not import `dataclasses`. Here each is compared with a
`@dataclass` twin declared as the record was: the same fields, annotations,
defaults and flags.
"""

import copy
import inspect
import pickle
from dataclasses import (
    FrozenInstanceError, asdict, astuple, field, fields, is_dataclass, make_dataclass, replace,
)
from fractions import Fraction

import pytest

from dualpell.dualcomplex import DualComplex
from dualpell.identities import CATALOG, CatalogEntry, IdentityId, _nonneg, _sides_f13
from dualpell.quaternions import PellQuaternion, build_quaternion
from dualpell.sequences import Family, SequenceSpec
from dualpell.verifier import Counterexample, IdentityReport, SweepConfig, Verdict, default_config

TWINS = {
    DualComplex: make_dataclass("DualComplex", [
        ("real", "Any"), ("imag", "Any"), ("dual", "Any"), ("dual_imag", "Any"),
    ], unsafe_hash=True),
    SequenceSpec: make_dataclass("SequenceSpec", [
        ("family", "Family"), ("k", "Fraction | int"),
    ], frozen=True),
    PellQuaternion: make_dataclass("PellQuaternion", [
        ("value", "DualComplex"), ("family", "Family"), ("k", "Fraction | int"), ("n", "int"),
    ], frozen=True),
    CatalogEntry: make_dataclass("CatalogEntry", [
        ("sides", "Sides"),
        ("params", "tuple[str, ...]", field(default=("n",))),
        ("pre", "Callable[..., bool]", field(default=_nonneg)),
        ("uses_k", "bool", field(default=True)),
    ], frozen=True),
    SweepConfig: make_dataclass("SweepConfig", [
        ("ids", "tuple[IdentityId, ...]"), ("k_values", "tuple[Fraction | int, ...]"),
        ("n_range", "tuple[int, int]"), ("m_range", "tuple[int, int]"), ("r_range", "tuple[int, int]"),
        ("max_counterexamples", "int", field(default=5)),
    ], frozen=True),
    Counterexample: make_dataclass("Counterexample", [
        ("bindings", "dict"), ("lhs", "DualComplex | None"), ("rhs", "DualComplex | None"),
        ("error", "str | None", field(default=None)),
    ], frozen=True),
    IdentityReport: make_dataclass("IdentityReport", [
        ("id", "IdentityId"), ("grid_size", "int"), ("skipped", "int"), ("verdict", "Verdict"),
        ("counterexamples", "tuple[Counterexample, ...]"), ("elapsed", "float"),
    ], frozen=True),
}
# A Counterexample holds a dict, so its hash raises, as does a report's that holds one.
UNHASHABLE = {(Counterexample, 0), (Counterexample, 1), (IdentityReport, 0)}

_CE = Counterexample({"k": 2, "n": 1}, DualComplex(1, 2, 3, 4), DualComplex(1, 2, 3, Fraction(9, 2)))
SAMPLES = {
    DualComplex: [DualComplex(1, Fraction(-2, 3), 0, 4), DualComplex(1, 2, 3, 4).scale(Fraction(1, 6)),
                  DualComplex(1, 2, 3, 4)],
    SequenceSpec: [SequenceSpec(Family.K_PELL, Fraction(3, 2)), SequenceSpec(Family.MODIFIED_K_PELL, 2)],
    PellQuaternion: [build_quaternion(Family.K_PELL_LUCAS, Fraction(3, 2), 4),
                     build_quaternion(Family.K_PELL, 2, 0)],
    CatalogEntry: [CATALOG[IdentityId.F13], CatalogEntry(_sides_f13, ("n", "m"), uses_k=False)],
    SweepConfig: [default_config(),
                  SweepConfig((IdentityId.G18,), (Fraction(2, 3),), (0, 4), (0, 0), (1, 1), 0)],
    Counterexample: [_CE, Counterexample({"n": 3}, None, None, "ZeroDivisionError: x")],
    IdentityReport: [IdentityReport(IdentityId.F31, 12, 3, Verdict.HOLDS_ONLY_K1, (_CE,), 0.25),
                     IdentityReport(IdentityId.G18, 4, 0, Verdict.HOLDS, (), 0.0)],
}
CASES = [(record, index) for record, values in SAMPLES.items() for index in range(len(values))]
CASE_IDS = [f"{record.__name__}-{index}" for record, index in CASES]


def twin_of(value):
    """The record value rebuilt as its dataclass twin, from the same field values."""
    twin = TWINS[type(value)]
    return twin(*(getattr(value, f.name) for f in fields(twin)))


def describe(of) -> list:
    """Every public attribute of each of ``of``'s dataclass fields."""
    return [(f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash, f.compare)
            for f in fields(of)]


@pytest.mark.parametrize("record", TWINS, ids=lambda record: record.__name__)
def test_fields_signature_and_match_args_are_the_dataclass_twins(record):
    twin = TWINS[record]
    assert is_dataclass(record) and is_dataclass(SAMPLES[record][0])
    assert describe(record) == describe(twin)
    assert describe(SAMPLES[record][0]) == describe(twin)
    assert record.__match_args__ == twin.__match_args__
    assert inspect.signature(record).parameters == inspect.signature(twin).parameters
    with pytest.raises(TypeError) as missing:
        record()
    with pytest.raises(TypeError) as twin_missing:
        twin()
    assert str(missing.value) == str(twin_missing.value)


@pytest.mark.parametrize(("record", "index"), CASES, ids=CASE_IDS)
def test_a_record_reads_as_its_dataclass_twin(record, index):
    value = SAMPLES[record][index]
    twin = twin_of(value)
    assert repr(value) == repr(twin)
    assert astuple(value) == astuple(twin)
    assert asdict(value) == asdict(twin)
    for other in SAMPLES[record]:
        assert (value == other) == (twin == twin_of(other))
        assert (value != other) == (twin != twin_of(other))
    assert value != twin and twin != value
    if (record, index) in UNHASHABLE:
        for target in (value, twin):
            with pytest.raises(TypeError):
                hash(target)
    else:
        assert hash(value) == hash(twin)


@pytest.mark.parametrize(("record", "index"), CASES, ids=CASE_IDS)
def test_a_record_pickles_copies_and_replaces_as_its_twin(record, index):
    value = SAMPLES[record][index]
    pickled = [pickle.loads(pickle.dumps(value, p)) for p in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for copied in [*pickled, copy.copy(value), copy.deepcopy(value)]:
        assert type(copied) is record and repr(copied) == repr(value)
        assert astuple(copied) == astuple(value)
    name = record.__match_args__[-1]
    changed = getattr(SAMPLES[record][index - 1], name)
    replaced = replace(value, **{name: changed})
    assert type(replaced) is record
    assert astuple(replaced) == astuple(replace(twin_of(value), **{name: changed}))
    if hasattr(copy, "replace"):  # Python 3.13 on
        assert repr(copy.replace(value, **{name: changed})) == repr(replaced)
    with pytest.raises(TypeError):
        replace(value, no_such_field=1)


@pytest.mark.parametrize(("record", "index"), CASES, ids=CASE_IDS)
def test_assignment_raises_as_on_the_twin(record, index):
    value = SAMPLES[record][index]
    frozen = TWINS[record].__dataclass_params__.frozen
    for name in (*record.__match_args__, "extra"):
        with pytest.raises(FrozenInstanceError if frozen else AttributeError):
            setattr(value, name, 1)
        with pytest.raises(FrozenInstanceError if frozen else AttributeError):
            delattr(value, name)
    assert repr(value) == repr(twin_of(value))


def test_the_benchmarks_replace_calls_build_the_same_records():
    # bench/run.py narrows a config to one id; bench/spans.py swaps an entry's sides.
    base = default_config()
    ident = IdentityId.G13
    narrowed = replace(base, ids=(ident,))
    assert type(narrowed) is SweepConfig
    assert narrowed == SweepConfig((ident,), base.k_values, base.n_range, base.m_range, base.r_range)
    assert astuple(narrowed) == astuple(replace(twin_of(base), ids=(ident,)))
    entry = CATALOG[ident]
    swapped = replace(entry, sides=_sides_f13)
    assert type(swapped) is CatalogEntry
    assert swapped == CatalogEntry(_sides_f13, entry.params, entry.pre, entry.uses_k)
    assert astuple(swapped) == astuple(replace(twin_of(entry), sides=_sides_f13))
