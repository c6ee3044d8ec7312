"""Sweep mechanics: determinism, verdict classification, skip accounting."""

import dataclasses
import json
import re
from fractions import Fraction

import pytest

from dualpell import (
    CATALOG,
    DualComplex,
    IdentityId,
    SweepConfig,
    Verdict,
    check_one,
    default_config,
    report_to_dict,
    reports_to_json,
    sweep,
)
from dualpell.sequences import Terms
from support import shown


def small_config(ids, ks=(1, 2), n=(0, 6), m=(0, 6), r=(1, 4)):
    return SweepConfig(
        ids=tuple(ids),
        k_values=tuple(Fraction(k) for k in ks),
        n_range=n,
        m_range=m,
        r_range=r,
    )


def test_empty_id_set_gives_empty_report():
    assert sweep(small_config([])) == []


def test_single_tuple_grid():
    (report,) = sweep(small_config([IdentityId.G9], ks=(1,), n=(4, 4)))
    assert report.grid_size == 1
    assert report.skipped == 0
    assert report.verdict is Verdict.HOLDS


def test_skipped_tuples_counted_not_judged():
    (report,) = sweep(small_config([IdentityId.G18], ks=(1,), n=(0, 5)))
    # n = 0 violates the n >= 1 precondition
    assert report.grid_size == 5
    assert report.skipped == 1
    assert report.verdict is Verdict.HOLDS


def test_catalan_r_beyond_n_is_skipped():
    (report,) = sweep(small_config([IdentityId.G19PROOF], ks=(1,), n=(0, 3), r=(1, 4)))
    # evaluated tuples: n=1:r1, n=2:r1-2, n=3:r1-3 -> 6 of 16
    assert report.grid_size == 6
    assert report.skipped == 10
    assert report.verdict is Verdict.HOLDS


def test_verdict_fails_when_k1_breaks():
    (report,) = sweep(small_config([IdentityId.G19STATED]))
    assert report.verdict is Verdict.FAILS
    assert report.counterexamples[0].bindings == {"k": 1, "n": 1, "r": 1}


def test_verdict_k1_only():
    (report,) = sweep(small_config([IdentityId.F31]))
    assert report.verdict is Verdict.HOLDS_ONLY_K1
    assert report.counterexamples[0].bindings == {"k": 2, "n": 0}


def test_verdict_fails_without_k1_in_grid():
    # same identity, but the grid never visits k = 1: no k1-only escape hatch
    (report,) = sweep(small_config([IdentityId.F31], ks=(2, 3)))
    assert report.verdict is Verdict.FAILS


def test_counterexamples_capped_and_lexicographically_first():
    config = dataclasses.replace(small_config([IdentityId.F31]), max_counterexamples=3)
    (report,) = sweep(config)
    assert len(report.counterexamples) == 3
    assert [ce.bindings for ce in report.counterexamples] == [
        {"k": 2, "n": 0},
        {"k": 2, "n": 1},
        {"k": 2, "n": 2},
    ]


def test_counterexamples_replay():
    for ids in ([IdentityId.F31], [IdentityId.F12S], [IdentityId.G19STATED]):
        (report,) = sweep(small_config(ids))
        assert report.counterexamples
        for ce in report.counterexamples:
            equal, lhs, rhs = check_one(report.id, dict(ce.bindings))
            assert not equal
            assert lhs == ce.lhs and rhs == ce.rhs


def test_sweep_is_deterministic_byte_for_byte():
    config = small_config(
        [IdentityId.G18, IdentityId.F31, IdentityId.RING_AXIOMS, IdentityId.G19STATED]
    )
    first = reports_to_json(sweep(config), zero_elapsed=True)
    second = reports_to_json(sweep(config), zero_elapsed=True)
    assert first == second


def test_id_and_k_order_normalized():
    shuffled = small_config([IdentityId.G18, IdentityId.F13], ks=(2, 1))
    ordered = small_config([IdentityId.F13, IdentityId.G18], ks=(1, 2))
    assert reports_to_json(sweep(shuffled), zero_elapsed=True) == reports_to_json(
        sweep(ordered), zero_elapsed=True
    )


def test_property_entries_ignore_k_axis():
    (report,) = sweep(small_config([IdentityId.RING_AXIOMS], ks=(1, 2, 3), n=(0, 9)))
    # one evaluation per sample index, not per (k, n) pair
    assert report.grid_size == 10
    assert report.verdict is Verdict.HOLDS


def test_default_config_shape():
    config = default_config()
    assert len(config.ids) == 40
    assert config.k_values == (1, 2, 3, 4)
    assert config.n_range == (0, 32)
    assert config.m_range == (0, 32)
    assert config.r_range == (1, 8)
    assert config.max_counterexamples == 5


def test_k1_specialization_sweep():
    # at k = 1 everything holds except g19stated, the one entry wrong as stated
    config = dataclasses.replace(default_config(), k_values=(Fraction(1),),
                                 n_range=(0, 12), m_range=(0, 12), r_range=(1, 6))
    for report in sweep(config):
        if report.id is IdentityId.G19STATED:
            assert report.verdict is Verdict.FAILS
        else:
            assert report.verdict is Verdict.HOLDS, report.id


def test_skip_counts_scale_with_k_but_not_for_sample_entries():
    config = small_config(
        [IdentityId.G18, IdentityId.G19PROOF, IdentityId.RING_AXIOMS],
        ks=(1, 2, 3), n=(-2, 4), r=(1, 3),
    )
    counts = {r.id: (r.grid_size, r.skipped) for r in sweep(config)}
    # g18: n = 1..4 of 7 per k; g19proof: 9 of 21 (n, r) per k; ring_axioms: n = 0..4 once
    assert counts == {
        IdentityId.G18: (12, 9),
        IdentityId.G19PROOF: (27, 36),
        IdentityId.RING_AXIOMS: (5, 2),
    }


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n_range", (0.0, 3), "n_range must be int, got 0.0"),
        ("m_range", (0, 3.5), "m_range must be int, got 3.5"),
        ("n_range", (True, 3), "n_range must be int, got True"),
        ("r_range", (1, False), "r_range must be int, got False"),
        ("n_range", 5, "n_range must be a (lo, hi) pair, got 5"),
        ("m_range", (0, 1, 2), "m_range must be a (lo, hi) pair, got (0, 1, 2)"),
        ("max_counterexamples", -1, "max_counterexamples must be >= 0, got -1"),
        ("max_counterexamples", True, "max_counterexamples must be int, got True"),
        ("max_counterexamples", 2.0, "max_counterexamples must be int, got 2.0"),
        ("ids", ("g18",), "ids must hold IdentityId members, got 'g18'"),
        ("ids", IdentityId.G13, "ids must be iterable, got <IdentityId.G13: 'g13'>"),
        ("k_values", 2, "k_values must be iterable, got 2"),
        ("k_values", (0,), "k_values must hold positive int or Fraction values, got 0"),
        ("k_values", (2.0,), "k_values must hold positive int or Fraction values, got 2.0"),
        ("k_values", (True,), "k_values must hold positive int or Fraction values, got True"),
    ],
)
def test_sweep_rejects_a_malformed_config_naming_the_field(field, value, message):
    config = dataclasses.replace(small_config([IdentityId.G18]), **{field: value})
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep(config)


def test_reversed_range_gives_an_empty_grid():
    # a cap of 0 counterexamples is valid too
    config = dataclasses.replace(small_config([IdentityId.G18], n=(3, 1)), max_counterexamples=0)
    (report,) = sweep(config)
    assert (report.grid_size, report.skipped, report.verdict) == (0, 0, Verdict.HOLDS)


def _raising_sides(t, *values):
    raise ZeroDivisionError("stand-in fault")


def test_sides_that_raise_are_recorded_as_failures(monkeypatch):
    # the sweep reads each entry through CATALOG, where a tracer swaps them
    entry = dataclasses.replace(CATALOG[IdentityId.G18], sides=_raising_sides)
    monkeypatch.setitem(CATALOG, IdentityId.G18, entry)
    (report,) = sweep(small_config([IdentityId.G18], n=(1, 3)))
    assert report.verdict is Verdict.FAILS
    first = report.counterexamples[0]
    assert first.bindings == {"k": 1, "n": 1}
    assert first.lhs is None and first.rhs is None
    assert first.error == "ZeroDivisionError: stand-in fault"
    payload = json.loads(reports_to_json([report], zero_elapsed=True))
    assert payload[0]["counterexamples"][0] == {
        "k": "1", "n": 1, "lhs": None, "rhs": None, "error": "ZeroDivisionError: stand-in fault",
    }


def test_a_scalar_counterexample_is_shown_as_a_dual_complex(monkeypatch):
    # The sweep compares helper_docagne's int/Fraction sides as they are and
    # wraps them only for a counterexample it keeps.
    real = CATALOG[IdentityId.HELPER_DOCAGNE]

    def off_by_one(t, n, m):
        lhs, rhs = real.sides(t, n, m)
        return (lhs + 1 if (n, m) == (2, 3) else lhs), rhs

    monkeypatch.setitem(CATALOG, IdentityId.HELPER_DOCAGNE, dataclasses.replace(real, sides=off_by_one))
    ks = (Fraction(3, 2), 2)  # in the sweep's order
    (report,) = sweep(small_config([IdentityId.HELPER_DOCAGNE], ks=ks, n=(0, 4), m=(0, 4)))
    assert report.verdict is Verdict.FAILS
    assert [ce.bindings for ce in report.counterexamples] == [{"k": k, "n": 2, "m": 3} for k in ks]
    for ce in report.counterexamples:
        lhs, rhs = real.sides(Terms(ce.bindings["k"]), 2, 3)
        expected = DualComplex(lhs + 1, 0, 0, 0), DualComplex(rhs, 0, 0, 0)
        assert [shown(side) for side in (ce.lhs, ce.rhs)] == [shown(side) for side in expected]
        assert type(ce.lhs) is type(ce.rhs) is DualComplex
    payload = report_to_dict(report)["counterexamples"]
    assert [(row["lhs"], row["rhs"]) for row in payload] == [
        (ce.lhs.to_json_dict(), ce.rhs.to_json_dict()) for ce in report.counterexamples
    ]


def test_fixed_index_rows_do_not_read_the_entry_they_restate(monkeypatch):
    # g10, g11 and g18 call g13's and g19proof's functions, not their CATALOG
    # entries, so each id's sides are timed apart from the ones it restates
    for ident in (IdentityId.G13, IdentityId.G19PROOF):
        broken = dataclasses.replace(CATALOG[ident], sides=_raising_sides)
        monkeypatch.setitem(CATALOG, ident, broken)
    ids = [IdentityId.G10, IdentityId.G11, IdentityId.G13, IdentityId.G18, IdentityId.G19PROOF]
    verdicts = {r.id: r.verdict for r in sweep(small_config(ids, n=(1, 4), m=(0, 2), r=(1, 2)))}
    assert verdicts == {
        IdentityId.G10: Verdict.HOLDS,
        IdentityId.G11: Verdict.HOLDS,
        IdentityId.G13: Verdict.FAILS,
        IdentityId.G18: Verdict.HOLDS,
        IdentityId.G19PROOF: Verdict.FAILS,
    }
