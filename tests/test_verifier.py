"""Sweep mechanics: determinism, verdict classification, skip accounting."""

import dataclasses
from fractions import Fraction

from dualpell import (
    IdentityId,
    SweepConfig,
    Verdict,
    check_one,
    default_config,
    reports_to_json,
    sweep,
)


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
