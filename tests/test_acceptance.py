"""End-to-end acceptance suite.

Every criterion is exact (all arithmetic is rational, so the tolerance is
zero) and prints one PASS/FAIL line; run with ``pytest -s`` to see the lines
stream. Sub-check failures are collected so a red criterion names exactly
the rows that broke it.
"""

import pathlib
import random
import time
from fractions import Fraction

from dualpell import (
    CATALOG,
    DC_ZERO,
    DualComplex,
    Family,
    IdentityId,
    SequenceSpec,
    SweepConfig,
    Verdict,
    binet_quaternion,
    build_quaternion,
    check_one,
    default_config,
    gamma_closed,
    gamma_coefficient,
    reports_to_json,
    seq_binet,
    seq_term,
    seq_term_fast,
    sweep,
)
from dualpell.cli import main as cli_main
from support import random_dc, table_mul

DATA_DIR = pathlib.Path(__file__).parent / "data"


def report_line(name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    suffix = "" if not failures else f"  ({len(failures)} subcheck(s): {failures[:4]})"
    print(f"{status} {name}{suffix}")


def dc(one, i=0, eps=0, ieps=0):
    return DualComplex(Fraction(one), Fraction(i), Fraction(eps), Fraction(ieps))


def test_criterion_1_binet_number_equivalence():
    failures = []
    ks = [Fraction(i) for i in range(1, 11)]
    ks += [Fraction(1, 2), Fraction(3, 2), Fraction(22, 7)]
    for k in ks:
        spec = SequenceSpec(Family.K_PELL, k)
        for n in range(0, 301):
            if seq_binet(k, n) != seq_term(spec, n):
                failures.append((k, n))
    report_line("criterion-1 number-level closed form == recurrence", failures)
    assert not failures


def test_criterion_2_binet_quaternion_equivalence():
    failures = []
    for k in [Fraction(i) for i in range(1, 7)]:
        for n in range(0, 101):
            if binet_quaternion(k, n) != build_quaternion(Family.K_PELL, k, n).value:
                failures.append((k, n))
    report_line("criterion-2 quaternion-level closed form == construction", failures)
    assert not failures


THEOREM_SUITE = [
    IdentityId.G9,
    IdentityId.G10,
    IdentityId.G11,
    IdentityId.G12,
    IdentityId.G13,
    IdentityId.G14,
    IdentityId.G17,
    IdentityId.G18,
    IdentityId.G19PROOF,
    IdentityId.HELPER_HONSBERGER,
    IdentityId.HELPER_DOCAGNE,
    IdentityId.HELPER_CASSINI,
]


def test_criterion_3_theorem_suite(default_sweep_reports):
    verdicts = {r.id: r.verdict for r in default_sweep_reports}
    failures = [
        f"{ident.value}: {verdicts[ident].value}"
        for ident in THEOREM_SUITE
        if verdicts[ident] is not Verdict.HOLDS
    ]
    report_line("criterion-3 theorem suite holds on the default grid", failures)
    assert not failures


SPOT_FIXTURES = [
    (IdentityId.G18, {"k": 1, "n": 1}, dc(-2, -2, -12, -12)),
    (IdentityId.G13, {"k": 1, "n": 1, "m": 0}, dc(-4, 4, -48, 48)),
    (IdentityId.G17, {"k": 1, "m": 1, "n": 0}, dc(2, 2, 12, 12)),
    (IdentityId.G19PROOF, {"k": 1, "n": 2, "r": 2}, dc(-8, -8, -48, -48)),
    (IdentityId.G14, {"k": 2, "n": 2}, dc(3, 9, 24, 66)),
]


def test_criterion_3_spot_fixtures():
    failures = []
    for ident, bindings, expected in SPOT_FIXTURES:
        bindings = dict(bindings, k=Fraction(bindings["k"]))
        equal, lhs, rhs = check_one(ident, bindings)
        if not (equal and lhs == expected and rhs == expected):
            failures.append(ident.value)
    report_line("criterion-3 spot fixtures", failures)
    assert not failures


EXPECTED_VERDICTS = {
    IdentityId.F12S: Verdict.HOLDS_ONLY_K1,
    IdentityId.F22S: Verdict.HOLDS_ONLY_K1,
    IdentityId.F31: Verdict.HOLDS_ONLY_K1,
    IdentityId.G19STATED: Verdict.FAILS,
}


def test_criterion_4_erratum_classification(default_sweep_reports):
    failures = []
    for report in default_sweep_reports:
        expected = EXPECTED_VERDICTS.get(report.id, Verdict.HOLDS)
        if report.verdict is not expected:
            failures.append(
                f"{report.id.value}: expected {expected.value}, got {report.verdict.value}"
            )
    report_line("criterion-4 verdict table", failures)
    assert not failures


def test_criterion_4_counterexample_details(default_sweep_reports):
    failures = []

    equal, lhs, rhs = check_one(IdentityId.F12S, {"k": Fraction(2), "n": 1})
    if equal or lhs.dual != 2 * 38 or rhs.dual != 2 * 44:
        failures.append("f12s at k=2, n=1 should break as 38 vs 44")

    equal, lhs, rhs = check_one(IdentityId.F31, {"k": Fraction(2), "n": 1})
    if equal or lhs.real != 8 or rhs.real != 6:
        failures.append("f31 at k=2, n=1 should break as 8 vs 6")

    equal, lhs, rhs = check_one(IdentityId.G19STATED, {"k": Fraction(1), "n": 2, "r": 2})
    if equal or lhs != dc(8, 8, 48, 48) or rhs != dc(-8, -8, -48, -48):
        failures.append("g19stated at k=1, n=2, r=2 should break by orientation")

    by_id = {r.id: r for r in default_sweep_reports}
    if not by_id[IdentityId.F12S].counterexamples:
        failures.append("f12s report carries no counterexample")
    report_line("criterion-4 counterexample details", failures)
    assert not failures


def test_criterion_4_report_golden_byte_stable(default_sweep_reports):
    failures = []
    rendered = reports_to_json(default_sweep_reports, zero_elapsed=True) + "\n"
    golden_path = DATA_DIR / "golden_default_sweep.json"
    golden = golden_path.read_text(encoding="utf-8")
    if rendered != golden:
        failures.append("regenerated default-sweep report differs from golden bytes")
    report_line("criterion-4 golden report byte-stable", failures)
    assert not failures


def test_criterion_4_rational_report_golden_byte_stable():
    # at rational k the counterexamples carry Fraction coefficients, rendered
    # from results that hold only their cleared form until they are read
    failures = []
    config = SweepConfig(tuple(CATALOG), (1, Fraction(2, 3), Fraction(7, 4)), (0, 8), (0, 8), (1, 4))
    rendered = reports_to_json(sweep(config), zero_elapsed=True) + "\n"
    golden = (DATA_DIR / "golden_rational_sweep.json").read_text(encoding="utf-8")
    if rendered != golden:
        failures.append("regenerated rational-k report differs from golden bytes")
    report_line("criterion-4 rational-k golden report byte-stable", failures)
    assert not failures


def test_criterion_5_ring_property_suite():
    failures = []
    rng = random.Random(100)
    one = dc(1)
    for index in range(1000):
        a, b, c = random_dc(rng), random_dc(rng), random_dc(rng)
        if not (
            a * b == b * a
            and (a * b) * c == a * (b * c)
            and a * (b + c) == a * b + a * c
            and a * one == a
        ):
            failures.append(f"ring axioms at sample {index}")
    done = 0
    while done < 500:
        a, b = random_dc(rng), random_dc(rng)
        if b.has_zero_complex_part():
            continue
        if (a / b) * b != a:
            failures.append(f"division roundtrip at sample {done}")
        done += 1
    for index in range(300):
        w = random_dc(rng)
        nil = DualComplex(Fraction(0), Fraction(0), w.dual, w.dual_imag)
        if nil * nil != DC_ZERO:
            failures.append(f"nilpotency at sample {index}")
    for index in range(1000):
        a, b = random_dc(rng), random_dc(rng)
        if a * b != table_mul(a, b):
            failures.append(f"table oracle at sample {index}")
    report_line("criterion-5 ring axioms / roundtrip / nilpotency / oracle", failures)
    assert not failures


def test_criterion_6_gamma_internal_assertion():
    failures = []
    for k in range(1, 11):
        try:
            if gamma_coefficient(k) != gamma_closed(k):
                failures.append(f"k={k}")
        except RuntimeError as exc:
            failures.append(f"k={k}: {exc}")
    report_line("criterion-6 root-product coefficient matches closed form", failures)
    assert not failures


def test_criterion_7_performance_sanity():
    failures = []
    spec = SequenceSpec(Family.K_PELL, Fraction(3))
    started = time.perf_counter()
    big = seq_term_fast(spec, 100_000)
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"n=100000 took {elapsed:.2f}s")
    if big.denominator != 1:
        failures.append("n=100000 value is not an integer")
    # library-free naive loop as the equality oracle at n = 2000
    lo, hi = 0, 1
    for _ in range(2000):
        lo, hi = hi, 2 * hi + 3 * lo
    if seq_term_fast(spec, 2000) != lo:
        failures.append("fast value diverges from the naive loop at n=2000")
    report_line(f"criterion-7 fast evaluation ({elapsed:.3f}s at n=100000)", failures)
    assert not failures


def test_criterion_8_cli_exit_codes(capsys):
    failures = []

    def run(*argv):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:
            code = exc.code
        capsys.readouterr()
        return code

    if run("identity", "--id", "g18", "--k", "1", "--n", "1") != 0:
        failures.append("equal identity should exit 0")
    if run("identity", "--id", "f31", "--k", "2", "--n", "1") != 1:
        failures.append("unequal identity should exit 1")
    if run("identity", "--id", "g18", "--k", "bogus", "--n", "1") != 2:
        failures.append("malformed k should exit 2")
    if run("seq", "--family", "pell", "--k", "0", "--from", "0", "--to", "3") != 2:
        failures.append("nonpositive k should exit 2")
    with capsys.disabled():
        report_line("criterion-8 cli exit-code contract", failures)
    assert not failures
