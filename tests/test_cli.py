"""The command-line contract: exit codes, formats, round-trips."""

import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from dualpell import CATALOG, DualComplex, pell_term
from dualpell.cli import main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_csv(capsys):
    code, out, _ = run(capsys, "seq", "--family", "pell", "--k", "2",
                       "--from", "0", "--to", "5", "--format", "csv")
    assert code == 0
    assert out.strip() == "0,1,2,6,16,44"


def test_seq_plain(capsys):
    code, out, _ = run(capsys, "seq", "--family", "pell", "--k", "1",
                       "--from", "0", "--to", "6", "--format", "plain")
    assert code == 0
    assert out.strip() == "0 1 2 5 12 29 70"


def test_seq_json(capsys):
    code, out, _ = run(capsys, "seq", "--family", "pell-lucas", "--k", "1",
                       "--from", "0", "--to", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == ["2", "2", "6", "14", "34"]
    assert payload["k"] == "1"


def test_seq_rejects_nonpositive_k(capsys):
    code, _, err = run(capsys, "seq", "--family", "pell", "--k", "0",
                       "--from", "0", "--to", "3")
    assert code == 2
    assert "positive" in err
    assert err.rstrip().endswith("got 0") and "Fraction(" not in err


def test_seq_rejects_reversed_range(capsys):
    code, _, _ = run(capsys, "seq", "--family", "pell", "--k", "1",
                     "--from", "5", "--to", "2")
    assert code == 2


def test_seq_negative_indices(capsys):
    code, out, _ = run(capsys, "seq", "--family", "pell", "--k", "2",
                       "--from", "-2", "--to", "2", "--format", "plain")
    assert code == 0
    assert out.strip() == "-1/2 1/2 0 1 2"


def test_quat_json(capsys):
    code, out, _ = run(capsys, "quat", "--family", "pell", "--k", "1", "--n", "1")
    assert code == 0
    assert json.loads(out) == {"one": "1", "i": "2", "eps": "5", "ieps": "12"}


def test_quat_json_k2(capsys):
    code, out, _ = run(capsys, "quat", "--family", "pell", "--k", "2", "--n", "0")
    assert code == 0
    assert json.loads(out) == {"one": "0", "i": "1", "eps": "2", "ieps": "6"}


def test_quat_plain(capsys):
    code, out, _ = run(capsys, "quat", "--family", "pell", "--k", "1", "--n", "0",
                       "--format", "plain")
    assert code == 0
    assert out.strip() == "0 + 1·i + 2·eps + 5·i·eps"


def test_quat_malformed_k(capsys):
    code, _, _ = run(capsys, "quat", "--family", "pell", "--k", "x", "--n", "0")
    assert code == 2


@pytest.mark.parametrize("k", ["\u0663", "1/\u0663", "1/1\u0662"])  # Arabic-Indic 3 and 2
def test_seq_rejects_k_in_non_ascii_digits(capsys, k):
    code, out, err = run(capsys, "seq", "--family", "pell", "--k", k, "--from", "0", "--to", "3")
    assert (code, out) == (2, "")
    assert "malformed rational" in err


NOT_ASCII = {
    # int() would take each of these: other scripts' digits, '_', Unicode spaces.
    "identity-n-arabic": (["identity", "--id", "g18", "--k", "2", "--n", "\u0663"], "--n"),
    "identity-n-underscore": (["identity", "--id", "g18", "--k", "2", "--n", "1_0"], "--n"),
    "identity-m-fullwidth": (["identity", "--id", "g13", "--k", "2", "--n", "1", "--m", "\uff12"], "--m"),
    "identity-r-nbsp": (["identity", "--id", "g19stated", "--k", "2", "--n", "3", "--r", "1\xa0"], "--r"),
    "seq-from": (["seq", "--family", "pell", "--k", "2", "--from", "\u0660", "--to", "3"], "--from"),
    "seq-to": (["seq", "--family", "pell", "--k", "2", "--from", "0", "--to", "\u0663"], "--to"),
    "quat-n": (["quat", "--family", "pell", "--k", "2", "--n", "\u20033"], "--n"),
    "binet-n": (["binet", "--k", "2", "--n", "\u0663"], "--n"),
    "sweep-n-range": (["sweep", "--ids", "g18", "--n", "\u0661..\u0663"], "--n"),
    "sweep-m-upper": (["sweep", "--ids", "g13", "--m", "1..1_0"], "--m"),
    "sweep-r-single": (["sweep", "--ids", "g19stated", "--r", "\u0662"], "--r"),
    "sweep-max-counterexamples": (["sweep", "--ids", "g18", "--max-counterexamples", "\u0663"],
                                  "--max-counterexamples"),
    "seq-family-separator": (["seq", "--family", "pell\x1f", "--k", "2", "--from", "0", "--to", "1"],
                             "--family"),
    "seq-k-nbsp": (["seq", "--family", "pell", "--k", "2\xa0", "--from", "0", "--to", "1"], "--k"),
    "identity-id-separator": (["identity", "--id", "g13\x1c", "--k", "2", "--n", "1", "--m", "1"],
                              "--id"),
    "sweep-ids-all-separator": (["sweep", "--ids", "all\x1c"], "--ids"),
}


@pytest.mark.parametrize("argv,flag", NOT_ASCII.values(), ids=NOT_ASCII.keys())
def test_flags_take_ascii_digits_and_ascii_spaces_only(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"error: argument {flag}: " in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["quat", "--family", "pell", "--k", "2", "--n", "1.5"], "argument --n: invalid int value: '1.5'"),
        (["sweep", "--ids", "g18", "--n", "a..3"],
         "argument --n: invalid literal for int() with base 10: 'a'"),
        (["binet", "--k", "2", "--n", "x"], "argument --n: invalid literal for int() with base 10: 'x'"),
    ],
)
def test_what_int_rejects_keeps_its_message(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.rstrip().endswith(f"error: {message}")


def test_flags_trim_ascii_whitespace(capsys):
    code, out, _ = run(capsys, "seq", "--family", " pell\t", "--k", "2\n", "--from", " -2",
                       "--to", "+2 ", "--format", "plain")
    assert (code, out.strip()) == (0, "-1/2 1/2 0 1 2")
    code, out, _ = run(capsys, "sweep", "--ids", " g18 ", "--k", "1", "--n", " 1 .. 3 ")
    assert (code, out.strip()) == (0, "g18 holds 3 0")


def test_json_rendering_roundtrips(capsys):
    code, out, _ = run(capsys, "quat", "--family", "modified", "--k", "7/3", "--n", "2")
    assert code == 0
    parsed = DualComplex.from_json_dict(json.loads(out))
    assert parsed.to_json_dict() == json.loads(out)


def test_identity_equal_exit_zero(capsys):
    code, out, _ = run(capsys, "identity", "--id", "g18", "--k", "1", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["lhs"] == payload["rhs"]


def test_identity_unequal_exit_one(capsys):
    code, out, _ = run(capsys, "identity", "--id", "f31", "--k", "2", "--n", "1")
    assert code == 1
    payload = json.loads(out)
    assert payload["equal"] is False
    assert payload["lhs"]["one"] == "8"
    assert payload["rhs"]["one"] == "6"


def test_identity_missing_binding_exit_two(capsys):
    code, _, err = run(capsys, "identity", "--id", "g18", "--k", "1")
    assert code == 2
    assert "missing" in err


def test_identity_unknown_id_exit_two(capsys):
    code, _, err = run(capsys, "identity", "--id", "g99", "--k", "1", "--n", "1")
    assert code == 2
    assert "unknown identity id" in err


def test_identity_out_of_range_exit_two(capsys):
    code, _, _ = run(capsys, "identity", "--id", "g18", "--k", "1", "--n", "0")
    assert code == 2


def test_binet_number(capsys):
    code, out, _ = run(capsys, "binet", "--k", "1", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "12"
    assert payload["consistent"] is True


def test_binet_number_degenerate_radicand(capsys):
    code, out, _ = run(capsys, "binet", "--k", "3", "--n", "3")
    assert code == 0
    assert json.loads(out)["value"] == "7"


def test_binet_quaternion(capsys):
    code, out, _ = run(capsys, "binet", "--k", "1", "--n", "0",
                       "--level", "quaternion")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == {"one": "0", "i": "1", "eps": "2", "ieps": "5"}
    assert payload["consistent"] is True


def test_binet_rejects_negative_n(capsys):
    code, _, _ = run(capsys, "binet", "--k", "1", "--n", "-3")
    assert code == 2


def test_sweep_single_identity_summary(capsys):
    code, out, _ = run(capsys, "sweep", "--ids", "g18", "--k", "1", "--n", "1..4")
    assert code == 0
    assert out.strip() == "g18 holds 4 0"


def test_sweep_default_grid(capsys):
    code, out, _ = run(capsys, "sweep", "--ids", "g9")
    assert code == 0
    assert out.strip() == "g9 holds 132 0"  # n in 0..32 at k = 1..4


def test_sweep_writes_report_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "sweep", "--ids", "f31,g18", "--k", "1,2",
                       "--n", "0..6", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    verdicts = {entry["identity"]: entry["verdict"] for entry in payload}
    assert verdicts == {"f31": "holds_only_k1", "g18": "holds"}
    ce = payload[0]["counterexamples"][0]
    assert ce["k"] == "2" and ce["n"] == 0
    assert set(ce["lhs"]) == {"one", "i", "eps", "ieps"}


def test_sweep_csv_and_json_verdicts_agree(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "sweep", "--ids", "f12s,g9,g19stated", "--k", "1,2",
                       "--n", "0..5", "--r", "1..3", "--format", "csv",
                       "--out", str(out_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "identity,verdict,grid_size,skipped"
    csv_verdicts = {row.split(",")[0]: row.split(",")[1] for row in lines[1:]}
    json_verdicts = {
        entry["identity"]: entry["verdict"]
        for entry in json.loads(out_path.read_text())
    }
    assert csv_verdicts == json_verdicts


def test_sweep_unwritable_path_exit_two(tmp_path, capsys):
    code, _, err = run(capsys, "sweep", "--ids", "g9", "--k", "1", "--n", "0..2",
                       "--out", str(tmp_path / "missing-dir" / "report.json"))
    assert code == 2
    assert "cannot write" in err


def test_sweep_unknown_id_exit_two(capsys):
    code, _, _ = run(capsys, "sweep", "--ids", "nope")
    assert code == 2


@contextmanager
def int_str_digits(limit):
    """Set Python's int->str digit cap (3.10.7+) for the block, then restore it."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    previous = sys.get_int_max_str_digits()
    set_limit(limit)
    try:
        yield
    finally:
        set_limit(previous)


def test_quat_prints_values_past_the_int_str_digit_cap(capsys):
    with int_str_digits(4300):
        code, out, _ = run(capsys, "quat", "--family", "pell", "--k", "2", "--n", "12000")
        if hasattr(sys, "get_int_max_str_digits"):
            assert sys.get_int_max_str_digits() == 4300  # restored for in-process callers
    assert code == 0
    with int_str_digits(0):
        expected = str(pell_term(2, 12000))
    assert len(expected) > 4300
    assert json.loads(out)["one"] == expected


def test_main_runs_where_python_has_no_int_str_digit_cap(capsys, monkeypatch):
    # CPython 3.10.0-3.10.6 has no sys.set_int_max_str_digits; main then runs the command as is
    previous = getattr(sys, "get_int_max_str_digits", lambda: None)()
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    code, out, _ = run(capsys, "seq", "--family", "pell", "--k", "2",
                       "--from", "0", "--to", "5", "--format", "plain")
    assert code == 0
    assert out.strip() == "0 1 2 6 16 44"
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == previous


def test_binet_plain_at_rational_k(capsys):
    code, out, _ = run(capsys, "binet", "--k", "5/2", "--n", "7", "--format", "plain")
    assert code == 0
    assert out == "3437/8\nconsistent: true\n"
    code, out, _ = run(capsys, "binet", "--k", "5/2", "--n", "3", "--level", "quaternion",
                       "--format", "plain")
    assert code == 0
    assert out == "13/2 + 18·i + 209/4·eps + 299/2·i·eps\nconsistent: true\n"


def test_sweep_single_n_is_a_one_point_range(capsys):
    code, out, _ = run(capsys, "sweep", "--ids", "g18", "--k", "1", "--n", "5")
    assert code == 0
    assert out.strip() == "g18 holds 1 0"


def test_sweep_reversed_n_range_exit_two(capsys):
    code, _, err = run(capsys, "sweep", "--ids", "g18", "--n", "3..1")
    assert code == 2
    assert "empty range: '3..1'" in err


def test_sweep_ids_all_runs_the_whole_catalog(capsys):
    code, out, _ = run(capsys, "sweep", "--ids", "all", "--k", "1",
                       "--n", "1", "--m", "1", "--r", "1")
    assert code == 0
    tags = [line.split()[0] for line in out.strip().splitlines()]
    assert tags == [ident.value for ident in CATALOG]


def test_identity_without_k_drops_the_k_flag(capsys):
    code, out, _ = run(capsys, "identity", "--id", "ring_axioms", "--k", "2", "--n", "0")
    assert code == 0
    assert json.loads(out)["equal"] is True


SRC = str(Path(__file__).resolve().parents[1] / "src")


def cli_child(*argv: str, stdout) -> subprocess.Popen:
    """A fresh `python -W error -m dualpell` of this checkout, writing its output to stdout."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-W", "error", "-m", "dualpell", *argv],
        env=dict(os.environ, PYTHONPATH=path), stdout=stdout, stderr=subprocess.PIPE,
    )


def assert_quiet_broken_pipe(child: subprocess.Popen, err: bytes) -> None:
    assert child.wait(timeout=120) == 141
    assert b"Traceback" not in err and b"Exception ignored" not in err, err.decode()


def test_reader_gone_mid_output_exits_141_without_traceback():
    argv = ("seq", "--family", "pell", "--k", "2", "--from", "0", "--to", "3000", "--format", "plain")
    with cli_child(*argv, stdout=subprocess.PIPE) as child:
        assert child.stdout.read(10) == b"0 1 2 6 16"
        child.stdout.close()
        assert_quiet_broken_pipe(child, child.stderr.read())


def test_reader_gone_before_output_exits_141_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader from the start, so the first write fails
    try:
        with cli_child("quat", "--family", "pell", "--k", "2", "--n", "5", stdout=write_end) as child:
            assert_quiet_broken_pipe(child, child.stderr.read())
    finally:
        os.close(write_end)
