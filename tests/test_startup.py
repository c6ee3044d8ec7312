"""Lazy start-up: what a fresh process loads, and the public surface it keeps.

`import dualpell` loads no submodule, and each CLI command imports the
modules it runs inside the command. The in-process CLI tests cannot see a
missing import there, since this suite imports the whole package first, so
the commands also run here in fresh interpreters.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dualpell
from dualpell import cli
from dualpell.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def fresh(*argv: str) -> subprocess.CompletedProcess:
    """Run a new interpreter with warnings as errors and this checkout's package."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, COLUMNS="80")
    return subprocess.run(
        [sys.executable, "-W", "error", *argv], env=env, capture_output=True, text=True,
        timeout=120,
    )


def modules_after(code: str, *flags: str, holding: str | None = None) -> set[str]:
    """Every module loaded once ``code`` has run in a fresh interpreter started with ``flags``.

    With ``holding``, only the loaded modules whose namespace defines that name.
    """
    kept = "True" if holding is None else f"{holding!r} in getattr(m, '__dict__', ())"
    listed = f"print(*sorted(n for n, m in list(sys.modules.items()) if {kept}))"
    done = fresh(*flags, "-c", code + "\nimport sys\n" + listed)
    assert done.returncode == 0, done.stderr[-2000:]
    return set(done.stdout.splitlines()[-1].split())


def loaded_after(code: str) -> set[str]:
    """The dualpell submodules loaded once ``code`` has run in a fresh interpreter."""
    return {name for name in modules_after(code) if name.startswith("dualpell.")}


def test_import_loads_no_submodule_and_seq_loads_no_catalog():
    assert loaded_after("import dualpell") == set()
    seq = loaded_after(
        "import contextlib, io\n"
        "from dualpell.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['seq', '--family', 'pell', '--k', '2', '--from', '0', '--to', '9']) == 0"
    )
    assert seq == {f"dualpell.{m}" for m in ("scalars", "dualcomplex", "sequences", "cli")}


def run_as_main(argv: list[str]) -> str:
    """Code that runs what `python -m dualpell *argv` runs, so the module list can be printed after it."""
    return (
        "import runpy, sys\n"
        f"sys.argv[1:] = {argv!r}\n"
        "try:\n"
        "    runpy.run_module('dualpell', run_name='__main__', alter_sys=True)\n"
        "except SystemExit:\n"
        "    pass"
    )


PARSER_PATHS = {
    "build_parser": "import dualpell.cli\ndualpell.cli.build_parser()",
    "help": run_as_main(["--help"]),
}


@pytest.mark.parametrize("code", PARSER_PATHS.values(), ids=PARSER_PATHS.keys())
def test_parser_path_loads_no_verifier_and_no_dataclasses(code):
    # Against a bare interpreter's modules, so a site hook that loads them is no failure.
    bare = modules_after("pass")
    loaded = modules_after(code)
    assert "dualpell.verifier" not in loaded
    assert {"dataclasses", "inspect"} & loaded <= bare


def test_tracer_finds_every_module_after_cli_and_identities():
    # bench/spans.py imports identities after dualpell.cli, then reads these from sys.modules.
    modules = loaded_after("import dualpell.cli\nfrom dualpell import identities")
    for name in ("scalars", "dualcomplex", "sequences", "quaternions", "verifier", "cli"):
        assert f"dualpell.{name}" in modules
    # It reads QuadExt off scalars, whose hook serves it from quadext, its home.
    scalars = sys.modules["dualpell.scalars"]
    assert scalars.QuadExt is dualpell.QuadExt
    assert dualpell.QuadExt.__module__ == "dualpell.quadext"
    with pytest.raises(AttributeError, match="^module 'dualpell.scalars' has no attribute 'no_such_name'$"):
        scalars.no_such_name


def test_public_names_resolve_from_their_home_modules():
    for name in dualpell.__all__:
        value = getattr(dualpell, name)
        home = sys.modules[f"dualpell.{dualpell._HOME[name]}"]
        assert value is getattr(home, name)
    namespace: dict = {}
    exec("from dualpell import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(dualpell.__all__)
    assert set(dualpell.__all__) <= set(dir(dualpell))
    assert "__version__" in dir(dualpell)
    with pytest.raises(AttributeError, match="no_such_name"):
        dualpell.no_such_name
    from dualpell import verifier

    assert verifier is sys.modules["dualpell.verifier"]
    assert dualpell.sweep is verifier.sweep


COMMANDS = {
    "seq": ["seq", "--family", "pell", "--k", "2", "--from", "0", "--to", "5", "--format", "csv"],
    "quat": ["quat", "--family", "pell-lucas", "--k", "3/2", "--n", "4"],
    "identity": ["identity", "--id", "f31", "--k", "2", "--n", "1", "--format", "plain"],
    "binet": ["binet", "--k", "3", "--n", "3", "--level", "quaternion"],
    "sweep": ["sweep", "--ids", "g18"],
    "help": ["--help"],
    "sweep-help": ["sweep", "--help"],
    "usage-error": ["identity", "--id", "nope", "--k", "1", "--n", "1"],
}


# The commands that compute. Each loads dualcomplex and some of the seven records.
COMPUTING = {name: run_as_main(COMMANDS[name]) for name in ("seq", "quat", "identity", "binet", "sweep")}


@pytest.mark.parametrize("code", COMPUTING.values(), ids=COMPUTING.keys())
def test_computing_commands_load_no_dataclasses(code):
    # Against a bare interpreter's modules, as on the parser path.
    bare = modules_after("pass")
    assert {"dataclasses", "inspect"} & modules_after(code) <= bare


START_UPS = {**PARSER_PATHS, **COMPUTING}


# The start-ups that write no JSON: json is imported where output is written.
WRITES_NO_JSON = ("build_parser", "help", "sweep")


@pytest.mark.parametrize("name", START_UPS)
def test_start_up_without_site_loads_no_typing_or_dataclasses(name):
    # -S: no site hook can preload these and so hide a module that the package pulls in.
    # shutil is what argparse's HelpFormatter imports when no width is given.
    code = START_UPS[name]
    unloaded = {"typing", "dataclasses", "inspect", "shutil", "dualpell.quadext"}
    if name in WRITES_NO_JSON:
        unloaded.add("json")
    assert unloaded & modules_after(code, "-S") == set()
    # No start-up compiles QuadExt: quadext stays unloaded and scalars no longer defines it.
    assert modules_after(code, "-S", holding="QuadExt") == set()


@pytest.mark.parametrize("columns", [None, "60", "200"])
@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]], ids=["help", "sweep-help"])
def test_help_is_wrapped_as_argparse_wraps_it(argv, columns, capsys, monkeypatch):
    # The CLI's formatter finds argparse's default width without shutil; the
    # stock HelpFormatter, which asks shutil, must print the same bytes.
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    printed = []
    for formatter in (cli._HelpFormatter, argparse.HelpFormatter):
        monkeypatch.setattr(cli, "_HelpFormatter", formatter)
        with pytest.raises(SystemExit):
            main(argv)
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1]


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_fresh_process_cli_matches_in_process(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    try:
        code = main(argv)
    except SystemExit as exc:  # --help and usage errors
        code = exc.code
    captured = capsys.readouterr()
    done = fresh("-m", "dualpell", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, captured.out, captured.err)
