"""The per-command parser against the full one.

``build_parser(argv)`` adds arguments only along the command path that
argv names; every argv here must give the same exit code, stdout and
stderr (or, when it parses, the same namespace) as ``build_parser()``,
which builds every parser.  argparse's wording differs across Python
versions, so the check also runs without pytest:

    PYTHONPATH=src python3.10 tests/test_cli_parser.py
"""

import contextlib
import io
import os
import sys

if __name__ == "__main__":  # run as a script: import the checkout's sources
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from demkit.cli import _COMMANDS, build_parser


def command_paths(table=_COMMANDS, prefix=()):
    """Every complete command path, in registration order."""
    for name, (_, wiring) in table.items():
        if callable(wiring):
            yield prefix + (name,)
        else:
            yield from command_paths(wiring[1], prefix + (name,))


# argv that names no complete path, so both sides build every parser
PARTIAL = [[], ["--help"], ["verify"], ["verify", "--help"], ["cache"], ["cache", "--help"],
           ["bogus"], ["verify", "bogus"], ["-h", "char"], ["--bogus", "char"]]

# one argv that parses, per command path
VALID = {
    ("char",): ["--system", "A2", "--level", "1", "--weight", "1,0", "--graded", "--no-cache"],
    ("presentation",): ["--system", "A2", "--level", "1", "--weight", "1,0", "--pretty"],
    ("verify", "demprop"): ["--system", "A2", "--level", "1", "--parts", "1,0;0,1", "--lambda", "0,0"],
    ("verify", "mapsdem"): ["--system", "A1", "--level", "1", "--parts", "1:2;1:2", "--lambda", "0"],
    ("verify", "krdecom"): ["--system", "C3", "--level", "1", "--s-vector", "0,2,0", "--lambda", "1,0,0"],
    ("verify", "ev0"): ["--system", "B3", "--level", "1", "--lambda", "2,1,0", "--no-timing"],
    ("verify", "twofold"): ["--system", "A1", "--level", "1", "--index", "1", "--lambda", "2",
                            "--mu1", "3", "--mu2", "1"],
    ("verify", "genschurpos"): ["--system", "A1", "--level", "1", "--source-level", "2", "--index", "1",
                                "--power", "1", "--lambda", "0", "--mu", "1"],
    ("verify", "stabilization"): ["--system", "A1", "--level", "1", "--lambda", "0", "--max-grade", "2",
                                  "--n-max", "3", "--no-cache"],
    ("verify", "minuscule"): ["--system", "D4", "--out", "x.json"],
    ("scan",): ["--system", "A1", "--height-bound", "1", "--jobs", "2"],
    ("cache", "path"): [],
    ("cache", "stats"): ["--cache-dir", "d"],
    ("cache", "clear"): [],
}


def cases():
    """PARTIAL, then per command path: help, a missing required flag (or a
    bare valid call), a bad value, an unknown flag, a flag without its
    value, and one valid call."""
    yield from PARTIAL
    for path in command_paths():
        words = list(path)
        yield words + ["--help"]
        yield words
        yield words + ["--system", "Z9", "--level", "x"]
        yield words + ["--system", "A1", "--level", "x"]
        yield words + ["--bogus"]
        yield words + ["--cache-dir"]
        yield words + VALID[path]


def outcome(parser, argv):
    """(exit code, stdout, stderr, namespace) of one ``parse_args``."""
    out, err = io.StringIO(), io.StringIO()
    code, namespace = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace


def check_every_case():
    """Returns the number of argv checked; raises on the first mismatch."""
    checked = 0
    for argv in cases():
        expected = outcome(build_parser(), argv)
        got = outcome(build_parser(argv), argv)
        if got != expected:
            raise AssertionError(f"{argv}: per-command parser gave {got!r}, full parser {expected!r}")
        checked += 1
    return checked


def test_command_paths_cover_every_valid_call():
    assert list(command_paths()) == list(VALID)


def test_per_command_parser_matches_the_full_parser():
    assert check_every_case() == len(PARTIAL) + 7 * len(VALID)


def test_cases_reach_help_errors_and_valid_parses():
    """The cases exercise each outcome: help on stdout (exit 0), errors on
    stderr (exit 2), among them the top-level 'unrecognized arguments'
    error, and a namespace for every valid call."""
    full = build_parser()
    outcomes = [outcome(full, argv) for argv in cases()]
    assert sum(code == 0 and out.startswith("usage:") for code, out, _, _ in outcomes) == len(VALID) + 4
    assert any("unrecognized arguments" in err for _, _, err, _ in outcomes)
    assert sum(ns is not None for *_, ns in outcomes) >= len(VALID)
    assert all(code in (0, 2, None) for code, *_ in outcomes)


if __name__ == "__main__":
    print(f"{sys.version.split()[0]}: {check_every_case()} argv agree")
