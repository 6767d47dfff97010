"""The table-driven parser of ``demkit.cli``.

Every call in ``VALID`` and every request line of the benchmark's workloads
(``SLOTS`` in perfbench/run.py) parses to the namespace argparse gave it
before the parser became one table; those namespaces are pinned below as
literals.  On every command path, help, the ``=`` form, unique flag
prefixes and each kind of usage error behave as argparse's did: help exits
0 on stdout, and a usage error exits 2 with an empty stdout, a usage line
and one error line.
"""

import contextlib
import importlib.util
import io
import pathlib

from demkit.cli import _COMMANDS, _parse

ROOT = pathlib.Path(__file__).resolve().parents[1]

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

# each command path's namespace before any flag: its defaults and fixed entries
BASE = {
    "char":
        {"system": None, "level": None, "weight": None, "kind": "demazure", "index": None, "graded": False,
         "pretty": False, "out": None, "cache_dir": None, "no_cache": False, "func": "_cmd_char",
         "command": "char"},
    "presentation":
        {"system": None, "level": None, "weight": None, "pretty": False, "out": None,
         "func": "_cmd_presentation", "command": "presentation"},
    "verify demprop":
        {"system": None, "level": None, "out": None, "no_timing": False, "parts": [], "lam": None,
         "func": "_cmd_verify", "claim_args": ("level", "parts", "lam"), "command": "verify",
         "verify_command": "demprop"},
    "verify mapsdem":
        {"system": None, "level": None, "out": None, "no_timing": False, "parts": [], "lam": None,
         "func": "_cmd_verify", "claim_args": ("level", "parts", "lam"), "command": "verify",
         "verify_command": "mapsdem"},
    "verify krdecom":
        {"system": None, "level": None, "out": None, "no_timing": False, "s_vector": None, "lam": None,
         "func": "_cmd_verify", "claim_args": ("level", "s_vector", "lam"), "command": "verify",
         "verify_command": "krdecom"},
    "verify ev0":
        {"system": None, "level": None, "out": None, "no_timing": False, "lam": None, "func": "_cmd_verify",
         "claim_args": ("level", "lam"), "command": "verify", "verify_command": "ev0"},
    "verify twofold":
        {"system": None, "level": None, "out": None, "no_timing": False, "index": None, "lam": None,
         "mu1": None, "mu2": None, "func": "_cmd_verify",
         "claim_args": ("index", "level", "lam", "mu1", "mu2"), "command": "verify",
         "verify_command": "twofold"},
    "verify genschurpos":
        {"system": None, "level": None, "out": None, "no_timing": False, "index": None, "power": None,
         "source_level": None, "lam": None, "mu": None, "func": "_cmd_verify",
         "claim_args": ("index", "power", "level", "source_level", "lam", "mu"), "command": "verify",
         "verify_command": "genschurpos"},
    "verify stabilization":
        {"system": None, "level": None, "out": None, "no_timing": False, "lam": None, "max_grade": None,
         "n_max": None, "no_cache": False, "func": "_cmd_verify",
         "claim_args": ("level", "lam", "max_grade", "n_max"), "command": "verify",
         "verify_command": "stabilization"},
    "verify minuscule":
        {"system": None, "out": None, "no_timing": False, "func": "_cmd_verify", "claim_args": (),
         "command": "verify", "verify_command": "minuscule"},
    "scan":
        {"system": None, "height_bound": None, "jobs": 1, "out": None, "no_timing": False,
         "func": "_cmd_scan", "command": "scan"},
    "cache path": {"cache_dir": None, "func": "_cmd_cache", "command": "cache", "cache_command": "path"},
    "cache stats": {"cache_dir": None, "func": "_cmd_cache", "command": "cache", "cache_command": "stats"},
    "cache clear": {"cache_dir": None, "func": "_cmd_cache", "command": "cache", "cache_command": "clear"},
}

# argv -> the entries argparse set beyond BASE
PINNED = {
    "char --system A2 --level 1 --weight 1,0 --graded --no-cache":
        {"system": "A2", "level": 1, "weight": (1, 0), "graded": True, "no_cache": True},
    "presentation --system A2 --level 1 --weight 1,0 --pretty":
        {"system": "A2", "level": 1, "weight": (1, 0), "pretty": True},
    "verify demprop --system A2 --level 1 --parts 1,0;0,1 --lambda 0,0":
        {"system": "A2", "level": 1, "parts": [(1, 0), (0, 1)], "lam": (0, 0)},
    "verify mapsdem --system A1 --level 1 --parts 1:2;1:2 --lambda 0":
        {"system": "A1", "level": 1, "parts": [(1, (2,)), (1, (2,))], "lam": (0,)},
    "verify krdecom --system C3 --level 1 --s-vector 0,2,0 --lambda 1,0,0":
        {"system": "C3", "level": 1, "s_vector": (0, 2, 0), "lam": (1, 0, 0)},
    "verify ev0 --system B3 --level 1 --lambda 2,1,0 --no-timing":
        {"system": "B3", "level": 1, "no_timing": True, "lam": (2, 1, 0)},
    "verify twofold --system A1 --level 1 --index 1 --lambda 2 --mu1 3 --mu2 1":
        {"system": "A1", "level": 1, "index": 1, "lam": (2,), "mu1": (3,), "mu2": (1,)},
    "verify genschurpos --system A1 --level 1 --source-level 2 --index 1 --power 1 --lambda 0 --mu 1":
        {"system": "A1", "level": 1, "index": 1, "power": 1, "source_level": 2, "lam": (0,), "mu": (1,)},
    "verify stabilization --system A1 --level 1 --lambda 0 --max-grade 2 --n-max 3 --no-cache":
        {"system": "A1", "level": 1, "lam": (0,), "max_grade": 2, "n_max": 3, "no_cache": True},
    "verify minuscule --system D4 --out x.json": {"system": "D4", "out": "x.json"},
    "scan --system A1 --height-bound 1 --jobs 2": {"system": "A1", "height_bound": 1, "jobs": 2},
    "cache path": {},
    "cache stats --cache-dir d": {"cache_dir": "d"},
    "cache clear": {},
    "scan --system A2 --height-bound 2 --no-timing": {"system": "A2", "height_bound": 2, "no_timing": True},
    "scan --system B2 --height-bound 2 --no-timing": {"system": "B2", "height_bound": 2, "no_timing": True},
    "scan --system A3 --height-bound 1 --no-timing": {"system": "A3", "height_bound": 1, "no_timing": True},
    "char --system A2 --level 1 --weight 8,9 --graded":
        {"system": "A2", "level": 1, "weight": (8, 9), "graded": True},
    "char --system A2 --level 1 --weight 9,8 --graded":
        {"system": "A2", "level": 1, "weight": (9, 8), "graded": True},
    "char --system A2 --level 2 --weight 10,9 --graded":
        {"system": "A2", "level": 2, "weight": (10, 9), "graded": True},
    "char --system A2 --level 2 --weight 9,10 --graded":
        {"system": "A2", "level": 2, "weight": (9, 10), "graded": True},
    "char --system A3 --level 2 --weight 5,5,2 --graded":
        {"system": "A3", "level": 2, "weight": (5, 5, 2), "graded": True},
    "char --system A3 --level 2 --weight 2,5,5 --graded":
        {"system": "A3", "level": 2, "weight": (2, 5, 5), "graded": True},
    "char --system A3 --level 1 --weight 4,4,1 --graded":
        {"system": "A3", "level": 1, "weight": (4, 4, 1), "graded": True},
    "char --system A3 --level 1 --weight 1,4,4 --graded":
        {"system": "A3", "level": 1, "weight": (1, 4, 4), "graded": True},
    "char --system A4 --level 1 --weight 2,2,1,1 --graded":
        {"system": "A4", "level": 1, "weight": (2, 2, 1, 1), "graded": True},
    "char --system A4 --level 1 --weight 1,1,2,2 --graded":
        {"system": "A4", "level": 1, "weight": (1, 1, 2, 2), "graded": True},
    "char --system B2 --level 1 --weight 6,6 --graded":
        {"system": "B2", "level": 1, "weight": (6, 6), "graded": True},
    "char --system G2 --level 1 --weight 3,3 --graded":
        {"system": "G2", "level": 1, "weight": (3, 3), "graded": True},
    "char --system B3 --level 8 --kind kr --index 2 --graded":
        {"system": "B3", "level": 8, "kind": "kr", "index": 2, "graded": True},
    "char --system C3 --level 5 --kind kr --index 2 --graded":
        {"system": "C3", "level": 5, "kind": "kr", "index": 2, "graded": True},
    "char --system D4 --level 6 --kind kr --index 2 --graded":
        {"system": "D4", "level": 6, "kind": "kr", "index": 2, "graded": True},
    "verify demprop --system C3 --level 1 --parts 0,2,0;0,2,0 --lambda 1,0,0 --no-timing":
        {"system": "C3", "level": 1, "no_timing": True, "parts": [(0, 2, 0), (0, 2, 0)], "lam": (1, 0, 0)},
    "verify mapsdem --system A2 --level 1 --parts 1:1,0;1:0,1 --lambda 1,0 --no-timing":
        {"system": "A2", "level": 1, "no_timing": True, "parts": [(1, (1, 0)), (1, (0, 1))], "lam": (1, 0)},
    "verify mapsdem --system A2 --level 1 --parts 1:1,0;1:0,1 --lambda 0,1 --no-timing":
        {"system": "A2", "level": 1, "no_timing": True, "parts": [(1, (1, 0)), (1, (0, 1))], "lam": (0, 1)},
    "verify krdecom --system C3 --level 1 --s-vector 0,2,0 --lambda 1,0,0 --no-timing":
        {"system": "C3", "level": 1, "no_timing": True, "s_vector": (0, 2, 0), "lam": (1, 0, 0)},
    "verify twofold --system C3 --level 2 --index 3 --lambda 0,0,2 --mu1 0,0,1 --mu2 0,0,3 --no-timing":
        {"system": "C3", "level": 2, "no_timing": True, "index": 3, "lam": (0, 0, 2), "mu1": (0, 0, 1),
         "mu2": (0, 0, 3)},
    "verify genschurpos --system C3 --level 3 --source-level 2 --index 3 --power 1 --lambda 0,1,0 --mu 0,1,1 --no-timing":
        {"system": "C3", "level": 3, "no_timing": True, "index": 3, "power": 1, "source_level": 2,
         "lam": (0, 1, 0), "mu": (0, 1, 1)},
    "verify minuscule --system B3 --no-timing": {"system": "B3", "no_timing": True},
    "verify minuscule --system C3 --no-timing": {"system": "C3", "no_timing": True},
    "verify minuscule --system D4 --no-timing": {"system": "D4", "no_timing": True},
    "verify minuscule --system E6 --no-timing": {"system": "E6", "no_timing": True},
    "verify stabilization --system A3 --level 1 --lambda 0,0,1 --max-grade 2 --n-max 3 --no-timing --no-cache":
        {"system": "A3", "level": 1, "no_timing": True, "lam": (0, 0, 1), "max_grade": 2, "n_max": 3,
         "no_cache": True},
    "verify stabilization --system A3 --level 1 --lambda 1,0,0 --max-grade 2 --n-max 3 --no-timing --no-cache":
        {"system": "A3", "level": 1, "no_timing": True, "lam": (1, 0, 0), "max_grade": 2, "n_max": 3,
         "no_cache": True},
    "verify stabilization --system B3 --level 1 --lambda 0,0,1 --max-grade 1 --n-max 3 --no-timing --no-cache":
        {"system": "B3", "level": 1, "no_timing": True, "lam": (0, 0, 1), "max_grade": 1, "n_max": 3,
         "no_cache": True},
    "verify stabilization --system C3 --level 1 --lambda 0,1,0 --max-grade 1 --n-max 3 --no-timing --no-cache":
        {"system": "C3", "level": 1, "no_timing": True, "lam": (0, 1, 0), "max_grade": 1, "n_max": 3,
         "no_cache": True},
    "verify stabilization --system B2 --level 1 --lambda 0,0 --max-grade 3 --n-max 4 --no-timing --no-cache":
        {"system": "B2", "level": 1, "no_timing": True, "lam": (0, 0), "max_grade": 3, "n_max": 4,
         "no_cache": True},
    "verify stabilization --system G2 --level 1 --lambda 1,0 --max-grade 3 --n-max 4 --no-timing --no-cache":
        {"system": "G2", "level": 1, "no_timing": True, "lam": (1, 0), "max_grade": 3, "n_max": 4,
         "no_cache": True},
}


def command_paths():
    return [tuple(path.split()) for path in _COMMANDS]


def benchmark_requests():
    """Every request line of the benchmark's workloads, as argv."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return [list(args) for slots in run.SLOTS.values() for slot in slots for args in slot]


def outcome(argv):
    """(exit code, stdout, stderr, namespace) of one parse, the handler in
    the namespace given by its name."""
    out, err = io.StringIO(), io.StringIO()
    code, namespace = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(_parse(argv))
        except SystemExit as exc:
            code = exc.code
    if namespace is not None:
        namespace["func"] = namespace["func"].__name__
    return code, out.getvalue(), err.getvalue(), namespace


def parsed(line):
    """The outcome of a pinned argv line: its namespace, nothing printed."""
    path = next(path for path in BASE if f"{line} ".startswith(f"{path} "))
    return None, "", "", {**BASE[path], **PINNED[line]}


def assert_usage_error(words, argv, message):
    """``words + argv`` exits 2 with an empty stdout, then the usage line of
    the command words ``words`` and one error line that holds ``message``."""
    code, out, err, _ = outcome([*words, *argv])
    prog = " ".join(["demkit", *words])
    usage, error = err.splitlines()
    assert (code, out) == (2, ""), (words, argv)
    assert usage.startswith(f"usage: {prog} ") and error.startswith(f"{prog}: error: ")
    assert message in error, (error, message)


def assert_help(words, argv, names):
    """``words + argv`` asks for help: exit 0, nothing on stderr, and a
    stdout that begins with the usage line of the command words ``words``
    and names each of ``names``."""
    code, out, err, _ = outcome([*words, *argv])
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: {' '.join(['demkit', *words])} ")
    assert all(name in out for name in names), (argv, names)


def test_command_paths_cover_every_valid_call():
    assert command_paths() == list(VALID) == [tuple(path.split()) for path in BASE]


def test_valid_calls_parse_to_the_pinned_namespaces():
    lines = [" ".join([*path, *argv]) for path, argv in VALID.items()]
    lines += [" ".join(argv) for argv in benchmark_requests()]
    assert set(lines) == set(PINNED)
    for line in lines:
        assert outcome(line.split()) == parsed(line), line


def test_equals_form_and_unique_prefixes_parse_alike():
    for path, argv in VALID.items():
        line = " ".join([*path, *argv])
        joined = []  # each "--flag value" as "--flag=value"
        for word in argv:
            if word.startswith("--"):
                joined.append(word)
            else:
                joined[-1] += f"={word}"
        assert outcome([*path, *joined]) == parsed(line), joined
        flags = [spec[0] for spec in _COMMANDS[" ".join(path)][2]] + ["--help"]
        short = {flag: next(flag[:n] for n in range(3, len(flag) + 1)
                            if [f for f in flags if f.startswith(flag[:n])] == [flag]) for flag in flags}
        assert outcome([*path, *(short.get(w, w) for w in argv)]) == parsed(line), short


def test_cases_reach_help_errors_and_valid_parses():
    """On every command path: help with every flag named, a bare call, a
    bad value, an unknown flag and a flag without its value."""
    for path in command_paths():
        words, argv, specs = list(path), VALID[path], _COMMANDS[" ".join(path)][2]
        for ask in ("--help", "-h"):
            assert_help(words, [*argv[:2], ask], [spec[0] for spec in specs])
        if words[0] == "cache":
            assert outcome(words) == (None, "", "", BASE[" ".join(path)])
            assert_usage_error(words, ["--system", "Z9"], "unrecognized arguments: --system Z9")
        else:
            assert_usage_error(words, [], "the following arguments are required: --system")
            assert_usage_error(words, [*argv, "--system", "Z9"],
                               "argument --system: malformed system label 'Z9'")
        if "--level" in argv:
            assert_usage_error(words, [*argv, "--level", "x"], "argument --level: invalid int value: 'x'")
        if "--lambda" in argv:
            assert_usage_error(words, ["--lambda", "x", *argv], "argument --lambda: malformed weight 'x'")
        assert_usage_error(words, [*argv, "--bogus", "x"], "unrecognized arguments: --bogus x")
        assert_usage_error(words, [*argv, specs[0][0]], f"argument {specs[0][0]}: expected one argument")


def test_command_words_and_flag_rules():
    assert_help([], ["--help"], list(_COMMANDS))
    assert_help(["verify"], ["-h"], [path for path in _COMMANDS if path.startswith("verify ")])
    assert_usage_error([], [], "the following arguments are required: command")
    assert_usage_error(["verify"], [], "the following arguments are required: verify_command")
    assert_usage_error([], ["bogus"], "argument command: invalid choice: 'bogus' (choose from 'char', ")
    assert_usage_error(["cache"], ["bogus"], "argument cache_command: invalid choice: 'bogus'")
    stabilization = ["verify", "stabilization"]
    assert_usage_error(stabilization, ["--no"], "ambiguous option: --no could match --no-cache, --no-timing")
    assert_usage_error(["char"], ["--system", "A1", "--graded=yes"],
                       "argument --graded: ignored explicit argument 'yes'")
    assert_usage_error(["char"], ["--system", "A1", "--kind", "x"], "argument --kind: invalid choice: 'x'")
    # a separate value that starts with "-" is taken only as a negative integer
    ev0 = ["verify", "ev0", "--system", "A2", "--level", "1"]
    assert_usage_error(ev0[:2], [*ev0[2:], "--lambda", "-1,0"], "argument --lambda: expected one argument")
    assert outcome([*ev0, "--lambda=-1,0"])[3]["lam"] == (-1, 0)
    assert outcome(["char", "--system", "A1", "--weight", "-1"])[3]["weight"] == (-1,)
    assert outcome(["scan", "--system", "A1", "--height-bound", "1", "--jobs", "-3"])[3]["jobs"] == -3


def test_an_integer_is_ascii_digits_after_an_optional_minus():
    # int() reads the first five as integers; a flag value's integer is
    # ASCII digits after an optional minus, and none of these
    char = ["--system", "A1", "--level", "1", "--weight", "1"]
    demprop = ["--system", "A2", "--level", "1", "--lambda", "0,0"]
    mapsdem = ["--system", "A1", "--level", "1", "--lambda", "0"]
    for bad in ("1_0", " 1", "1 ", "+1", "\u0661", "1.0", ""):
        assert_usage_error(["char"], [*char, "--level", bad], f"argument --level: invalid int value: {bad!r}")
        assert_usage_error(["char"], [*char, f"--weight={bad}"], f"argument --weight: malformed weight {bad!r}")
        assert_usage_error(["char"], [*char, "--weight", f"1,{bad}"], "argument --weight: malformed weight")
        assert_usage_error(["verify", "demprop"], [*demprop, "--parts", f"1,0;{bad},1"],
                           "argument --parts: malformed weight")
        assert_usage_error(["verify", "mapsdem"], [*mapsdem, "--parts", f"1:2;{bad}:2"],
                           "argument --parts: malformed part level")
    assert_usage_error(["scan"], ["--system", "A1", "--height-bound", "1_0"],
                       "argument --height-bound: invalid int value: '1_0'")
    # a separate value is taken as a negative integer only in that spelling
    assert_usage_error(["char"], [*char, "--level", "-\u0661"], "argument --level: expected one argument")
    parsed = outcome(["char", *char[:2], "--level", "007", "--weight=-0,-12"])[3]
    assert (parsed["level"], parsed["weight"]) == (7, (0, -12))
    assert outcome(["verify", "mapsdem", *mapsdem, "--parts=-1:2;10:0"])[3]["parts"] == [(-1, (2,)), (10, (0,))]
