"""Command-line front end.

Commands: ``char`` (compute a character), ``presentation`` (defining
relations of a Demazure module), ``verify`` (run one verification and emit
a certificate), ``scan`` (exhaustive surjection scan), ``cache`` (manage
the on-disk character cache).

Exit codes: 0 success/verified, 1 refuted, 2 invalid flags, 3 hypothesis
violations and other domain errors, 4 inconclusive, 5 internal error (a failed
internal consistency check, or any other unexpected exception), 6 I/O error
(an output path or cache directory that cannot be written or read); 3, 5 and 6
are reported as one ``error:`` line on stderr.  All primary output is UTF-8
JSON or JSON-lines; ``--no-timing`` strips the elapsed fields so reruns are
byte-identical.  Each ``verify`` subcommand runs ``theorems.verify_<name>`` on
the arguments its parser names; only ``char`` and ``cache`` touch the cache,
and ``verify stabilization --no-cache`` is accepted but unused.  ``scan`` runs
in one process, decomposes each distinct product of two irreducibles once, and
computes every certificate before it writes any; its ``--jobs`` flag is
validated but changes neither the work nor the output.

Each command imports the modules it runs when it runs: every command loads
``rootsystem``; ``char`` adds ``cache`` and ``charalg``, and its builder,
``affine`` (``finite`` for ``--kind weyl``), only on a cache miss, so a hit
loads only ``cache`` and ``charalg``; ``presentation`` adds ``affine`` and
``charalg``, ``verify minuscule`` adds ``theorems`` alone, ``verify
twofold`` and ``scan`` add ``theorems``, ``finite`` and ``charalg``, every
other ``verify`` claim adds ``theorems`` with ``affine``, ``finite`` and
``charalg``, and ``cache`` adds ``cache`` and ``charalg``.
The package's own exports resolve lazily too, so ``char`` never compiles
``theorems`` and no command but ``char`` and ``cache`` loads ``cache``.
``json`` is imported by ``_json_line`` for ``presentation``, ``scan`` and
``cache``, and with ``theorems`` for ``verify``; ``char`` writes and reads
its files and cache seals by exact patterns, so it never loads ``json``.

The parser is one table, ``_COMMANDS``, read by :func:`_parse` without
``argparse`` (whose import and first parsers cost a request more than its
parse): each command path (``char``, ``verify stabilization``, ...) maps to
its handler, help line and option specs.  A separate value that starts with
``-`` is taken only when it is a negative integer, so ``--lambda -1,0`` is
a usage error and ``--lambda=-1,0`` reaches the claim.  Help exits 0; a
usage error prints a usage line and one ``demkit <path>: error: ...`` line
on stderr and exits 2.

The process entry, :func:`main_entry` (``python -m demkit.cli`` and the
``demkit`` script), turns the cyclic garbage collector off for the request
and freezes the heap before the interpreter exits, help and usage exits
included, so shutdown skips its full collections over it; ``atexit`` and
the flush of the standard streams still run.  A request makes no reference
cycles, so those collections free nothing (the tests pin ``gc.collect() ==
0`` after each benchmark request they replay), yet on a 2-vCPU host they
cost each request about 6 ms, 5.4 of it at shutdown.  :func:`main` leaves
the collector as it finds it, for library callers.
"""

from __future__ import annotations

import contextlib
import gc
import os
import sys
from types import SimpleNamespace

from .rootsystem import parse_system, root_system

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3
EXIT_INCONCLUSIVE = 4
EXIT_INTERNAL = 5
EXIT_IO = 6

_EMIT_SLICE = 1 << 16  # characters of output encoded at a time

_VERDICT_EXIT = {
    "verified": EXIT_OK,
    "refuted": EXIT_REFUTED,
    "hypothesis-violated": EXIT_HYPOTHESIS,
    "inconclusive": EXIT_INCONCLUSIVE,
}


# Each converter turns a flag's text into its value or raises ValueError
# with the message a usage error shows after "argument --flag: ".


def _is_int(text):
    """Whether ``text`` spells an integer as a flag value must: ASCII digits
    after an optional minus, none of the other spellings int() reads
    ("1_0", " 1", "+1", "\u0661")."""
    digits = text[1:] if text.startswith("-") else text
    return digits.isascii() and digits.isdigit()


def _system_arg(value):
    parse_system(value)
    return value


def _int_arg(value):
    if not _is_int(value):
        raise ValueError(f"invalid int value: {value!r}")
    return int(value)


def _choice(value, choices):
    if value not in choices:
        raise ValueError(f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})")
    return value


def _kind_arg(value):
    return _choice(value, ("demazure", "weyl", "kr"))


def _weight_arg(value):
    coords = value.split(",")
    if not all(map(_is_int, coords)):
        raise ValueError(f"malformed weight {value!r}; expected e.g. '1,0'")
    return tuple(map(int, coords))


def _parts_arg(value):
    if not value:
        return []
    return [_weight_arg(p) for p in value.split(";")]


def _leveled_parts_arg(value):
    if not value:
        return []
    out = []
    for item in value.split(";"):
        if ":" not in item:
            raise ValueError(f"malformed part {item!r}; expected 'level:coords' e.g. '1:2,0'")
        lvl, coords = item.split(":", 1)
        if not _is_int(lvl):
            raise ValueError(f"malformed part level in {item!r}")
        out.append((int(lvl), _weight_arg(coords)))
    return out


def _path_arg(value):
    if not value:  # "" would read as the flag not given
        raise ValueError("expected a path, not ''")
    return value


def _emit(text, out_path):
    """Write ``text`` to ``out_path``, or to stdout without one, a slice
    of ``_EMIT_SLICE`` characters at a time: a text stream encodes what it
    is given at once, so a whole character file would be copied."""
    with open(out_path, "w", encoding="utf-8") if out_path else contextlib.nullcontext(sys.stdout) as fh:
        for start in range(0, len(text), _EMIT_SLICE):
            fh.write(text[start:start + _EMIT_SLICE])


def _json_line(doc):
    """``doc`` as one compact JSON line with sorted keys; ``char`` never calls it."""
    import json

    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _format_graded_dim(graded):
    pieces = []
    for g, m in sorted(graded.items()):
        if g == 0:
            pieces.append(str(m))
        elif g == 1:
            pieces.append(f"{m}·q")
        else:
            pieces.append(f"{m}·q^{g}")
    return " + ".join(pieces)


def _pretty_character(char):
    lines = ["weight\tgrade\tmult"]
    for (w, g), m in sorted(char.terms.items()):
        lines.append(f"{','.join(map(str, w))}\t{g}\t{m}")
    lines.append(f"dim {char.dimension()}")
    lines.append(f"graded dim {_format_graded_dim(char.graded_dimension())}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# char


# the flags of ``char`` that each --kind does not take
_NOT_FOR_KIND = {"weyl": ("level", "index"), "demazure": ("index",), "kr": ("weight",)}


def _cmd_char(args):
    from .cache import CacheKey, CharacterCache, resolve_cache_dir

    rs = root_system(args.system)
    for dest in _NOT_FOR_KIND[args.kind]:
        if getattr(args, dest) is not None:
            raise ValueError(f"--{dest} does not apply to --kind {args.kind}")
    if args.kind == "weyl":
        if args.weight is None:
            raise ValueError("--weight is required for --kind weyl")
        key = CacheKey(rs.name, "weyl", 0, rs.check_dominant(args.weight))
    else:
        if args.level is None:
            raise ValueError("--level is required for Demazure characters")
        if args.kind == "kr":
            if args.index is None:
                raise ValueError("--index is required for --kind kr")
            weight = rs.kr_weight(args.index, args.level)
        else:
            if args.weight is None:
                raise ValueError("--weight is required for --kind demazure")
            weight = rs.check_weight(args.weight)
        key = CacheKey(rs.name, "demazure", args.level, weight)

    cache = None if args.no_cache else CharacterCache(resolve_cache_dir(args.cache_dir))
    hit = cache.load(key) if cache else None
    if hit:
        char, text = hit  # the checked serialization, reused when the output is the same
    else:
        char = _build_character(rs, args, key.weight)
        text = cache.store(key, char) if cache else None

    whole = args.graded or args.kind == "weyl"  # else the grading is collapsed away
    if args.pretty:
        text = _pretty_character(char if whole else char.collapse())
    elif not whole:
        text = char.collapse().to_jsonl(kind="plain")
    elif text is None:
        text = char.to_jsonl(kind=key.expected_header_kind)
    _emit(text, args.out)
    return EXIT_OK


def _build_character(rs, args, weight):
    """The character a ``char`` request names, its builder imported only
    now, so a cache hit loads none."""
    if args.kind == "weyl":
        from .finite import weyl_character

        return weyl_character(rs, weight)
    from .affine import demazure_character, kr_character

    if args.kind == "kr":
        return kr_character(rs, args.level, args.index)
    return demazure_character(rs, args.level, weight)


# ---------------------------------------------------------------------------
# presentation


def _cmd_presentation(args):
    from .affine import presentation

    rs = root_system(args.system)
    relations = presentation(rs, args.level, args.weight)
    if args.pretty:
        lines = ["alpha\tpairing\ts\tm\tnilpotency"]
        for rel in relations:
            nil = "-" if rel.nilpotency_order is None else f"(t^{rel.s - 1})^{rel.nilpotency_order}"
            lines.append(
                f"{','.join(map(str, rel.root_coords))}\t{rel.pairing}\t{rel.s}\t{rel.m}\t{nil}"
            )
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "system": rs.name,
            "level": args.level,
            "weight": list(args.weight),
            "relations": [rel.to_dict() for rel in relations],
        }
        text = _json_line(doc)
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args):
    from . import theorems

    # looked up per call, so a wrapper rebound on ``theorems`` is the one run
    verify = getattr(theorems, "verify_" + args.verify_command)
    cert = verify(root_system(args.system), *(getattr(args, name) for name in args.claim_args))
    _emit(cert.to_json(include_timing=not args.no_timing) + "\n", args.out)
    return _VERDICT_EXIT[cert.verdict]


# ---------------------------------------------------------------------------
# scan


def _cmd_scan(args):
    from . import theorems

    if args.jobs < 1:
        raise ValueError("jobs must be >= 1")
    if args.height_bound < 0:  # before --out is made
        raise ValueError("height bound must be non-negative")
    rs = root_system(args.system)
    if args.out:
        os.makedirs(args.out, exist_ok=True)  # an unusable directory fails before the scan
    certs = theorems.schur_scan(rs, args.height_bound)
    text = "".join(c.to_json(include_timing=not args.no_timing) + "\n" for c in certs)
    _emit(text, args.out and os.path.join(args.out, f"scan_{rs.name}_h{args.height_bound}.jsonl"))
    summary = theorems.scan_summary(certs)
    sys.stdout.write(_json_line(summary))
    return EXIT_OK if summary["refuted"] == 0 else EXIT_REFUTED


# ---------------------------------------------------------------------------
# cache


def _cmd_cache(args):
    from .cache import CharacterCache, resolve_cache_dir

    directory = resolve_cache_dir(args.cache_dir)
    cache = CharacterCache(directory)
    if args.cache_command == "path":
        sys.stdout.write(directory + "\n")
    elif args.cache_command == "stats":
        sys.stdout.write(_json_line(cache.stats()))
    else:  # clear
        cache.clear()
        sys.stdout.write(_json_line({"cleared": True}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# the parser: one table of command paths, read by ``_parse``

_REQUIRED = ...  # the default of an option spec whose flag must be given

# An option spec is (flag, dest, convert, default or _REQUIRED, help); a
# switch has no converter and is False unless given.
_SYSTEM = ("--system", "system", _system_arg, _REQUIRED, "simple type, e.g. A2 or G2")
_LEVEL = ("--level", "level", _int_arg, _REQUIRED, "level of the Demazure module")
_INDEX = ("--index", "index", _int_arg, _REQUIRED, "node index")
_LAMBDA = ("--lambda", "lam", _weight_arg, _REQUIRED, "weight lambda, e.g. 1,0")
_OUT = ("--out", "out", _path_arg, None, "write the output to this file")
_NO_TIMING = ("--no-timing", "no_timing", None, False, "leave out the elapsed fields")
_CACHE_DIR = ("--cache-dir", "cache_dir", _path_arg, None, "cache directory (else $DEMKIT_CACHE)")


def _claim(text, *specs, unused=()):
    """A ``verify`` path: the dests of ``specs`` name, in order, the
    arguments its ``theorems.verify_*`` takes after the root system."""
    return _cmd_verify, text, (_SYSTEM, *specs, *unused, _OUT, _NO_TIMING), {
        "claim_args": tuple(spec[1] for spec in specs)}


# command path -> (handler, help line, option specs, fixed namespace entries)
_COMMANDS = {
    "char": (_cmd_char, "compute a character", (
        _SYSTEM,
        ("--level", "level", _int_arg, None, "level of the Demazure module"),
        ("--weight", "weight", _weight_arg, None, "dominant weight, e.g. 1,0"),
        ("--kind", "kind", _kind_arg, "demazure", "demazure (the default), weyl or kr"),
        ("--index", "index", _int_arg, None, "node index for --kind kr"),
        ("--graded", "graded", None, False, "keep the grading in the output"),
        ("--pretty", "pretty", None, False, "human table instead of JSON lines"),
        _OUT, _CACHE_DIR, ("--no-cache", "no_cache", None, False, "neither read nor write the cache"),
    ), {}),
    "presentation": (_cmd_presentation, "defining relations of a Demazure module", (
        _SYSTEM, _LEVEL, ("--weight", "weight", _weight_arg, _REQUIRED, "dominant weight, e.g. 1,0"),
        ("--pretty", "pretty", None, False, "human table instead of JSON"), _OUT,
    ), {}),
    "verify demprop": _claim(
        "the Demazure module of level*(sum of parts) + lambda factors over the parts", _LEVEL,
        ("--parts", "parts", _parts_arg, [], "semicolon-separated weights, e.g. '2' or '1,0;0,1'"),
        _LAMBDA),
    "verify mapsdem": _claim(
        "the fusion of leveled parts maps onto a Demazure module", _LEVEL,
        ("--parts", "parts", _leveled_parts_arg, [], "semicolon-separated level:weight pairs, e.g. 1:2;1:2"),
        _LAMBDA),
    "verify krdecom": _claim(
        "Kirillov-Reshetikhin factorization of a Demazure module", _LEVEL,
        ("--s-vector", "s_vector", _weight_arg, _REQUIRED, "copies of each node's KR module, e.g. 0,2,0"),
        _LAMBDA),
    "verify ev0": _claim("evaluation-module criterion: grade 0 alone iff level-dominant", _LEVEL, _LAMBDA),
    "verify twofold": _claim(
        "two-fold product surjection by multiplicity domination", _INDEX, _LEVEL, _LAMBDA,
        ("--mu1", "mu1", _weight_arg, _REQUIRED, "first weight mu1"),
        ("--mu2", "mu2", _weight_arg, _REQUIRED, "second weight mu2")),
    "verify genschurpos": _claim(
        "level-lowering surjection between node-module fusions", _INDEX,
        ("--power", "power", _int_arg, _REQUIRED, "copies of the node module"), _LEVEL,
        ("--source-level", "source_level", _int_arg, _REQUIRED, "level of the source module"),
        _LAMBDA, ("--mu", "mu", _weight_arg, _REQUIRED, "weight mu")),
    "verify stabilization": _claim(
        "truncated Demazure characters stabilize to the affine character", _LEVEL, _LAMBDA,
        ("--max-grade", "max_grade", _int_arg, _REQUIRED, "deepest grade compared"),
        ("--n-max", "n_max", _int_arg, _REQUIRED, "largest multiple N of theta"),
        unused=(("--no-cache", "no_cache", None, False, "accepted but unused: nothing is cached"),)),
    "verify minuscule": _claim("minuscule-coweight nodes against the classical table"),
    "scan": (_cmd_scan, "exhaustive surjection scan", (
        _SYSTEM, ("--height-bound", "height_bound", _int_arg, _REQUIRED, "largest coordinate scanned"),
        ("--jobs", "jobs", _int_arg, 1, "accepted (>= 1) but unused: the scan is serial"),
        ("--out", "out", _path_arg, None, "directory for the certificate stream"), _NO_TIMING,
    ), {}),
    "cache path": (_cmd_cache, "print the cache directory", (_CACHE_DIR,), {}),
    "cache stats": (_cmd_cache, "count the cache entries", (_CACHE_DIR,), {}),
    "cache clear": (_cmd_cache, "remove every cache entry", (_CACHE_DIR,), {}),
}


def _below(words):
    """The command paths that begin with ``words``."""
    return [path for path in _COMMANDS if path.split()[:len(words)] == words]


def _next_words(words):
    return list(dict.fromkeys(path.split()[len(words)] for path in _below(words)))


def _shown(spec):
    return spec[0] if spec[2] is None else f"{spec[0]} {spec[1].upper()}"


def _usage(words):
    """The usage line of a command path, or of the words that begin one."""
    key = " ".join(words)
    if key in _COMMANDS:
        specs = _COMMANDS[key][2]
        shown = [_shown(spec) if spec[3] is _REQUIRED else f"[{_shown(spec)}]" for spec in specs]
        return " ".join(["usage: demkit", key, "[-h]", *shown])
    return " ".join(["usage: demkit", *words, f"{{{','.join(_next_words(words))}}}", "..."])


def _fail(words, message):
    sys.stderr.write(f"{_usage(words)}\n{' '.join(['demkit', *words])}: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _help(words):
    key = " ".join(words)
    if key in _COMMANDS:
        _, text, specs, _ = _COMMANDS[key]
        head = f"{text}\n\noptions:"
        rows = [("-h, --help", "show this help and exit")] + [(_shown(spec), spec[4]) for spec in specs]
    else:
        head = "Exact Demazure and Weyl characters, with verification certificates.\n\ncommands:"
        rows = [(path, _COMMANDS[path][1]) for path in _below(words)]
    width = 2 + max(len(name) for name, _ in rows)
    sys.stdout.write(f"{_usage(words)}\n\n{head}\n")
    sys.stdout.write("".join(f"  {name:{width}}{text}\n" for name, text in rows))
    raise SystemExit(EXIT_OK)


def _parse(argv):
    """The namespace ``argv`` names: its command words (``command``, then
    ``verify_command`` or ``cache_command``), ``func``, the path's fixed
    entries and every option's value or default.  Help exits 0 and a usage
    error exits 2."""
    chosen = {}  # dest -> command word
    while " ".join(chosen.values()) not in _COMMANDS:
        words = list(chosen.values())
        word = argv[len(words)] if len(argv) > len(words) else None
        if word in ("-h", "--help"):
            _help(words)
        dest = f"{words[-1]}_command" if words else "command"
        if word is None:
            _fail(words, f"the following arguments are required: {dest}")
        try:
            chosen[dest] = _choice(word, _next_words(words))
        except ValueError as exc:
            _fail(words, f"argument {dest}: {exc}")
    words = list(chosen.values())
    handler, _, specs, fixed = _COMMANDS[" ".join(words)]
    args = SimpleNamespace(**chosen, func=handler, **fixed)
    flags = {"-h": None, "--help": None}
    for spec in specs:
        flags[spec[0]] = spec
        setattr(args, spec[1], None if spec[3] is _REQUIRED else spec[3])
    unknown = []
    tokens = iter(argv[len(words):])
    for token in tokens:
        name, eq, text = token.partition("=") if token.startswith("--") else (token, "", "")
        found = [name] if name in flags else [
            flag for flag in flags if len(name) > 2 and name.startswith("--") and flag.startswith(name)]
        if len(found) > 1:
            _fail(words, f"ambiguous option: {name} could match {', '.join(found)}")
        if not found:
            unknown.append(token)
            continue
        flag, = found
        if flags[flag] is None:
            _help(words)
        _, dest, convert, _, _ = flags[flag]
        if convert is None:
            if eq:
                _fail(words, f"argument {flag}: ignored explicit argument {text!r}")
            value = True
        else:
            if not eq:
                text = next(tokens, None)  # taken if it starts with "-" only as a negative integer
                if text is None or text.startswith("-") and not _is_int(text):
                    _fail(words, f"argument {flag}: expected one argument")
            try:
                value = convert(text)
            except ValueError as exc:
                _fail(words, f"argument {flag}: {exc}")
        setattr(args, dest, value)
    missing = [spec[0] for spec in specs if spec[3] is _REQUIRED and getattr(args, spec[1]) is None]
    if missing:
        _fail(words, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        _fail(words, f"unrecognized arguments: {' '.join(unknown)}")
    return args


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_HYPOTHESIS
    except RuntimeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INTERNAL
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO
    except Exception as exc:  # a crash must never read as exit 1, "refuted"
        sys.stderr.write(f"error: internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


def main_entry():
    # The collector is off for the request and the heap is frozen before
    # exit, so shutdown skips its full collections.  That is safe while a
    # request makes no reference cycles, which tests/test_cli.py pins:
    # gc.collect() == 0 after each.
    gc.disable()
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    main_entry()
