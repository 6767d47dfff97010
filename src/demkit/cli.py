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

The parser is built per command: :func:`build_parser` registers every
command name but adds arguments only along the command path the request
names, and builds every parser only when it names none (see there).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

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


def _system_arg(value):
    try:
        parse_system(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return value


def _weight_arg(value):
    try:
        return tuple(int(c) for c in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed weight {value!r}; expected e.g. '1,0'")


def _parts_arg(value):
    if not value.strip():
        return []
    return [_weight_arg(p) for p in value.split(";")]


def _leveled_parts_arg(value):
    if not value.strip():
        return []
    out = []
    for item in value.split(";"):
        if ":" not in item:
            raise argparse.ArgumentTypeError(
                f"malformed part {item!r}; expected 'level:coords' e.g. '1:2,0'"
            )
        lvl, coords = item.split(":", 1)
        try:
            out.append((int(lvl), _weight_arg(coords)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"malformed part level in {item!r}")
    return out


def _emit(text, out_path):
    """Write ``text`` to ``out_path``, or to stdout without one, a slice
    of ``_EMIT_SLICE`` characters at a time: a text stream encodes what it
    is given at once, so a whole character file would be copied."""
    with open(out_path, "w", encoding="utf-8") if out_path else contextlib.nullcontext(sys.stdout) as fh:
        for start in range(0, len(text), _EMIT_SLICE):
            fh.write(text[start:start + _EMIT_SLICE])


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


def _cmd_char(args):
    from .cache import CacheKey, CharacterCache, resolve_cache_dir

    rs = root_system(args.system)
    if args.kind == "weyl":
        if args.weight is None:
            raise ValueError("--weight is required for --kind weyl")
        key = CacheKey(rs.name, "weyl", 0, args.weight)
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
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
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
    sys.stdout.write(json.dumps(summary, sort_keys=True, separators=(",", ":")) + "\n")
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
        sys.stdout.write(json.dumps(cache.stats(), sort_keys=True, separators=(",", ":")) + "\n")
    else:  # clear
        cache.clear()
        sys.stdout.write(json.dumps({"cleared": True}, sort_keys=True, separators=(",", ":")) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring: one function per command path adds that path's arguments


def _char_args(p):
    p.add_argument("--system", required=True, type=_system_arg)
    p.add_argument("--level", type=int)
    p.add_argument("--weight", type=_weight_arg)
    p.add_argument("--kind", choices=("demazure", "weyl", "kr"), default="demazure")
    p.add_argument("--index", type=int, help="node index for --kind kr")
    p.add_argument("--graded", action="store_true", help="keep the grading in the output")
    p.add_argument("--pretty", action="store_true", help="human table instead of JSON lines")
    p.add_argument("--out")
    p.add_argument("--cache-dir")
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(func=_cmd_char)


def _presentation_args(p):
    p.add_argument("--system", required=True, type=_system_arg)
    p.add_argument("--level", required=True, type=int)
    p.add_argument("--weight", required=True, type=_weight_arg)
    p.add_argument("--pretty", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_presentation)


def _claim_args(p, *claim_args):
    """Flags every claim shares; ``claim_args`` names the parsed arguments
    passed, in order after the root system, to the claim's ``verify_*``."""
    p.add_argument("--system", required=True, type=_system_arg)
    if "level" in claim_args:
        p.add_argument("--level", required=True, type=int)
    p.add_argument("--out")
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=_cmd_verify, claim_args=claim_args)


def _demprop_args(p):
    _claim_args(p, "level", "parts", "lam")
    p.add_argument("--parts", type=_parts_arg, default=[], help="semicolon-separated weights, e.g. '2' or '1,0;0,1'")
    p.add_argument("--lambda", dest="lam", required=True, type=_weight_arg)


def _mapsdem_args(p):
    _claim_args(p, "level", "parts", "lam")
    p.add_argument("--parts", type=_leveled_parts_arg, default=[], help="semicolon-separated level:weight pairs, e.g. '1:2;1:2'")
    p.add_argument("--lambda", dest="lam", required=True, type=_weight_arg)


def _krdecom_args(p):
    _claim_args(p, "level", "s_vector", "lam")
    p.add_argument("--s-vector", dest="s_vector", required=True, type=_weight_arg)
    p.add_argument("--lambda", dest="lam", required=True, type=_weight_arg)


def _ev0_args(p):
    _claim_args(p, "level", "lam")
    p.add_argument("--lambda", dest="lam", required=True, type=_weight_arg)


def _twofold_args(p):
    _claim_args(p, "index", "level", "lam", "mu1", "mu2")
    p.add_argument("--index", required=True, type=int)
    p.add_argument("--lambda", dest="lam", required=True, type=_weight_arg)
    p.add_argument("--mu1", required=True, type=_weight_arg)
    p.add_argument("--mu2", required=True, type=_weight_arg)


def _genschurpos_args(p):
    _claim_args(p, "index", "power", "level", "source_level", "lam", "mu")
    p.add_argument("--index", required=True, type=int)
    p.add_argument("--power", required=True, type=int)
    p.add_argument("--source-level", dest="source_level", required=True, type=int)
    p.add_argument("--lambda", dest="lam", required=True, type=_weight_arg)
    p.add_argument("--mu", required=True, type=_weight_arg)


def _stabilization_args(p):
    _claim_args(p, "level", "lam", "max_grade", "n_max")
    p.add_argument("--lambda", dest="lam", required=True, type=_weight_arg)
    p.add_argument("--max-grade", dest="max_grade", required=True, type=int)
    p.add_argument("--n-max", dest="n_max", required=True, type=int)
    p.add_argument("--no-cache", action="store_true", help="accepted but unused: nothing is cached")


def _scan_args(p):
    p.add_argument("--system", required=True, type=_system_arg)
    p.add_argument("--height-bound", dest="height_bound", required=True, type=int)
    p.add_argument("--jobs", type=int, default=1, help="accepted (>= 1) but unused: the scan is serial")
    p.add_argument("--out", help="directory for the certificate stream")
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=_cmd_scan)


def _cache_args(p):
    p.add_argument("--cache-dir")
    p.set_defaults(func=_cmd_cache)


# name -> (add_parser keywords, the path's arguments or a subcommand group);
# a group is (its dest, its own table)
_COMMANDS = {
    "char": ({"help": "compute a character"}, _char_args),
    "presentation": ({"help": "defining relations of a Demazure module"}, _presentation_args),
    "verify": ({"help": "run one verification, emit a certificate"}, ("verify_command", {
        "demprop": ({}, _demprop_args),
        "mapsdem": ({}, _mapsdem_args),
        "krdecom": ({}, _krdecom_args),
        "ev0": ({}, _ev0_args),
        "twofold": ({}, _twofold_args),
        "genschurpos": ({}, _genschurpos_args),
        "stabilization": ({}, _stabilization_args),
        "minuscule": ({}, _claim_args),
    })),
    "scan": ({"help": "exhaustive surjection scan"}, _scan_args),
    "cache": ({"help": "manage the character cache"}, ("cache_command", {
        name: ({}, _cache_args) for name in ("path", "stats", "clear")
    })),
}


def _command_path(argv):
    """The command path that ``argv``'s leading words name exactly, such
    as ``("char",)`` or ``("verify", "stabilization")``, or None."""
    table = _COMMANDS
    for depth, word in enumerate(argv):
        if word not in table:
            return None
        wiring = table[word][1]
        if callable(wiring):
            return tuple(argv[:depth + 1])
        table = wiring[1]
    return None


def _add_commands(parser, dest, table, path):
    """Register every name of ``table`` under ``parser``; only the names on
    ``path`` (all of them when ``path`` is None) get their arguments."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (keywords, wiring) in table.items():
        p = sub.add_parser(name, **keywords)
        if path is None or path[0] == name:
            if callable(wiring):
                wiring(p)
            else:
                _add_commands(p, *wiring, path and path[1:])


def build_parser(argv=None):
    """The ``demkit`` parser.  Every command name is registered, but only
    the command path that ``argv``'s leading words name exactly (``char``,
    ``verify stabilization``, ``cache stats``, ...) gets its arguments.
    With no ``argv``, or one that names no complete path (no words,
    ``--help`` at the top or group level, an unknown command), every
    parser gets them.  argparse prints help, usage and errors from the
    deepest parser it reaches, which is built the same either way."""
    parser = argparse.ArgumentParser(
        prog="demkit",
        description="Exact Demazure and Weyl characters, with verification certificates.",
    )
    _add_commands(parser, "command", _COMMANDS, None if argv is None else _command_path(argv))
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
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
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
