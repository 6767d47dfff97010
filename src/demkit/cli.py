"""Command-line front end.

Commands: ``char`` (compute a character), ``presentation`` (defining
relations of a Demazure module), ``verify`` (run one verification and emit
a certificate), ``scan`` (exhaustive surjection scan), ``cache`` (manage
the on-disk character cache).

Exit codes: 0 success/verified, 1 refuted, 2 invalid flags, 3 hypothesis
violations and other domain errors, 4 inconclusive, 5 internal error (a
failed internal consistency check), 6 I/O error (an output path or cache
directory that cannot be written or read); 3, 5 and 6 are reported as one
``error:`` line on stderr.  All primary output is UTF-8 JSON or
JSON-lines; ``--no-timing`` strips the elapsed fields so reruns are
byte-identical.  Each ``verify`` subcommand runs ``theorems.verify_<name>``
on the arguments its parser names; only ``char`` and ``cache`` touch the cache, and ``verify
stabilization --no-cache`` is accepted but unused.  ``scan`` runs in one
process, decomposes each distinct product of two irreducibles once, and
computes every certificate before it writes any; its ``--jobs`` flag is
validated but changes neither the work nor the output.

Each command imports the modules it runs when it runs: every command loads
``rootsystem``; ``char`` adds ``affine``, ``charalg`` and ``cache`` (and
``finite`` for ``--kind weyl``), ``presentation`` adds ``affine`` and
``charalg``, ``verify`` and ``scan`` add ``theorems`` with ``affine``,
``finite`` and ``charalg``, and ``cache`` adds ``cache`` and ``charalg``.
The package's own exports resolve lazily too, so ``char`` never compiles
``theorems`` and no command but ``char`` and ``cache`` loads ``cache``.
"""

from __future__ import annotations

import argparse
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
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _format_graded_dim(graded):
    if not graded:
        return "0"
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
    for (w, g), m in char.sorted_terms():
        lines.append(f"{','.join(map(str, w))}\t{g}\t{m}")
    lines.append(f"dim {char.dimension()}")
    lines.append(f"graded dim {_format_graded_dim(char.graded_dimension())}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# char


def _cmd_char(args):
    from .affine import demazure_character, kr_character
    from .cache import CacheKey, CharacterCache, resolve_cache_dir

    rs = root_system(args.system)
    if args.kind == "weyl":
        if args.weight is None:
            raise ValueError("--weight is required for --kind weyl")
        from .finite import weyl_character

        key = CacheKey(rs.name, "weyl", 0, args.weight)
        build = lambda: weyl_character(rs, args.weight)
    else:
        if args.level is None:
            raise ValueError("--level is required for Demazure characters")
        if args.kind == "kr":
            if args.index is None:
                raise ValueError("--index is required for --kind kr")
            weight = rs.kr_weight(args.index, args.level)
            build = lambda: kr_character(rs, args.level, args.index)
        else:
            if args.weight is None:
                raise ValueError("--weight is required for --kind demazure")
            weight = rs.check_weight(args.weight)
            build = lambda: demazure_character(rs, args.level, weight)
        key = CacheKey(rs.name, "demazure", args.level, weight)

    cache = None if args.no_cache else CharacterCache(resolve_cache_dir(args.cache_dir))
    hit = cache.load(key) if cache else None
    if hit:
        char, text = hit  # the checked serialization, reused when the output is the same
    else:
        char = build()
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
    lines = [c.to_json(include_timing=not args.no_timing) for c in certs]
    if args.out:
        path = os.path.join(args.out, f"scan_{rs.name}_h{args.height_bound}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
    else:
        for ln in lines:
            sys.stdout.write(ln + "\n")
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
# parser wiring


def build_parser():
    parser = argparse.ArgumentParser(
        prog="demkit",
        description="Exact Demazure and Weyl characters, with verification certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_char = sub.add_parser("char", help="compute a character")
    p_char.add_argument("--system", required=True, type=_system_arg)
    p_char.add_argument("--level", type=int)
    p_char.add_argument("--weight", type=_weight_arg)
    p_char.add_argument("--kind", choices=("demazure", "weyl", "kr"), default="demazure")
    p_char.add_argument("--index", type=int, help="node index for --kind kr")
    p_char.add_argument("--graded", action="store_true", help="keep the grading in the output")
    p_char.add_argument("--pretty", action="store_true", help="human table instead of JSON lines")
    p_char.add_argument("--out")
    p_char.add_argument("--cache-dir")
    p_char.add_argument("--no-cache", action="store_true")
    p_char.set_defaults(func=_cmd_char)

    p_pres = sub.add_parser("presentation", help="defining relations of a Demazure module")
    p_pres.add_argument("--system", required=True, type=_system_arg)
    p_pres.add_argument("--level", required=True, type=int)
    p_pres.add_argument("--weight", required=True, type=_weight_arg)
    p_pres.add_argument("--pretty", action="store_true")
    p_pres.add_argument("--out")
    p_pres.set_defaults(func=_cmd_presentation)

    p_verify = sub.add_parser("verify", help="run one verification, emit a certificate")
    vsub = p_verify.add_subparsers(dest="verify_command", required=True)

    def common(p, *claim_args):
        """Shared flags; ``claim_args`` names the parsed arguments passed,
        in order after the root system, to the claim's ``verify_*``."""
        p.add_argument("--system", required=True, type=_system_arg)
        if "level" in claim_args:
            p.add_argument("--level", required=True, type=int)
        p.add_argument("--out")
        p.add_argument("--no-timing", action="store_true")
        p.set_defaults(func=_cmd_verify, claim_args=claim_args)

    p = vsub.add_parser("demprop")
    common(p, "level", "parts", "lam")
    p.add_argument("--parts", type=_parts_arg, default=[], help="semicolon-separated weights, e.g. '2' or '1,0;0,1'")
    p.add_argument("--lambda", dest="lam", required=True, type=_weight_arg)

    p = vsub.add_parser("mapsdem")
    common(p, "level", "parts", "lam")
    p.add_argument("--parts", type=_leveled_parts_arg, default=[], help="semicolon-separated level:weight pairs, e.g. '1:2;1:2'")
    p.add_argument("--lambda", dest="lam", required=True, type=_weight_arg)

    p = vsub.add_parser("krdecom")
    common(p, "level", "s_vector", "lam")
    p.add_argument("--s-vector", dest="s_vector", required=True, type=_weight_arg)
    p.add_argument("--lambda", dest="lam", required=True, type=_weight_arg)

    p = vsub.add_parser("ev0")
    common(p, "level", "lam")
    p.add_argument("--lambda", dest="lam", required=True, type=_weight_arg)

    p = vsub.add_parser("twofold")
    common(p, "index", "level", "lam", "mu1", "mu2")
    p.add_argument("--index", required=True, type=int)
    p.add_argument("--lambda", dest="lam", required=True, type=_weight_arg)
    p.add_argument("--mu1", required=True, type=_weight_arg)
    p.add_argument("--mu2", required=True, type=_weight_arg)

    p = vsub.add_parser("genschurpos")
    common(p, "index", "power", "level", "source_level", "lam", "mu")
    p.add_argument("--index", required=True, type=int)
    p.add_argument("--power", required=True, type=int)
    p.add_argument("--source-level", dest="source_level", required=True, type=int)
    p.add_argument("--lambda", dest="lam", required=True, type=_weight_arg)
    p.add_argument("--mu", required=True, type=_weight_arg)

    p = vsub.add_parser("stabilization")
    common(p, "level", "lam", "max_grade", "n_max")
    p.add_argument("--lambda", dest="lam", required=True, type=_weight_arg)
    p.add_argument("--max-grade", dest="max_grade", required=True, type=int)
    p.add_argument("--n-max", dest="n_max", required=True, type=int)
    p.add_argument("--no-cache", action="store_true", help="accepted but unused: nothing is cached")

    p = vsub.add_parser("minuscule")
    common(p)

    p_scan = sub.add_parser("scan", help="exhaustive surjection scan")
    p_scan.add_argument("--system", required=True, type=_system_arg)
    p_scan.add_argument("--height-bound", dest="height_bound", required=True, type=int)
    p_scan.add_argument("--jobs", type=int, default=1, help="accepted (>= 1) but unused: the scan is serial")
    p_scan.add_argument("--out", help="directory for the certificate stream")
    p_scan.add_argument("--no-timing", action="store_true")
    p_scan.set_defaults(func=_cmd_scan)

    p_cache = sub.add_parser("cache", help="manage the character cache")
    csub = p_cache.add_subparsers(dest="cache_command", required=True)
    for name in ("path", "stats", "clear"):
        pc = csub.add_parser(name)
        pc.add_argument("--cache-dir")
        pc.set_defaults(func=_cmd_cache)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
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


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
