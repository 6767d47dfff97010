"""Run one demkit CLI request with timing wrappers around each layer's
functions, then write the per-function totals as JSON.

    python3 perfbench/trace_launch.py SPANS.json -- <demkit arguments>

The wrappers belong to the benchmark: nothing in ``src/`` changes.  Spans
are aggregated in memory per function (calls, total and self seconds, plus
a few per-function counters) and written once, when the request ends.  Self
time is a span's duration minus the part of it spent inside other wrapped
functions.  The exit code and standard output are those of the CLI.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import demkit
import demkit.affine
import demkit.cache
import demkit.charalg
import demkit.cli
import demkit.finite
import demkit.rootsystem
import demkit.theorems

MODULES = (
    demkit, demkit.affine, demkit.cache, demkit.charalg, demkit.cli,
    demkit.finite, demkit.rootsystem, demkit.theorems,
)

STATS = {}
_inner = []  # seconds spent in wrapped callees, one slot per open span
_weyl_keys = set()


def _terms_out(st, args, result):
    st["terms_out"] = st.get("terms_out", 0) + len(result.terms)


def _bytes_out(st, args, result):
    # JSON with ensure_ascii: one character is one byte.
    st["bytes"] = st.get("bytes", 0) + len(result)


def _terms_in(st, args, result):
    st["terms"] = st.get("terms", 0) + len(result.terms)


def _weyl_distinct(st, args, result):
    _weyl_keys.add((args[0].name, tuple(args[1])))
    st["distinct"] = len(_weyl_keys)


def _load_hits(st, args, result):
    st["hits"] = st.get("hits", 0) + (result is not None)


def _store_bytes(st, args, result):
    cache, key = args[0], args[1]
    st["bytes"] = st.get("bytes", 0) + os.path.getsize(cache._path(key))


# Module-qualified name -> optional counter hook run on each result.
TARGETS = {
    "cli.main": None,
    "rootsystem.root_system": None,
    "rootsystem.RootSystem.dominance_gap": None,
    "rootsystem.RootSystem.dominates": None,
    "rootsystem.RootSystem.weight_norm2": None,
    "rootsystem.RootSystem.dominant_representative": None,
    "charalg.GradedCharacter.__mul__": None,
    "charalg.GradedCharacter.is_w_invariant": None,
    "charalg.GradedCharacter.to_jsonl": _bytes_out,
    "charalg.GradedCharacter.from_jsonl": _terms_in,
    "affine.demazure_operator": _terms_out,
    "affine.demazure_character": None,
    "affine.kr_character": None,
    "affine.straighten": None,
    "affine.affine_irreducible_character_truncated": None,
    "finite.weyl_character": _weyl_distinct,
    "finite.tensor_decompose": None,
    "finite.surjection_exists": None,
    "theorems.schur_scan": None,
    "theorems.verify_demprop": None,
    "theorems.verify_mapsdem": None,
    "theorems.verify_krdecom": None,
    "theorems.verify_ev0": None,
    "theorems.verify_twofold": None,
    "theorems.verify_genschurpos": None,
    "theorems.verify_stabilization": None,
    "theorems.verify_minuscule": None,
    "theorems.Certificate.to_json": None,
    "cache.CharacterCache.load": _load_hits,
    "cache.CharacterCache.store": _store_bytes,
}


def _wrap(name, fn, hook):
    st = STATS.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _inner.append(0.0)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            st["calls"] += 1
            st["total_s"] += dt
            st["self_s"] += dt - _inner.pop()
            if _inner:
                _inner[-1] += dt
        if hook is not None:
            hook(st, args, result)
        return result

    return wrapper


def install():
    """Wrap every target.  A module-level function is rebound in every
    demkit module that imported it by name (``finite`` imports
    ``demazure_operator``, ``theorems`` the builders and
    ``tensor_decompose``, ``cli`` the character builders), so no call
    bypasses its wrapper.  Methods are wrapped on their class."""
    for name, hook in TARGETS.items():
        modname, attr = name.split(".", 1)
        module = getattr(demkit, modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(_wrap(name, raw.__func__, hook)))
            else:
                setattr(cls, meth, _wrap(name, raw, hook))
            continue
        orig = getattr(module, attr)
        wrapped = _wrap(name, orig, hook)
        for mod in MODULES:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)


def main():
    out_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: trace_launch.py SPANS.json -- <demkit arguments>")
    install()
    try:
        code = demkit.cli.main(sys.argv[3:])
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(STATS, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
