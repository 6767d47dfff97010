import ast
import hashlib
import importlib
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import demkit
from demkit.cli import main

pytestmark = pytest.mark.usefixtures("isolated_cache")


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("DEMKIT_CACHE", str(tmp_path / "cache"))
    return tmp_path / "cache"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_char_graded_pretty(capsys):
    code, out, _ = run(capsys, "char", "--system", "A1", "--level", "1", "--weight", "2", "--graded", "--pretty")
    assert code == 0
    assert "dim 4" in out
    assert "graded dim 3 + 1·q" in out


def test_char_level1_fundamental(capsys):
    code, out, _ = run(capsys, "char", "--system", "A1", "--level", "1", "--weight", "1", "--pretty")
    assert code == 0
    assert "dim 2" in out
    lines = [ln for ln in out.splitlines() if "\t" in ln][1:]
    assert all(ln.split("\t")[1] == "0" for ln in lines)


def test_char_weyl_kind(capsys):
    code, out, _ = run(capsys, "char", "--system", "A2", "--weight", "1,1", "--kind", "weyl", "--pretty")
    assert code == 0
    assert "dim 8" in out


def test_char_jsonl_headers(capsys):
    code, out, _ = run(capsys, "char", "--system", "A1", "--level", "1", "--weight", "2", "--graded")
    assert code == 0
    header = json.loads(out.splitlines()[0])
    assert header == {"system": "A1", "kind": "graded"}
    code, out, _ = run(capsys, "char", "--system", "A1", "--level", "1", "--weight", "2")
    header = json.loads(out.splitlines()[0])
    assert header == {"system": "A1", "kind": "plain"}


def test_char_kr_kind(capsys):
    code, out, _ = run(capsys, "char", "--system", "A2", "--level", "2", "--kind", "kr", "--index", "1", "--pretty")
    assert code == 0
    assert "dim 6" in out


def test_char_rerun_and_cache_are_byte_identical(capsys, isolated_cache):
    args = ("char", "--system", "B2", "--level", "1", "--weight", "0,2", "--graded")
    _, first, _ = run(capsys, *args)
    assert not (isolated_cache / "nonexistent").exists()
    _, second, _ = run(capsys, *args)  # served from cache
    assert first == second
    _, third, _ = run(capsys, *args, "--no-cache")
    assert first == third


def test_cache_header_revalidation(capsys, isolated_cache):
    args = ("char", "--system", "A1", "--level", "1", "--weight", "2", "--graded")
    _, first, _ = run(capsys, *args)
    entries = os.listdir(isolated_cache)
    assert len(entries) == 1
    # corrupt the entry: stale header must be treated as a miss
    path = isolated_cache / entries[0]
    path.write_text('{"system":"A2","kind":"graded"}\n{"w":[0,0],"g":0,"m":"1"}\n')
    _, again, _ = run(capsys, *args)
    assert again == first


def test_entry_of_another_system_is_a_miss(capsys, isolated_cache):
    # the G2 file under a seal that names the B2 key and checks out: the
    # rank matches, so the file parses as a character and only load's
    # header-line check can turn it away
    b2 = ("char", "--system", "B2", "--level", "1", "--weight", "1,0", "--graded")
    path, _, lines = _cached_entry(capsys, isolated_cache, b2)
    _, g2, _ = run(capsys, "char", "--system", "G2", "--level", "1", "--weight", "1,0", "--graded", "--no-cache")
    path.write_bytes(_sealed(path, g2))
    code, out, err = run(capsys, *b2)
    _, uncached, _ = run(capsys, *b2, "--no-cache")
    assert code == 0 and err == "" and out == uncached
    assert path.read_text(encoding="utf-8").splitlines(keepends=True)[1:] == lines  # rewritten


def _cached_entry(capsys, isolated_cache, args):
    """Run ``args`` once to fill the cache; the entry's path, its seal and
    the lines of the character file after the seal."""
    run(capsys, *args)
    (name,) = os.listdir(isolated_cache)
    path = isolated_cache / name
    seal, *lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    return path, json.loads(seal), lines


def _sealed(path, text, terms=None):
    """A cache entry at ``path`` over the character file ``text`` (str or
    bytes) whose seal passes the name, count-type and digest checks: it
    names ``path``'s key and counts ``text``'s term lines unless ``terms``
    is given, so only the checks after the seal can turn it away."""
    data = text if isinstance(text, bytes) else text.encode("utf-8")
    if terms is None:
        terms = data.count(b"\n") - 1
    seal = {"entry": path.name, "terms": terms, "sha256": hashlib.sha256(data).hexdigest()}
    return json.dumps(seal, separators=(",", ":")).encode("utf-8") + b"\n" + data


A1_GRADED = ("char", "--system", "A1", "--level", "1", "--weight", "2", "--graded")
A1_HEADER = '{"system":"A1","kind":"graded"}\n'


def test_cache_entry_carries_term_count_and_digest(capsys, isolated_cache):
    # the entry is its seal, then exactly the uncached output
    path, seal, lines = _cached_entry(capsys, isolated_cache, A1_GRADED)
    assert path.name == "v3_demazure_A1_l1_w2.jsonl"
    text = "".join(lines)
    assert seal == {"entry": path.name, "terms": 4, "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    _, uncached, _ = run(capsys, *A1_GRADED, "--no-cache")
    assert uncached == text and len(lines) == 5


@pytest.mark.parametrize("entry", [
    lambda path, text: b"[1]\n" + text.encode("utf-8"),  # seal not an object
    lambda path, text: b'{"entry":"%s","terms":4}\n' % path.name.encode() + text.encode("utf-8"),  # no digest
    lambda path, text: _sealed(path, A1_HEADER + '{"w":2,"g":0,"m":"1"}\n'),
    lambda path, text: _sealed(path, A1_HEADER + "[0]\n"),  # record not an object
    lambda path, text: _sealed(path, A1_HEADER.encode("utf-8") + b"\xff\xfe\n"),  # not UTF-8
    lambda path, text: _sealed(path, '{"system":"A1","kind":"plain"}\n{"w":[2],"g":0,"m":"1"}\n'),
    lambda path, text: _sealed(path, text, terms=5),  # one term more than the file holds
    lambda path, text: _sealed(path, " " + text),  # a header that parses but is not to_jsonl's
], ids=["header-list", "no-digest", "weight-not-list", "record-list", "not-utf8",
        "wrong-kind", "wrong-count", "header-spelling"])
def test_malformed_cache_entries_are_misses(capsys, isolated_cache, entry):
    path, _, lines = _cached_entry(capsys, isolated_cache, A1_GRADED)
    entry_bytes = path.read_bytes()
    path.write_bytes(entry(path, "".join(lines)))
    code, out, err = run(capsys, *A1_GRADED)
    assert code == 0 and err == ""
    _, uncached, _ = run(capsys, *A1_GRADED, "--no-cache")
    assert out == uncached
    assert path.read_bytes() == entry_bytes  # rewritten


@pytest.mark.parametrize("count", [1.0, True], ids=["float", "bool"])
def test_term_count_that_is_not_an_int_is_a_miss(capsys, isolated_cache, monkeypatch, count):
    # 1.0 == True == 1, so only the type turns these one-term entries away,
    # before anything is parsed
    from demkit.charalg import GradedCharacter

    args = ("char", "--system", "A1", "--level", "1", "--weight", "0", "--graded")
    path, seal, lines = _cached_entry(capsys, isolated_cache, args)
    assert seal["terms"] == len(lines) - 1 == 1
    path.write_bytes(_sealed(path, "".join(lines), terms=count))
    calls = []
    real_from = GradedCharacter.from_jsonl.__func__
    monkeypatch.setattr(GradedCharacter, "from_jsonl",
                        classmethod(lambda cls, text: calls.append(1) or real_from(cls, text)))
    code, out, _ = run(capsys, *args)
    _, uncached, _ = run(capsys, *args, "--no-cache")
    assert code == 0 and out == uncached and calls == []
    assert json.loads(path.read_text().splitlines()[0]) == seal  # rewritten


@pytest.mark.parametrize("edit", [
    lambda lines: [ln.replace('"m":"1"', '"m":"5"', 1) for ln in lines],  # one multiplicity
    lambda lines: lines[:-1],  # last term dropped
    lambda lines: lines[:-1] + [lines[-1][:-6]],  # cut inside the last line
    lambda lines: lines + [lines[-1]],  # a term repeated
], ids=["multiplicity", "dropped-line", "cut-line", "extra-line"])
def test_edited_cache_bodies_are_recomputed(capsys, isolated_cache, edit):
    args = ("char", "--system", "B2", "--level", "1", "--weight", "0,2", "--graded")
    path, seal, lines = _cached_entry(capsys, isolated_cache, args)
    edited = edit(lines)
    assert edited != lines
    path.write_text(json.dumps(seal, separators=(",", ":")) + "\n" + "".join(edited))  # the old digest
    code, out, _ = run(capsys, *args)
    _, uncached, _ = run(capsys, *args, "--no-cache")
    assert code == 0 and out == uncached
    assert path.read_text().splitlines(keepends=True)[1:] == lines  # rewritten


@pytest.mark.parametrize("level,weight", [(1, (0, 2)), (2, (2, 0))], ids=["weight", "level"])
def test_misfiled_cache_entry_is_a_miss(capsys, isolated_cache, level, weight):
    # a whole real entry, copied to another key's file name: its count,
    # digest, system and kind all check out, but its seal names its own file
    from demkit.cache import CacheKey

    args = ("char", "--system", "A2", "--level", "1", "--weight", "2,0", "--graded")
    path, _, _ = _cached_entry(capsys, isolated_cache, args)
    wanted = ("char", "--system", "A2", "--level", str(level), "--weight", ",".join(map(str, weight)), "--graded")
    _, uncached, _ = run(capsys, *wanted, "--no-cache")
    misfiled = isolated_cache / CacheKey("A2", "demazure", level, weight).filename()
    misfiled.write_bytes(path.read_bytes())
    code, out, err = run(capsys, *wanted)
    assert (code, out, err) == (0, uncached, "")
    seal, *lines = misfiled.read_text(encoding="utf-8").splitlines(keepends=True)  # rewritten
    assert json.loads(seal)["entry"] == misfiled.name and "".join(lines) == uncached


# a warm hit prints the entry it has just checked, and serializes only a
# collapsed output
@pytest.mark.parametrize("args,cold_calls,warm_calls", [
    (A1_GRADED, 1, ["from"]),
    (("char", "--system", "A2", "--weight", "1,1", "--kind", "weyl"), 1, ["from"]),
    (("char", "--system", "A2", "--level", "2", "--kind", "kr", "--index", "1", "--graded"), 1, ["from"]),
    (("char", "--system", "A1", "--level", "1", "--weight", "2"), 2, ["from", "to"]),  # collapsed output
], ids=["demazure-graded", "weyl", "kr-graded", "demazure-collapsed"])
def test_cold_request_serializes_once(capsys, monkeypatch, args, cold_calls, warm_calls):
    from demkit.charalg import GradedCharacter

    calls = []
    real_to, real_from = GradedCharacter.to_jsonl, GradedCharacter.from_jsonl.__func__

    def counting_to(self, *a, **kw):
        calls.append("to")
        return real_to(self, *a, **kw)

    def counting_from(cls, *a, **kw):
        calls.append("from")
        return real_from(cls, *a, **kw)

    monkeypatch.setattr(GradedCharacter, "to_jsonl", counting_to)
    monkeypatch.setattr(GradedCharacter, "from_jsonl", classmethod(counting_from))
    _, cold, _ = run(capsys, *args)
    assert calls == ["to"] * cold_calls
    calls.clear()
    _, warm, _ = run(capsys, *args)
    assert calls == warm_calls and warm == cold


def test_cache_commands(capsys, isolated_cache):
    code, out, _ = run(capsys, "cache", "stats")
    assert code == 0 and json.loads(out) == {"entries": 0}
    run(capsys, "char", "--system", "A1", "--level", "1", "--weight", "1")
    code, out, _ = run(capsys, "cache", "stats")
    assert json.loads(out) == {"entries": 1}
    code, out, _ = run(capsys, "cache", "path")
    assert out.strip() == str(isolated_cache)
    code, out, _ = run(capsys, "cache", "clear")
    assert code == 0
    code, out, _ = run(capsys, "cache", "stats")
    assert json.loads(out) == {"entries": 0}


def test_cache_stats_skip_stale_versions_and_clear_removes_them(capsys, isolated_cache):
    isolated_cache.mkdir()
    stale = isolated_cache / "v1_demazure_A1_l1_w2.jsonl"
    stale.write_text('{"system":"A1","kind":"graded"}\n', encoding="utf-8")
    code, out, _ = run(capsys, "cache", "stats")
    assert code == 0 and json.loads(out) == {"entries": 0}
    run(capsys, "cache", "clear")
    assert not stale.exists()


def test_version_2_entries_are_neither_read_nor_counted(capsys, isolated_cache):
    # a version-2 entry (the term count and digest in the header line),
    # under its own name and under the current name: neither is read, and
    # clear removes both
    isolated_cache.mkdir()
    body = '{"w":[0],"g":0,"m":"1"}\n'  # a wrong character, whose digest checks out
    header = {"system": "A1", "kind": "graded", "terms": 1, "sha256": hashlib.sha256(body.encode()).hexdigest()}
    v2 = json.dumps(header, separators=(",", ":")) + "\n" + body
    old = isolated_cache / "v2_demazure_A1_l1_w2.jsonl"
    current = isolated_cache / "v3_demazure_A1_l1_w2.jsonl"
    old.write_text(v2, encoding="utf-8")
    current.write_text(v2, encoding="utf-8")
    assert json.loads(run(capsys, "cache", "stats")[1]) == {"entries": 1}  # the current name only
    code, out, _ = run(capsys, *A1_GRADED)
    _, uncached, _ = run(capsys, *A1_GRADED, "--no-cache")
    assert code == 0 and out == uncached
    assert current.read_text(encoding="utf-8").splitlines(keepends=True)[1:] == uncached.splitlines(keepends=True)
    assert old.read_text(encoding="utf-8") == v2
    assert json.loads(run(capsys, "cache", "stats")[1]) == {"entries": 1}
    run(capsys, "cache", "clear")
    assert os.listdir(isolated_cache) == []


def test_cache_stats_skip_unknown_kinds_and_clear_removes_them(capsys, isolated_cache):
    isolated_cache.mkdir()
    oracle = isolated_cache / "v2_affine-truncated_A1_l1_w0_g2.jsonl"
    oracle.write_text('{"system":"A1","kind":"graded"}\n', encoding="utf-8")
    code, out, _ = run(capsys, "cache", "stats")
    assert code == 0 and json.loads(out) == {"entries": 0}
    run(capsys, "cache", "clear")
    assert not oracle.exists()


def test_cache_dir_flag_beats_environment(capsys, tmp_path):
    other = tmp_path / "elsewhere"
    code, out, _ = run(capsys, "cache", "path", "--cache-dir", str(other))
    assert out.strip() == str(other)


def test_presentation_json(capsys):
    code, out, _ = run(capsys, "presentation", "--system", "A1", "--level", "2", "--weight", "3")
    assert code == 0
    doc = json.loads(out)
    (rel,) = doc["relations"]
    assert rel["s"] == 2 and rel["m"] == 1
    assert rel["nilpotency_relation"] == {"power": 2, "t_exponent": 1}


def test_verify_demprop_roundtrip(capsys):
    code, out, _ = run(
        capsys, "verify", "demprop", "--system", "A1", "--level", "1",
        "--parts", "2", "--lambda", "1", "--no-timing",
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["verdict"] == "verified"
    assert cert["details"]["lhs_dim"] == "8"


def test_verify_exit_codes(capsys):
    code, _, _ = run(capsys, "verify", "demprop", "--system", "A1", "--level", "1", "--parts", "2", "--lambda", "2")
    assert code == 3
    code, _, _ = run(capsys, "verify", "stabilization", "--system", "A1", "--level", "1", "--lambda", "0", "--max-grade", "2", "--n-max", "2")
    assert code == 4
    code, _, _ = run(capsys, "verify", "minuscule", "--system", "B3")
    assert code == 0


def test_verify_stabilization(capsys):
    code, out, _ = run(
        capsys, "verify", "stabilization", "--system", "A1", "--level", "1",
        "--lambda", "0", "--max-grade", "2", "--n-max", "4", "--no-timing",
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["verdict"] == "verified" and cert["details"]["stable_from"] == 2


def test_verify_stabilization_writes_no_cache(capsys, isolated_cache):
    args = ("verify", "stabilization", "--system", "A1", "--level", "1",
            "--lambda", "1", "--max-grade", "2", "--n-max", "4", "--no-timing")
    code, out, _ = run(capsys, *args)
    assert code == 0 and not isolated_cache.exists()
    assert run(capsys, *args, "--no-cache") == (0, out, "")  # accepted but unused


def test_verify_writes_to_file(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    code, out, _ = run(
        capsys, "verify", "ev0", "--system", "A1", "--level", "2", "--lambda", "2",
        "--no-timing", "--out", str(out_file),
    )
    assert code == 0 and out == ""
    assert json.loads(out_file.read_text())["verdict"] == "verified"


def test_verify_reruns_are_byte_identical(capsys):
    args = ("verify", "krdecom", "--system", "A2", "--level", "1", "--s-vector", "1,1", "--lambda", "0,0", "--no-timing")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_scan_summary_and_jobs_determinism(capsys):
    args = ("scan", "--system", "A1", "--height-bound", "2", "--no-timing")
    code, out1, _ = run(capsys, *args, "--jobs", "1")
    assert code == 0
    code, out2, _ = run(capsys, *args, "--jobs", "2")
    assert out1 == out2
    summary = json.loads(out1.splitlines()[-1])
    assert summary["refuted"] == 0 and summary["total"] == len(out1.splitlines()) - 1


def test_scan_out_directory(capsys, tmp_path):
    out_dir = tmp_path / "scans"
    code, out, _ = run(capsys, "scan", "--system", "A1", "--height-bound", "1", "--jobs", "1", "--no-timing", "--out", str(out_dir))
    assert code == 0
    summary = json.loads(out.splitlines()[-1])
    stream = (out_dir / "scan_A1_h1.jsonl").read_text().splitlines()
    assert len(stream) == summary["total"]


def test_negative_height_bound_leaves_no_out_directory(capsys, tmp_path):
    out_dir = tmp_path / "scans"
    code, out, err = run(capsys, "scan", "--system", "A1", "--height-bound", "-1", "--out", str(out_dir))
    assert code == 3 and out == ""
    assert err == "error: height bound must be non-negative\n"
    assert not out_dir.exists()


def test_invalid_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["char", "--system", "H9", "--weight", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["char", "--system", "A1", "--weight", "banana"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense", "--system", "A1"])
    assert exc.value.code == 2


def test_domain_errors_exit_3(capsys):
    code, _, err = run(capsys, "char", "--system", "A1", "--level", "0", "--weight", "2")
    assert code == 3 and "error" in err
    code, _, err = run(capsys, "char", "--system", "A1", "--level", "1", "--weight", "-1")
    assert code == 3
    code, _, err = run(capsys, "char", "--system", "A1", "--kind", "kr", "--level", "1")
    assert code == 3  # missing --index
    for index in ("5", "0"):
        code, _, err = run(capsys, "char", "--system", "A1", "--kind", "kr", "--level", "1", "--index", index)
        assert code == 3 and err.startswith("error:") and err.count("\n") == 1
    for jobs in ("0", "-3"):
        code, _, err = run(capsys, "scan", "--system", "A1", "--height-bound", "1", "--jobs", jobs)
        assert code == 3 and err == "error: jobs must be >= 1\n"


@pytest.mark.parametrize("argv", [
    ("genschurpos", "--system", "A1", "--level", "2", "--source-level", "1", "--index", "1",
     "--power", "1", "--lambda", "0", "--mu", "1"),
    ("stabilization", "--system", "A1", "--level", "1", "--lambda", "0",
     "--max-grade", "2", "--n-max", "3"),
], ids=["genschurpos", "stabilization"])
def test_negative_graded_multiplicity_exits_5(capsys, monkeypatch, argv):
    # every Weyl character comes back with sign -1, so the decomposition
    # of a stable Demazure module goes negative
    from demkit.rootsystem import RootSystem

    monkeypatch.setattr(RootSystem, "dot_straighten", lambda rs, mu: (mu, -1))
    code, out, err = run(capsys, "verify", *argv)
    assert code == 5 and out == ""
    assert err.startswith("error: internal error: multiplicity -")


def test_internal_errors_exit_5(capsys, monkeypatch):
    import demkit.theorems

    def broken(rs):
        raise RuntimeError("internal error: simulated")

    monkeypatch.setattr(demkit.theorems, "verify_minuscule", broken)
    code, out, err = run(capsys, "verify", "minuscule", "--system", "B3")
    assert code == 5 and out == ""
    assert err == "error: internal error: simulated\n"


def test_unexpected_exceptions_exit_5(capsys, monkeypatch):
    # a crash is an internal error, never exit 1 ("refuted") and never a
    # traceback: one error line naming the exception type
    from demkit import finite

    for exc in (KeyError("(2, 1)"), MemoryError()):
        def crash(rs, lam):
            raise exc

        monkeypatch.setattr(finite, "weyl_character", crash)
        code, out, err = run(capsys, "char", "--system", "B2", "--kind", "weyl", "--weight", "2,1")
        assert code == 5 and out == ""
        assert err == f"error: internal error: {type(exc).__name__}: {exc}\n"
        assert err.count("\n") == 1


def test_negative_weight_needs_the_equals_form(capsys):
    # argparse reads a separate "-1,0" as an option; "--lambda=-1,0" reaches
    # the claim, which refuses the non-dominant weight as a hypothesis
    args = ("verify", "ev0", "--system", "A2", "--level", "1", "--no-timing")
    with pytest.raises(SystemExit) as exc:
        run(capsys, *args, "--lambda", "-1,0")
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    code, out, err = run(capsys, *args, "--lambda=-1,0")
    assert code == 3 and err == ""
    cert = json.loads(out)
    assert cert["verdict"] == "hypothesis-violated" and cert["inputs"]["lambda"] == [-1, 0]


def test_chain_fields_too_narrow_exit_5(capsys, monkeypatch, isolated_cache):
    # with 8-bit chain fields (offset 128), A1 weight 12 at level 1 (weight
    # bound 72) still fits and gives the same character; weight 20 (bound
    # 200) is refused before the chain runs: no output and no cache entry
    from demkit import affine

    args = ("char", "--system", "A1", "--level", "1", "--graded", "--weight")
    _, wide, _ = run(capsys, *args, "12", "--no-cache")
    monkeypatch.setattr(affine, "_FIELD", "b")
    monkeypatch.setattr(affine, "_BITS", 8)
    assert run(capsys, *args, "12", "--no-cache") == (0, wide, "")
    code, out, err = run(capsys, *args, "20")
    assert code == 5 and out == ""
    assert err.startswith("error: internal error: weight bound 200 ") and err.count("\n") == 1
    assert not isolated_cache.exists() or not os.listdir(isolated_cache)


def test_grade_digits_too_narrow_exit_5(capsys, monkeypatch, isolated_cache):
    # A1 weight 20 at level 1 has a multiplicity of 5448 at one grade: with
    # its grade digits forced to one byte that multiplicity carries, and the
    # decode refuses it: no character on stdout, one error line, no cache
    # entry
    from demkit import affine

    monkeypatch.setattr(affine, "_digit_bytes", lambda counts: 1)
    code, out, err = run(capsys, "char", "--system", "A1", "--level", "1", "--graded", "--weight", "20")
    assert code == 5 and out == ""
    assert err.startswith("error: internal error: the grade polynomial of weight ") and err.count("\n") == 1
    assert not isolated_cache.exists() or not os.listdir(isolated_cache)


@pytest.mark.parametrize("label,attr,corrupt,call,argv", [
    ("A2", "dual_coxeter", lambda rs: rs.dual_coxeter + 1,
     lambda rs: demkit.affine_irreducible_character_truncated(rs, 1, (0, 0), 2),
     ("verify", "stabilization", "--system", "A2", "--level", "1", "--lambda", "0,0",
      "--max-grade", "2", "--n-max", "3")),
    ("B2", "weight_norm2", lambda rs: lambda w, norm=rs.weight_norm2: 2 * norm(w),
     lambda rs: demkit.weyl_character(rs, (2, 1)),
     ("char", "--system", "B2", "--kind", "weyl", "--weight", "2,1")),
], ids=["oracle-dual-coxeter", "weyl-weight-norm2"])
def test_recursion_integrality_checks_exit_5(capsys, monkeypatch, label, attr, corrupt, call, argv):
    # the multiplicity recursion divides by a norm gap; corrupting either
    # input of that gap must trip its integrality checks, never yield a
    # character, and surface as an internal error
    from demkit import rootsystem

    rs = rootsystem.RootSystem(*rootsystem.parse_system(label))
    setattr(rs, attr, corrupt(rs))
    with pytest.raises(RuntimeError, match="^internal error: "):
        call(rs)
    monkeypatch.setattr(rootsystem, "_SHARED", {rootsystem.parse_system(label): rs})
    code, out, err = run(capsys, *argv)
    assert code == 5 and out == ""
    assert err.startswith("error: internal error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("char", "--system", "A1", "--level", "1", "--weight", "2", "--out", "{missing}/x"),
    ("verify", "ev0", "--system", "A1", "--level", "2", "--lambda", "2", "--out", "{missing}/y"),
    ("scan", "--system", "A1", "--height-bound", "1", "--out", "{file}"),
    ("char", "--system", "A1", "--level", "1", "--weight", "2", "--cache-dir", "{file}"),
    ("cache", "clear", "--cache-dir", "{file}"),
    ("cache", "stats", "--cache-dir", "{file}"),
], ids=["char-out", "verify-out", "scan-out", "char-cache-dir", "cache-clear", "cache-stats"])
def test_io_errors_exit_6(capsys, tmp_path, argv):
    # exit 1 means refuted, so an unwritable output or an unreadable cache
    # directory must not surface as an uncaught traceback
    regular = tmp_path / "regular"
    regular.write_text("not a directory\n")
    argv = [a.format(missing=tmp_path / "missing", file=regular) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 6 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert regular.read_text() == "not a directory\n"


@pytest.mark.parametrize("argv,module,name", [
    (("char", "--system", "B2", "--level", "1", "--weight", "2,2", "--graded", "--cache-dir", "{file}"),
     "affine", "demazure_operator"),
    (("scan", "--system", "A2", "--height-bound", "1", "--out", "{file}"), "theorems", "schur_scan"),
], ids=["char-cache-dir", "scan-out"])
def test_io_errors_exit_6_before_the_work(capsys, monkeypatch, tmp_path, argv, module, name):
    # an unusable cache directory or output directory fails before any
    # character is built or any product decomposed
    import importlib

    target = importlib.import_module(f"demkit.{module}")
    real = getattr(target, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(target, name, counting)
    regular = tmp_path / "regular"
    regular.write_text("not a directory\n")
    code, out, err = run(capsys, *(a.format(file=regular) for a in argv))
    assert code == 6 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert calls == []


# ---------------------------------------------------------------------------
# each command imports only what it runs

# loaded for dataclasses and Fraction alone, at a cost every request paid
SLOW_IMPORTS = {"dataclasses", "inspect", "fractions", "decimal"}

COMMANDS = {
    "char": ["char", "--system", "A1", "--level", "1", "--weight", "2"],
    "char-weyl": ["char", "--system", "A2", "--weight", "1,1", "--kind", "weyl"],
    "presentation": ["presentation", "--system", "A2", "--level", "1", "--weight", "1,1"],
    "demprop": ["verify", "demprop", "--system", "A1", "--level", "1", "--parts", "2", "--lambda", "1"],
    "mapsdem": ["verify", "mapsdem", "--system", "A1", "--level", "1", "--parts", "1:2;1:2",
                "--lambda", "0"],
    "krdecom": ["verify", "krdecom", "--system", "A2", "--level", "1", "--s-vector", "1,1",
                "--lambda", "0,0"],
    "ev0": ["verify", "ev0", "--system", "A1", "--level", "2", "--lambda", "2"],
    "twofold": ["verify", "twofold", "--system", "A1", "--index", "1", "--level", "2",
                "--lambda", "2", "--mu1", "3", "--mu2", "1"],
    "genschurpos": ["verify", "genschurpos", "--system", "A1", "--level", "2", "--source-level", "1",
                    "--index", "1", "--power", "1", "--lambda", "0", "--mu", "1"],
    "stabilization": ["verify", "stabilization", "--system", "A1", "--level", "1", "--lambda", "0",
                      "--max-grade", "2", "--n-max", "4"],
    "minuscule": ["verify", "minuscule", "--system", "A2"],
    "scan": ["scan", "--system", "A1", "--height-bound", "1"],
    "cache-stats": ["cache", "stats"],
}


def loaded_by(code):
    """The modules a fresh interpreter loads while it runs ``code``; those
    it had loaded before (``site`` may preload some) do not count."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "sys.stderr.write(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(demkit.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True)
    assert out.returncode == 0, out.stderr
    return set(out.stderr.split())


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=list(COMMANDS))
def test_each_command_imports_only_what_it_runs(argv):
    loaded = loaded_by(f"import demkit.cli\nassert demkit.cli.main({argv!r}) == 0")
    assert "demkit.cli" in loaded and not SLOW_IMPORTS & loaded
    if argv[0] == "char":
        assert "demkit.theorems" not in loaded
    if argv[0] in ("verify", "scan", "presentation"):
        assert "demkit.cache" not in loaded
    # the claims import their builders when they run: the minuscule claim
    # is a table lookup on the root system, and a scan runs no affine code
    if argv[:2] == ["verify", "minuscule"]:
        assert not {"demkit.affine", "demkit.finite", "demkit.charalg"} & loaded
    if argv[0] == "scan":
        assert "demkit.affine" not in loaded


def test_finite_loads_no_affine():
    loaded = loaded_by("import demkit.finite")
    assert "demkit.finite" in loaded and "demkit.affine" not in loaded


def test_importing_the_package_loads_only_what_is_used():
    loaded = loaded_by("import demkit\ndemkit.root_system('A2')")
    assert {m for m in loaded if m.split(".")[0] == "demkit"} == {"demkit", "demkit.rootsystem"}
    assert not SLOW_IMPORTS & loaded
    # a module is loaded on first access as an attribute of the package too
    assert "demkit.charalg" in loaded_by("import demkit\ndemkit.charalg.GradedCharacter")


def test_every_package_export_resolves():
    for name in demkit.__all__:
        value = getattr(demkit, name)
        assert value is getattr(sys.modules[value.__module__], name)
    with pytest.raises(AttributeError):
        demkit.no_such_name


ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_public_name_has_a_caller_or_is_documented():
    """Each public function, class and method in ``src/demkit`` is used as
    a name somewhere in ``src/demkit`` outside its own definition, or a
    README code span or code block names it: the library keeps no code only
    the tests call, and a word of prose does not count as documentation."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```.*?```", text, flags=re.S)
    for block in blocks:
        text = text.replace(block, "")
    readme = "\n".join(blocks + re.findall(r"`([^`\n]+)`", text))
    sources = sorted(pathlib.Path(demkit.__file__).parent.glob("*.py"))
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sources]
    unused = []
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            own = set(map(id, ast.walk(node)))
            used = any(
                id(ref) not in own
                and (getattr(ref, "id", None) == node.name or getattr(ref, "attr", None) == node.name)
                for other in trees
                for ref in ast.walk(other)
                if isinstance(ref, (ast.Name, ast.Attribute))
            )
            if not used and not re.search(rf"\b{node.name}\b", readme):
                unused.append(node.name)
    assert unused == []


def _readme_commands():
    """Every ``demkit`` line of the README's command-line block, with a
    ``a|b|c`` alternative expanded into one line per choice."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    lines = []
    for line in block.splitlines():
        if line.startswith("demkit "):
            head, _, last = line.rpartition(" ")
            lines += [f"{head} {alt}" for alt in last.split("|")]
    return lines


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_lines_run_in_a_shell(tmp_path, line):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(demkit.__file__).parents[1]),
               DEMKIT_CACHE=str(tmp_path / "cache"))
    script = f'demkit() {{ {shlex.quote(sys.executable)} -m demkit.cli "$@"; }}\n{line}\n'
    out = subprocess.run(["/bin/sh", "-c", script], env=env, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True)
    assert out.returncode == 0, out.stderr


EXPECTED = ROOT / "perfbench" / "expected.json"


def _replayed_requests():
    """Every pinned verify request, the cheaper twin of each pinned char
    slot computed afresh, and the three pinned scans run serially."""
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    picked = [
        pytest.param(key, (), expected[key], id=key)
        for key in sorted(expected)
        if key.startswith("verify")
    ]
    for key, extra in (
        ("char --system G2 --level 1 --weight 3,3 --graded", ("--no-cache",)),
        ("char --system B2 --level 1 --weight 6,6 --graded", ("--no-cache",)),
        ("char --system A2 --level 1 --weight 9,8 --graded", ("--no-cache",)),
        ("char --system A2 --level 2 --weight 9,10 --graded", ("--no-cache",)),
        ("char --system A3 --level 1 --weight 4,4,1 --graded", ("--no-cache",)),
        ("char --system A3 --level 2 --weight 2,5,5 --graded", ("--no-cache",)),
        ("char --system A4 --level 1 --weight 2,2,1,1 --graded", ("--no-cache",)),
        ("char --system B3 --level 8 --kind kr --index 2 --graded", ("--no-cache",)),
        ("char --system C3 --level 5 --kind kr --index 2 --graded", ("--no-cache",)),
        ("char --system D4 --level 6 --kind kr --index 2 --graded", ("--no-cache",)),
        ("scan --system A2 --height-bound 2 --no-timing", ("--jobs", "1")),
        ("scan --system B2 --height-bound 2 --no-timing", ("--jobs", "1")),
        ("scan --system A3 --height-bound 1 --no-timing", ("--jobs", "1")),
    ):
        picked.append(pytest.param(key, extra, expected[key], id=key))
    return picked


@pytest.mark.parametrize("key,extra,want", _replayed_requests())
def test_output_matches_pinned_digest(capsys, key, extra, want):
    code, out, _ = run(capsys, *key.split(), *extra)
    assert code == want["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want["sha256"]


def _trace_targets():
    """The keys of ``TARGETS`` in perfbench/trace_launch.py, read from its
    source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "trace_launch.py").read_text(encoding="utf-8"))
    for node in tree.body:
        targets = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        if targets == ["TARGETS"]:
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("perfbench/trace_launch.py defines no TARGETS")


@pytest.mark.parametrize("name", _trace_targets())
def test_trace_target_resolves(name):
    """Each function the traced benchmark wraps exists where it looks, so
    moving or renaming one fails here rather than in the traced run."""
    modname, attr = name.split(".", 1)
    module = importlib.import_module(f"demkit.{modname}")
    if "." in attr:  # a method, which the tracer looks up in its class's __dict__
        cls_name, meth = attr.split(".")
        fn = vars(getattr(module, cls_name))[meth]
        fn = getattr(fn, "__func__", fn)
    else:
        fn = getattr(module, attr)
    assert callable(fn)


def test_one_benchmark_pass_is_correct():
    """One untimed pass of the char workload: every request, cold and warm
    cache, against its pinned digest and exit code, through the CLI the
    benchmark drives."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "char", "--seconds", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
