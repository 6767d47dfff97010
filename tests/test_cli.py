import ast
import gc
import hashlib
import importlib
import inspect
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time
import tracemalloc

import pytest

import demkit
from conftest import single_edits
from demkit import cli
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
    # a grade >= 2 is spelled q^g
    code, out, _ = run(capsys, "char", "--system", "A1", "--level", "1", "--weight", "4", "--graded", "--pretty")
    assert code == 0
    assert out.endswith("\ndim 16\ngraded dim 5 + 3·q + 4·q^2 + 3·q^3 + 1·q^4\n")


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
    lambda path, text: b"[" * 100000 + b"\n" + text.encode("utf-8"),  # a seal nested 100,000 deep
    lambda path, text: _sealed(path, text).replace(b'":', b'": ', 1),  # a seal JSON reads alike
    lambda path, text: _sealed(path, text).replace(b"\n", b" \n", 1),
], ids=["header-list", "no-digest", "weight-not-list", "record-list", "not-utf8",
        "wrong-kind", "wrong-count", "header-spelling", "seal-too-deep", "seal-spacing", "seal-trailing-space"])
def test_malformed_cache_entries_are_misses(capsys, isolated_cache, entry):
    path, _, lines = _cached_entry(capsys, isolated_cache, A1_GRADED)
    entry_bytes = path.read_bytes()
    path.write_bytes(entry(path, "".join(lines)))
    code, out, err = run(capsys, *A1_GRADED)
    assert code == 0 and err == ""
    _, uncached, _ = run(capsys, *A1_GRADED, "--no-cache")
    assert out == uncached
    assert path.read_bytes() == entry_bytes  # rewritten


def test_every_single_edit_of_an_entry_is_a_miss(monkeypatch, tmp_path):
    # every one-byte deletion, substitution or insertion anywhere in a
    # 373-byte entry is a miss, whitespace in the seal included: the seal
    # is one exact line, and its name, count and digest bind the rest; the
    # read is replaced by the edited bytes, so no file is rewritten per edit
    from demkit import cache as cache_module
    from demkit.cache import CacheKey, CharacterCache

    key, cache = CacheKey("A2", "demazure", 1, (1, 1)), CharacterCache(str(tmp_path))
    char = demkit.demazure_character(demkit.root_system("A2"), 1, (1, 1))
    text = cache.store(key, char)
    entry = (tmp_path / key.filename()).read_bytes()
    assert len(entry) == 373 and cache.load(key) == (char, text)
    read = [entry]
    monkeypatch.setattr(cache_module, "open", lambda path, mode: io.BytesIO(read[0]), raising=False)
    assert cache.load(key) == (char, text)
    edits = list(single_edits(entry, b" \t\r+_.x"))
    for edited in edits:
        read[0] = edited
        assert cache.load(key) is None, edited
    assert len(edits) > 30000


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


def test_store_holds_little_beside_its_text(tmp_path):
    # the file is serialized in chunks of lines and hashed and written in
    # slices: the traced peak of a store stays within 2.25 times the text it
    # returns, the text and one copy of it while the chunks join, so no
    # list of every line and no encoded copy of the whole file is alive
    from demkit.cache import CacheKey, CharacterCache

    rs = demkit.root_system("A2")
    char, key = demkit.demazure_character(rs, 2, (10, 9)), CacheKey("A2", "demazure", 2, (10, 9))
    cache = CharacterCache(str(tmp_path))
    cache.store(key, char)  # the directory exists and the codec has run once
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        text = cache.store(key, char)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(text) > 200_000 and cache.load(key)[1] == text
    assert peak <= 2.25 * len(text), (peak, len(text))


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


def test_cache_clear_removes_only_entries(capsys, isolated_cache):
    # a scan written into the cache directory and a user's own JSON-lines
    # file are not entries: stats does not count them and clear keeps them
    run(capsys, *A1_GRADED)
    run(capsys, "scan", "--system", "A1", "--height-bound", "1", "--no-timing", "--out", str(isolated_cache))
    (isolated_cache / "notes.jsonl").write_text('{"note":"mine"}\n', encoding="utf-8")
    assert json.loads(run(capsys, "cache", "stats")[1]) == {"entries": 1}
    assert run(capsys, "cache", "clear") == (0, '{"cleared":true}\n', "")
    assert sorted(os.listdir(isolated_cache)) == ["notes.jsonl", "scan_A1_h1.jsonl"]


def test_cache_clear_skips_a_vanished_entry_and_exits_6_on_any_other_failure(
        capsys, monkeypatch, isolated_cache):
    run(capsys, *A1_GRADED)
    (entry,) = os.listdir(isolated_cache)
    real = os.unlink

    def vanishing(path):
        real(path)  # another process removed it between the listing and the unlink
        raise FileNotFoundError(2, "No such file or directory", path)

    monkeypatch.setattr(os, "unlink", vanishing)
    assert run(capsys, "cache", "clear") == (0, '{"cleared":true}\n', "")
    assert os.listdir(isolated_cache) == []
    run(capsys, *A1_GRADED)

    def refusing(path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(os, "unlink", refusing)
    code, out, err = run(capsys, "cache", "clear")
    assert code == 6 and out == ""
    assert err.startswith("error: [Errno 13] Permission denied") and err.count("\n") == 1
    assert os.listdir(isolated_cache) == [entry]


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
    # no parts: the evaluation case, the module V(lambda) itself
    code, out, _ = run(capsys, "verify", "demprop", "--system", "A2", "--level", "1", "--parts", "", "--lambda", "1,0")
    assert code == 0 and json.loads(out)["verdict"] == "verified"
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
    with pytest.raises(SystemExit) as exc:
        main(["verify", "mapsdem", "--system", "A2", "--level", "1", "--parts", "1", "--lambda", "1,0"])
    assert exc.value.code == 2
    assert "argument --parts: malformed part '1'" in capsys.readouterr().err
    # only an empty value means no parts; a blank one is a malformed part
    for claim, error in (("demprop", "malformed weight '  '"), ("mapsdem", "malformed part '  '")):
        with pytest.raises(SystemExit) as exc:
            main(["verify", claim, "--system", "A2", "--level", "1", "--parts", "  ", "--lambda", "1,0"])
        assert exc.value.code == 2
        assert f"argument --parts: {error}" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["D3", "E9", "A0", "B1", "G3"])
@pytest.mark.parametrize("argv", [
    ("char", "--level", "1", "--weight", "1"),
    ("scan", "--height-bound", "1"),
    ("verify", "minuscule"),
], ids=["char", "scan", "verify-minuscule"])
def test_labels_naming_no_simple_type_exit_2(capsys, isolated_cache, label, argv):
    # well spelled, but no simple type has that rank: a flag error, like X3
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--system", label])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"argument --system: invalid simple type ({label[0]},{label[1:]})" in err
    assert not isolated_cache.exists()


@pytest.mark.parametrize("label", [" A02 ", "A\u0662"], ids=["padded-zero", "arabic-indic"])
@pytest.mark.parametrize("argv", [
    ("char", "--level", "1", "--weight", "1,0"),
    ("scan", "--height-bound", "1"),
    ("verify", "minuscule"),
], ids=["char", "scan", "verify-minuscule"])
def test_labels_spelled_otherwise_exit_2(capsys, isolated_cache, label, argv):
    # int() reads both as A2, but a label has one spelling
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--system", label])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"argument --system: malformed system label {label!r}" in err
    assert not isolated_cache.exists()


@pytest.mark.parametrize("argv", [
    ("char", "--system", "A1", "--level", "1", "--weight", "1", "--cache-dir", ""),
    ("char", "--system", "A1", "--level", "1", "--weight", "1", "--out", ""),
    ("scan", "--system", "A1", "--height-bound", "1", "--out", ""),
    ("presentation", "--system", "A1", "--level", "1", "--weight", "1", "--out", ""),
    ("verify", "minuscule", "--system", "A2", "--out", ""),
    ("cache", "clear", "--cache-dir", ""),
], ids=["char-cache-dir", "char-out", "scan-out", "presentation-out", "verify-out", "cache-cache-dir"])
def test_an_empty_path_exits_2(capsys, monkeypatch, tmp_path, argv):
    # "" would read as the flag not given: the default cache or stdout
    monkeypatch.setenv("DEMKIT_CACHE", "")  # an empty variable still means unset
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 2
    assert f"argument {argv[-2]}: expected a path, not ''" in err
    assert not (tmp_path / "xdg").exists()
    assert run(capsys, "cache", "path") == (0, str(tmp_path / "xdg" / "demkit") + "\n", "")


@pytest.mark.parametrize("argv,error", [
    (("--kind", "weyl"), "--weight is required for --kind weyl"),
    (("--level", "1"), "--weight is required for --kind demazure"),
    (("--weight", "2"), "--level is required for Demazure characters"),
    (("--kind", "kr", "--level", "1"), "--index is required for --kind kr"),
], ids=["weyl-weight", "demazure-weight", "level", "kr-index"])
def test_char_missing_flags_exit_3(capsys, isolated_cache, argv, error):
    assert run(capsys, "char", "--system", "A1", "--graded", *argv) == (3, "", f"error: {error}\n")
    assert not isolated_cache.exists()


@pytest.mark.parametrize("argv,error", [
    (("--kind", "kr", "--index", "1", "--level", "1", "--weight", "5"), "--weight does not apply to --kind kr"),
    (("--kind", "weyl", "--weight", "1", "--level", "1"), "--level does not apply to --kind weyl"),
    (("--kind", "weyl", "--weight", "1", "--index", "1"), "--index does not apply to --kind weyl"),
    (("--level", "1", "--weight", "1", "--index", "1"), "--index does not apply to --kind demazure"),
], ids=["kr-weight", "weyl-level", "weyl-index", "demazure-index"])
def test_char_flags_of_another_kind_exit_3(capsys, isolated_cache, argv, error):
    # each would otherwise be dropped without a word
    assert run(capsys, "char", "--system", "A1", "--graded", *argv) == (3, "", f"error: {error}\n")
    assert not isolated_cache.exists()


def test_domain_errors_exit_3(capsys, isolated_cache):
    code, _, err = run(capsys, "char", "--system", "A1", "--level", "0", "--weight", "2")
    assert code == 3 and "error" in err
    code, _, err = run(capsys, "char", "--system", "A1", "--level", "1", "--weight", "-1")
    assert code == 3
    code, _, err = run(capsys, "char", "--system", "A1", "--kind", "kr", "--level", "1")
    assert code == 3  # missing --index
    for index in ("5", "0"):
        code, _, err = run(capsys, "char", "--system", "A1", "--kind", "kr", "--level", "1", "--index", index)
        assert code == 3 and err.startswith("error:") and err.count("\n") == 1
    # a negative level is refused before the KR weight it makes non-dominant
    code, _, err = run(
        capsys, "char", "--system", "B2", "--kind", "kr", "--index", "2", "--level", "-2", "--no-cache"
    )
    assert code == 3 and err == "error: level must be non-negative\n"
    for jobs in ("0", "-3"):
        code, _, err = run(capsys, "scan", "--system", "A1", "--height-bound", "1", "--jobs", jobs)
        assert code == 3 and err == "error: jobs must be >= 1\n"
    code, _, err = run(capsys, "presentation", "--system", "A2", "--level", "0", "--weight", "1,0")
    assert code == 3 and err == "error: presentation requires level >= 1\n"
    code, _, err = run(capsys, "verify", "ev0", "--system", "A2", "--level", "1", "--lambda", "1,0,0")
    assert code == 3 and err == "error: weight (1, 0, 0) is not a length-2 integer vector\n"
    # a Weyl weight is checked before it names a cache file: 130
    # coordinates make a file name too long to open, with the cache or not
    isolated_cache.mkdir()
    long = ",".join(["1"] * 130)
    for extra in ((), ("--no-cache",)):
        code, out, err = run(capsys, "char", "--system", "A2", "--kind", "weyl", "--weight", long, *extra)
        assert (code, out) == (3, "") and err.startswith("error: weight (1, 1, ") and err.count("\n") == 1
        assert err.endswith(") is not a length-2 integer vector\n")
    assert os.listdir(isolated_cache) == []


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
    # a separate value starting with "-" is taken only as a negative integer,
    # so "-1,0" is a usage error; "--lambda=-1,0" reaches the claim, which
    # refuses the non-dominant weight as a hypothesis
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


@pytest.mark.parametrize("weight,error,walks", [
    ("1000000000000", "chamber walk exceeded 1000000 steps", False),
    ("300000", "weight bound 15000000000 ", True),
], ids=["walk", "fields"])
def test_out_of_range_weight_is_refused_before_its_dimension(capsys, monkeypatch, weight, error, walks):
    # the dimension of A1 weight 10**12 at level 3 is a power with an
    # exponent of 3*10**11, far too large to hold; the walk's step cap and
    # the field bound refuse such a weight before any dimension is asked
    # for (the double stands in for the dimension, so nothing is allocated
    # even if it were); the walk of 333,333,333,334 steps is counted up
    # front and refused before its first step, so the chamber walk never
    # runs at a level
    from demkit import affine
    from demkit.rootsystem import RootSystem

    calls, levels = [], []
    real = RootSystem._to_dominant
    monkeypatch.setattr(affine, "_dimension", lambda *args: calls.append(args))
    monkeypatch.setattr(RootSystem, "_to_dominant",
                        lambda self, w, level=None: levels.append(level) or real(self, w, level))
    code, out, err = run(capsys, "char", "--system", "A1", "--level", "3", "--weight", weight, "--no-cache")
    assert code == 5 and out == ""
    assert err.startswith(f"error: internal error: {error}") and err.count("\n") == 1
    assert calls == [] and (3 in levels) == walks


def test_grade_digits_too_narrow_exit_5(capsys, monkeypatch, isolated_cache):
    # A1 weight 20 at level 1 has a multiplicity of 5448 at one grade, and
    # its dimension 2**20 is known up front: with its grade digits forced
    # to one byte that multiplicity carries, the digits no longer sum to
    # the dimension, and the decode refuses them: no character on stdout,
    # one error line, no cache entry
    from demkit import affine

    assert affine._dimension(demkit.root_system("A1"), 1, (20,)) == 1 << 20
    monkeypatch.setattr(affine, "_digit_bytes", lambda bound: 1)
    code, out, err = run(capsys, "char", "--system", "A1", "--level", "1", "--graded", "--weight", "20")
    assert code == 5 and out == ""
    assert err.startswith("error: internal error: the graded Demazure chain's 8-bit digits sum to ")
    assert err.count("\n") == 1
    assert not isolated_cache.exists() or not os.listdir(isolated_cache)


def test_a_wrong_dimension_exit_5(capsys, monkeypatch, isolated_cache):
    # a build whose dimension is known up front checks the paper's
    # dimension identity: one more than the true dimension, which needs
    # no wider digits, makes the digits' sum disagree, and the request
    # fails with one error line and no cache entry
    from demkit import affine

    real = affine._dimension
    monkeypatch.setattr(affine, "_dimension", lambda rs, level, weight: real(rs, level, weight) + 1)
    code, out, err = run(capsys, "char", "--system", "A2", "--level", "2", "--graded", "--weight", "3,1")
    assert code == 5 and out == ""
    assert err == ("error: internal error: the graded Demazure chain's 8-bit digits sum to 48, not to"
                   " the module's dimension 49\n")
    assert not isolated_cache.exists() or not os.listdir(isolated_cache)


def test_a_wrong_weyl_dimension_exit_5(capsys, monkeypatch, isolated_cache):
    # a level-dominant factor is sized by Weyl's formula, which shares no
    # code with the chain: one more than dim V(lam) for every lam makes
    # A2's D(1, omega_1) = V(omega_1) dim 2 * 4 instead of 3, and the build
    # refuses its digits
    from demkit.rootsystem import RootSystem

    real = RootSystem.weyl_dimension
    monkeypatch.setattr(RootSystem, "weyl_dimension", lambda self, weight: real(self, weight) + 1)
    code, out, err = run(capsys, "char", "--system", "A2", "--level", "1", "--graded", "--weight", "1,0")
    assert code == 5 and out == ""
    assert err == ("error: internal error: the graded Demazure chain's 8-bit digits sum to 3, not to"
                   " the module's dimension 8\n")
    assert not isolated_cache.exists() or not os.listdir(isolated_cache)


@pytest.mark.parametrize("name,level,weight,dim", [("A3", 2, (1, 1, 1), 70), ("G2", 2, (0, 2), 92)],
                         ids=["A3-lam0-past-the-level", "G2-own-factor"])
def test_a_wrong_du_dimension_fails_an_unsized_build_exit_5(capsys, monkeypatch, isolated_cache, name, level,
                                                            weight, dim):
    # a module with no dimension up front sizes its whole-word chain by
    # the D_u route, whose word differs: one more than that route's
    # dimension makes the digits' sum disagree, in the library and in char
    from demkit import affine

    rs = demkit.root_system(name)
    assert affine._dimension(rs, level, weight) is None
    real = affine._isotypic_dimension
    monkeypatch.setattr(affine, "_isotypic_dimension", lambda rs, level, weight: real(rs, level, weight) + 1)
    error = (f"internal error: the graded Demazure chain's 8-bit digits sum to {dim}, not to the module's"
             f" dimension {dim + 1}")
    with pytest.raises(RuntimeError, match=f"^{re.escape(error)}$"):
        affine.demazure_character(rs, level, weight)
    code, out, err = run(capsys, "char", "--system", name, "--level", str(level), "--graded",
                         "--weight", ",".join(map(str, weight)))
    assert (code, out, err) == (5, "", f"error: {error}\n")
    assert not isolated_cache.exists() or not os.listdir(isolated_cache)


# the benchmark's stabilization and genschurpos requests: each reads its
# modules from graded_isotypic, whose dimension is known up front
SIZED_VERIFY = [
    ("verify", "stabilization", "--system", "B2", "--level", "1", "--lambda", "0,0", "--max-grade", "3",
     "--n-max", "4", "--no-timing", "--no-cache"),
    ("verify", "genschurpos", "--system", "C3", "--level", "3", "--source-level", "2", "--index", "3",
     "--power", "1", "--lambda", "0,1,0", "--mu", "0,1,1", "--no-timing"),
]


@pytest.mark.parametrize("argv", SIZED_VERIFY, ids=["stabilization", "genschurpos"])
def test_a_wrong_dimension_fails_a_verify_claim_exit_5(capsys, monkeypatch, argv):
    # graded_isotypic holds Bott's rule and Weyl's formula to the paper's
    # factorization: one more than the true dimension fails the claim with
    # one error line and no certificate, where the true one verifies it
    from demkit import affine

    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["verdict"] == "verified"
    real = affine._dimension
    monkeypatch.setattr(affine, "_dimension", lambda rs, level, weight: real(rs, level, weight) + 1)
    code, out, err = run(capsys, *argv)
    assert code == 5 and out == ""
    assert err.startswith("error: internal error: the level-") and err.count("\n") == 1


@pytest.mark.parametrize("argv", SIZED_VERIFY, ids=["stabilization", "genschurpos"])
def test_a_verify_claim_refuses_a_walk_before_its_dimension(capsys, monkeypatch, argv):
    # graded_isotypic runs _word's refusals before it asks for the
    # module's dimension, as demazure_character does: with a step cap of 1
    # the first module's walk is refused and no dimension is computed
    from demkit import affine

    calls = []
    monkeypatch.setattr(affine, "_dimension", lambda *args: calls.append(args))
    monkeypatch.setattr(affine, "WALK_STEP_CAP", 1)
    code, out, err = run(capsys, *argv)
    assert code == 5 and out == ""
    assert err.startswith("error: internal error: chamber walk exceeded 1 steps") and err.count("\n") == 1
    assert calls == []


def test_presentation_pretty(capsys):
    code, out, _ = run(capsys, "presentation", "--system", "A1", "--level", "2", "--weight", "3", "--pretty")
    assert code == 0
    assert out == "alpha\tpairing\ts\tm\tnilpotency\n1\t3\t2\t1\t(t^1)^2\n"


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

# loaded for dataclasses, Fraction and argparse alone, at a cost every
# request paid
SLOW_IMPORTS = {"dataclasses", "inspect", "fractions", "decimal", "argparse", "gettext", "locale"}

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
    "help": ["--help"],
    "char-help": ["char", "--help"],
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
    # help exits 0 through SystemExit, every other command returns 0
    code = (f"import demkit.cli\ntry:\n    code = demkit.cli.main({argv!r})\n"
            "except SystemExit as exc:\n    code = exc.code\nassert code == 0")
    loaded = loaded_by(code)
    assert "demkit.cli" in loaded and not SLOW_IMPORTS & loaded
    if argv[0] == "char":
        # the cold request writes its file and seal by hand, and the warm
        # one, run next on the same cache, reads them by exact patterns
        assert "demkit.theorems" not in loaded and "json" not in loaded
        if "--help" not in argv:
            warm = loaded_by(code)
            assert "demkit.cli" in warm and not {"demkit.affine", "demkit.finite", "json"} & warm
    if argv[0] in ("verify", "scan", "presentation"):
        assert "demkit.cache" not in loaded
    # the claims import their builders when they run: the minuscule claim
    # is a table lookup on the root system, and a scan runs no affine code
    if argv[:2] == ["verify", "minuscule"]:
        assert not {"demkit.affine", "demkit.finite", "demkit.charalg"} & loaded
    if argv[0] == "scan":
        assert "demkit.affine" not in loaded


@pytest.mark.parametrize("argv,builder", [
    (["char", "--system", "G2", "--level", "1", "--weight", "1,1", "--graded"], "demkit.affine"),
    (["char", "--system", "A2", "--weight", "1,1", "--kind", "weyl"], "demkit.finite"),
], ids=["demazure-graded", "weyl"])
def test_a_cache_hit_loads_no_builder(tmp_path, argv, builder):
    # a cold request imports its builder; the warm one reads the entry and
    # loads only the cache and the character codec beside the root system
    code = f"import demkit.cli\nassert demkit.cli.main({argv + ['--cache-dir', str(tmp_path)]!r}) == 0"
    assert builder in loaded_by(code)
    warm = {m for m in loaded_by(code) if m.split(".")[0] == "demkit"}
    assert warm == {"demkit", "demkit.cli", "demkit.rootsystem", "demkit.cache", "demkit.charalg"}


def test_finite_loads_no_affine():
    loaded = loaded_by("import demkit.finite")
    assert "demkit.finite" in loaded and "demkit.affine" not in loaded


def test_importing_the_package_loads_only_what_is_used():
    loaded = loaded_by("import demkit\ndemkit.root_system('A2')")
    assert {m for m in loaded if m.split(".")[0] == "demkit"} == {"demkit", "demkit.rootsystem"}
    assert not SLOW_IMPORTS & loaded
    # a module is loaded on first access as an attribute of the package too
    assert "demkit.charalg" in loaded_by("import demkit\ndemkit.charalg.GradedCharacter")


def test_the_runtime_is_stdlib_only():
    # exact answers need Python ints, so no numpy or any other third-party
    # module; -S keeps site and what it preloads out of the picture
    package = pathlib.Path(demkit.__file__).parent
    modules = sorted(f"demkit.{path.stem}" for path in package.glob("*.py") if path.stem != "__init__")
    probe = (
        f"import sys\nsys.path.insert(0, {str(package.parent)!r})\nimport {', '.join(modules)}\n"
        "print(' '.join({name.split('.')[0] for name in sys.modules} - set(sys.stdlib_module_names)))\n"
    )
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert len(modules) == 7 and set(out.stdout.split()) == {"demkit", "__main__"}, out.stdout


def test_every_package_export_resolves():
    for name in demkit.__all__:
        value = getattr(demkit, name)
        assert value is getattr(sys.modules[value.__module__], name)
    with pytest.raises(AttributeError):
        demkit.no_such_name


@pytest.mark.parametrize("modname", ["affine", "cache", "charalg", "finite", "rootsystem", "theorems"])
def test_every_module_lists_its_public_names(modname):
    """A module's ``__all__`` names only what exists, and every public
    function or class the module defines is in it."""
    module = importlib.import_module(f"demkit.{modname}")
    assert all(hasattr(module, name) for name in module.__all__)
    defined = {name for name, value in vars(module).items()
               if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
               and value.__module__ == module.__name__}
    assert defined - set(module.__all__) == set()


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


def _cyclic_garbage(argv):
    """The exit code of one request through ``main`` run with the cyclic
    collector off, as ``main_entry`` runs it, and the count of unreachable
    objects the collector then finds: ``main_entry`` freezes the heap before
    exit rather than collecting it, which is safe only while that count is 0."""
    gc.collect()
    gc.disable()
    try:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return code, gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("key,extra,want", _replayed_requests())
def test_pinned_request_leaves_no_cyclic_garbage(capsys, key, extra, want):
    assert _cyclic_garbage([*key.split(), *extra]) == (want["exit"], 0)


@pytest.mark.parametrize("argv,code", [
    (("presentation", "--system", "B2", "--level", "1", "--weight", "1,1"), 0),
    (("cache", "stats"), 0),
    (("char", "--system", "A1", "--level", "x"), 2),
    (("char", "--system", "A1", "--level", "1"), 3),
    (("char", "--system", "A1", "--level", "1", "--weight", "2", "--out", "{file}/out"), 6),
], ids=["presentation", "cache-stats", "usage-error", "domain-error", "io-error"])
def test_request_leaves_no_cyclic_garbage(capsys, tmp_path, argv, code):
    regular = tmp_path / "regular"
    regular.write_text("not a directory\n")
    assert _cyclic_garbage([a.format(file=regular) for a in argv]) == (code, 0)


def test_warm_char_hit_leaves_no_cyclic_garbage(capsys, isolated_cache):
    assert _cyclic_garbage(A1_GRADED) == (0, 0)  # the cold request stores the entry
    assert len(os.listdir(isolated_cache)) == 1
    assert _cyclic_garbage(A1_GRADED) == (0, 0)


def test_cyclic_garbage_check_sees_a_leaked_cycle(capsys, monkeypatch):
    def leaking(args):
        cycle = []
        cycle.append(cycle)
        return cli.EXIT_OK

    monkeypatch.setitem(cli._COMMANDS, "cache path", (leaking, *cli._COMMANDS["cache path"][1:]))
    assert _cyclic_garbage(["cache", "path"]) == (0, 1)


@pytest.mark.parametrize("argv", [
    ("verify", "stabilization", "--system", "B2", "--level", "1", "--lambda", "0,0", "--max-grade", "3",
     "--n-max", "4", "--no-timing", "--no-cache"),
    ("char", "--system", "B2", "--level", "1", "--weight", "0,2", "--graded"),
], ids=["verify", "char"])
def test_fresh_process_request_leaves_no_cyclic_garbage(tmp_path, argv):
    """As above, in a fresh interpreter, where the request's first imports
    of the package run with the collector off too."""
    probe = ("import contextlib, gc, io, sys\n"
             "gc.collect()\ngc.disable()\nfrom demkit.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n    code = main(sys.argv[1:])\n"
             "print(code, gc.collect())\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(demkit.__file__).parents[1]),
               DEMKIT_CACHE=str(tmp_path / "cache"))
    proc = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.stdout, proc.stderr) == ("0 0\n", "")


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(capsys, enabled):
    (gc.enable if enabled else gc.disable)()
    try:
        assert run(capsys, *A1_GRADED)[0] == 0
        with pytest.raises(SystemExit):
            main(["char", "--system", "A1", "--level", "x"])
        assert gc.isenabled() is enabled and gc.get_freeze_count() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("argv,code,err_lines", [
    (("char", "--help"), 0, 0),
    (("char", "--system", "A1", "--level", "x"), 2, 2),
    (("char", "--system", "A1", "--level", "1"), 3, 1),
], ids=["help", "usage-error", "domain-error"])
def test_process_entry_exits_as_main_does(capsys, tmp_path, argv, code, err_lines):
    """``python -m demkit.cli`` runs ``main_entry``, which turns the
    collector off and freezes the heap before exit: its exit code and both
    streams are those of ``main`` in process."""
    try:
        want = main(list(argv))
    except SystemExit as exc:
        want = exc.code
    out, err = capsys.readouterr()
    assert want == code and err.count("\n") == err_lines
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(demkit.__file__).parents[1]),
               DEMKIT_CACHE=str(tmp_path / "cache"))
    proc = subprocess.run([sys.executable, "-m", "demkit.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


@pytest.mark.parametrize("attempt", [
    lambda path: demkit.root_system("A160"),
    lambda path: demkit.GradedCharacter.from_jsonl(path.read_text(encoding="utf-8")),
    lambda path: main(["char", "--system", "A160", "--level", "1", "--weight", "1"]),
], ids=["root_system", "from_jsonl", "char"])
def test_huge_rank_is_refused_up_front(capsys, tmp_path, attempt):
    path = tmp_path / "huge.jsonl"
    path.write_text('{"system":"A160","kind":"graded"}\n{"w":[1],"g":0,"m":"1"}\n', encoding="utf-8")
    start = time.perf_counter()
    with pytest.raises((ValueError, SystemExit)) as exc:
        attempt(path)
    assert time.perf_counter() - start < 1.0
    if exc.type is SystemExit:
        assert exc.value.code == 2
        assert "argument --system: invalid simple type (A,160)" in capsys.readouterr().err
    else:
        assert str(exc.value).startswith("invalid simple type (A,160): series A requires rank in [1,32]")


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


def _assert_one_benchmark_pass(*args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args, "--seconds", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr


def test_one_benchmark_pass_is_correct():
    """One untimed pass of the char workload: every request, cold and warm
    cache, against its pinned digest and exit code, through the CLI the
    benchmark drives."""
    _assert_one_benchmark_pass("--workload", "char")


def test_one_traced_scan_pass_is_correct():
    """One traced pass of the scan workload: every pinned scan through the
    benchmark's timing wrappers, so a kernel edit that leaves a function
    the traced scan must call with zero calls fails here too."""
    _assert_one_benchmark_pass("--workload", "scan", "--trace", "1")


def _console_script():
    """The (module, function) of the ``demkit`` console script that
    pyproject.toml declares, read by pattern: Python 3.10 has no tomllib."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, flags=re.M | re.S).group(1)
    return re.search(r'^demkit\s*=\s*"([\w.]+):(\w+)"$', section, flags=re.M).groups()


@pytest.mark.parametrize("argv", [("--help",), ("verify", "minuscule", "--system", "D4", "--no-timing")],
                         ids=["help", "verify"])
def test_console_script_runs_as_the_module_does(tmp_path, argv):
    """The installed ``demkit`` script imports its declared target and
    exits with what it returns; run that way, it prints and exits as
    ``python -m demkit.cli`` does."""
    module, function = _console_script()
    script = f"import sys\nfrom {module} import {function}\nsys.argv[0] = 'demkit'\nsys.exit({function}())\n"
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(demkit.__file__).parents[1]),
               DEMKIT_CACHE=str(tmp_path / "cache"))
    runs = [subprocess.run([sys.executable, *head, *argv], env=env, capture_output=True, text=True, timeout=60)
            for head in (["-c", script], ["-m", "demkit.cli"])]
    assert [(proc.returncode, proc.stdout) for proc in runs] == [(0, runs[1].stdout)] * 2
    assert runs[1].stdout.startswith("usage: demkit" if argv == ("--help",) else '{"claim":"minuscule"')
