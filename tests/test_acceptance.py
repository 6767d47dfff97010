"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every expected value is either a hand-checked fixture or produced by
an independent oracle inside the suite.
"""

import itertools
import json
import time

import pytest

from conftest import demazure_weyl_character, dominant_box, seeded
from demkit.affine import demazure_character
from demkit.cli import main
from demkit.finite import weyl_character, weyl_dimension
from demkit.rootsystem import root_system
from demkit.theorems import (
    scan_summary,
    schur_scan,
    verify_demprop,
    verify_ev0,
    verify_genschurpos,
    verify_minuscule,
    verify_stabilization,
)


def report(n, label, detail=""):
    print(f"ACCEPTANCE {n} {label}: PASS {detail}".rstrip())


def test_criterion_1_two_oracle_character_agreement():
    t0 = time.time()
    boxes = {"A1": 21, "A2": 7, "A3": 3, "B2": 7, "G2": 5}
    checked = 0
    for name, bound in sorted(boxes.items()):
        rs = root_system(name)
        assert bound >= 3  # the core sweep is always included
        for lam in dominant_box(rs, bound):
            assert weyl_character(rs, lam) == demazure_weyl_character(rs, lam), (name, lam)
            checked += 1
    elapsed = time.time() - t0
    assert checked >= 250
    assert elapsed < 60
    report(1, "two-oracle character agreement", f"({checked} weights, {elapsed:.1f}s)")


def test_criterion_2_evaluation_module_criterion():
    t0 = time.time()
    positive = 0
    for name in ("A1", "A2", "B2"):
        rs = root_system(name)
        for level in (1, 2, 3):
            for lam in dominant_box(rs, 3):
                if rs.theta_pairing(lam) > level:
                    continue
                graded = demazure_character(rs, level, lam)
                assert graded.is_plain, (name, level, lam)
                assert graded == weyl_character(rs, lam), (name, level, lam)
                positive += 1
    # 20 sampled weights just above the level bound must acquire grade 1
    rng = seeded("ev0-negative")
    sampled = 0
    pool = []
    for name in ("A1", "A2", "B2"):
        rs = root_system(name)
        for level in (1, 2, 3):
            for lam in dominant_box(rs, 4):
                if rs.theta_pairing(lam) == level + 1:
                    pool.append((name, level, lam))
    rng.shuffle(pool)
    for name, level, lam in pool[:20]:
        rs = root_system(name)
        graded = demazure_character(rs, level, lam)
        assert graded.slice(1), (name, level, lam)
        sampled += 1
    elapsed = time.time() - t0
    assert sampled == 20
    assert elapsed < 120
    report(2, "evaluation-module criterion", f"({positive} in-level, {sampled} above, {elapsed:.1f}s)")


def test_criterion_3_character_factorization_sweep():
    t0 = time.time()
    instances = 0
    for name in ("A1", "A2", "A3", "B2"):
        rs = root_system(name)
        generators = [
            rs.scale(rs.d_simple[i - 1], rs.fundamental_weight(i))
            for i in range(1, rs.rank + 1)
        ]
        multisets = [[]] + [[g] for g in generators] + [
            list(pair) for pair in itertools.combinations_with_replacement(generators, 2)
        ]
        for level in (1, 2):
            for lam in dominant_box(rs, 2):
                if rs.theta_pairing(lam) > level:
                    continue
                for parts in multisets:
                    cert = verify_demprop(rs, level, parts, lam)
                    assert cert.verdict == "verified", (name, level, parts, lam, cert.witness)
                    assert cert.details["dimension_equal"]
                    instances += 1
    elapsed = time.time() - t0
    assert instances >= 100
    assert elapsed < 600
    report(3, "character factorization sweep", f"({instances} instances, {elapsed:.1f}s)")


def test_criterion_4_power_dimensions():
    t0 = time.time()
    rs = root_system("A1")
    base = demazure_character(rs, 1, rs.theta.coords).dimension()
    assert base == 4
    for n in range(1, 6):
        big = rs.scale(n, rs.theta.coords)
        assert demazure_character(rs, 1, big).dimension() == base**n
    elapsed = time.time() - t0
    assert elapsed < 60
    report(4, "fusion power dimensions 4^N (N<=5)", f"({elapsed:.1f}s)")


def test_criterion_5_minuscule_table():
    systems = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "E6", "E7"]
    for name in systems:
        cert = verify_minuscule(root_system(name))
        assert cert.verdict == "verified", (name, cert.lhs, cert.rhs)
    report(5, "minuscule coweight table", f"({len(systems)} systems)")


def test_criterion_6_stabilization():
    t0 = time.time()
    rs = root_system("A1")
    for lam in ((0,), (1,)):
        cert = verify_stabilization(rs, 1, lam, 2, 4)
        assert cert.verdict == "verified", (lam, cert.witness)
    elapsed = time.time() - t0
    assert elapsed < 300
    report(6, "semi-infinite stabilization", f"({elapsed:.1f}s)")


def test_criterion_7_schur_scans():
    t0 = time.time()
    a1 = scan_summary(schur_scan(root_system("A1"), 3))
    assert a1["refuted"] == 0 and a1["total"] > 0
    t1 = time.time()
    assert t1 - t0 < 600
    a2 = scan_summary(schur_scan(root_system("A2"), 2))
    assert a2["refuted"] == 0 and a2["total"] > 0
    assert time.time() - t1 < 600
    report(7, "surjection scans", f"(A1: {a1['total']}, A2: {a2['total']} tuples, {time.time()-t0:.1f}s)")


def test_criterion_8_level_comparison_harness():
    t0 = time.time()
    verified = 0
    for name in ("A1", "A2"):
        rs = root_system(name)
        table = [i for i in range(1, rs.rank + 1)
                 if rs.d_simple[i - 1] * rs.theta_pairing(rs.fundamental_weight(i)) <= 1]
        for node in table:
            d = rs.d_simple[node - 1]
            omega = rs.fundamental_weight(node)
            for power in (1, 2):
                for m_level, level in ((1, 1), (1, 2), (2, 2), (2, 3)):
                    for mu in dominant_box(rs, 2):
                        if rs.theta_pairing(mu) > m_level:
                            continue
                        lam = rs.sub(mu, rs.scale(power * d * (level - m_level), omega))
                        if not rs.is_dominant(lam):
                            continue
                        cert = verify_genschurpos(rs, node, power, level, m_level, lam, mu)
                        assert cert.verdict == "verified", (name, node, power, level, m_level, mu, cert.witness)
                        verified += 1
    elapsed = time.time() - t0
    assert verified > 0
    assert elapsed < 600
    report(8, "level comparison harness", f"({verified} instances, 0 refutations, {elapsed:.1f}s)")


def test_criterion_9_determinism_and_cache(tmp_path, monkeypatch, capsys):
    t0 = time.time()
    monkeypatch.setenv("DEMKIT_CACHE", str(tmp_path / "cache"))

    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    char_args = ("char", "--system", "B2", "--level", "2", "--weight", "1,2", "--graded")
    _, uncached = run(*char_args, "--no-cache")
    _, first = run(*char_args)  # populates the cache
    _, cached = run(*char_args)  # served from it
    assert uncached == first == cached

    scan_args = ("scan", "--system", "A1", "--height-bound", "3", "--no-timing")
    _, jobs1 = run(*scan_args, "--jobs", "1")
    _, jobs2 = run(*scan_args, "--jobs", "2")
    _, jobs1b = run(*scan_args, "--jobs", "1")
    assert jobs1 == jobs2 == jobs1b

    verify_args = ("verify", "demprop", "--system", "A2", "--level", "1",
                   "--parts", "1,0;0,1", "--lambda", "1,0", "--no-timing")
    _, v1 = run(*verify_args)
    _, v2 = run(*verify_args)
    assert v1 == v2 and json.loads(v1)["verdict"] == "verified"

    elapsed = time.time() - t0
    assert elapsed < 30
    report(9, "determinism and cache", f"({elapsed:.1f}s)")
