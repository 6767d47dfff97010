"""The certificate contract of every claim, pinned byte for byte.

Each ``verify_*`` checks its hypotheses in a fixed order and reports the
first one that fails as the witness of a ``hypothesis-violated``
certificate; where two hypotheses fail at once, the table below pins which
one wins.  The refuted-path tests feed each claim one corrupted builder so
that it must return ``refuted``, and check the witness it carries.
"""

import ast
import hashlib
import itertools
import pathlib

import pytest

import demkit
import demkit.affine
import demkit.finite
import demkit.theorems
from conftest import scaled
from demkit.rootsystem import root_system
from demkit.theorems import (
    schur_scan,
    verify_demprop,
    verify_ev0,
    verify_genschurpos,
    verify_krdecom,
    verify_mapsdem,
    verify_minuscule,
    verify_stabilization,
    verify_twofold,
    verify_twofold_corollary,
)


HYPOTHESIS_CASES = [
    pytest.param(verify_demprop, "A1", (0, [(2,)], (-1,)),
                 '{"claim":"demprop","details":{},"inputs":{"lambda":[-1],"level":0,"parts":[[2]]},"lhs":null,"notion":"ungraded-character","rhs":null,"system":"A1","verdict":"hypothesis-violated","witness":"level must be >= 1"}',
                 id="demprop-level"),
    pytest.param(verify_demprop, "A2", (1, [(4, 0)], (0, -1)),
                 '{"claim":"demprop","details":{},"inputs":{"lambda":[0,-1],"level":1,"parts":[[4,0]]},"lhs":null,"notion":"ungraded-character","rhs":null,"system":"A2","verdict":"hypothesis-violated","witness":"lambda [0, -1] not dominant"}',
                 id="demprop-lambda-dominant"),
    pytest.param(verify_demprop, "A1", (1, [(-1,)], (2,)),
                 '{"claim":"demprop","details":{},"inputs":{"lambda":[2],"level":1,"parts":[[-1]]},"lhs":null,"notion":"ungraded-character","rhs":null,"system":"A1","verdict":"hypothesis-violated","witness":"lambda(h_theta) = 2 exceeds level 1"}',
                 id="demprop-lambda-level"),
    pytest.param(verify_demprop, "A2", (1, [(1, -1)], (0, 0)),
                 '{"claim":"demprop","details":{},"inputs":{"lambda":[0,0],"level":1,"parts":[[1,-1]]},"lhs":null,"notion":"ungraded-character","rhs":null,"system":"A2","verdict":"hypothesis-violated","witness":"part [1, -1] not in the d-divisible sublattice"}',
                 id="demprop-part-dominant"),
    pytest.param(verify_demprop, "B2", (1, [(1, 0), (0, 1)], (1, 0)),
                 '{"claim":"demprop","details":{},"inputs":{"lambda":[1,0],"level":1,"parts":[[1,0],[0,1]]},"lhs":null,"notion":"ungraded-character","rhs":null,"system":"B2","verdict":"hypothesis-violated","witness":"part [0, 1] not in the d-divisible sublattice"}',
                 id="demprop-part-gamma"),
    pytest.param(verify_mapsdem, "A1", (0, [(0, (1,))], (-1,)),
                 '{"claim":"mapsdem-surjection","details":{},"inputs":{"lambda":[-1],"level":0,"parts":[{"level":0,"weight":[1]}]},"lhs":null,"notion":"dimension","rhs":null,"system":"A1","verdict":"hypothesis-violated","witness":"level must be >= 1"}',
                 id="mapsdem-level"),
    pytest.param(verify_mapsdem, "A2", (1, [(0, (1, 0))], (-1, 0)),
                 '{"claim":"mapsdem-surjection","details":{},"inputs":{"lambda":[-1,0],"level":1,"parts":[{"level":0,"weight":[1,0]}]},"lhs":null,"notion":"dimension","rhs":null,"system":"A2","verdict":"hypothesis-violated","witness":"lambda [-1, 0] not dominant"}',
                 id="mapsdem-lambda-dominant"),
    pytest.param(verify_mapsdem, "A2", (1, [(1, (1, 0)), (0, (0, -1))], (0, 0)),
                 '{"claim":"mapsdem-surjection","details":{},"inputs":{"lambda":[0,0],"level":1,"parts":[{"level":1,"weight":[1,0]},{"level":0,"weight":[0,-1]}]},"lhs":null,"notion":"dimension","rhs":null,"system":"A2","verdict":"hypothesis-violated","witness":"part level 0 must be >= 1"}',
                 id="mapsdem-part-level"),
    pytest.param(verify_mapsdem, "B2", (1, [(1, (0, 1))], (1, 0)),
                 '{"claim":"mapsdem-isomorphism","details":{},"inputs":{"lambda":[1,0],"level":1,"parts":[{"level":1,"weight":[0,1]}]},"lhs":null,"notion":"ungraded-character","rhs":null,"system":"B2","verdict":"hypothesis-violated","witness":"part [0, 1] not in the d-divisible sublattice"}',
                 id="mapsdem-part-gamma"),
    pytest.param(verify_mapsdem, "A1", (2, [(1, (1,))], (0,)),
                 '{"claim":"mapsdem-surjection","details":{},"inputs":{"lambda":[0],"level":2,"parts":[{"level":1,"weight":[1]}]},"lhs":null,"notion":"dimension","rhs":null,"system":"A1","verdict":"hypothesis-violated","witness":"sum of weighted parts [1] is not divisible by level 2"}',
                 id="mapsdem-divisible"),
    pytest.param(verify_mapsdem, "B2", (2, [(1, (0, 2))], (0, 0)),
                 '{"claim":"mapsdem-surjection","details":{},"inputs":{"lambda":[0,0],"level":2,"parts":[{"level":1,"weight":[0,2]}]},"lhs":null,"notion":"dimension","rhs":null,"system":"B2","verdict":"hypothesis-violated","witness":"mu [0, 1] not in the d-divisible sublattice"}',
                 id="mapsdem-mu-gamma"),
    pytest.param(verify_mapsdem, "A2", (2, [(1, (1, 0)), (1, (1, 0))], (0, 0)),
                 '{"claim":"mapsdem-surjection","details":{},"inputs":{"lambda":[0,0],"level":2,"parts":[{"level":1,"weight":[1,0]},{"level":1,"weight":[1,0]}]},"lhs":null,"notion":"dimension","rhs":null,"system":"A2","verdict":"hypothesis-violated","witness":{"failing_alpha":[1,0],"mu_pairing":1,"parts_pairing":2}}',
                 id="mapsdem-failing-alpha"),
    pytest.param(verify_krdecom, "A1", (0, (-1,), (-1,)),
                 '{"claim":"krdecom","details":{},"inputs":{"lambda":[-1],"level":0,"s_vector":[-1]},"lhs":null,"notion":"ungraded-character","rhs":null,"system":"A1","verdict":"hypothesis-violated","witness":"level must be >= 1"}',
                 id="krdecom-level"),
    pytest.param(verify_krdecom, "A2", (1, (1,), (0, -1)),
                 '{"claim":"krdecom","details":{},"inputs":{"lambda":[0,-1],"level":1,"s_vector":[1]},"lhs":null,"notion":"ungraded-character","rhs":null,"system":"A2","verdict":"hypothesis-violated","witness":"s-vector [1] must be 2 non-negative integers"}',
                 id="krdecom-s-vector-length"),
    pytest.param(verify_krdecom, "A2", (1, (1, -1), (3, 0)),
                 '{"claim":"krdecom","details":{},"inputs":{"lambda":[3,0],"level":1,"s_vector":[1,-1]},"lhs":null,"notion":"ungraded-character","rhs":null,"system":"A2","verdict":"hypothesis-violated","witness":"s-vector [1, -1] must be 2 non-negative integers"}',
                 id="krdecom-s-vector-negative"),
    pytest.param(verify_krdecom, "B2", (1, (0, 1), (-1, 0)),
                 '{"claim":"krdecom","details":{},"inputs":{"lambda":[-1,0],"level":1,"s_vector":[0,1]},"lhs":null,"notion":"ungraded-character","rhs":null,"system":"B2","verdict":"hypothesis-violated","witness":"lambda [-1, 0] not dominant"}',
                 id="krdecom-lambda-dominant"),
    pytest.param(verify_krdecom, "A1", (1, (1,), (2,)),
                 '{"claim":"krdecom","details":{},"inputs":{"lambda":[2],"level":1,"s_vector":[1]},"lhs":null,"notion":"ungraded-character","rhs":null,"system":"A1","verdict":"hypothesis-violated","witness":"lambda(h_theta) = 2 exceeds level 1"}',
                 id="krdecom-lambda-level"),
    pytest.param(verify_ev0, "A2", (0, (0, -1)),
                 '{"claim":"ev0","details":{},"inputs":{"lambda":[0,-1],"level":0},"lhs":null,"notion":"graded-character","rhs":null,"system":"A2","verdict":"hypothesis-violated","witness":"level must be >= 1"}',
                 id="ev0-level"),
    pytest.param(verify_ev0, "G2", (1, (-1, 0)),
                 '{"claim":"ev0","details":{},"inputs":{"lambda":[-1,0],"level":1},"lhs":null,"notion":"graded-character","rhs":null,"system":"G2","verdict":"hypothesis-violated","witness":"lambda [-1, 0] not dominant"}',
                 id="ev0-lambda-dominant"),
    pytest.param(verify_twofold, "A1", (2, 0, (-1,), (0,), (0,)),
                 '{"claim":"twofold","details":{},"inputs":{"lambda":[-1],"level":0,"mu1":[0],"mu2":[0],"node":2},"lhs":null,"notion":"multiplicity-domination","rhs":null,"system":"A1","verdict":"hypothesis-violated","witness":"node 2 out of range"}',
                 id="twofold-node-range"),
    pytest.param(verify_twofold, "B2", (2, 0, (0, 0), (0, 0), (0, 0)),
                 '{"claim":"twofold","details":{},"inputs":{"lambda":[0,0],"level":0,"mu1":[0,0],"mu2":[0,0],"node":2},"lhs":null,"notion":"multiplicity-domination","rhs":null,"system":"B2","verdict":"hypothesis-violated","witness":"node 2 is not a minuscule-coweight node"}',
                 id="twofold-node-minuscule"),
    pytest.param(verify_twofold, "A2", (1, 0, (-1, 0), (0, 0), (0, 0)),
                 '{"claim":"twofold","details":{},"inputs":{"lambda":[-1,0],"level":0,"mu1":[0,0],"mu2":[0,0],"node":1},"lhs":null,"notion":"multiplicity-domination","rhs":null,"system":"A2","verdict":"hypothesis-violated","witness":"level must be >= 1"}',
                 id="twofold-level"),
    pytest.param(verify_twofold, "A2", (1, 1, (0, 0), (0, -1), (3, 0)),
                 '{"claim":"twofold","details":{},"inputs":{"lambda":[0,0],"level":1,"mu1":[0,-1],"mu2":[3,0],"node":1},"lhs":null,"notion":"multiplicity-domination","rhs":null,"system":"A2","verdict":"hypothesis-violated","witness":"weight [0, -1] not dominant"}',
                 id="twofold-weight-dominant"),
    pytest.param(verify_twofold, "A1", (1, 1, (2,), (9,), (9,)),
                 '{"claim":"twofold","details":{},"inputs":{"lambda":[2],"level":1,"mu1":[9],"mu2":[9],"node":1},"lhs":null,"notion":"multiplicity-domination","rhs":null,"system":"A1","verdict":"hypothesis-violated","witness":"lambda(h_theta) = 2 exceeds level 1"}',
                 id="twofold-lambda-level"),
    pytest.param(verify_twofold, "A2", (1, 1, (0, 1), (1, 0), (1, 0)),
                 '{"claim":"twofold","details":{},"inputs":{"lambda":[0,1],"level":1,"mu1":[1,0],"mu2":[1,0],"node":1},"lhs":null,"notion":"multiplicity-domination","rhs":null,"system":"A2","verdict":"hypothesis-violated","witness":"weights do not balance"}',
                 id="twofold-balance"),
    pytest.param(verify_twofold, "A1", (1, 2, (0,), (1,), (1,)),
                 '{"claim":"twofold","details":{},"inputs":{"lambda":[0],"level":2,"mu1":[1],"mu2":[1],"node":1},"lhs":null,"notion":"multiplicity-domination","rhs":null,"system":"A1","verdict":"hypothesis-violated","witness":{"failing_alpha":[1],"min_mu":1,"min_source":0}}',
                 id="twofold-failing-alpha"),
    pytest.param(verify_twofold_corollary, "B3", (1, 2, 1, 1, (0, 0, -1), (2, 0, 0)),
                 '{"claim":"twofold-corollary","details":{},"inputs":{"j":2,"level":1,"m_level":1,"mu1":[0,0,-1],"mu2":[2,0,0],"node":1},"lhs":null,"notion":"multiplicity-domination","rhs":null,"system":"B3","verdict":"hypothesis-violated","witness":"level 1 below the threshold for node 2 in type B"}',
                 id="corollary-threshold"),
    pytest.param(verify_twofold_corollary, "B2", (2, 1, 2, 1, (0, 0), (0, 0)),
                 '{"claim":"twofold-corollary","details":{},"inputs":{"j":1,"lambda":[1,0],"level":2,"m_level":1,"mu1":[0,0],"mu2":[0,0],"node":2},"lhs":null,"notion":"multiplicity-domination","rhs":null,"system":"B2","verdict":"hypothesis-violated","witness":"node 2 is not a minuscule-coweight node"}',
                 id="corollary-node-minuscule"),
    pytest.param(verify_twofold_corollary, "A1", (1, 1, 2, 1, (1,), (1,)),
                 '{"claim":"twofold-corollary","details":{},"inputs":{"j":1,"lambda":[1],"level":2,"m_level":1,"mu1":[1],"mu2":[1],"node":1},"lhs":null,"notion":"multiplicity-domination","rhs":null,"system":"A1","verdict":"hypothesis-violated","witness":"weights do not balance"}',
                 id="corollary-balance"),
    pytest.param(verify_genschurpos, "A2", (3, 0, 0, 0, (-1, 0), (0, 0)),
                 '{"claim":"genschurpos","details":{},"inputs":{"lambda":[-1,0],"level":0,"m_level":0,"mu":[0,0],"node":3,"power":0},"lhs":null,"notion":"multiplicity-domination","rhs":null,"system":"A2","verdict":"hypothesis-violated","witness":"node 3 out of range"}',
                 id="genschurpos-node-range"),
    pytest.param(verify_genschurpos, "A1", (1, 1, 1, 2, (-1,), (1,)),
                 '{"claim":"genschurpos","details":{},"inputs":{"lambda":[-1],"level":1,"m_level":2,"mu":[1],"node":1,"power":1},"lhs":null,"notion":"multiplicity-domination","rhs":null,"system":"A1","verdict":"hypothesis-violated","witness":"need power >= 1 and level >= m_level >= 1"}',
                 id="genschurpos-levels"),
    pytest.param(verify_genschurpos, "A2", (1, 1, 1, 1, (0, 0), (0, -1)),
                 '{"claim":"genschurpos","details":{},"inputs":{"lambda":[0,0],"level":1,"m_level":1,"mu":[0,-1],"node":1,"power":1},"lhs":null,"notion":"multiplicity-domination","rhs":null,"system":"A2","verdict":"hypothesis-violated","witness":"weights must be dominant"}',
                 id="genschurpos-dominant"),
    pytest.param(verify_genschurpos, "A1", (1, 1, 2, 1, (0,), (2,)),
                 '{"claim":"genschurpos","details":{},"inputs":{"lambda":[0],"level":2,"m_level":1,"mu":[2],"node":1,"power":1},"lhs":null,"notion":"multiplicity-domination","rhs":null,"system":"A1","verdict":"hypothesis-violated","witness":"mu(h_theta) = 2 exceeds source level 1"}',
                 id="genschurpos-source-level"),
    pytest.param(verify_genschurpos, "A1", (1, 1, 2, 1, (1,), (1,)),
                 '{"claim":"genschurpos","details":{},"inputs":{"lambda":[1],"level":2,"m_level":1,"mu":[1],"node":1,"power":1},"lhs":null,"notion":"multiplicity-domination","rhs":null,"system":"A1","verdict":"hypothesis-violated","witness":"weights do not balance"}',
                 id="genschurpos-balance"),
    pytest.param(verify_stabilization, "A1", (0, (5,), -1, 1),
                 '{"claim":"stabilization","details":{},"inputs":{"lambda":[5],"level":0,"max_grade":-1,"n_max":1},"lhs":null,"notion":"graded-character","rhs":null,"system":"A1","verdict":"hypothesis-violated","witness":"level must be >= 1"}',
                 id="stabilization-level"),
    pytest.param(verify_stabilization, "A2", (1, (1, 1), -1, 1),
                 '{"claim":"stabilization","details":{},"inputs":{"lambda":[1,1],"level":1,"max_grade":-1,"n_max":1},"lhs":null,"notion":"graded-character","rhs":null,"system":"A2","verdict":"hypothesis-violated","witness":"lambda must be level-dominant"}',
                 id="stabilization-lambda"),
    pytest.param(verify_stabilization, "A1", (1, (1,), 0, 1),
                 '{"claim":"stabilization","details":{},"inputs":{"lambda":[1],"level":1,"max_grade":0,"n_max":1},"lhs":null,"notion":"graded-character","rhs":null,"system":"A1","verdict":"hypothesis-violated","witness":"need max_grade >= 0 and n_max >= 2"}',
                 id="stabilization-window"),
]


@pytest.mark.parametrize("verify,system,args,expected", HYPOTHESIS_CASES)
def test_first_failing_hypothesis_is_the_witness(verify, system, args, expected):
    assert verify(root_system(system), *args).to_json(include_timing=False) == expected


def test_hypothesis_failure_records_elapsed_time(monkeypatch):
    clock = iter([10.0, 10.0025])
    monkeypatch.setattr(demkit.theorems, "perf_counter", lambda: next(clock))
    cert = verify_ev0(root_system("A1"), 0, (1,))
    assert cert.verdict == "hypothesis-violated"
    assert cert.to_dict()["elapsed_ms"] == 2.5


# ---------------------------------------------------------------------------
# refuted paths: one corrupted builder per claim


def _doubling(monkeypatch, module, name, when):
    """Replace ``module.<name>`` by a builder that doubles its result
    whenever ``when(*args)`` holds; the claims import their builders when
    they run, so they call the replacement."""
    real = getattr(module, name)

    def corrupted(*args):
        out = real(*args)
        return scaled(out, 2) if when(*args) else out

    monkeypatch.setattr(module, name, corrupted)


def _mult(payload, witness):
    for term in payload:
        if term["w"] == witness["weight"] and term["g"] == witness["grade"]:
            return int(term["m"])
    return 0


def _assert_char_witness(cert):
    """The witness names a (weight, grade) where the two sides differ."""
    assert cert.verdict == "refuted"
    assert set(cert.witness) == {"weight", "grade"}
    assert _mult(cert.lhs, cert.witness) != _mult(cert.rhs, cert.witness)


def _assert_domination_witness(cert):
    """The witness is a dominant weight the target holds more often than
    the source."""
    assert cert.verdict == "refuted"
    key = ",".join(map(str, cert.witness))
    assert int(cert.rhs[key]) > int(cert.lhs.get(key, "0"))


A1 = root_system("A1")
A2 = root_system("A2")


def test_demprop_refuted(monkeypatch):
    _doubling(monkeypatch, demkit.finite, "weyl_character", lambda rs, w: True)
    _assert_char_witness(verify_demprop(A2, 1, [(1, 0)], (0, 1)))


def test_mapsdem_surjection_refuted(monkeypatch):
    # the level-2 part's factor is inflated, so rhs_dim 18 exceeds lhs_dim 16
    _doubling(monkeypatch, demkit.affine, "demazure_character", lambda rs, level, w: level == 2)
    cert = verify_mapsdem(A1, 1, [(2, (2,))], (0,))
    assert cert.claim == "mapsdem-surjection" and cert.verdict == "refuted"
    assert cert.witness == {"dimension_deficit": "2"}
    assert int(cert.rhs) - int(cert.lhs) == 2


def test_mapsdem_isomorphism_refuted(monkeypatch):
    _doubling(monkeypatch, demkit.finite, "weyl_character", lambda rs, w: True)
    cert = verify_mapsdem(A1, 1, [(1, (2,))] * 2, (0,))
    assert cert.claim == "mapsdem-isomorphism"
    _assert_char_witness(cert)
    assert cert.details["domination_forward"] is False


def test_krdecom_refuted(monkeypatch):
    # only the node-1 KR factor d_1*level*omega_1 is doubled, not the left side
    _doubling(monkeypatch, demkit.affine, "demazure_character",
              lambda rs, level, w: w == rs.kr_weight(1, level))
    _assert_char_witness(verify_krdecom(A2, 1, (1, 1), (0, 0)))


def test_ev0_level_dominant_branch_refuted(monkeypatch):
    _doubling(monkeypatch, demkit.finite, "weyl_character", lambda rs, w: True)
    cert = verify_ev0(A1, 2, (2,))
    assert cert.details["level_dominant"] is True
    _assert_char_witness(cert)


def test_ev0_outside_level_branch_refuted(monkeypatch):
    real = demkit.affine.demazure_character
    monkeypatch.setattr(
        demkit.affine, "demazure_character", lambda *args: real(*args).slice(0)
    )
    cert = verify_ev0(A1, 1, (2,))
    assert cert.details["level_dominant"] is False
    assert cert.verdict == "refuted" and cert.witness == "grade 1 empty"


def test_twofold_refuted(monkeypatch):
    # only the target side mu1 (x) mu2 contains the doubled irreducible
    _doubling(monkeypatch, demkit.finite, "weyl_character", lambda rs, w: w == (3,))
    _assert_domination_witness(verify_twofold(A1, 1, 2, (2,), (3,), (1,)))


def test_genschurpos_refuted(monkeypatch):
    # only the level-2 target is decomposed at level 2
    real = demkit.affine.graded_isotypic

    def corrupted(rs, level, weight):
        out = real(rs, level, weight)
        return {k: 2 * m for k, m in out.items()} if level == 2 else out

    monkeypatch.setattr(demkit.affine, "graded_isotypic", corrupted)
    _assert_domination_witness(verify_genschurpos(A1, 1, 1, 2, 1, (0,), (1,)))


def test_minuscule_refuted(monkeypatch):
    monkeypatch.setattr(demkit.theorems, "expected_minuscule_nodes", lambda series, rank: [1, 2])
    cert = verify_minuscule(A1)
    assert cert.verdict == "refuted" and cert.witness == [2]


def test_scan_refuted(monkeypatch):
    # (0, 2, 1, 1): the target V0 (x) V2 now holds V2 twice, V1 (x) V1 once
    _doubling(monkeypatch, demkit.finite, "weyl_character", lambda rs, w: w == (2,))
    certs = schur_scan(A1, 2)
    refuted = [c for c in certs if c.verdict == "refuted"]
    assert refuted and len(refuted) < len(certs)
    for cert in refuted:
        _assert_domination_witness(cert)


def test_stabilization_refuted(monkeypatch):
    _doubling(monkeypatch, demkit.affine, "affine_irreducible_character_truncated", lambda *args: True)
    cert = verify_stabilization(A1, 1, (0,), 2, 4)
    assert cert.details["stable_from"] <= 3
    _assert_char_witness(cert)


# ---------------------------------------------------------------------------
# the spine is the only place that builds a certificate


def test_certificates_are_built_only_by_the_spine():
    """``Certificate(`` is called only inside ``theorems._Claim``, and no
    ``verify_*`` body spells the verdicts "verified" or "refuted": the
    spine alone maps an outcome to its verdict."""
    package = pathlib.Path(demkit.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        spine = {
            id(node)
            for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "_Claim"
            for node in ast.walk(cls)
        }
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and id(node) not in spine
                    and "Certificate" in (getattr(node.func, "id", None),
                                          getattr(node.func, "attr", None))):
                offenders.append(f"{path.name}:{node.lineno} builds a Certificate")
            if isinstance(node, ast.FunctionDef) and node.name.startswith("verify_"):
                offenders.extend(
                    f"{path.name}:{sub.lineno} spells {sub.value!r} in {node.name}"
                    for sub in ast.walk(node)
                    if isinstance(sub, ast.Constant) and sub.value in ("verified", "refuted")
                )
    assert offenders == []


def test_the_affine_engine_reads_no_type_label():
    """No code in ``affine`` reads a ``series`` attribute: the engine sizes
    and builds every module by one rule on every type, so a per-type table
    has no place to hang."""
    path = pathlib.Path(demkit.__file__).parent / "affine.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "series"]
    assert reads == []


# ---------------------------------------------------------------------------
# the factorization claims, swept and hashed: every --no-timing certificate
# of demprop, krdecom and both mapsdem clauses over small inputs, in order;
# the digest is the one the claims gave while each built its own factors


FACTORIZATION_DIGEST = "e92a150f269ad06f581749b3e6a99adb20407504ec44ac38344c238b6014e469"


def _factorization_certificates():
    for name in ("A1", "A2", "B2", "G2"):
        rs = root_system(name)
        p = rs.kr_weight(rs.rank, 1)
        q = rs.add(p, rs.kr_weight(1, 1))  # distinct from p on every rank
        for level in (1, 2):
            for lam in itertools.product((0, 1), repeat=rs.rank):
                for parts in ([], [p], [p, p], [p, q]):
                    yield verify_demprop(rs, level, parts, lam)
                    yield verify_mapsdem(rs, level, [(level, w) for w in parts], lam)
                    # the other part level: 2 at level 1, 1 at level 2
                    yield verify_mapsdem(rs, level, [(3 - level, w) for w in parts], lam)
                for s_vector in itertools.product((0, 1, 2), repeat=rs.rank):
                    yield verify_krdecom(rs, level, s_vector, lam)


def test_factorization_sweep_is_byte_identical():
    digest = hashlib.sha256()
    claims = set()
    count = 0
    for cert in _factorization_certificates():
        digest.update(cert.to_json(include_timing=False).encode("utf-8") + b"\n")
        claims.add((cert.claim, cert.verdict))
        count += 1
    assert count == 564
    assert {"demprop", "krdecom", "mapsdem-isomorphism", "mapsdem-surjection"} == {
        claim for claim, verdict in claims if verdict == "verified"
    }
    assert digest.hexdigest() == FACTORIZATION_DIGEST
