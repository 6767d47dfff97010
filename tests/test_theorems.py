import itertools

import pytest

import demkit.affine
import demkit.finite
import demkit.theorems

from conftest import dominant_box, seeded, top_aligned_truncation
from demkit.theorems import (
    Certificate,
    expected_minuscule_nodes,
    min_condition_failure,
    minuscule_nodes,
    scan_summary,
    scan_tuples,
    schur_scan,
    verify_demprop,
    verify_ev0,
    verify_genschurpos,
    verify_krdecom,
    verify_mapsdem,
    verify_minuscule,
    verify_stabilization,
    verify_twofold,
)
from demkit.theorems import _char_difference_witness
from demkit.affine import demazure_character
from demkit.charalg import GradedCharacter
from demkit.rootsystem import root_system

A1 = root_system("A1")
A2 = root_system("A2")
B2 = root_system("B2")
C3 = root_system("C3")


# ---------------------------------------------------------------------------
# factorization certificates


def test_demprop_rank1_hand_instance():
    cert = verify_demprop(A1, 1, [(2,)], (1,))
    assert cert.verdict == "verified"
    assert cert.details["lhs_dim"] == "8"
    assert cert.details["factor_dims"] == ["4"]
    assert cert.details["dimension_equal"]
    assert cert.notion == "ungraded-character"


def test_demprop_empty_parts_is_the_evaluation_case():
    for name, lam in [("A1", (1,)), ("A2", (1, 0)), ("B2", (1, 0))]:
        rs = root_system(name)
        cert = verify_demprop(rs, 1, [], lam)
        assert cert.verdict == "verified"


def test_demprop_a2_split():
    cert = verify_demprop(A2, 1, [(1, 0), (0, 1)], (0, 0))
    assert cert.verdict == "verified"
    assert cert.details["lhs_dim"] == "9"


def test_demprop_hypothesis_violations():
    assert verify_demprop(A1, 1, [(2,)], (2,)).verdict == "hypothesis-violated"
    assert verify_demprop(A1, 0, [(2,)], (0,)).verdict == "hypothesis-violated"
    assert verify_demprop(B2, 1, [(0, 1)], (0, 0)).verdict == "hypothesis-violated"


def test_demprop_dimension_identity_holds_independently():
    rng = seeded("demprop-dims")
    for _ in range(8):
        parts = [tuple(rng.randint(0, 1) for _ in range(2)) for _ in range(rng.randint(0, 2))]
        lam = (rng.randint(0, 1), rng.randint(0, 1))
        if A2.theta_pairing(lam) > 1:
            continue
        cert = verify_demprop(A2, 1, parts, lam)
        assert cert.verdict == "verified"
        assert cert.details["dimension_equal"]
        assert cert.details["rhs_dim_independent"] == cert.details["lhs_dim"]


def test_mapsdem_isomorphism_powers():
    for n in range(1, 6):
        cert = verify_mapsdem(A1, 1, [(1, (2,))] * n, (0,))
        assert cert.verdict == "verified"
        assert cert.claim == "mapsdem-isomorphism"
        assert cert.details["lhs_dim"] == str(4**n)
        assert cert.details["domination_forward"] and cert.details["domination_backward"]


def test_mapsdem_degenerate_reduces_to_evaluation():
    cert = verify_mapsdem(A1, 1, [], (1,))
    assert cert.verdict == "verified"


def test_mapsdem_surjection_clause():
    # part level 2 against ambient level 1 stays in the surjection clause:
    # level*mu = 2*(2w) so mu = 4w, and 4 >= 2 root-wise
    cert = verify_mapsdem(A1, 1, [(2, (2,))], (0,))
    assert cert.claim == "mapsdem-surjection"
    assert cert.notion == "dimension"
    assert cert.verdict == "verified"
    assert int(cert.lhs) == 16 and int(cert.rhs) == 9


def test_mapsdem_negative_fixture():
    cert = verify_mapsdem(A2, 2, [(1, (1, 0)), (1, (1, 0))], (0, 0))
    assert cert.verdict == "hypothesis-violated"
    assert cert.witness["failing_alpha"] == [1, 0]


@pytest.mark.parametrize("build,builds", [
    (lambda: verify_demprop(C3, 1, [(0, 2, 0)] * 2, (1, 0, 0)), 2),
    (lambda: verify_mapsdem(A1, 1, [(1, (2,))] * 2, (0,)), 2),
    (lambda: verify_krdecom(C3, 1, (0, 2, 0), (1, 0, 0)), 2),
], ids=["demprop", "mapsdem-isomorphism", "krdecom"])
def test_each_distinct_part_is_built_once(monkeypatch, build, builds):
    """The fusion claims build the left-hand module once and each distinct
    part's Demazure module once, however often the part repeats; mapsdem
    takes the dimension of D(level, lambda) = V(lambda) from the Weyl
    dimension formula, with no Demazure chain."""
    real = demkit.affine.demazure_character
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(demkit.affine, "demazure_character", counting)
    assert build().verdict == "verified"
    assert len(calls) == builds


def test_mapsdem_rejects_non_divisible_sums():
    cert = verify_mapsdem(A1, 2, [(1, (1,))], (0,))
    assert cert.verdict == "hypothesis-violated"


def test_krdecom_rank1():
    cert = verify_krdecom(A1, 1, (2,), (1,))
    assert cert.verdict == "verified" and cert.details["lhs_dim"] == "8"
    cert = verify_krdecom(A1, 1, (1,), (1,))
    assert cert.verdict == "verified" and cert.details["lhs_dim"] == "4"


def test_krdecom_zero_vector_is_evaluation():
    cert = verify_krdecom(B2, 2, (0, 0), (1, 0))
    assert cert.verdict == "verified"


def test_krdecom_a2_both_nodes():
    cert = verify_krdecom(A2, 1, (1, 1), (0, 0))
    assert cert.verdict == "verified"


def test_krdecom_nontrivial_grading_b2():
    # B2 node 2 contributes a genuinely graded factor
    cert = verify_krdecom(B2, 1, (0, 1), (1, 0))
    assert cert.verdict == "verified"


def test_krdecom_hypothesis():
    assert verify_krdecom(A1, 1, (1,), (2,)).verdict == "hypothesis-violated"
    assert verify_krdecom(A1, 1, (1, 1), (1,)).verdict == "hypothesis-violated"


# ---------------------------------------------------------------------------
# evaluation criterion


def test_ev0_positive():
    cert = verify_ev0(A1, 2, (2,))
    assert cert.verdict == "verified"
    assert cert.details["concentrated_in_grade_0"]
    assert cert.details["graded_dimension"] == {"0": "3"}


def test_ev0_negative_direction():
    cert = verify_ev0(A1, 1, (2,))
    assert cert.verdict == "verified"
    assert not cert.details["concentrated_in_grade_0"]
    assert cert.details["level_dominant"] is False


def test_ev0_zero_weight():
    cert = verify_ev0(A2, 1, (0, 0))
    assert cert.verdict == "verified"
    assert cert.details["graded_dimension"] == {"0": "1"}


@pytest.mark.parametrize("name", ["A1", "A2", "B2"])
def test_ev0_sweep(name):
    rs = root_system(name)
    for level in (1, 2, 3):
        for lam in dominant_box(rs, 3):
            cert = verify_ev0(rs, level, lam)
            assert cert.verdict == "verified", (name, level, lam)


# ---------------------------------------------------------------------------
# minuscule table


@pytest.mark.parametrize(
    "name,expected",
    [
        ("A1", [1]), ("A2", [1, 2]), ("A3", [1, 2, 3]), ("A4", [1, 2, 3, 4]),
        ("B2", [1]), ("B3", [1]), ("B4", [1]),
        ("C2", [2]), ("C3", [3]), ("C4", [4]),
        ("D4", [1, 3, 4]),
        ("E6", [1, 6]), ("E7", [7]),
        ("E8", []), ("F4", []), ("G2", []),
    ],
)
def test_minuscule_nodes_match_the_table(name, expected):
    rs = root_system(name)
    assert minuscule_nodes(rs) == expected
    assert expected_minuscule_nodes(rs.series, rs.rank) == expected
    assert verify_minuscule(rs).verdict == "verified"


# ---------------------------------------------------------------------------
# two-fold products and level comparisons


def test_twofold_identity_split():
    cert = verify_twofold(A1, 1, 2, (2,), (2,), (2,))
    assert cert.verdict == "verified"


def test_twofold_negative_fixture():
    cert = verify_twofold(A1, 1, 2, (0,), (1,), (1,))
    assert cert.verdict == "hypothesis-violated"


def test_twofold_positive_fixture():
    cert = verify_twofold(A1, 1, 2, (2,), (3,), (1,))
    assert cert.verdict == "verified"
    assert cert.notion == "multiplicity-domination"


def test_twofold_requires_table_node():
    cert = verify_twofold(root_system("G2"), 1, 1, (0, 0), (1, 0), (0, 0))
    assert cert.verdict == "hypothesis-violated"


def test_twofold_corollary_thresholds_force_level_dominance():
    from demkit.theorems import twofold_corollary_thresholds

    for name in ("A3", "B3", "C3", "D4", "E6", "E7", "B2", "C2"):
        rs = root_system(name)
        for j in range(1, rs.rank + 1):
            for m in (1, 2):
                for level in range(m, 5 * m + 1):
                    if twofold_corollary_thresholds(rs, j, level, m):
                        lam = rs.scale(rs.d_simple[j - 1] * m, rs.fundamental_weight(j))
                        assert rs.theta_pairing(lam) <= level, (name, j, level, m)
    with pytest.raises(ValueError, match="^source level must be >= 1$"):
        twofold_corollary_thresholds(root_system("A2"), 1, 1, 0)


def test_twofold_corollary_wrapper():
    from demkit.theorems import verify_twofold_corollary

    # A1: j=1, level 2, m 1: lam = omega; split 3w = 2w+w against source (2w, w)
    cert = verify_twofold_corollary(A1, 1, 1, 2, 1, (2,), (1,))
    assert cert.verdict == "verified" and cert.claim == "twofold-corollary"
    # below threshold: B3 inner node needs level >= 2m
    b3 = root_system("B3")
    lam = b3.scale(b3.d_simple[1], b3.fundamental_weight(2))
    cert = verify_twofold_corollary(b3, 1, 2, 1, 1, b3.add(b3.fundamental_weight(1), lam), (0, 0, 0))
    assert cert.verdict == "hypothesis-violated"


def test_twofold_corollary_rejects_out_of_range_node():
    from demkit.theorems import verify_twofold_corollary

    b3 = root_system("B3")
    for j in (0, 4):
        with pytest.raises(ValueError, match="out of range"):
            verify_twofold_corollary(b3, 1, j, 2, 1, (1, 0, 0), (1, 0, 0))


def paper_threshold_factor(series, rank, j):
    """The paper's per-type table: the two-fold corollary covers level >=
    factor * m, the factor rising above 1 away from the end nodes."""
    if series == "B" and j != 1:
        return 2
    if series == "C" and j != rank:
        return 2
    if series == "D" and j not in (1, rank - 1, rank):
        return 2
    if series == "E" and rank == 6:
        return {2: 2, 3: 2, 5: 2, 4: 3}.get(j, 1)
    if series == "E" and rank == 7:
        return {1: 2, 2: 2, 6: 2, 3: 3, 5: 3, 4: 4}.get(j, 1)
    return 1


@pytest.mark.parametrize("name", [
    *(f"A{n}" for n in range(1, 9)), *(f"B{n}" for n in range(2, 9)),
    *(f"C{n}" for n in range(2, 9)), *(f"D{n}" for n in range(4, 9)), "E6", "E7",
])
def test_twofold_corollary_thresholds_match_the_paper_table(name):
    from demkit.theorems import twofold_corollary_thresholds

    rs = root_system(name)
    for j in range(1, rs.rank + 1):
        factor = paper_threshold_factor(rs.series, rs.rank, j)
        assert factor == rs.d_simple[j - 1] * rs.theta.coroot[j - 1], j
        for m in (1, 2):
            for level in range(1, 5 * m + 1):
                assert twofold_corollary_thresholds(rs, j, level, m) == (level >= factor * m)


@pytest.mark.parametrize("name", ["E8", "F4", "G2"])
def test_twofold_corollary_without_minuscule_nodes_is_hypothesis_violated(name):
    from demkit.theorems import verify_twofold_corollary

    rs = root_system(name)
    zero = rs.zero_weight()
    for j in range(1, rs.rank + 1):
        for level in range(1, 5):
            cert = verify_twofold_corollary(rs, 1, j, level, 1, zero, zero)
            assert cert.verdict == "hypothesis-violated", (j, level)


def test_genschurpos_identity():
    cert = verify_genschurpos(A1, 1, 1, 1, 1, (1,), (1,))
    assert cert.verdict == "verified"


def test_genschurpos_level_drop():
    cert = verify_genschurpos(A1, 1, 1, 2, 1, (0,), (1,))
    assert cert.verdict == "verified"


def test_genschurpos_mismatch():
    assert verify_genschurpos(A1, 1, 1, 2, 1, (1,), (1,)).verdict == "hypothesis-violated"
    assert verify_genschurpos(A1, 1, 1, 1, 2, (1,), (1,)).verdict == "hypothesis-violated"


# ---------------------------------------------------------------------------
# stabilization


def test_stabilization_depth_zero_trivial():
    cert = verify_stabilization(A1, 1, (0,), 0, 2)
    assert cert.verdict == "verified"
    assert cert.details["stable_from"] == 1


@pytest.mark.parametrize("lam", [(0,), (1,)])
def test_stabilization_level1(lam):
    cert = verify_stabilization(A1, 1, lam, 2, 4)
    assert cert.verdict == "verified"
    assert cert.details["stable_from"] <= 3


@pytest.mark.parametrize(
    "name,lam,max_grade,n_max",
    [
        ("B2", (1, 0), 3, 4),
        ("G2", (1, 0), 3, 4),
        ("A3", (0, 1, 0), 3, 4),
        ("D4", (0, 0, 0, 0), 2, 3),
        ("D4", (1, 0, 0, 0), 2, 3),
    ],
    ids=["B2", "G2", "A3", "D4-0", "D4-omega1"],
)
def test_stabilization_higher_rank_at_depth_two_and_more(name, lam, max_grade, n_max):
    cert = verify_stabilization(root_system(name), 1, lam, max_grade, n_max)
    assert cert.verdict == "verified"


@pytest.mark.parametrize(
    "name,lam,max_grade",
    [
        # the six benchmark stabilization inputs
        ("B2", (0, 0), 3),
        ("A3", (0, 0, 1), 2),
        ("A3", (1, 0, 0), 2),
        ("G2", (1, 0), 3),
        ("B3", (0, 0, 1), 1),
        ("C3", (0, 1, 0), 1),
        # and a few others
        ("A1", (1,), 4),
        ("A2", (1, 0), 3),
        ("C2", (1, 0), 3),
        ("D4", (0, 0, 0, 0), 2),
    ],
)
def test_stabilization_windows_match_the_full_word(name, lam, max_grade):
    # the window read from the isotypic components equals the one cut from
    # the whole full-word character, for every N the claims use
    rs = root_system(name)
    for n in range(1, 5):
        big = rs.add(rs.scale(n, rs.theta.coords), lam)
        assert demkit.theorems._top_window(rs, 1, big, max_grade) == \
            top_aligned_truncation(demazure_character(rs, 1, big), max_grade)


def test_stabilization_inconclusive_when_window_too_small():
    cert = verify_stabilization(A1, 1, (0,), 2, 2)
    assert cert.verdict == "inconclusive"
    assert cert.witness == "no stabilization observed up to n_max"
    assert cert.rhs is None and cert.lhs


def test_stabilization_hypothesis():
    assert verify_stabilization(A1, 1, (2,), 2, 4).verdict == "hypothesis-violated"


# ---------------------------------------------------------------------------
# scans


def test_scan_height_zero_has_one_tuple():
    certs = schur_scan(A1, 0)
    assert scan_summary(certs) == {
        "total": 1, "verified": 1, "refuted": 0,
        "hypothesis_violated": 0, "inconclusive": 0,
    }


def test_scan_enumeration_is_deterministic():
    assert scan_tuples(A1, 2) == scan_tuples(A1, 2)


def test_import_leaves_the_process_pool_unloaded():
    """Neither importing demkit nor a scan at --jobs 2 loads the pool
    modules: the scan runs in one process."""
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(os.path.abspath(demkit.theorems.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    scan = '["scan", "--system", "A1", "--height-bound", "1", "--jobs", "2", "--no-timing"]'
    for run in ("pass", f"assert demkit.cli.main({scan}) == 0"):
        code = (
            "import sys, demkit, demkit.cli\n"
            f"{run}\n"
            "sys.stderr.write(repr(sorted(m for m in sys.modules\n"
            "                 if m.split('.')[0] in ('concurrent', 'multiprocessing'))))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stderr == "[]", run


def _minima(rs, *weights):
    """The componentwise minimum of the weights' pairing vectors."""
    return list(map(min, *map(rs.pairings, weights)))


def test_conjecture_condition_examples():
    assert min_condition_failure(_minima(A1, (1,), (2,)), _minima(A1, (1,), (2,))) is None
    assert min_condition_failure(_minima(A1, (1,), (1,)), _minima(A1, (2,), (0,))) == 0
    assert min_condition_failure(_minima(A1, (2,), (0,)), _minima(A1, (1,), (1,))) is None


def test_min_condition_failure_names_the_first_failing_root():
    lower, upper = ((1, 1), (0, 1)), ((1, 0), (0, 2))
    # alpha_1 passes (0 <= 0); alpha_2 fails: min(1, 1) = 1 > min(0, 2) = 0
    idx = min_condition_failure(_minima(A2, *lower), _minima(A2, *upper))
    assert A2.positive_roots[idx].root_coords == (0, 1)
    for i in range(idx):
        assert min(A2.pairings(w)[i] for w in lower) <= min(A2.pairings(w)[i] for w in upper)
    assert min_condition_failure(_minima(A2, *upper), _minima(A2, *lower)) is None


def _scan_tuples_by_min_condition(rs, height_bound):
    """``scan_tuples`` spelled out: every balanced tuple of the box with
    min(lam1(h), lam2(h)) <= min(mu1(h), mu2(h)) at each positive coroot h."""
    box = dominant_box(rs, height_bound)
    out = []
    for lam1, lam2, mu1 in itertools.product(box, repeat=3):
        mu2 = tuple(a + b - c for a, b, c in zip(lam1, lam2, mu1))
        if all(0 <= c <= height_bound for c in mu2):
            if all(min(a, b) <= min(c, d) for a, b, c, d in zip(*map(rs.pairings, (lam1, lam2, mu1, mu2)))):
                out.append((lam1, lam2, mu1, mu2))
    return out


@pytest.mark.parametrize("name,height_bound", [
    ("A1", 3), ("A2", 2), ("A3", 1), ("B2", 2), ("G2", 2),
])
def test_scan_tuples_match_the_min_condition_route(name, height_bound):
    rs = root_system(name)
    tuples = scan_tuples(rs, height_bound)
    assert tuples == _scan_tuples_by_min_condition(rs, height_bound)
    # the minimum conditions reject some balanced tuples of every box
    box = dominant_box(rs, height_bound)
    balanced = sum(
        all(0 <= a + b - c <= height_bound for a, b, c in zip(lam1, lam2, mu1))
        for lam1, lam2, mu1 in itertools.product(box, repeat=3)
    )
    assert 0 < len(tuples) < balanced


def test_scan_builds_each_payload_once(monkeypatch):
    """A scan builds each distinct product's payload once and shares it
    among the certificates that name the product."""
    calls = []
    real = demkit.theorems.decomp_payload

    def counting(decomp):
        calls.append(decomp)
        return real(decomp)

    monkeypatch.setattr(demkit.theorems, "decomp_payload", counting)
    certs = schur_scan(A2, 1)
    assert len(calls) == SCAN_PRODUCTS < 2 * len(certs)


def test_scan_builds_each_irreducible_once(monkeypatch):
    """A scan builds the irreducible character of each box weight once
    (its tuples name every one) and shares it among the products; the
    builder is looked up on ``finite`` when the scan runs, so a patched
    one is the one called (``test_each_side_is_decomposed_once`` counts
    the products)."""
    built = []
    real = demkit.finite.weyl_character

    def counting(rs, weight):
        built.append(weight)
        return real(rs, weight)

    monkeypatch.setattr(demkit.finite, "weyl_character", counting)
    schur_scan(A2, 1)
    named = {w for t in scan_tuples(A2, 1) for w in t}
    assert sorted(built) == sorted(named) and 2 * len(named) < SCAN_PRODUCTS


@pytest.mark.parametrize("name,height_bound,cases", [("A2", 2, 96), ("B2", 2, 48), ("A3", 1, 63)])
def test_scan_agrees_with_twofold(name, height_bound, cases):
    """Where a scan tuple's source pair, in either order, is the node
    module's weight kr_weight(node, level) of a minuscule-coweight node and
    a level-dominant lam, the scan certificate and ``verify_twofold`` on
    the same weights decide the same domination from the same two
    products: verdict, lhs and rhs agree (the three benchmark boxes)."""
    rs = root_system(name)
    sources = {rs.kr_weight(node, level): (node, level)
               for node in minuscule_nodes(rs) for level in range(1, height_bound + 1)}
    checked = 0
    for cert, (lam1, lam2, mu1, mu2) in zip(schur_scan(rs, height_bound), scan_tuples(rs, height_bound)):
        for kr, lam in dict.fromkeys([(mu1, mu2), (mu2, mu1)]):
            if kr in sources and rs.theta_pairing(lam) <= sources[kr][1]:
                twofold = verify_twofold(rs, *sources[kr], lam, lam1, lam2)
                assert (twofold.verdict, twofold.lhs, twofold.rhs) == (cert.verdict, cert.lhs, cert.rhs)
                checked += 1
    assert checked == cases


def test_scan_rejects_negative_bound():
    with pytest.raises(ValueError):
        schur_scan(A1, -1)


# ---------------------------------------------------------------------------
# certificate mechanics


def test_certificates_are_reproducible():
    runs = [verify_demprop(A2, 1, [(1, 0)], (0, 1)) for _ in range(2)]
    assert runs[0].to_json(include_timing=False) == runs[1].to_json(include_timing=False)
    # timing present only when asked for
    assert "elapsed_ms" not in runs[0].to_dict(include_timing=False)
    assert "elapsed_ms" in runs[0].to_dict()


def test_difference_witness_is_minimal():
    x = GradedCharacter(A1, {((0,), 0): 1, ((2,), 0): 1})
    y = GradedCharacter(A1, {((0,), 0): 1, ((2,), 1): 1})
    assert _char_difference_witness(x, y) == {"weight": [2], "grade": 0}
    assert _char_difference_witness(x, x) is None


def test_summary_counts_every_verdict():
    base = verify_minuscule(A1)
    fake = Certificate("x", "A1", {}, None, None, "refuted", "dimension")
    inc = Certificate("x", "A1", {}, None, None, "inconclusive", "dimension")
    summary = scan_summary([base, fake, inc])
    assert summary["total"] == 3
    assert summary["verified"] == 1 and summary["refuted"] == 1 and summary["inconclusive"] == 1


# distinct unordered pairs among the two products of each (lam1, lam2, mu1, mu2)
SCAN_PRODUCTS = len({tuple(sorted(p)) for t in scan_tuples(A2, 1) for p in (t[:2], t[2:])})


@pytest.mark.parametrize("build,decompositions", [
    (lambda: schur_scan(A2, 1), SCAN_PRODUCTS),
    (lambda: [verify_twofold(A1, 1, 2, (2,), (3,), (1,))], 2),
    (lambda: [verify_genschurpos(A1, 1, 1, 2, 1, (0,), (1,))], 2),
    (lambda: [verify_mapsdem(A1, 1, [(1, (2,))] * 2, (0,))], 2),
], ids=["scan", "twofold", "genschurpos", "mapsdem-isomorphism"])
def test_each_side_is_decomposed_once(monkeypatch, build, decompositions):
    """A verification decomposes each of its two sides once; a scan
    decomposes each distinct unordered product once, for all its
    certificates.  A side is decomposed either by extraction
    (``tensor_decompose``) or, for a stable Demazure module, by
    ``graded_isotypic``; both routes are counted."""
    calls = []

    def counting(real):
        def wrapped(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return wrapped

    # patched where the claims import them from, which also counts the
    # decompositions made inside the surjection test
    monkeypatch.setattr(demkit.finite, "tensor_decompose", counting(demkit.finite.tensor_decompose))
    monkeypatch.setattr(demkit.affine, "graded_isotypic", counting(demkit.affine.graded_isotypic))
    certs = build()
    assert certs and all(c.verdict == "verified" for c in certs)
    assert len(calls) == decompositions
