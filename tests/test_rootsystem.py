import ast
import itertools
import pathlib
import time
from fractions import Fraction
from math import isqrt, lcm

import pytest

import demkit
from conftest import (
    apply_word, cartan_inverse_oracle, dominant_box, longest_word, random_dominant,
    root_coords_oracle, root_oracle, roots_by_orbit, seeded,
)
from demkit.rootsystem import MAX_RANK, RootSystem, parse_system, root_system

# classical positive-root counts, as fixtures only
ROOT_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10,
    "B2": 4, "B3": 9, "B4": 16,
    "C2": 4, "C3": 9, "C4": 16,
    "D4": 12, "D5": 20,
    "E6": 36, "E7": 63, "E8": 120,
    "F4": 24, "G2": 6,
}

SMALL_SYSTEMS = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4"]


@pytest.mark.parametrize("name,count", sorted(ROOT_COUNTS.items()))
def test_positive_root_counts(name, count):
    rs = root_system(name)
    assert len(rs.positive_roots) == count


@pytest.mark.parametrize("name", sorted(ROOT_COUNTS))
def test_positive_roots_are_ordered_by_height_then_coords(name):
    # failing_alpha witnesses and the presentation output list roots in this order
    roots = root_system(name).positive_roots
    assert roots == tuple(sorted(roots, key=lambda r: (r.height, r.root_coords)))


def test_root_length_cross_check_rejects_a_wrong_carried_d():
    rs = root_system("B2")
    short = next(r for r in rs.positive_roots if r.d == 2)
    with pytest.raises(RuntimeError, match="internal error: bad root length"):
        rs._finish_root(short.root_coords, short.coords, 1)


@pytest.mark.parametrize("name", sorted(ROOT_COUNTS))
def test_root_set_matches_orbit_reconstruction(name):
    rs = root_system(name)
    rebuilt = roots_by_orbit(rs)
    assert rebuilt == {r.root_coords for r in rs.positive_roots}


@pytest.mark.parametrize("series,rank", [("A", 0), ("B", 1), ("C", 1), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 2)])
def test_invalid_types_rejected(series, rank):
    with pytest.raises(ValueError) as err:
        RootSystem(series, rank)
    assert f"({series},{rank})" in str(err.value)


def test_parse_system():
    assert parse_system("A2") == ("A", 2)
    assert parse_system("E7") == ("E", 7)
    with pytest.raises(ValueError):
        parse_system("A")
    with pytest.raises(ValueError):
        parse_system("2A")
    # a classical series goes up to rank MAX_RANK and no further
    assert parse_system(f"D{MAX_RANK}") == ("D", MAX_RANK)
    # well spelled, but no simple type has that rank, or it is above the cap
    for label in ("D3", "E9", "A0", "B1", "G3", f"A{MAX_RANK + 1}", f"C{MAX_RANK + 1}"):
        with pytest.raises(ValueError, match=r"^invalid simple type"):
            parse_system(label)
        with pytest.raises(ValueError, match=r"^invalid simple type"):
            root_system(label)


def test_one_instance_per_type_however_spelled():
    assert root_system(" A2") is root_system("A2") is root_system("A2\n")
    assert root_system("B2") is not root_system("C2")


def test_rank1_theta_is_the_simple_root():
    rs = root_system("A1")
    assert rs.theta.root_coords == (1,)
    assert rs.theta.d == 1


def test_a2_theta_and_d_values():
    rs = root_system("A2")
    assert rs.theta.root_coords == (1, 1)
    assert all(r.d == 1 for r in rs.positive_roots)


def test_g2_d_values_and_long_theta():
    rs = root_system("G2")
    assert sorted({r.d for r in rs.positive_roots}) == [1, 3]
    assert rs.theta.d == 1
    assert rs.theta.root_coords == (3, 2)


@pytest.mark.parametrize("name", SMALL_SYSTEMS)
def test_theta_is_the_dominance_maximum(name):
    rs = root_system(name)
    theta = rs.theta
    assert all(c >= 0 for c in theta.coords)
    for r in rs.positive_roots:
        assert rs.dominates(theta.coords, r.coords)


@pytest.mark.parametrize("name", SMALL_SYSTEMS)
def test_every_root_orbit_has_one_dominant_root(name):
    rs = root_system(name)
    coords = {r.coords for r in rs.positive_roots}
    seen_orbits = []
    for w in coords:
        orbit = frozenset(rs.weyl_orbit(w))
        if orbit in seen_orbits:
            continue
        seen_orbits.append(orbit)
        dominant = [v for v in orbit if rs.is_dominant(v)]
        assert len(dominant) == 1


def test_pairing_examples():
    a2 = root_system("A2")
    assert a2.pairings((1, 0))[a2.theta_index] == 1
    assert a2.pairings((0, 0))[0] == 0
    a1 = root_system("A1")
    for m in range(5):
        assert a1.pairings((m,)) == (m,)


def test_reflection_examples():
    a1 = root_system("A1")
    assert a1.reflect(1, (1,)) == (-1,)
    a2 = root_system("A2")
    assert a2.reflect(1, (0, 1)) == (0, 1)  # zero pairing fixes
    assert a2.reflect(1, (1, 1)) == (-1, 2)


@pytest.mark.parametrize("name", SMALL_SYSTEMS)
def test_reflection_is_an_involution(name):
    rs = root_system(name)
    rng = seeded(f"involution-{name}")
    for _ in range(200):
        w = tuple(rng.randint(-5, 5) for _ in range(rs.rank))
        for i in range(1, rs.rank + 1):
            assert rs.reflect(i, rs.reflect(i, w)) == w


@pytest.mark.parametrize("name,length", [("A1", 1), ("A2", 3), ("B2", 4), ("G2", 6), ("A3", 6)])
def test_longest_element_length(name, length):
    rs = root_system(name)
    assert len(longest_word(rs)) == length
    assert len(longest_word(rs)) == len(rs.positive_roots)


def test_longest_element_a2_word():
    assert longest_word(root_system("A2")) == (1, 2, 1)


@pytest.mark.parametrize("name", SMALL_SYSTEMS)
def test_longest_element_is_minus_diagram_involution(name):
    rs = root_system(name)
    word = longest_word(rs)
    # sigma(i) is read off from w0(omega_i) = -omega_{sigma(i)}
    sigma = {}
    for i in range(1, rs.rank + 1):
        image = apply_word(rs, word, rs.fundamental_weight(i))
        neg = tuple(-c for c in image)
        assert sum(neg) == 1 and all(c in (0, 1) for c in neg)
        sigma[i] = neg.index(1) + 1
    assert sorted(sigma.values()) == list(range(1, rs.rank + 1))
    for i in sigma:
        assert sigma[sigma[i]] == i
        # diagram automorphism: preserves the Cartan matrix
        for j in sigma:
            assert rs.cartan[i - 1][j - 1] == rs.cartan[sigma[i] - 1][sigma[j] - 1]
    rng = seeded(f"w0-{name}")
    for _ in range(5):
        lam = tuple(rng.randint(1, 4) for _ in range(rs.rank))
        image = apply_word(rs, word, lam)
        expected = tuple(-lam[sigma[j + 1] - 1] for j in range(rs.rank))
        assert image == expected
        # the chamber walk alone gives w0*lam = -dom(-lam), as
        # demazure_character reads it
        assert rs.scale(-1, rs.dominant_representative(rs.scale(-1, lam))) == image


def test_a2_w0_is_the_coordinate_swap():
    rs = root_system("A2")
    assert apply_word(rs, longest_word(rs), (2, 1)) == (-1, -2)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "C3", "D4"])
def test_chamber_walk(name):
    rs = root_system(name)
    rng = seeded(f"chamber-{name}")
    for _ in range(100):
        w = tuple(rng.randint(-6, 6) for _ in range(rs.rank))
        dominant, word, lift = rs._to_dominant(w)
        assert lift == 0
        assert rs.is_dominant(dominant) and dominant in rs.weyl_orbit(w)
        assert rs.dominant_representative(w) == dominant
        negative = sum(1 for p in rs.pairings(w) if p < 0)
        assert len(word) == negative
        assert apply_word(rs, reversed(word), dominant) == w


@pytest.mark.parametrize("name", SMALL_SYSTEMS)
def test_kr_weight(name):
    rs = root_system(name)
    for level in (0, 1, 3):
        for i in range(1, rs.rank + 1):
            assert rs.kr_weight(i, level) == rs.scale(rs.d_simple[i - 1] * level, rs.fundamental_weight(i))
    for bad in (0, rs.rank + 1):
        with pytest.raises(ValueError, match="out of range"):
            rs.kr_weight(bad, 1)


def test_weyl_orbits():
    a1 = root_system("A1")
    assert a1.weyl_orbit((1,)) == {(1,), (-1,)}
    a2 = root_system("A2")
    assert len(a2.weyl_orbit((1, 0))) == 3
    assert a2.weyl_orbit((0, 0)) == {(0, 0)}


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_dot_straighten_inverts_the_dot_action(name):
    # walk the dot orbit of a dominant weight, tracking the sign of the
    # Weyl element; every weight walks back with that sign
    rs = root_system(name)
    for lam in dominant_box(rs, 1):
        seen = {lam: 1}
        stack = [lam]
        while stack:
            mu = stack.pop()
            for i in range(1, rs.rank + 1):
                nu = rs.sub(rs.reflect(i, rs.add(mu, rs.rho)), rs.rho)
                if nu not in seen:
                    seen[nu] = -seen[mu]
                    stack.append(nu)
        assert len(seen) == len(rs.weyl_orbit(rs.add(lam, rs.rho)))
        for mu, sign in seen.items():
            assert rs.dot_straighten(mu) == (lam, sign)


def test_dot_straighten_singular_weights():
    a1, a2 = root_system("A1"), root_system("A2")
    assert a1.dot_straighten((-1,)) is None
    assert a1.dot_straighten((-3,)) == ((1,), -1)
    assert a2.dot_straighten((1, -1)) is None  # mu + rho = (2, 0) lies on a wall
    assert a2.dot_straighten((-2, 0)) is None  # mu + rho = (-1, 1), s_1 moves it onto a wall
    assert a2.dot_straighten((1, -2)) == ((0, 0), -1)  # mu = s_2 . 0


def test_gamma_membership():
    a2 = root_system("A2")
    for w in dominant_box(a2, 3):
        assert a2.in_gamma(w)  # simply laced: every dominant weight
    b2 = root_system("B2")
    assert b2.d_simple == (1, 2)
    assert not b2.in_gamma((0, 1))
    assert b2.in_gamma((0, 2))
    assert b2.in_gamma((0, 0))
    assert b2.in_gamma((3, 4))
    assert not b2.in_gamma((3, 5))
    with pytest.raises(ValueError):
        b2.in_gamma((-1, 0))


def test_level_dominance():
    # level-dominance at level l is theta_pairing(weight) <= l
    a1 = root_system("A1")
    assert a1.theta_pairing((1,)) == 1
    assert a1.theta_pairing((2,)) == 2
    a2 = root_system("A2")
    assert a2.theta_pairing((1, 1)) == 2
    g2 = root_system("G2")
    assert g2.theta_pairing((1, 1)) == 3  # h_theta = h_1 + 2 h_2


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2"])
def test_d_divides_pairings_on_the_sublattice(name):
    # exhaustive over the coordinate box ||coords||_inf <= 4, ranks <= 4
    rs = root_system(name)
    for w in dominant_box(rs, 4):
        if not rs.in_gamma(w):
            continue
        for root, p in zip(rs.positive_roots, rs.pairings(w)):
            assert p % root.d == 0


def test_dominance_gap():
    a2 = root_system("A2")
    assert a2.dominance_gap((1, 1), (0, 0)) == (1, 1)
    assert a2.dominance_gap((1, 0), (0, 0)) is None  # not in the root lattice
    assert a2.dominates((2, 2), (1, 1))
    assert not a2.dominates((1, 1), (2, 2))


LATTICE_SYSTEMS = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{s}{n}" for s in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", LATTICE_SYSTEMS)
def test_integer_lattice_core_matches_fraction_solve(name):
    rs = root_system(name)
    n = rs.rank
    # columns of C^-1; coordinates of any weight follow by linearity
    inverse_columns = [root_coords_oracle(rs, rs.fundamental_weight(k + 1)) for k in range(n)]
    L = lcm(*(x.denominator for col in inverse_columns for x in col))
    assert rs.lattice_scale == L

    def coords(w):
        return [sum(c * col[j] for c, col in zip(w, inverse_columns)) for j in range(n)]

    D = rs.pairing_scale
    rng = seeded(f"lattice-{name}")
    outside = 0
    for _ in range(100):
        upper = tuple(rng.randint(-6, 6) for _ in range(n))
        lower = tuple(rng.randint(-6, 6) for _ in range(n))
        x = coords([u - v for u, v in zip(upper, lower)])
        if all(c.denominator == 1 for c in x):
            assert rs.dominance_gap(upper, lower) == tuple(int(c) for c in x)
        else:
            outside += 1
            assert rs.dominance_gap(upper, lower) is None
        # (w, w) = sum_j x_j (w, alpha_j) with (w, alpha_j) = w_j / d_j
        x = coords(upper)
        norm = sum(c * Fraction(w, d) for c, w, d in zip(x, upper, rs.d_simple))
        assert rs.weight_norm2(upper) == L * D * norm
    # every system with a proper root sublattice must exercise the None branch
    assert (outside > 0) == (L > 1)


# dominant tops with coordinate sum at most this, per system
ENUMERATOR_TOPS = {
    "A1": 6, "A2": 4, "A3": 3, "A4": 2,
    "B2": 4, "B3": 3, "B4": 2, "C3": 2,
    "D4": 2, "G2": 3, "F4": 2, "E6": 1,
}


@pytest.mark.parametrize("name", sorted(ENUMERATOR_TOPS))
def test_dominant_weights_below_matches_brute_force(name):
    # the multiplicity recursion takes its candidates from this walk
    rs = root_system(name)
    unit = rs.lattice_scale * rs.pairing_scale
    tops = [t for t in dominant_box(rs, ENUMERATOR_TOPS[name]) if sum(t) <= ENUMERATOR_TOPS[name]]
    for top in tops:
        # a dominant mu below top has (mu, mu) <= (top, top), and every
        # weight has mu_j^2 = d_j^2 (mu, alpha_j)^2 <= 2 d_j (mu, mu)
        norm = rs.weight_norm2(top)
        box = [range(isqrt(2 * d * norm // unit) + 1) for d in rs.d_simple]
        want = {
            mu: sum(rs.dominance_gap(top, mu))
            for mu in itertools.product(*box)
            if rs.dominates(top, mu)
        }
        assert rs.dominant_weights_below(top) == want, top


EVERY_TYPE = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", EVERY_TYPE)
def test_integer_root_data_matches_a_fraction_oracle(name):
    # the library builds C^-1 and the roots in integers only
    rs = root_system(name)
    inverse = cartan_inverse_oracle(rs)
    L = lcm(*(x.denominator for row in inverse for x in row))
    assert rs.lattice_scale == L
    assert rs._scaled_inverse == tuple(tuple(int(x * L) for x in row) for row in inverse)
    for root in rs.positive_roots:
        assert tuple(root) == root_oracle(rs, root.root_coords)


def test_library_has_no_assert_statements():
    # internal checks must survive ``python -O``
    package = pathlib.Path(demkit.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def _import_targets(node):
    """Module names an import statement may bind; relative names keep
    their leading dots."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        base = "." * node.level + (node.module or "")
        sep = "" if base.endswith(".") else "."
        return [base] + [base + sep + a.name for a in node.names]
    return []


def test_only_the_cli_imports_the_cache():
    # the library layers do no disk I/O; the cache serves the front end alone
    package = pathlib.Path(demkit.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py")) if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if {".cache", "demkit.cache"} & set(_import_targets(node))
    ]
    assert offenders == []


@pytest.mark.parametrize("method", ["weight_norm2", "dominant_weights_below"])
def test_one_function_outside_rootsystem_calls(method):
    # the multiplicity recursion is the one place outside rootsystem.py
    # that takes the norm gap and walks down from the tops, so the finite
    # and affine characters share both
    package = pathlib.Path(demkit.__file__).parent
    callers = sorted({
        f"{path.name}:{fn.name}"
        for path in package.glob("*.py") if path.name != "rootsystem.py"
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == method
    })
    assert callers == ["finite.py:dominant_multiplicities"], callers


def test_only_rootsystem_reads_a_coroot():
    # every other module pairs a weight with the coroots through
    # pairings() or theta_pairing()
    package = pathlib.Path(demkit.__file__).parent
    readers = sorted(
        f"{path.name}:{node.lineno}"
        for path in package.glob("*.py") if path.name != "rootsystem.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "coroot"
    )
    assert readers == [], readers


def test_dual_coxeter_numbers():
    assert root_system("A1").dual_coxeter == 2
    assert root_system("A2").dual_coxeter == 3
    assert root_system("G2").dual_coxeter == 4
    assert root_system("E8").dual_coxeter == 30


@pytest.mark.parametrize("series", "ABCD")
def test_largest_rank_builds_quickly(series):
    # the cap keeps every root system a request can name cheap to build
    start = time.perf_counter()
    RootSystem(series, MAX_RANK)
    assert time.perf_counter() - start < 1.0
