import pytest

from conftest import (
    brauer_klimyk, clebsch_gordan_sl2, demazure_weyl_character, dominant_box, monomial,
    random_dominant, scaled, seeded, summed,
)
from demkit.charalg import GradedCharacter
from demkit.finite import (
    min_condition_failure,
    surjection_exists,
    tensor_decompose,
    weyl_character,
    weyl_dimension,
)
from demkit.rootsystem import RootSystem, root_system
from demkit.theorems import verify_demprop, verify_ev0

A1 = root_system("A1")
A2 = root_system("A2")
B2 = root_system("B2")
G2 = root_system("G2")
A3 = root_system("A3")


# ---------------------------------------------------------------------------
# irreducible characters


def test_weyl_memo_is_per_root_system():
    """A second instance of a type is never served characters attached to
    the shared one: before the memo lived on the instance, this made ev0
    refute without a witness and demprop refuse to combine characters."""
    weyl_character(A2, (1, 0))
    fresh = RootSystem("A", 2)
    assert weyl_character(fresh, (1, 0)).system is fresh
    assert verify_ev0(fresh, 1, (1, 0)).verdict == "verified"
    assert verify_demprop(fresh, 1, [(1, 0)], (1, 0)).verdict == "verified"


def test_trivial_module():
    ch = weyl_character(A2, (0, 0))
    assert ch == GradedCharacter.unit(A2)
    assert weyl_dimension(A2, (0, 0)) == 1


def test_rank1_strings():
    for m in range(7):
        ch = weyl_character(A1, (m,))
        assert ch.dimension() == m + 1
        assert all(mult == 1 for mult in ch.terms.values())
        assert set(ch.terms) == {((m - 2 * j,), 0) for j in range(m + 1)}


def test_a2_adjoint():
    ch = weyl_character(A2, (1, 1))
    assert ch.dimension() == 8
    assert ch.terms[(0, 0), 0] == 2
    assert weyl_dimension(A2, (1, 1)) == 8


def test_g2_fundamental_dimensions():
    # frozen after two-oracle agreement: short-node 7, long-node 14
    assert weyl_dimension(G2, (1, 0)) == 7
    assert weyl_dimension(G2, (0, 1)) == 14
    assert weyl_character(G2, (1, 0)) == demazure_weyl_character(G2, (1, 0))
    assert weyl_character(G2, (0, 1)) == demazure_weyl_character(G2, (0, 1))


def test_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_character(A2, (1, -1))
    with pytest.raises(ValueError):
        weyl_dimension(A1, (-2,))


@pytest.mark.parametrize("name", ["B2", "G2"])
def test_two_oracle_agreement_random(name):
    rs = root_system(name)
    rng = seeded(f"oracle-{name}")
    for _ in range(20):
        lam = random_dominant(rng, rs, 4)
        freud = weyl_character(rs, lam)
        assert freud == demazure_weyl_character(rs, lam)
        assert freud.dimension() == weyl_dimension(rs, lam)


# classical dimensions of the fundamental modules, Bourbaki numbering
FUNDAMENTAL_DIMENSIONS = {
    "D4": (8, 28, 8, 8),
    "F4": (52, 1274, 273, 26),
    "E6": (27, 78, 351, 2925, 351, 27),
}


@pytest.mark.parametrize("name", sorted(FUNDAMENTAL_DIMENSIONS))
def test_two_oracle_agreement_at_fundamental_weights(name):
    # F4 has both root lengths, so the D // d factor of the multiplicity
    # recursion differs from root to root; fundamental weights rather than
    # a box, since F4's box of bound 1 holds rho (16,777,216-dimensional)
    rs = root_system(name)
    for i, dim in enumerate(FUNDAMENTAL_DIMENSIONS[name], 1):
        lam = rs.fundamental_weight(i)
        freud = weyl_character(rs, lam)
        assert freud == demazure_weyl_character(rs, lam)
        assert freud.dimension() == weyl_dimension(rs, lam) == dim


def test_dimension_agreement_sweep():
    for name in ("A1", "A2", "B2"):
        rs = root_system(name)
        for lam in dominant_box(rs, 3):
            assert weyl_character(rs, lam).dimension() == weyl_dimension(rs, lam)


# ---------------------------------------------------------------------------
# tensor decomposition


def test_rank1_products_match_the_ladder_oracle():
    for a in range(4):
        for b in range(4):
            product = weyl_character(A1, (a,)) * weyl_character(A1, (b,))
            assert tensor_decompose(A1, product) == clebsch_gordan_sl2(a, b)


def test_a2_vector_times_dual():
    product = weyl_character(A2, (1, 0)) * weyl_character(A2, (0, 1))
    assert tensor_decompose(A2, product) == {(1, 1): 1, (0, 0): 1}


def test_irreducible_decomposes_to_itself():
    rng = seeded("irr-decomp")
    for _ in range(10):
        lam = random_dominant(rng, A2, 3)
        assert tensor_decompose(A2, weyl_character(A2, lam)) == {lam: 1}


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_reconstruction_invariant(name):
    rs = root_system(name)
    rng = seeded(f"reconstruct-{name}")
    for _ in range(8):
        product = weyl_character(rs, random_dominant(rng, rs, 2)) * \
            weyl_character(rs, random_dominant(rng, rs, 2))
        decomp = tensor_decompose(rs, product)
        rebuilt = summed(*(scaled(weyl_character(rs, lam), mult) for lam, mult in decomp.items()))
        assert rebuilt == product
        assert all(m > 0 for m in decomp.values())


@pytest.mark.parametrize("rs,bound", [(A2, 3), (B2, 2), (G2, 2), (A3, 1)], ids=["A2", "B2", "G2", "A3"])
def test_extraction_matches_brauer_klimyk(rs, bound):
    box = dominant_box(rs, bound)
    for a in box:
        for b in box:
            product = weyl_character(rs, a) * weyl_character(rs, b)
            want = brauer_klimyk(rs, a, b)
            assert tensor_decompose(rs, product) == want, (a, b)


def test_rejects_non_characters():
    spike = monomial(A2, (1, 0))
    with pytest.raises(ValueError):
        tensor_decompose(A2, spike)
    graded = GradedCharacter(A1, {((0,), 1): 1})
    with pytest.raises(ValueError):
        tensor_decompose(A1, graded)
    # Weyl-symmetric support with impossible multiplicities
    bogus = summed(weyl_character(A1, (2,)), scaled(weyl_character(A1, (0,)), -3))
    assert bogus.is_w_invariant()
    with pytest.raises(ValueError):
        tensor_decompose(A1, bogus)


# ---------------------------------------------------------------------------
# surjections


def test_identity_surjection():
    product = weyl_character(A2, (1, 0)) * weyl_character(A2, (1, 1))
    decomp = tensor_decompose(A2, product)
    ok, witness = surjection_exists(decomp, decomp)
    assert ok and witness is None


def test_rank1_surjection_pair():
    source = weyl_character(A1, (1,)) * weyl_character(A1, (1,))
    target = weyl_character(A1, (2,)) * weyl_character(A1, (0,))
    src, tgt = tensor_decompose(A1, source), tensor_decompose(A1, target)
    ok, _ = surjection_exists(src, tgt)
    assert ok
    ok, witness = surjection_exists(tgt, src)
    assert not ok and witness == (0,)


def test_conjecture_condition_examples():
    assert min_condition_failure(A1, ((1,), (2,)), ((1,), (2,))) is None
    assert min_condition_failure(A1, ((1,), (1,)), ((2,), (0,))) == 0
    assert min_condition_failure(A1, ((2,), (0,)), ((1,), (1,))) is None


def test_min_condition_failure_names_the_first_failing_root():
    lower, upper = ((1, 1), (0, 1)), ((1, 0), (0, 2))
    # alpha_1 passes (0 <= 0); alpha_2 fails: min(1, 1) = 1 > min(0, 2) = 0
    idx = min_condition_failure(A2, lower, upper)
    assert A2.positive_roots[idx].root_coords == (0, 1)
    for i in range(idx):
        assert min(A2.pairing(w, i) for w in lower) <= min(A2.pairing(w, i) for w in upper)
    assert min_condition_failure(A2, upper, lower) is None


def test_conditions_imply_domination_in_a_small_sweep():
    # direction sanity on B2: every condition-satisfying tuple dominates
    box = dominant_box(B2, 1)
    for lam1 in box:
        for lam2 in box:
            total = B2.add(lam1, lam2)
            for mu1 in box:
                mu2 = B2.sub(total, mu1)
                if any(c < 0 or c > 1 for c in mu2):
                    continue
                if min_condition_failure(B2, (lam1, lam2), (mu1, mu2)) is not None:
                    continue
                source = weyl_character(B2, mu1) * weyl_character(B2, mu2)
                target = weyl_character(B2, lam1) * weyl_character(B2, lam2)
                ok, witness = surjection_exists(
                    tensor_decompose(B2, source), tensor_decompose(B2, target)
                )
                assert ok, (lam1, lam2, mu1, mu2, witness)
