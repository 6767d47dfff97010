import hashlib
import itertools
import math
import re
import struct
from collections import Counter

import pytest

import conftest
from conftest import (
    affine_apply_word, affine_pairing, affine_reflect, demazure_weyl_character, dominant_box, fermionic_isotypic,
    is_affine_dominant, monomial, q_binomial, q_system, root_coords_oracle, seeded, tuple_chain,
    tuple_demazure_from, weyl_kac_defect, tuple_demazure_operator, chari_summands,
)
from demkit import affine, rootsystem
from demkit.affine import (
    AffineWeight,
    affine_irreducible_character_truncated,
    demazure_character,
    graded_isotypic,
    kr_character,
    presentation,
    straighten,
)
from demkit.charalg import GradedCharacter
from demkit.finite import isotypic_character, tensor_decompose, weyl_character
from demkit.rootsystem import root_system

A1 = root_system("A1")
A2 = root_system("A2")
B2 = root_system("B2")


# ---------------------------------------------------------------------------
# affine weights


def test_affine_pairing_examples():
    for level in (1, 2, 5):
        assert affine_pairing(A1, AffineWeight((0,), level, 0), 0) == level
    assert affine_pairing(A1, AffineWeight((2,), 1, 0), 0) == -1
    # the delta coefficient never feeds any pairing
    for i in (0, 1):
        assert affine_pairing(A1, AffineWeight((2,), 1, 7), i) == \
            affine_pairing(A1, AffineWeight((2,), 1, 0), i)
    with pytest.raises(ValueError):
        affine_pairing(A1, AffineWeight((0,), 1, 0), 2)


def test_affine_reflect_examples():
    # zero pairing against the affine coroot fixes the weight
    fixed = AffineWeight((1,), 1, 0)
    assert affine_pairing(A1, fixed, 0) == 0
    assert affine_reflect(A1, fixed, 0) == fixed
    moved = affine_reflect(A1, AffineWeight((2,), 1, 0), 0)
    assert moved == AffineWeight((0,), 1, 1)
    # finite letters act through the finite reflection, delta untouched
    aw = AffineWeight((2, 1), 3, 5)
    out = affine_reflect(A2, aw, 1)
    assert out.finite == A2.reflect(1, (2, 1)) and out.delta == 5 and out.level == 3


def test_affine_reflect_is_an_involution():
    rng = seeded("affine-involution")
    for _ in range(50):
        aw = AffineWeight(tuple(rng.randint(-4, 4) for _ in range(2)), rng.randint(1, 3), rng.randint(-2, 2))
        for i in range(3):
            assert affine_reflect(A2, affine_reflect(A2, aw, i), i) == aw
            assert affine_reflect(A2, aw, i).level == aw.level


# ---------------------------------------------------------------------------
# straightening


def test_straighten_already_dominant():
    aw = AffineWeight((0,), 2, 0)
    top, word = straighten(A1, aw)
    assert top == aw and word == ()


def test_straighten_two_step_example():
    top, word = straighten(A1, AffineWeight((-2,), 1, 0))
    assert top == AffineWeight((0,), 1, 1)
    assert word == (0, 1)
    assert affine_apply_word(A1, word, top) == AffineWeight((-2,), 1, 0)


def test_straighten_one_step_example():
    top, word = straighten(A1, AffineWeight((-1,), 1, 0))
    assert len(word) == 1 and top == AffineWeight((1,), 1, 0)


def test_straighten_rejects_level_zero():
    with pytest.raises(ValueError):
        straighten(A1, AffineWeight((0,), 0, 0))


def test_straighten_step_cap_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(rootsystem, "WALK_STEP_CAP", 3)
    with pytest.raises(RuntimeError, match="exceeded 3 steps"):
        straighten(A1, AffineWeight((-40,), 1, 0))


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "C3", "D4", "F4"])
def test_walk_length_is_counted_before_the_walk(monkeypatch, name):
    # straighten counts the walk's steps up front, one per positive real
    # root that pairs negatively: a cap of exactly that many refuses the
    # weight, with the chamber walk's own cap untouched, and one more lets
    # the same walk through
    rs = root_system(name)
    rng = seeded(f"walk-length-{name}")
    for _ in range(40):
        aw = AffineWeight(tuple(rng.randint(-9, 9) for _ in range(rs.rank)), rng.randint(1, 4), 0)
        length = len(rs._to_dominant(aw.finite, aw.level)[1])
        monkeypatch.setattr(affine, "WALK_STEP_CAP", length + 1)
        assert len(straighten(rs, aw)[1]) == length
        monkeypatch.setattr(affine, "WALK_STEP_CAP", length)
        with pytest.raises(RuntimeError, match=f"exceeded {length} steps from "):
            straighten(rs, aw)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "C3", "D4"])
def test_straighten_replay_and_wall_crossings(name):
    rs = root_system(name)
    rng = seeded(f"straighten-{name}")
    for _ in range(40):
        aw = AffineWeight(tuple(rng.randint(-4, 4) for _ in range(rs.rank)), rng.randint(1, 3), 0)
        top, word = straighten(rs, aw)
        assert is_affine_dominant(rs, top)
        # descending replay: every step sees a strictly positive pairing,
        # so each letter crosses exactly one wall and the word is reduced
        cur = top
        for letter in word:
            assert affine_pairing(rs, cur, letter) > 0
            cur = affine_reflect(rs, cur, letter)
        assert cur == aw
        # ascending replay mirrors it with strictly negative pairings, each
        # letter the smallest node that pairs negatively
        for letter in reversed(word):
            negative = [i for i in range(rs.rank + 1) if affine_pairing(rs, cur, i) < 0]
            assert negative[0] == letter
            cur = affine_reflect(rs, cur, letter)
        assert cur == top


# ---------------------------------------------------------------------------
# the operators


def unpack_weight(rs, key):
    """The weight of a packed chain key, read field by field; field 0 must
    hold minus its pairing with the highest coroot."""
    bits = 8 * struct.calcsize(affine._FIELD)
    fields = [(key >> bits * j & (1 << bits) - 1) - (1 << bits - 1) for j in range(rs.rank + 1)]
    weight = tuple(fields[1:])
    assert fields[0] == -rs.theta_pairing(weight) and key >> bits * (rs.rank + 1) == 0
    return weight


# the packed kernel under test: 32-bit digits hold every multiplicity these
# tests make, and every grade is raised by 64, more than any string here
# walks down, so no node-0 string goes below grade 0
WIDTH, RAISE = 32, 64


def packed_operator(rs, i, char, level):
    """The library's operator on a character: each weight's grades packed
    into one polynomial at X = 2**WIDTH and multiplied by X**RAISE (D_0
    commutes with multiplying by a power of q), the operator applied, the
    result read back in balanced signed digits and lowered again."""
    polys = {}
    for (w, g), m in char.terms.items():
        key = affine._pack(rs, w)
        polys[key] = polys.get(key, 0) + (m << WIDTH * (g + RAISE))
    out = affine.demazure_operator(rs, i, affine._Chain(polys, WIDTH), level)
    assert out.width == WIDTH and all(out.terms.values())  # a cancelled weight leaves the chain
    half, terms = 1 << WIDTH - 1, {}
    for key, p in out.terms.items():
        w, g = unpack_weight(rs, key), -RAISE
        while p:
            m = (p + half & (1 << WIDTH) - 1) - half
            if m:
                terms[w, g] = m
            p = p - m >> WIDTH
            g += 1
    return GradedCharacter(rs, terms)


# every operator test runs on the library's packed kernel and on the
# tuple-key oracle of conftest
KERNELS = (packed_operator, tuple_demazure_operator)


def test_operator_fixes_zero_pairing_monomial():
    x = monomial(A2, (0, 1))
    for operator in KERNELS:
        assert operator(A2, 1, x, 0) == x


def test_operator_kills_pairing_minus_one():
    x = monomial(A2, (-1, 0))
    for operator in KERNELS:
        assert operator(A2, 1, x, 0).terms == {}


def test_operator_zero_string_at_level():
    x = monomial(A1, (0,), 1)  # pairing with node 0 is 1 at level 1
    for operator in KERNELS:
        assert operator(A1, 0, x, level=1).terms == {((0,), 1): 1, ((2,), 0): 1}


def test_operator_negative_string():
    # pairing -2 contributes the interior of the string, negated
    x = monomial(A1, (-2,))
    for operator in KERNELS:
        assert operator(A1, 1, x, 0).terms == {((0,), 0): -1}


def test_operators_are_idempotent():
    rng = seeded("idempotent")
    for _ in range(50):
        terms = {}
        for _ in range(5):
            w = tuple(rng.randint(-3, 3) for _ in range(2))
            terms[(w, rng.randint(0, 2))] = rng.randint(-4, 4)
        x = GradedCharacter(A2, terms)
        level = rng.randint(1, 3)
        for i in range(3):
            results = []
            for operator in KERNELS:
                once = operator(A2, i, x, level)
                assert operator(A2, i, once, level) == once
                results.append(once)
            assert results[0] == results[1]


def mirror(rs, i, key, level):
    """s_i of a (weight, grade) key; at node 0 the level enters."""
    aw = affine_reflect(rs, AffineWeight(key[0], level, key[1]), i)
    return aw.finite, aw.delta


def keys_pairing(rs, i, level, k, span=6):
    """Every weight in the box -span..span (at grade 0) pairing k with node i."""
    return [(w, 0) for w in itertools.product(range(-span, span + 1), repeat=rs.rank)
            if affine_pairing(rs, AffineWeight(w, level, 0), i) == k]


@pytest.mark.parametrize("name", ["A2", "G2"])
@pytest.mark.parametrize("k", [-1, -2, -5])
def test_lone_negative_term_walks_its_absent_mirror(name, k):
    # a term pairing k < 0 with no mirror in the input gives minus the
    # interior of its string, |k| - 1 terms, exactly as the oracle does
    rs = root_system(name)
    for level in (1, 2, 3):
        for i in range(rs.rank + 1):
            keys = keys_pairing(rs, i, level, k)[:3]
            assert keys
            for key in keys:
                x = GradedCharacter(rs, {key: 3})
                out = packed_operator(rs, i, x, level)
                assert out == tuple_demazure_operator(rs, i, x, level)
                assert sorted(out.terms.values()) == [-3] * (-k - 1)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "C3"])
def test_symmetric_strings_pass_through(name):
    # D_i fixes e^w + e^(s_i w), so an s_i-symmetric input comes back unchanged
    rs = root_system(name)
    rng = seeded(f"symmetric-{name}")
    for _ in range(30):
        level, i = rng.randint(1, 3), rng.randint(0, rs.rank)
        terms = {}
        for _ in range(rng.randint(1, 6)):
            key = (tuple(rng.randint(-8, 8) for _ in range(rs.rank)), rng.randint(-3, 3))
            m = rng.randint(-4, 4) or 1
            terms[key] = terms[mirror(rs, i, key, level)] = m
        x = GradedCharacter(rs, terms)
        for operator in KERNELS:
            assert operator(rs, i, x, level) == x


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "C3"])
def test_packed_kernel_matches_the_oracle_on_any_character(name):
    # random characters, not Demazure chains: lone terms, mirror pairs with
    # equal and unequal multiplicities, and terms that cancel part of a
    # string to zero; G2's coordinates reach strings of 25 terms and more,
    # and node 0 runs at levels 1-3
    rs = root_system(name)
    rng = seeded(f"kernel-{name}")
    span = 12 if name == "G2" else 6
    cancelled = empty = longest = 0
    node0_levels = set()
    for _ in range(150):
        level, i = rng.randint(1, 3), rng.randint(0, rs.rank)
        if i == 0:
            node0_levels.add(level)
        terms = {}
        for _ in range(rng.randint(1, 8)):
            key = (tuple(rng.randint(-span, span) for _ in range(rs.rank)), rng.randint(-3, 3))
            m = rng.randint(-4, 4) or 1
            terms[key] = m
            shape = rng.random()
            if shape < 0.2:
                terms[mirror(rs, i, key, level)] = m
            elif shape < 0.4:
                terms[mirror(rs, i, key, level)] = rng.randint(-4, 4) or 1
            elif shape < 0.7:
                # minus one inner term of the string: its key cancels
                string = tuple_demazure_operator(rs, i, GradedCharacter(rs, {key: m}), level)
                if string.terms:
                    inner = rng.choice(sorted(string.terms))
                    if inner != key:
                        terms[inner] = -string.terms[inner]
        x = GradedCharacter(rs, terms)
        out = packed_operator(rs, i, x, level)
        assert out == tuple_demazure_operator(rs, i, x, level)
        cancelled += any(key not in out.terms for key in x.terms)
        empty += not out.terms
        longest = max(longest, *(abs(affine_pairing(rs, AffineWeight(w, level, 0), i)) for w, _ in x.terms))
    assert cancelled and empty and longest >= (24 if name == "G2" else 12)
    assert node0_levels == {1, 2, 3}


def test_packed_terms_round_trip():
    # negative weight fields, full digits at every digit size (struct's
    # four and two wider ones) survive packing, and the terms come out in
    # sorted (weight, grade) order
    rs = root_system("B3")
    rng = seeded("pack")
    delta = 9
    for size in (1, 2, 4, 8, 3, 16):
        width = 8 * size
        terms, chain = {}, {}
        for _ in range(200):
            w = tuple(rng.randint(-50, 50) for _ in range(3))
            key = affine._pack(rs, w)
            if key in chain:
                continue
            grades = sorted(rng.sample(range(delta + 1), rng.randint(1, 4)))
            mults = [rng.choice((1, (1 << width) - 1, rng.randint(1, (1 << width) - 1))) for _ in grades]
            terms.update(((w, g), m) for g, m in zip(grades, mults))
            chain[key] = sum(m << width * g for g, m in zip(grades, mults))
        out = affine._unpack(rs, affine._Chain(chain, width), delta)
        assert list(out.terms.items()) == sorted(terms.items())


def test_unpack_refuses_what_does_not_decode():
    # one-byte digits at grades 0..1: a negative value and a digit above
    # grade 1 are internal errors, also beside a weight that decodes; the
    # decode checks no sum, which is each builder's (see
    # test_each_builder_checks_its_total)
    key, other = affine._pack(A2, (1, 0)), affine._pack(A2, (0, 1))
    value = 3 + (2 << 8)
    assert affine._unpack(A2, affine._Chain({key: value, other: 1}, 8), 1).terms == {
        ((0, 1), 0): 1, ((1, 0), 0): 3, ((1, 0), 1): 2,
    }
    for bad in (-value, value + (1 << 16), -1):
        with pytest.raises(RuntimeError, match=r"^internal error: the grade polynomial of weight \(1, 0\) "):
            affine._unpack(A2, affine._Chain({key: bad, other: 1}, 8), 1)


def test_each_builder_checks_its_total(monkeypatch):
    # A3 (3,3,3) at level 2 has no dimension up front; with one-byte digits
    # its multiplicities carry and the digits of the whole word fall short
    # of its grade-free total, the module's dimension
    A3 = root_system("A3")
    with monkeypatch.context() as patch:
        patch.setattr(affine, "_digit_bytes", lambda bound: 1)
        with pytest.raises(RuntimeError, match="^internal error: the graded Demazure chain's 8-bit digits sum"
                           " to 102770, not to the module's dimension 140000$"):
            demazure_character(A3, 2, (3, 3, 3))
    # one more copy of the top monomial in the D_u chain: its digits exceed
    # the grade-free total where no dimension is known, and Bott's rule
    # gives dim D + dim V(top) where the paper's factorization gives dim D
    real = affine._demazure_from

    def one_more(rs, level, top, word, bound):
        char = real(rs, level, top, word, bound)
        key = (top.finite, top.delta)
        return GradedCharacter(rs, {**char.terms, key: char.terms[key] + 1})

    monkeypatch.setattr(affine, "_demazure_from", one_more)
    for rs, level, weight, error in [(A3, 2, (1, 1, 1), "totals 3, not 2"), (B2, 1, (1, 1), "totals 24, not 20")]:
        assert (affine._dimension(rs, level, weight) is None) == (rs is A3)
        with pytest.raises(RuntimeError, match=rf"^internal error: the level-{level} module of "
                           rf"{re.escape(str(weight))} {error}$"):
            graded_isotypic(rs, level, weight)


@pytest.mark.parametrize("name,level,weight", [("A2", 2, (2, 1)), ("C3", 2, (0, 2, 0)), ("G2", 1, (0, 1))])
def test_unpack_consumes_its_chain(monkeypatch, name, level, weight):
    # the decode pops every weight's value from the chain it is given, so
    # the chain is empty once the character is made: on a build sized up
    # front its one chain, and on G2's, sized by the D_u route, the D_u
    # chain and then the full word's
    rs, unpack, seen = root_system(name), affine._unpack, []

    def recording(rs, chain, delta):
        seen.append((chain.terms, len(chain.terms)))
        return unpack(rs, chain, delta)

    monkeypatch.setattr(affine, "_unpack", recording)
    char = demazure_character(rs, level, weight)
    assert [terms for terms, _ in seen] == [{}] * (1 + (name == "G2"))
    assert seen[-1][1] == len({w for w, _ in char.terms})
    assert (affine._dimension(rs, level, weight) is not None) == (name != "G2")


@pytest.mark.parametrize("name,level,weight", [("A1", 2, (3,)), ("A2", 2, (2, 1)), ("G2", 1, (1, 1))])
def test_unpack_decodes_each_weight_once(name, level, weight):
    """Every grade of a weight shares one weight tuple, also after a round
    trip through the character file."""
    char = demazure_character(root_system(name), level, weight)
    weights = {w for w, _ in char.terms}
    assert len(char.terms) > len(weights)  # some weight carries several grades
    back = GradedCharacter.from_jsonl(char.to_jsonl(kind="graded"))
    assert back == char
    for ch in (char, back):
        assert len({id(w) for w, _ in ch.terms}) == len(weights)


# ---------------------------------------------------------------------------
# Demazure characters


def test_level1_fundamental_is_grade_zero():
    ch = demazure_character(A1, 1, (1,))
    assert ch.is_plain
    assert ch == weyl_character(A1, (1,))
    assert ch.dimension() == 2


def test_level1_twice_fundamental_hand_values():
    ch = demazure_character(A1, 1, (2,))
    assert ch.dimension() == 4
    assert ch.graded_dimension() == {0: 3, 1: 1}
    assert ch.terms == {
        ((2,), 0): 1, ((0,), 0): 1, ((-2,), 0): 1, ((0,), 1): 1,
    }


def test_level_zero_is_the_trivial_module():
    assert demazure_character(A2, 0, (0, 0)) == GradedCharacter.unit(A2)
    with pytest.raises(ValueError):
        demazure_character(A2, 0, (1, 0))


def test_zero_weight_gives_unit_at_any_level():
    for level in (1, 2, 3):
        assert demazure_character(B2, level, (0, 0)) == GradedCharacter.unit(B2)


def test_rejects_non_dominant():
    with pytest.raises(ValueError):
        demazure_character(A1, 1, (-1,))


@pytest.mark.parametrize("name", ["A1", "A2", "B2"])
def test_demazure_postconditions(name):
    rs = root_system(name)
    rng = seeded(f"dempost-{name}")
    for _ in range(12):
        lam = tuple(rng.randint(0, 3) for _ in range(rs.rank))
        level = rng.randint(1, 2)
        ch = demazure_character(rs, level, lam)
        assert min(g for _, g in ch.terms) == 0
        assert ch.slice(0) == weyl_character(rs, lam)
        assert ch.terms.get((lam, 0)) == 1
        assert ch.collapse().is_w_invariant()


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C3", "G2"])
def test_finite_word_consistency(name):
    # operators along the longest word against the multiplicity recursion:
    # two pipelines sharing no algorithmic step, exact equality
    rs = root_system(name)
    bound = 3 if rs.rank <= 3 else 2
    for lam in dominant_box(rs, bound)[: 40]:
        assert demazure_weyl_character(rs, lam) == weyl_character(rs, lam)


# ---------------------------------------------------------------------------
# graded isotypic decomposition: D_u and Bott's rule against the full word


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"])
def test_graded_isotypic_matches_the_full_word(name, level):
    # the 0/1 box, plus level*theta + omega_i so that every level reaches
    # grades above 0
    rs = root_system(name)
    weights = set(dominant_box(rs, 1)) | {
        rs.add(rs.scale(level, rs.theta.coords), rs.fundamental_weight(i))
        for i in range(1, rs.rank + 1)
    }
    for lam in sorted(weights):
        full = demazure_character(rs, level, lam)
        components = graded_isotypic(rs, level, lam)
        assert all(m > 0 for m in components.values())
        assert isotypic_character(rs, components).to_jsonl(kind="graded") == full.to_jsonl(kind="graded")
        summed = {}
        for (mu, _), m in components.items():
            summed[mu] = summed.get(mu, 0) + m
        assert summed == tensor_decompose(rs, full.collapse())


# the fermionic formula: for simply-laced g, D(level, level * sum_a s_a
# omega_a) is the fusion product of the KR modules (W^(a)_level)^(s_a)
# (Fourier-Littelmann 2007), whose graded multiplicities are the M-sum of
# conftest (X = M: Di Francesco-Kedem 2008, Naoi 2012); the M-sum shares
# no step with Demazure operators or Bott's rule, so it checks every grade
# above 0 from outside the chain (system, level, s)
FERMIONIC = (
    [("A1", level, (s,)) for level in (1, 2, 3) for s in range(1, 5)]
    + [("A2", level, s) for level in (1, 2) for s in itertools.product(range(3), repeat=2) if any(s)]
    + [(name, level, s) for name, rank, levels in [("A3", 3, (1, 2)), ("A4", 4, (1,)), ("D4", 4, (1,))]
       for level in levels for s in itertools.product(range(2), repeat=rank) if any(s)]
    + [("E6", 1, tuple(int(i == a) for i in range(6))) for a in range(6)]
    + [("A1", 1, (17,)), ("A1", 2, (11,)), ("A1", 2, (8,)), ("A1", 3, (7,)), ("A2", 1, (4, 4)),
       ("A2", 2, (3, 2)), ("A2", 3, (2, 1)), ("A3", 1, (2, 1, 2)), ("A3", 3, (1, 1, 1)),
       ("A4", 2, (1, 1, 1, 1)), ("D4", 1, (0, 2, 0, 0)), ("D4", 1, (1, 1, 1, 1)), ("D4", 2, (0, 1, 0, 0)),
       ("A5", 1, (1, 0, 1, 0, 1)), ("D5", 1, (1, 0, 0, 0, 1))]
)


def test_graded_isotypic_is_the_fermionic_sum(monkeypatch):
    widths, real = [], affine._digit_bytes
    monkeypatch.setattr(affine, "_digit_bytes", lambda bound: widths.append(real(bound)) or widths[-1])
    components = above_zero = 0
    wide = []  # the modules whose chain has 32-bit digits
    for name, level, s in FERMIONIC:
        rs = root_system(name)
        got = graded_isotypic(rs, level, tuple(level * c for c in s))
        assert fermionic_isotypic(rs, level, s) == got, (name, level, s)
        components += len(got)
        above_zero += sum(g > 0 for _, g in got)
        if widths.pop() == 4:
            wide.append((name, level, s))
    assert (len(FERMIONIC), components, above_zero) == (93, 1992, 1899)
    # three modules need 32-bit digits: dimensions 2**17, 3**11 and 562,500
    assert wide == [("A1", 1, (17,)), ("A1", 2, (11,)), ("A4", 2, (1, 1, 1, 1))]


def test_the_fermionic_sum_sees_a_unit_moved_to_the_next_grade(monkeypatch):
    # one unit of a component's multiplicity moved up one grade in the D_u
    # chain keeps the digit sum and Bott's total, so graded_isotypic's own
    # checks pass; the M-sum tells the grades apart
    rs, level, s, weight = A2, 2, (1, 1), (2, 2)
    right = graded_isotypic(rs, level, weight)
    real, moved = affine._demazure_from, []

    def move_one(rs, level, top, word, bound):
        terms = dict(real(rs, level, top, word, bound).terms)
        mu, g = key = next(key for key in terms if key[1] > 0 and key in right)
        terms[key] -= 1
        terms[mu, g + 1] = terms.get((mu, g + 1), 0) + 1
        moved.append(key)
        return GradedCharacter(rs, {k: m for k, m in terms.items() if m})

    monkeypatch.setattr(affine, "_demazure_from", move_one)
    wrong = graded_isotypic(rs, level, weight)
    (mu, g), = moved
    diff = {k: wrong.get(k, 0) - right.get(k, 0) for k in wrong.keys() | right.keys()}
    assert {k: d for k, d in diff.items() if d} == {(mu, g): -1, (mu, g + 1): 1}
    assert fermionic_isotypic(rs, level, s) == right != wrong


# the M-sum off the simply-laced types, where t_a = d_a enters the KR
# lengths, the form B and the module D(level, sum_a s_a t_a level omega_a):
# B2, C2 at levels 1-2 with s in {0,1,2}^2; G2 at level 1 with s in
# {0,1,2}^2, and at level 2 with s = (1,0), (0,1), (1,1); B3, C3 at levels
# 1-2 with s in {0,1}^3; B4, C4 at level 1 with |s| <= 2; F4 at level 1 at
# nodes 1, 2, 4 and at level 2 at node 1.  Each M-sum dropped here takes
# 0.13-10 s on a 2-vCPU host; all of them agree too (system, level, s)
SLOW_M_SUMS = {
    ("G2", 1, (2, 1)), ("G2", 1, (2, 2)), ("B3", 2, (0, 1, 1)), ("B3", 2, (1, 1, 1)), ("C3", 2, (0, 1, 1)),
    ("C3", 2, (1, 1, 0)), ("C3", 2, (1, 1, 1)), ("C4", 1, (1, 0, 1, 0)), ("C4", 1, (0, 0, 1, 1)),
    ("C4", 1, (0, 2, 0, 0)), ("C4", 1, (0, 1, 1, 0)), ("C4", 1, (0, 0, 2, 0)),
}
FERMIONIC_BY_LENGTHS = [
    module for module in
    [(name, level, s) for name in ("B2", "C2") for level in (1, 2)
     for s in itertools.product(range(3), repeat=2)]
    + [("G2", 1, s) for s in itertools.product(range(3), repeat=2)]
    + [("G2", 2, (1, 0)), ("G2", 2, (0, 1)), ("G2", 2, (1, 1))]
    + [(name, level, s) for name in ("B3", "C3") for level in (1, 2)
       for s in itertools.product(range(2), repeat=3)]
    + [(name, 1, s) for name in ("B4", "C4") for s in itertools.product(range(3), repeat=4) if sum(s) <= 2]
    + [("F4", 1, (1, 0, 0, 0)), ("F4", 1, (0, 1, 0, 0)), ("F4", 1, (0, 0, 0, 1)), ("F4", 2, (1, 0, 0, 0))]
    if any(module[2]) and module not in SLOW_M_SUMS
]


def test_graded_isotypic_is_the_fermionic_sum_on_every_type():
    components = above_zero = 0
    for name, level, s in FERMIONIC_BY_LENGTHS:
        rs = root_system(name)
        got = graded_isotypic(rs, level, tuple(c * t * level for c, t in zip(s, rs.d_simple)))
        assert fermionic_isotypic(rs, level, s) == got, (name, level, s)
        components += len(got)
        above_zero += sum(g > 0 for _, g in got)
    assert (len(FERMIONIC_BY_LENGTHS), components, above_zero) == (91, 2026, 1935)


def _binomial_in_q_to_the_t(rs, a, n, k):
    t, binomial = rs.d_simple[a], q_binomial(n, k)
    spread = [0] * (t * (len(binomial) - 1) + 1)
    spread[::t] = binomial
    return tuple(spread)


@pytest.mark.parametrize("helper,mutant", [
    ("m_sum_form", lambda rs, a, i, b, k: rs.cartan[a][b] * min(i, k)),
    ("m_sum_length", lambda rs, a, level: level),
    ("m_sum_binomial", _binomial_in_q_to_the_t),
], ids=["simply-laced-form", "length-level", "binomial-in-q-to-the-t"])
def test_the_fermionic_sum_sees_each_simply_laced_shortcut(monkeypatch, helper, mutant):
    # each shortcut agrees with the M-sum wherever t_a = 1; B2 level 1
    # s=(0,2) and G2 level 1 s=(1,1) tell every one of them apart, and only
    # these two among the small modules see the binomial in q^t_a
    modules = [("B2", 1, (0, 2)), ("G2", 1, (1, 1))]
    assert all(module in FERMIONIC_BY_LENGTHS for module in modules)
    monkeypatch.setattr(conftest, helper, mutant)
    for name, level, s in modules:
        rs = root_system(name)
        got = graded_isotypic(rs, level, tuple(c * t * level for c, t in zip(s, rs.d_simple)))
        assert fermionic_isotypic(rs, level, s) != got, (helper, name, level, s)
    assert fermionic_isotypic(A2, 2, (1, 1)) == graded_isotypic(A2, 2, (2, 2))


def _exceeding(source, target):
    """The (lam, grade) components of ``target`` whose multiplicity exceeds
    that of ``source``."""
    return [key for key, m in target.items() if source.get(key, 0) < m]


# (system, largest coordinate of w): every dominant w in that box
DOMINATION_SWEEP = [("A1", 12), ("A2", 6), ("B2", 5), ("C2", 5), ("G2", 3), ("A3", 3), ("B3", 2), ("C3", 2),
                    ("D4", 2), ("A4", 2), ("F4", 1)]


def test_graded_isotypic_dominates_across_levels():
    # for m < level, D(m, w) maps onto D(level, w) as graded modules
    # (\cite{chfsa}; verify genschurpos's claim), so every (lam, grade)
    # multiplicity at level m is at least the one at level; tight counts
    # the components above grade 0 where the two are equal
    pairs = differing = tight = 0
    for name, largest in DOMINATION_SWEEP:
        rs = root_system(name)
        for w in itertools.product(range(largest + 1), repeat=rs.rank):
            modules = [graded_isotypic(rs, level, w) for level in range(1, 5)]
            for source, target in itertools.combinations(modules, 2):
                assert _exceeding(source, target) == [], (name, w)
                pairs += 1
                differing += source != target
                tight += sum(g > 0 and source[lam, g] == m for (lam, g), m in target.items())
    assert (pairs, differing, tight) == (2676, 2260, 10799)


def test_domination_sees_one_unit_added_to_a_target_component():
    rs, w = A2, (3, 3)
    source, target = graded_isotypic(rs, 1, w), graded_isotypic(rs, 2, w)
    assert source != target and _exceeding(source, target) == []
    for key in target:
        raised = {**target, key: target[key] + 1}
        assert _exceeding(source, raised) == ([key] if source[key] == target[key] else [])
    assert any(g > 0 and source[lam, g] == m for (lam, g), m in target.items())


# every type of rank <= 5 with E6, F4 and G2, at levels 1-3: the
# fundamental weights, and the KR weights of the two end nodes
CHAIN_SWEEP = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "D5",
               "E6", "F4", "G2"]


class RecordingTerms(dict):
    """A chain's terms that record every key looked up with ``get`` or
    ``in``: the keys the operator reads besides the ones it writes."""

    def __init__(self, terms, reads):
        super().__init__(terms)
        self.reads = reads

    def get(self, key, default=None):
        self.reads.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.reads.add(key)
        return super().__contains__(key)


@pytest.mark.parametrize("name", CHAIN_SWEEP)
def test_demazure_chain_matches_the_tuple_oracle(monkeypatch, name):
    # both routes through the library's chain against the same routes
    # through the tuple-key chain of conftest, byte for byte and in term
    # order, each dimension known up front against the chain's, and every
    # multiplicity of either route's chain within the bound that sizes its
    # digits; every key the oracle chain writes and every key the library
    # chain looks up (in each of its passes) is a weight of the module, so
    # its pairings with the simple coroots and with the highest coroot stay
    # within sum over positive roots beta of (top + delta*theta)(h_beta),
    # and every grade the oracle writes within 0..delta; the library's
    # terms come out in sorted (weight, grade) order
    rs = root_system(name)
    cases = sorted({
        (level, weight)
        for level in (1, 2, 3)
        for weight in [rs.fundamental_weight(i) for i in range(1, rs.rank + 1)]
        + [rs.kr_weight(1, level), rs.kr_weight(rs.rank, level)]
    })
    touched, reads, sized = set(), set(), []
    chain = affine._Chain

    def oracle(rs, level, top, word, bound):
        char = tuple_chain(rs, level, top, word, touched)
        assert max(char.terms.values()) <= bound
        return char

    for level, weight in cases:
        reads.clear()
        with monkeypatch.context() as patch:
            patch.setattr(affine, "_Chain", lambda terms, width: chain(RecordingTerms(terms, reads), width))
            full = demazure_character(rs, level, weight)
            components = graded_isotypic(rs, level, weight)
        assert list(full.terms) == sorted(full.terms)
        dim = affine._dimension(rs, level, weight)
        assert dim in (None, full.dimension())
        sized.append(dim is not None)
        touched.clear()
        with monkeypatch.context() as patch:
            patch.setattr(affine, "_demazure_from", oracle)
            assert demazure_character(rs, level, weight).to_jsonl(kind="graded") == full.to_jsonl(kind="graded")
            assert list(graded_isotypic(rs, level, weight).items()) == list(components.items())
        top, _ = straighten(rs, AffineWeight(weight, level, 0))
        nu = rs.add(top.finite, rs.scale(top.delta, rs.theta.coords))
        bound = sum(rs.pairings(nu))
        looked_up = [unpack_weight(rs, key) for key in reads]
        for weights in ([w for w, _ in touched], looked_up):
            assert max(abs(c) for w in weights for c in (*w, rs.theta_pairing(w))) <= bound
        assert 0 <= min(g for _, g in touched) and max(g for _, g in touched) <= top.delta
    assert any(sized)


@pytest.mark.parametrize("name", CHAIN_SWEEP)
def test_width_zero_chain_is_the_collapse(monkeypatch, name):
    # a chain run without grades holds each weight's multiplicity summed
    # over grades: for the whole word that is the collapsed character, for
    # the straightening word alone the collapsed tuple-key chain of the
    # same word.  Only graded_isotypic runs one, on its own D_u word,
    # exactly when no dimension is known up front (also inside an unsized
    # demazure_character, which sizes its chain by the D_u route); no
    # builder runs the whole word without grades, so the test runs it (a
    # pass that sizes a factor inside ``_dimension`` runs another module's
    # word)
    rs = root_system(name)
    runs, run, sized = [], affine._run, 0

    def recording(rs, level, word, chain):
        out = run(rs, level, word, chain)
        if not chain.width:
            runs.append((level, word, dict(out.terms)))
        return out

    monkeypatch.setattr(affine, "_run", recording)
    for level in (1, 2, 3):
        for weight in [rs.fundamental_weight(i) for i in range(1, rs.rank + 1)] + [rs.kr_weight(1, level)]:
            known = affine._dimension(rs, level, weight) is not None
            assert known != unsized(rs, level, weight), (level, weight)
            runs.clear()
            full = demazure_character(rs, level, weight).collapse()
            graded_isotypic(rs, level, weight)
            part = tuple_demazure_from(rs, level, weight).collapse()
            full_word = affine._word(rs, level, affine._lowest(rs, weight))[1]
            assert all((lvl, word) != (level, full_word) for lvl, word, _ in runs)
            own = [terms for lvl, word, terms in runs if (lvl, word) == (level, affine._word(rs, level, weight)[1])]
            assert own == [] if known else own == [{affine._pack(rs, w): m for (w, _), m in part.terms.items()}] * 2
            runs.clear()
            assert grade_free_pass(rs, level, weight) == {affine._pack(rs, w): m for (w, _), m in full.terms.items()}
            assert [word for _, word, _ in runs] == [full_word]
            sized += known
    assert sized


def test_sized_graded_isotypic_applies_its_word_once(monkeypatch):
    # a module whose dimension is known up front runs one D_u chain: its
    # straightening word once, with grades, last, and no grade-free pass;
    # the chains before it size its KR factors past the level (B2's
    # D(1, 2*omega_2), C3's D(3, 6*omega_2), D4's D(2, 2*omega_2)), each
    # by its own module's words
    calls, runs = [], []
    operator, run = affine.demazure_operator, affine._run
    monkeypatch.setattr(affine, "demazure_operator",
                        lambda rs, i, chain, level: calls.append(i) or operator(rs, i, chain, level))
    monkeypatch.setattr(affine, "_run",
                        lambda rs, level, word, chain: runs.append((word, chain.width, len(calls)))
                        or run(rs, level, word, chain))
    for name, level, weight in [("A2", 2, (3, 1)), ("B2", 1, (6, 6)), ("C3", 3, (0, 6, 1)),
                                ("D4", 2, (2, 2, 0, 1))]:
        rs = root_system(name)
        assert affine._dimension(rs, level, weight) is not None
        calls.clear()
        runs.clear()
        graded_isotypic(rs, level, weight)
        word = straighten(rs, AffineWeight(weight, level, 0))[1]
        assert [(w, width > 0) for w, width, _ in runs if w == word] == [(word, True)], (name, weight)
        assert runs[-1][0] == word and calls[runs[-1][2]:] == list(word), (name, weight)
        assert (len(runs) > 1) == (name != "A2"), (name, weight)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2"])
def test_a_build_straightens_its_own_weight_once(monkeypatch, name):
    # the walk whose refusals come before the module's dimension is the
    # walk that builds it: a build straightens its own affine weight
    # (w0*weight, level, 0) once, whether its dimension is known up front
    # or not; a factor sized by a grade-free chain straightens only its own
    rs = root_system(name)
    seen, sized = Counter(), Counter()
    real = affine.straighten
    monkeypatch.setattr(affine, "straighten", lambda rs, aw: seen.update([aw]) or real(rs, aw))
    for level in (1, 2):
        for weight in [rs.fundamental_weight(i) for i in range(1, rs.rank + 1)] + [rs.kr_weight(1, level), rs.rho]:
            seen.clear()
            demazure_character(rs, level, weight)
            assert seen[AffineWeight(affine._lowest(rs, weight), level, 0)] == 1, (level, weight)
            sized[affine._dimension(rs, level, weight) is not None] += 1
    assert sized[True] and sized[False]


def grade_free_pass(rs, level, weight):
    """``{packed weight: multiplicity summed over grades}`` of D(level,
    weight): its whole word run once without grades."""
    top, word = affine._word(rs, level, affine._lowest(rs, weight))
    return affine._run(rs, level, word, affine._Chain({affine._pack(rs, top.finite): 1}, 0)).terms


def unsized(rs, level, weight):
    """Whether ``_dimension`` knows no size for D(level, weight), on every
    type: exactly when lam0(h_theta) > level, or the module is a lone KR
    module past the level, its own factor."""
    lam0 = tuple(c % (d * level) for c, d in zip(weight, rs.d_simple))
    lone = weight in {rs.kr_weight(a, level) for a in range(1, rs.rank + 1)}
    return rs.theta_pairing(lam0) > level or lone and rs.theta_pairing(weight) > level


def grade_free_total(rs, level, weight):
    """dim D(level, weight) as the total of its whole word's grade-free
    pass, a route no builder takes."""
    return sum(grade_free_pass(rs, level, weight).values())


E6_HAND = {
    1: [(1, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0),
        (1, 1, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 1)],
    2: [(2, 0, 0, 0, 0, 1), (1, 2, 0, 0, 0, 0), (1, 0, 0, 0, 0, 2), (0, 2, 0, 0, 0, 1), (2, 0, 0, 0, 0, 2)],
}


@pytest.mark.parametrize("name,levels", [
    *(pytest.param(name, (1, 2, 3), id=name) for name in ("A1", "A2", "A3", "A4", "D4", "B2", "B3", "C3", "G2")),
    pytest.param("E6", (1, 2), id="E6"),
])
def test_dimension_is_the_grade_free_total(name, levels):
    # the paper's factorization, with Weyl's formula for each level-dominant
    # KR factor and the D_u route for every other one, gives the total of
    # the module's whole word run without grades, on the 0/1 box and on
    # each KR weight plus the box (a hand list on E6, two of whose level-2
    # weights hold the factor D(2, 2*omega_2) past the level); on every
    # type, only a module whose lam0 lies past the level, or that is its
    # own factor and not level-dominant, gets None
    rs = root_system(name)
    known = 0
    for level in levels:
        if name == "E6":
            weights = E6_HAND[level]
        else:
            box = dominant_box(rs, 1)
            weights = set(box) | {rs.add(rs.kr_weight(a, level), w) for a in range(1, rs.rank + 1) for w in box}
        for weight in sorted(weights):
            dim = affine._dimension(rs, level, weight)
            assert (dim is None) == unsized(rs, level, weight), (level, weight)
            if dim is not None:
                known += 1
                assert dim == grade_free_total(rs, level, weight), (level, weight)
    assert known
    for a in range(1, rs.rank + 1):  # at level 1 omega_a is its own KR factor or its own lam0
        omega = rs.fundamental_weight(a)
        assert (affine._dimension(rs, 1, omega) is None) == (rs.theta_pairing(omega) > 1)


def test_chari_rule_gives_each_kr_module():
    # on 89 KR modules, B2-B5 and C2-C5 at every node and level <= 3 (<= 2
    # above node 2 from rank 4 on), D4-D6 at nodes a <= n - 2 and level <= 2
    # (1 above node 2 from rank 5 on), Chari's summands (conftest) are the
    # module's isotypic components, each of multiplicity 1, and their Weyl
    # dimensions sum to the total of its grade-free chain, to its D_u-route
    # dimension and, within the level, to Weyl's formula for the module's
    # own weight; so dropping the zero-weight unit or the factor 2 on C_n
    # is caught
    cases = [(f"{series}{n}", a, level) for series in "BC" for n in (2, 3, 4, 5) for a in range(1, n + 1)
             for level in range(1, 3 if n >= 4 and a > 2 else 4)]
    cases += [(f"D{n}", a, level) for n in (4, 5, 6) for a in range(1, n - 1)
              for level in range(1, 2 if n >= 5 and a > 2 else 3)]
    assert len(cases) == 74 + 15
    for name, a, level in cases:
        rs = root_system(name)
        weight = rs.kr_weight(a, level)
        components = Counter()
        for (mu, _), m in graded_isotypic(rs, level, weight).items():
            components[mu] += m
        summands = chari_summands(rs, level, a)
        assert components == Counter(summands) and len(set(summands)) == len(summands), (name, a, level)
        total = sum(map(rs.weyl_dimension, summands))
        assert total == grade_free_total(rs, level, weight) == affine._isotypic_dimension(rs, level, weight)
        assert affine._dimension(rs, level, weight) == (None if rs.theta_pairing(weight) > level else total)


def test_dimension_hand_values():
    B2, B3, D4 = root_system("B2"), root_system("B3"), root_system("D4")
    assert affine._dimension(D4, 1, (0, 1, 0, 0)) is None  # its own factor, past the level
    assert affine._isotypic_dimension(D4, 1, (0, 1, 0, 0)) == 28 + 1  # Chari: V(omega_2) + V(0)
    assert affine._dimension(root_system("E6"), 1, (0, 1, 0, 0, 0, 0)) is None  # its own factor
    assert affine._dimension(B3, 1, (1, 0, 0)) == 7  # V(omega_1), by Weyl's formula
    assert affine._dimension(root_system("A4"), 3, (1, 0, 1, 6)) == 45 * 35**2  # V(omega_1 + omega_3), V(3*omega_4)^2
    assert affine._dimension(B2, 1, (6, 6)) == 5**6 * 11**3  # 6 copies of V(omega_1), 3 of D_u-sized D(1, 2*omega_2)
    # Chari: sum over k <= 6 of dim V(k*omega_2)
    assert affine._isotypic_dimension(D4, 6, D4.kr_weight(2, 6)) == 146916
    for weight in [(1, 1, 1), (3, 1, 1)]:  # lam0 = (1,1,1), and lam0(h_theta) = 3 > 2
        assert affine._dimension(root_system("A3"), 2, weight) is None
    assert affine._isotypic_dimension(B3, 8, B3.kr_weight(2, 8)) == 197835  # the char benchmark's KR builds
    assert affine._isotypic_dimension(root_system("C3"), 5, (0, 10, 0)) == 774592
    for rs, level, weight in [(D4, 6, D4.kr_weight(2, 6)), (B3, 8, B3.kr_weight(2, 8)),
                              (root_system("C3"), 5, (0, 10, 0))]:
        assert affine._dimension(rs, level, weight) is None  # each its own factor, past the level
    assert affine._dimension(root_system("G2"), 2, (0, 2)) is None  # a KR module past the level, its own
    E6, E7 = root_system("E6"), root_system("E7")
    assert affine._dimension(E6, 2, (0, 2, 0, 0, 0, 1)) == 27 * (2430 + 78 + 1)  # V(omega_6), D_u-sized D(2, 2*omega_2)
    assert affine._dimension(E7, 2, E7.kr_weight(7, 2)) == 1463  # V(2*omega_7), by Weyl's formula
    assert affine._dimension(E6, 2, E6.kr_weight(2, 2)) is None  # its own factor, like G2's


@pytest.mark.parametrize("name,top", [("A2", 4), ("A3", 3), ("D4", 3), ("E6", 2)])
def test_q_system_gives_the_kr_dimensions(monkeypatch, name, top):
    # Q^(a)_m from the level-1 KR dimensions equals the dimension of the KR
    # module D(m, m*omega_a), built here with no dimension known up front;
    # each node takes the seeds within m - 1 steps of it and no others
    rs = root_system(name)
    monkeypatch.setattr(affine, "_dimension", lambda rs, level, weight: None)
    dims = [[kr_character(rs, m, a + 1).dimension() for a in range(rs.rank)] for m in range(top + 1)]
    adjacent = [{b for b, c in enumerate(row) if c == -1} for row in rs.cartan]
    for m in range(1, top + 1):
        assert list(q_system(rs, m, range(rs.rank), dims[1].__getitem__).values()) == dims[m]
        for a in range(rs.rank):
            seeds, near = [], {a}
            for _ in range(m - 1):
                near |= {b for c in near for b in adjacent[c]}
            value = q_system(rs, m, [a], lambda b: seeds.append(b) or dims[1][b])
            assert value == {a: dims[m][a]} and sorted(seeds) == sorted(near)


@pytest.mark.parametrize("size", [3, 16])
def test_digits_wider_than_struct_decode(monkeypatch, size):
    # a module whose multiplicities need more than 64 bits gets 128-bit
    # digits, which struct has no code for; forced digit sizes give the
    # same characters
    cases = [(A2, 1, (4, 4)), (B2, 2, (3, 2)), (root_system("G2"), 1, (1, 1))]
    expected = [demazure_character(rs, level, w) for rs, level, w in cases]
    monkeypatch.setattr(affine, "_digit_bytes", lambda counts: size)
    assert [demazure_character(rs, level, w) for rs, level, w in cases] == expected


def test_node_zero_guard_refuses_a_grade_below_zero():
    # A1 weight -2 pairs 3 with node 0 at level 1: its string would end 3
    # grades lower, and at grade 0 there is no room for it
    for grade in (0, 1, 2):
        chain = affine._Chain({affine._pack(A1, (-2,)): 1 << 8 * grade}, 8)
        with pytest.raises(RuntimeError, match="^internal error: a node-0 string of 3 steps"):
            affine.demazure_operator(A1, 0, chain, 1)
    chain = affine._Chain({affine._pack(A1, (-2,)): 1 << 8 * 3}, 8)
    assert len(affine.demazure_operator(A1, 0, chain, 1).terms) == 4


def test_graded_isotypic_small_cases():
    # V(2) at level 1 is V(2) + q V(0); level 0 is the trivial module
    assert graded_isotypic(A1, 1, (2,)) == {((2,), 0): 1, ((0,), 1): 1}
    assert graded_isotypic(A2, 0, (0, 0)) == {((0, 0), 0): 1}
    with pytest.raises(ValueError):
        graded_isotypic(A1, 1, (-1,))
    with pytest.raises(ValueError):
        graded_isotypic(A1, 0, (1,))


# ---------------------------------------------------------------------------
# Kirillov-Reshetikhin characters


def test_kr_level1_rank1():
    assert kr_character(A1, 1, 1) == weyl_character(A1, (1,))


def test_kr_is_evaluation_for_table_nodes():
    # A2 node 1 at level 2: weight 2*omega_1 pairs 2 with the highest coroot
    ch = kr_character(A2, 2, 1)
    assert ch.is_plain
    assert ch == weyl_character(A2, (2, 0))
    assert ch.dimension() == 6


def test_kr_level_zero_is_unit():
    assert kr_character(A2, 0, 1) == GradedCharacter.unit(A2)


def test_kr_b2_short_node_carries_grading():
    # B2 node 1: d_1=1, weight level*omega_1; omega_1(h_theta)=1 so ev-type
    assert kr_character(B2, 1, 1).is_plain
    # node 2: weight 2*level*omega_2, pairing 2*level > level: graded
    ch = kr_character(B2, 1, 2)
    assert not ch.is_plain
    assert ch.slice(0) == weyl_character(B2, (0, 2))


# ---------------------------------------------------------------------------
# presentations


def test_presentation_zero_pairing():
    rels = presentation(A2, 1, (1, 0))
    by_root = {r.root_coords: r for r in rels}
    alpha2 = by_root[(0, 1)]
    assert alpha2.s == 0 and alpha2.m == 0 and alpha2.nilpotency_order is None


def test_presentation_rank1_level1():
    (rel,) = presentation(A1, 1, (3,))
    assert rel.s == 3 and rel.m == 1
    assert rel.nilpotency_order is None  # m equals d*level


def test_presentation_rank1_level2():
    (rel,) = presentation(A1, 2, (3,))
    assert rel.s == 2 and rel.m == 1
    assert rel.nilpotency_order == 2
    assert rel.to_dict()["power_relation"] == {"t_exponent": 2}


def test_presentation_decomposition_is_exact():
    rng = seeded("presentation")
    for _ in range(30):
        lam = tuple(rng.randint(0, 5) for _ in range(2))
        level = rng.randint(1, 3)
        for rel, root in zip(presentation(B2, level, lam), B2.positive_roots):
            if rel.pairing == 0:
                assert rel.s == rel.m == 0
            else:
                cap = root.d * level
                assert rel.pairing == (rel.s - 1) * cap + rel.m
                assert 0 < rel.m <= cap
                assert (rel.nilpotency_order is None) == (rel.m == cap)


def _contradicts(grades_at, lam, root, rel):
    """Whether the chain-built character of D(level, lam), given as
    ``grades_at`` (weight -> {grade: multiplicity}), contradicts ``rel`` at
    the positive root ``root`` of positive pairing."""
    def grades(k):  # of lam - k*root
        return grades_at.get(tuple(a - k * b for a, b in zip(lam, root.coords)), {})

    if max(grades(1), default=None) != rel.s - 1:
        return True
    if root.height > 1:
        return False
    n, top = rel.nilpotency_order, rel.s - 1
    return grades(1) != dict.fromkeys(range(rel.s), 1) or n is not None and (
        grades(n - 1).get((n - 1) * top) != 1 or n * top in grades(n))


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "C3", "G2"])
def test_presentation_agrees_with_the_chain(name):
    """A second route to ``presentation``: the chain's character of D(level, lam).

    At each positive root alpha of positive pairing, s - 1 is the highest
    grade of lam - alpha: the lowering operator at alpha and t-power s - 1
    is the last one that does not kill the highest weight vector.  At a
    simple root alpha_i only that operator's t-powers reach lam - k*alpha_i,
    and they commute, so lam - alpha_i has multiplicity 1 at each grade
    0..s-1 and none elsewhere, and the nilpotency order n shows as
    multiplicity 1 at (lam - (n-1)*alpha_i, (n-1)(s-1)) and none at
    (lam - n*alpha_i, n(s-1)).  At a root that is not simple, products over
    other roots share the weights lam - k*alpha and their grades; a
    character counts those vectors but does not show which of them vanish,
    so n is not read there.  Raising one s, or moving one n, is caught."""
    rs = root_system(name)
    for level in (1, 2):
        for lam in dominant_box(rs, 2)[1:]:
            grades_at = {}
            for (w, g), mult in demazure_character(rs, level, lam).terms.items():
                grades_at.setdefault(w, {})[g] = mult
            for rel, root in zip(presentation(rs, level, lam), rs.positive_roots):
                if rel.pairing == 0:
                    continue
                assert not _contradicts(grades_at, lam, root, rel), (level, lam, rel)
                assert _contradicts(grades_at, lam, root, rel._replace(s=rel.s + 1))
                if root.height == 1 and rel.nilpotency_order is not None:
                    for moved in (rel.nilpotency_order - 1, rel.nilpotency_order + 1):
                        assert _contradicts(grades_at, lam, root, rel._replace(nilpotency_order=moved))


# ---------------------------------------------------------------------------
# truncated irreducible affine characters


def test_truncated_level1_rank1_golden():
    # classical level-1 values for the two fundamental affine weights
    ch = affine_irreducible_character_truncated(A1, 1, (0,), 2)
    assert ch.slice(0).terms == {((0,), 0): 1}
    assert ch.slice(1).terms == {((2,), 0): 1, ((0,), 0): 1, ((-2,), 0): 1}
    assert ch.slice(2).terms == {((2,), 0): 1, ((0,), 0): 2, ((-2,), 0): 1}
    ch = affine_irreducible_character_truncated(A1, 1, (1,), 2)
    assert ch.slice(0).terms == {((1,), 0): 1, ((-1,), 0): 1}
    assert ch.slice(1).terms == {((1,), 0): 1, ((-1,), 0): 1}
    assert ch.slice(2).terms == {
        ((3,), 0): 1, ((1,), 0): 2, ((-1,), 0): 2, ((-3,), 0): 1,
    }


def test_truncated_depth_zero_is_the_finite_character():
    for rs, lam, level in [(A1, (1,), 1), (A2, (1, 0), 1), (A2, (1, 1), 2), (B2, (1, 0), 1)]:
        ch = affine_irreducible_character_truncated(rs, level, lam, 0)
        assert ch == weyl_character(rs, lam)


@pytest.mark.parametrize("rs,lam,level", [(A1, (0,), 1), (A1, (1,), 2), (A2, (1, 0), 1)])
def test_truncated_slices_are_w_invariant(rs, lam, level):
    ch = affine_irreducible_character_truncated(rs, level, lam, 2)
    assert ch.is_w_invariant()
    assert ch.slice(0) == weyl_character(rs, lam)


def test_truncated_rejects_bad_inputs():
    with pytest.raises(ValueError):
        affine_irreducible_character_truncated(A1, 0, (0,), 1)
    with pytest.raises(ValueError):
        affine_irreducible_character_truncated(A1, 1, (2,), 1)  # not level-dominant
    with pytest.raises(ValueError):
        affine_irreducible_character_truncated(A1, 1, (0,), -1)


# the six stabilization inputs of the benchmark, (system, level, lambda,
# max grade), with the SHA-256 of each truncated character's graded
# serialization as the oracle computed it before it memoised its
# representatives
BENCHMARK_TRUNCATIONS = [
    ("A3", 1, (0, 0, 1), 2, "8d4ee34565c93728465be346dad0458c96e699c3ad7651ec78f19600e7307676"),
    ("A3", 1, (1, 0, 0), 2, "07e9b0283db8fb2a1646c1ff6f5144f54f47f1e37959917adbf5af0a780a5ca6"),
    ("B2", 1, (0, 0), 3, "2cca730b70967efc60995efb4d5db1b8cd78ec7257bb12edacf61740d8e16beb"),
    ("B3", 1, (0, 0, 1), 1, "57e05c47e7f9ceee286887e9d697973d8f9087210978f79779157f22a3eab5f3"),
    ("C3", 1, (0, 1, 0), 1, "48792af99484471e48ba391ca0fd362f3f112aff944a3fd1d33c902ffa51db43"),
    ("G2", 1, (1, 0), 3, "ad0820cd118adc2e934359357aa3383fc90aa904664eba0b6317f918564dbed6"),
]


@pytest.mark.parametrize("name,level,lam,max_grade,digest", BENCHMARK_TRUNCATIONS,
                         ids=[f"{t[0]}-{','.join(map(str, t[2]))}" for t in BENCHMARK_TRUNCATIONS])
def test_truncated_walks_each_weight_past_the_level_once(monkeypatch, name, level, lam, max_grade, digest):
    # a finite-dominant weight past the level takes its multiplicity from
    # the affine chamber walk, once per depth, unless its excess over the
    # level already exceeds the depth; no other weight is walked
    rs = root_system(name)
    walked = []
    walk = rootsystem.RootSystem._to_dominant

    def counting(self, weight, level=None):
        if level is not None:
            walked.append((weight, level))
        return walk(self, weight, level)

    monkeypatch.setattr(rootsystem.RootSystem, "_to_dominant", counting)
    ch = affine_irreducible_character_truncated(rs, level, lam, max_grade)
    expected = Counter(
        (mu, level)
        for depth in range(max_grade + 1)
        for mu in rs.dominant_weights_below(rs.add(lam, rs.scale(depth, rs.theta.coords)))
        if 0 < rs.theta_pairing(mu) - level <= depth
    )
    assert expected and Counter(walked) == expected
    assert hashlib.sha256(ch.to_jsonl(kind="graded").encode("utf-8")).hexdigest() == digest


# the finite and the truncated affine characters of small dominant boxes,
# hashed in order; the digest is the one both recursions gave while they
# were separate copies, so merging them must keep every byte
SWEEP_WEYL = [("A1", 6), ("A2", 3), ("A3", 2), ("B2", 3), ("B3", 2), ("C3", 2), ("D4", 1), ("G2", 3)]
SWEEP_AFFINE = [("A1", 4), ("A2", 3), ("A3", 2), ("B2", 3), ("C3", 2), ("G2", 3), ("D4", 1)]
SWEEP_DIGEST = "edee7ce2c687f8d8f9a1cc5ba57cc38b2ce29a56302c0e04dc941d7a1c341eca"


def test_character_sweep_is_byte_identical():
    digest = hashlib.sha256()
    count = 0
    for name, bound in SWEEP_WEYL:
        rs = rootsystem.RootSystem(*rootsystem.parse_system(name))
        for lam in dominant_box(rs, bound):
            digest.update(weyl_character(rs, lam).to_jsonl(kind="plain").encode("utf-8"))
            count += 1
    for name, depth in SWEEP_AFFINE:
        rs = rootsystem.RootSystem(*rootsystem.parse_system(name))
        for level in (1, 2):
            for lam in dominant_box(rs, level):
                if rs.theta_pairing(lam) <= level:
                    ch = affine_irreducible_character_truncated(rs, level, lam, depth)
                    digest.update(ch.to_jsonl(kind="graded").encode("utf-8"))
                    count += 1
    assert count == 224
    assert digest.hexdigest() == SWEEP_DIGEST


# Frenkel-Kac: at level 1 the basic module of a simply-laced type is the
# lattice vertex algebra of its root lattice Q, so the weight gamma at depth
# d has multiplicity p_n(d - (gamma, gamma)/2) when gamma is in Q, and 0
# otherwise; p_n(k) is the number of partitions of k into parts of n colours
FRENKEL_KAC = [
    ("A1", [1, 1, 2, 3, 5, 7, 11, 15, 22]),
    ("A2", [1, 2, 5, 10, 20, 36]),
    ("A3", [1, 3, 9, 22, 51]),
    ("D4", [1, 4, 14, 40]),
    ("E6", [1, 6, 27]),
]


@pytest.mark.parametrize("name,partitions", FRENKEL_KAC, ids=[t[0] for t in FRENKEL_KAC])
def test_truncated_basic_module_is_frenkel_kac(name, partitions):
    rs = root_system(name)
    max_depth = len(partitions) - 1
    ch = affine_irreducible_character_truncated(rs, 1, rs.zero_weight(), max_depth)

    def half_norm(gamma):
        # (gamma, gamma)/2 over Fractions, or None off the root lattice;
        # the form is the Cartan matrix on simple-root coordinates
        coords = root_coords_oracle(rs, gamma)
        if any(c.denominator != 1 for c in coords):
            return None
        return sum(c * w for c, w in zip(coords, gamma)) / 2

    for (gamma, d), m in ch.terms.items():
        half = half_norm(gamma)
        assert half is not None and half.denominator == 1 and half <= d, (gamma, d)
        assert m == partitions[d - int(half)], (gamma, d)
    # every dominant gamma of Q with (gamma, gamma)/2 <= d is present: a
    # dominant gamma has (gamma, gamma) >= sum_i gamma_i^2 (omega_i, omega_i)
    # >= sum_i gamma_i^2 / 2, so each coordinate is at most isqrt(4d)
    for gamma in dominant_box(rs, math.isqrt(4 * max_depth)):
        half = half_norm(gamma)
        for d in range(max_depth + 1):
            if half is not None and half <= d:
                assert ch.terms.get((gamma, d)) == partitions[d - int(half)], (gamma, d)
    assert ch.is_w_invariant()


# Weyl-Kac: the truncated character times the denominator sum is the
# numerator sum; a second route for every level-dominant lam below, one
# that shares no step with the multiplicity recursion or the orbit
# expansion (system, levels 1..top, depth, modules)
WEYL_KAC = [("A1", 4, 6, 14), ("A2", 3, 4, 19), ("B2", 3, 4, 19), ("G2", 2, 3, 6), ("A3", 2, 3, 14),
            ("B3", 2, 2, 10), ("C3", 2, 2, 14), ("A4", 1, 2, 5), ("D4", 1, 2, 4), ("F4", 1, 2, 2)]


@pytest.mark.parametrize("name,top,depth,modules", WEYL_KAC, ids=[t[0] for t in WEYL_KAC])
def test_truncated_character_is_weyl_kac(name, top, depth, modules):
    rs = root_system(name)
    checked = 0
    for level in range(1, top + 1):
        for lam in dominant_box(rs, level):
            if rs.theta_pairing(lam) <= level:
                ch = affine_irreducible_character_truncated(rs, level, lam, depth)
                assert weyl_kac_defect(rs, level, lam, ch, depth) == {}, (level, lam)
                checked += 1
    assert checked == modules


def test_weyl_kac_sees_one_wrong_multiplicity():
    # raising any one multiplicity of B2's L(2*Lambda_0 + omega_1) down to
    # depth 2 by one breaks the identity at that term, and at no shallower
    # depth: the defect is minus that monomial times the denominator sum
    ch = affine_irreducible_character_truncated(B2, 2, (1, 0), 2)
    assert {d for _, d in ch.terms} == {0, 1, 2}
    for key, m in ch.terms.items():
        wrong = GradedCharacter(B2, {**ch.terms, key: m + 1})
        defect = weyl_kac_defect(B2, 2, (1, 0), wrong, 2)
        assert defect[key] == -1 and min(d for _, d in defect) == key[1], key
