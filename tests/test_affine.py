import hashlib
import itertools
import math
import struct
from collections import Counter

import pytest

from conftest import (
    affine_apply_word, affine_pairing, affine_reflect, demazure_weyl_character, dominant_box,
    is_affine_dominant, monomial, root_coords_oracle, seeded, tuple_demazure_from,
    tuple_demazure_operator,
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
        terms, chain, counts = {}, {}, {}
        for _ in range(200):
            w = tuple(rng.randint(-50, 50) for _ in range(3))
            key = affine._pack(rs, w)
            if key in chain:
                continue
            grades = sorted(rng.sample(range(delta + 1), rng.randint(1, 4)))
            mults = [rng.choice((1, (1 << width) - 1, rng.randint(1, (1 << width) - 1))) for _ in grades]
            terms.update(((w, g), m) for g, m in zip(grades, mults))
            chain[key] = sum(m << width * g for g, m in zip(grades, mults))
            counts[key] = sum(mults)
        out = affine._unpack(rs, affine._Chain(chain, width), counts, delta)
        assert list(out.terms.items()) == sorted(terms.items())


def test_unpack_refuses_what_does_not_decode():
    # one-byte digits at grades 0..1: a negative value, a digit above
    # grade 1, digits that do not sum to the grade-free count, and a weight
    # that only the grade-free pass holds are internal errors
    key, other = affine._pack(A2, (1, 0)), affine._pack(A2, (0, 1))
    value = 3 + (2 << 8)
    assert affine._unpack(A2, affine._Chain({key: value}, 8), {key: 5}, 1).terms == {
        ((1, 0), 0): 3, ((1, 0), 1): 2,
    }
    for chain, counts in [({key: -value}, {key: -5}), ({key: value + (1 << 16)}, {key: 6}),
                          ({key: value}, {key: 4}), ({key: value}, {key: 5, other: 1})]:
        with pytest.raises(RuntimeError, match="^internal error: "):
            affine._unpack(A2, affine._Chain(chain, 8), counts, 1)


@pytest.mark.parametrize("name,level,weight", [("A1", 2, (3,)), ("A2", 2, (2, 1)), ("G2", 1, (1, 1))])
def test_unpack_decodes_each_weight_once(name, level, weight):
    """Every grade of a weight shares one weight tuple, also after a round
    trip through the character file."""
    char = demazure_character(root_system(name), level, weight)
    weights = {w for w, _ in char.terms}
    assert len(char.terms) > len(weights)  # some weight carries several grades
    back = GradedCharacter.from_jsonl(char.to_jsonl())
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
        assert isotypic_character(rs, components).to_jsonl() == full.to_jsonl()
        summed = {}
        for (mu, _), m in components.items():
            summed[mu] = summed.get(mu, 0) + m
        assert summed == tensor_decompose(rs, full.collapse())


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
    # order; every key the oracle chain writes and every key the library
    # chain looks up (in both of its passes) is a weight of the module, so
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
    touched, reads = set(), set()
    chain = affine._Chain

    def oracle(rs, level, extremal):
        return tuple_demazure_from(rs, level, extremal, touched)

    for level, weight in cases:
        reads.clear()
        with monkeypatch.context() as patch:
            patch.setattr(affine, "_Chain", lambda terms, width: chain(RecordingTerms(terms, reads), width))
            full = demazure_character(rs, level, weight)
            components = graded_isotypic(rs, level, weight)
        assert list(full.terms) == sorted(full.terms)
        touched.clear()
        with monkeypatch.context() as patch:
            patch.setattr(affine, "_demazure_from", oracle)
            assert demazure_character(rs, level, weight).to_jsonl(kind="graded") == full.to_jsonl(kind="graded")
            assert list(graded_isotypic(rs, level, weight).items()) == list(components.items())
        top, _ = straighten(rs, AffineWeight(weight, level, 0))
        nu = rs.add(top.finite, rs.scale(top.delta, rs.theta.coords))
        bound = sum(rs.pairing(nu, b) for b in range(len(rs.positive_roots)))
        looked_up = [unpack_weight(rs, key) for key in reads]
        for weights in ([w for w, _ in touched], looked_up):
            assert max(abs(c) for w in weights for c in (*w, rs.theta_pairing(w))) <= bound
        assert 0 <= min(g for _, g in touched) and max(g for _, g in touched) <= top.delta


@pytest.mark.parametrize("name", CHAIN_SWEEP)
def test_width_zero_chain_is_the_collapse(monkeypatch, name):
    # the grade-free pass that sizes the digits holds each weight's
    # multiplicity summed over grades: for the whole word that is the
    # collapsed character, for the straightening word alone the collapsed
    # tuple-key chain of the same word
    rs = root_system(name)
    counts, digit_bytes = [], affine._digit_bytes

    def recording(terms):
        counts.append(dict(terms))
        return digit_bytes(terms)

    monkeypatch.setattr(affine, "_digit_bytes", recording)
    for level in (1, 2, 3):
        for weight in [rs.fundamental_weight(i) for i in range(1, rs.rank + 1)] + [rs.kr_weight(1, level)]:
            counts.clear()
            full = demazure_character(rs, level, weight).collapse()
            graded_isotypic(rs, level, weight)
            part = tuple_demazure_from(rs, level, weight).collapse()
            assert counts == [
                {affine._pack(rs, w): m for (w, _), m in char.terms.items()} for char in (full, part)
            ]


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
