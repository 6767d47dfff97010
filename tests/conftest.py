"""Shared helpers and independent oracles for the test suite.

The oracles here deliberately avoid the library's primary code paths:
root sets are rebuilt as Weyl orbits of the simple roots, simple-root
coordinates come from a Fraction solve of C x = w, which also gives the
inverse Cartan matrix, root lengths and coroots are computed over
Fractions from the symmetrised form, affine weights are reflected one node
at a time apart from the chamber walk, rank-1 tensor products
come from the classical highest-weight ladder, small products are
convolved by hand, irreducible characters are rebuilt by divided-difference
operators along the longest word, tensor products of irreducibles are
decomposed by the Brauer-Klimyk formula over that character, and
stabilization windows are cut from the full-word Demazure character.
The divided-difference operators here keep each term as a
``(weight tuple, grade)`` key: the oracle of the library's packed-integer
Demazure chain.
"""

import itertools
import random
from fractions import Fraction
from operator import add, mul

from demkit.affine import AffineWeight, straighten
from demkit.charalg import GradedCharacter


def dominant_box(rs, bound):
    """All dominant weights with every coordinate in 0..bound."""
    return [tuple(c) for c in itertools.product(range(bound + 1), repeat=rs.rank)]


def random_dominant(rng, rs, bound=4):
    return tuple(rng.randint(0, bound) for _ in range(rs.rank))


def root_coords_oracle(rs, weight):
    """Simple-root coordinates x of a weight, solving C x = weight exactly
    by Gauss-Jordan elimination over Fractions."""
    n = rs.rank
    rows = [[Fraction(c) for c in rs.cartan[i]] + [Fraction(weight[i])] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return tuple(row[n] for row in rows)


def cartan_inverse_oracle(rs):
    """C^-1 as rows of Fractions: its column k solves C x = omega_k."""
    columns = [root_coords_oracle(rs, rs.fundamental_weight(k + 1)) for k in range(rs.rank)]
    return [[col[i] for col in columns] for i in range(rs.rank)]


def root_oracle(rs, root_coords):
    """(root_coords, coords, d, coroot, height) of a positive root, over
    Fractions: (alpha_i, alpha_j) = C[i][j] / d_i, d = 2 / (root, root),
    and the coroot h_root = sum_j (d / d_j) root_coords[j] h_j."""
    n = rs.rank
    coords = tuple(sum(rs.cartan[i][j] * root_coords[j] for j in range(n)) for i in range(n))
    norm = sum(
        Fraction(rs.cartan[i][j], rs.d_simple[i]) * root_coords[i] * root_coords[j]
        for i in range(n) for j in range(n)
    )
    d = Fraction(2) / norm
    coroot = tuple(d * a / dj for a, dj in zip(root_coords, rs.d_simple))
    return tuple(root_coords), coords, d, coroot, sum(root_coords)


def roots_by_orbit(rs):
    """Independent reconstruction of the root set: the union of the Weyl
    orbits of the simple roots, filtered to positives via exact root-lattice
    coordinates."""
    allroots = set()
    for col in rs.simple_root_coords:
        allroots |= rs.weyl_orbit(col)
    positives = set()
    for w in allroots:
        coords = root_coords_oracle(rs, w)
        assert all(c.denominator == 1 for c in coords)
        ints = tuple(int(c) for c in coords)
        if all(c >= 0 for c in ints) and any(ints):
            positives.add(ints)
    return positives


def clebsch_gordan_sl2(a, b):
    """Classical rank-1 tensor decomposition: a (x) b = |a-b| + ... + (a+b)."""
    return {(m,): 1 for m in range(abs(a - b), a + b + 1, 2)}


def seeded(name):
    return random.Random(f"demkit-{name}")


def monomial(rs, weight, grade=0):
    """The character e^weight at one grade."""
    return GradedCharacter(rs, {(rs.check_weight(weight), grade): 1})


def scaled(char, k):
    """``k`` times a character."""
    return GradedCharacter(char.system, {key: k * m for key, m in char.terms.items()})


def summed(*chars):
    """The sum of characters over one root system, added term by term."""
    system = chars[0].system
    if any(char.system is not system for char in chars):
        raise ValueError("cannot add characters over different root systems")
    out = {}
    for char in chars:
        for key, m in char.terms.items():
            out[key] = out.get(key, 0) + m
    return GradedCharacter(system, out)


def affine_pairing(rs, aw, i):
    """Pairing of an affine weight against the i-th simple coroot, i in 0..n:
    node 0 pairs as ``level - finite(h_theta)``."""
    if i == 0:
        return aw.level - rs.theta_pairing(aw.finite)
    if not 1 <= i <= rs.rank:
        raise ValueError(f"affine node index {i} out of range 0..{rs.rank}")
    return aw.finite[i - 1]


def affine_reflect(rs, aw, i):
    """Simple reflection s_i on an affine weight, one node at a time: the
    replay oracle of ``straighten``, sharing no code with its chamber walk.
    s_0 adds k*theta to the finite part and takes k from delta, for k the
    pairing at node 0; the level never moves."""
    k = affine_pairing(rs, aw, i)
    if i == 0:
        finite = tuple(c + k * t for c, t in zip(aw.finite, rs.theta.coords))
        return AffineWeight(finite, aw.level, aw.delta - k)
    return AffineWeight(rs.reflect(i, aw.finite), aw.level, aw.delta)


def is_affine_dominant(rs, aw):
    return all(affine_pairing(rs, aw, i) >= 0 for i in range(rs.rank + 1))


def affine_apply_word(rs, word, aw):
    """Apply a word of affine reflections, first letter first."""
    for i in word:
        aw = affine_reflect(rs, aw, i)
    return aw


def apply_word(rs, word, weight):
    """Apply a word of simple reflections, first letter first."""
    for i in word:
        weight = rs.reflect(i, weight)
    return weight


def longest_word(rs):
    """A reduced word for the longest Weyl group element: the chamber walk
    of the antidominant weight -rho, one letter per positive root."""
    word = rs._to_dominant(rs.scale(-1, rs.rho))[1]
    assert len(word) == len(rs.positive_roots)
    return tuple(word)


def tuple_demazure_operator(rs, i, char, level, touched=None):
    """One isobaric divided-difference operator on a ``GradedCharacter``
    with ``(weight, grade)`` keys, applied termwise.

    For a term of weight w with k = <w, h_i>: if k >= 0 it expands to the
    string w, w - a_i, ..., w - k a_i; if k == -1 it dies; if k <= -2 it
    contributes the string w + a_i, ..., w + (-k-1) a_i negatively.  The
    operator at node 0 needs the ambient ``level``.  Every key the string
    walk writes, kept or cancelled, is added to ``touched`` when given.
    """
    # node 0 walks along +theta and lowers the grade; node i walks along
    # -alpha_i at a fixed grade.  The negative string reverses the step.
    if i == 0:
        fwd, gfwd, coroot = rs.theta.coords, -1, rs.theta.coroot
    else:
        fwd, gfwd, pos = tuple(-a for a in rs.simple_root_coords[i - 1]), 0, i - 1
    back = tuple(-a for a in fwd)
    out = {}
    for (w, g), m in char.terms.items():
        k = w[pos] if i else level - sum(map(mul, coroot, w))
        if k >= 0:
            step, gstep, count = fwd, gfwd, k + 1
        elif k <= -2:
            step, gstep, count, m = back, -gfwd, -k - 1, -m
            w, g = tuple(map(add, w, step)), g + gstep
        else:
            continue
        for _ in range(count):
            key = (w, g)
            if touched is not None:
                touched.add(key)
            v = out.get(key, 0) + m
            if v:
                out[key] = v
            else:
                del out[key]
            w = tuple(map(add, w, step))
            g += gstep
    return GradedCharacter(rs, out)


def tuple_demazure_from(rs, level, extremal, touched=None):
    """The Demazure chain of the affine weight ``(extremal, level, 0)`` on
    tuple keys: the monomial of its straightened top, then one tuple
    operator per letter of the straightening word."""
    top, word = straighten(rs, AffineWeight(extremal, level, 0))
    char = monomial(rs, top.finite, top.delta)
    for letter in word:
        char = tuple_demazure_operator(rs, letter, char, level, touched)
    return char


def demazure_weyl_character(rs, weight):
    """The irreducible character of a dominant weight, via divided-difference
    operators along a reduced word for the longest element: the cross-oracle
    of ``finite.weyl_character``, sharing no algorithmic step with it."""
    char = monomial(rs, rs.check_dominant(weight))
    for letter in longest_word(rs):
        char = tuple_demazure_operator(rs, letter, char, 0)
    return char


def brauer_klimyk(rs, a, b):
    """Isotypic multiplicities of V(a) (x) V(b) by the Brauer-Klimyk formula
    (Humphreys, Introduction to Lie Algebras, 24, Ex. 9): for each weight nu
    of V(a), straighten b + nu + rho into the dominant chamber by simple
    reflections, flipping the sign at each step; a term that reaches a zero
    coordinate cancels, any other adds +-mult(nu) to V(result - rho).
    Uses neither extraction nor the dominance order."""
    out = {}
    for (nu, _), m in demazure_weyl_character(rs, a).terms.items():
        v = tuple(x + y + 1 for x, y in zip(b, nu))
        sign = 1
        while 0 not in v:
            i = next((i for i, c in enumerate(v) if c < 0), None)
            if i is None:
                lam = tuple(c - 1 for c in v)
                out[lam] = out.get(lam, 0) + sign * m
                break
            v = rs.reflect(i + 1, v)
            sign = -sign
    return {lam: m for lam, m in out.items() if m}


def top_aligned_truncation(char, max_depth):
    """Re-grade a whole Demazure character by depth below its highest grade
    and truncate at ``max_depth``: the stabilization window, cut from the
    full-word character rather than from isotypic components."""
    anchor = max(g for (_, g) in char.terms)
    return GradedCharacter(
        char.system,
        {(w, anchor - g): m for (w, g), m in char.terms.items() if anchor - g <= max_depth},
    )
