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
decomposed by the Brauer-Klimyk formula over that character,
stabilization windows are cut from the full-word Demazure character,
truncated irreducible affine characters are held to the Weyl-Kac formula
by walking affine Weyl orbits one node at a time, and the graded isotypic
decompositions of simply-laced fusion products of KR modules are summed
by the fermionic formula from rigged-configuration data alone, and the
dimensions of simply-laced KR modules follow from the level-1 ones by
the Q-system.
The divided-difference operators here keep each term as a
``(weight tuple, grade)`` key: the oracle of the library's packed-integer
Demazure chain.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import prod
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


def single_edits(text, extra):
    """Every deletion, substitution and insertion of one item in ``text``
    (a str, or bytes), the items drawn from ``text`` itself and ``extra``."""
    alphabet = sorted({text[i:i + 1] for i in range(len(text))} | {extra[i:i + 1] for i in range(len(extra))})
    for i in range(len(text)):
        yield text[:i] + text[i + 1:]
        yield from (text[:i] + c + text[i + 1:] for c in alphabet if c != text[i:i + 1])
    for i in range(len(text) + 1):
        yield from (text[:i] + c + text[i:] for c in alphabet)


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


def tuple_chain(rs, level, top, word, touched=None):
    """The Demazure chain of ``word`` on tuple keys: the monomial of the
    affine weight ``top``, then one tuple operator per letter."""
    char = monomial(rs, top.finite, top.delta)
    for letter in word:
        char = tuple_demazure_operator(rs, letter, char, level, touched)
    return char


def tuple_demazure_from(rs, level, extremal, touched=None):
    """The tuple-key Demazure chain of the affine weight ``(extremal,
    level, 0)``: the straightening word applied to its straightened top."""
    return tuple_chain(rs, level, *straighten(rs, AffineWeight(extremal, level, 0)), touched)


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


def affine_orbit_sum(rs, level, weight, max_depth):
    """The alternating orbit sum of the Weyl-Kac formula (Kac, Infinite-
    dimensional Lie algebras, 10.4): sum over the affine Weyl group of
    sign(w) e^(w(L + rho^) - rho^) for L = level*Lambda_0 + weight, as
    ``{(finite weight, depth): sign}`` down to ``max_depth``.

    The walk starts at the regular dominant weight v = L + rho^, of level
    level + h^vee, and reflects at every node where the pairing p is
    positive: a finite node reflects the finite part, node 0 (pairing
    level + h^vee - mu(h_theta)) adds p*theta to it and p to the depth.
    Each step lengthens w by one, so breadth-first layers are lengths and
    carry the sign; v is regular, so each weight is met at one w.  Depth
    never falls along the walk, so pruning past ``max_depth`` is exact."""
    top_level = level + rs.dual_coxeter
    start = (tuple(map(add, weight, rs.rho)), 0)
    signs, layer, sign = {start: 1}, [start], 1
    while layer:
        sign, nxt = -sign, []
        for mu, depth in layer:
            p = top_level - rs.theta_pairing(mu)
            steps = [(tuple(c + p * t for c, t in zip(mu, rs.theta.coords)), depth + p)] if p > 0 else []
            steps += [(rs.reflect(i + 1, mu), depth) for i, c in enumerate(mu) if c > 0]
            for key in steps:
                if key[1] <= max_depth and key not in signs:
                    signs[key] = sign
                    nxt.append(key)
        layer = nxt
    return {(tuple(c - r for c, r in zip(mu, rs.rho)), depth): s for (mu, depth), s in signs.items()}


def weyl_kac_defect(rs, level, weight, char, max_depth):
    """The terms, down to ``max_depth``, by which ``char`` times the
    denominator sum (the orbit sum of L = 0) misses the numerator sum of L
    = level*Lambda_0 + weight: empty exactly when ``char`` is the
    irreducible character of L down to that depth.  Depths add under the
    product and no term of either sum lies above depth 0, so truncating
    both sides is exact; the product is convolved by hand, one depth of
    the denominator at a time."""
    out = affine_orbit_sum(rs, level, weight, max_depth)
    by_depth = {}
    for (nu, e), s in affine_orbit_sum(rs, 0, rs.zero_weight(), max_depth).items():
        by_depth.setdefault(e, []).append((nu, s))
    for (mu, d), m in char.terms.items():
        for e in range(max_depth - d + 1):
            for nu, s in by_depth.get(e, ()):
                key = (tuple(map(add, mu, nu)), d + e)
                out[key] = out.get(key, 0) - s * m
    return {key: v for key, v in out.items() if v}


def partitions(n, largest=None):
    """Every partition of n into parts at most ``largest``, as a tuple of
    parts, largest first."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in partitions(n - part, part):
            yield (part, *rest)


@lru_cache(maxsize=None)
def q_binomial(n, k):
    """Coefficients of the Gaussian binomial [n choose k]_q, lowest power
    first, by [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    if k == 0 or k == n:
        return (1,)
    out = [0] * (k * (n - k) + 1)
    for e, c in enumerate(q_binomial(n - 1, k - 1)):
        out[e] += c
    for e, c in enumerate(q_binomial(n - 1, k)):
        out[e + k] += c
    return tuple(out)


def fermionic_isotypic(rs, level, s):
    """Graded isotypic decomposition of D(level, level * sum_a s_a omega_a)
    on a simply-laced type, the fusion product of the KR modules
    (W^(a)_level)^(s_a), by the M-sum of Hatayama-Kuniba-Okado-Takagi-
    Yamada (Remarks on fermionic formula, 1999), as ``{(lam, grade):
    multiplicity}`` in the grading of ``graded_isotypic``.

    For each dominant lam, with top - lam = sum_a beta_a alpha_a, the sum
    runs over the configurations m, one partition of each beta_a, with
    m_i^(a) parts of size i.  With Q_i^(b) = sum_j min(i, j) m_j^(b), the
    vacancy p_i^(a) = s_a min(i, level) - sum_b C_ab Q_i^(b) must be >= 0
    for every i up to max(level, the largest part), past which it is
    constant.  A configuration adds q^c(m) prod_(a,i) [p_i^(a) + m_i^(a)
    choose m_i^(a)]_q, with charge c(m) = 1/2 sum C_ab min(i, j) m_i^(a)
    m_j^(b) - sum s_a min(i, level) m_i^(a); grade g is the coefficient
    of q^-g.  The beta come from the Fraction solve, not the library's
    lattice core."""
    n, cartan = rs.rank, rs.cartan
    top = tuple(level * c for c in s)
    out = Counter()
    # beta_a is at most top's a-th root coordinate, since C^-1 is non-negative
    for beta in itertools.product(*(range(int(c) + 1) for c in root_coords_oracle(rs, top))):
        lam = tuple(t - sum(b * row[i] for b, row in zip(beta, cartan)) for i, t in enumerate(top))
        if min(lam) < 0:
            continue
        for parts in itertools.product(*map(partitions, beta)):
            sizes = range(1, max((level, *itertools.chain(*parts))) + 1)
            columns = [[sum(min(i, j) for j in part) for i in sizes] for part in parts]
            pull = [[sum(map(mul, cartan[a], col)) for col in zip(*columns)] for a in range(n)]
            vacancy = [[s[a] * min(i, level) - pull[a][i - 1] for i in sizes] for a in range(n)]
            if min(map(min, vacancy)) < 0:
                continue
            twice_charge, poly = 0, {0: 1}
            for a, part in enumerate(parts):
                for i, k in Counter(part).items():
                    twice_charge += k * (pull[a][i - 1] - 2 * s[a] * min(i, level))
                    binomial, prev, poly = q_binomial(vacancy[a][i - 1] + k, k), poly, Counter()
                    for e, c in prev.items():
                        for f, d in enumerate(binomial):
                            poly[e + f] += c * d
            assert twice_charge % 2 == 0, (lam, parts)
            for e, c in poly.items():
                out[lam, -(twice_charge // 2 + e)] += c
    return dict(out)


def q_system(rs, level, nodes, seed):
    """``{a: Q^(a)_level for a in nodes}`` on a simply-laced type, nodes
    0-indexed: Q^(a)_0 = 1, Q^(a)_1 = ``seed(a)`` and

        (Q^(a)_m)^2 = Q^(a)_(m+1) Q^(a)_(m-1) + product over neighbours b of Q^(b)_m,

    so Q^(a)_m is dim D(m, m*omega_a) (Kirillov-Reshetikhin 1987;
    Hatayama-Kuniba-Okado-Takagi-Yamada 1999).  Q^(a)_level needs Q_m only
    at nodes within level - m steps of a, so only their seeds are taken.  A
    division that is not exact is an internal error."""
    adjacent = [[b for b, c in enumerate(row) if c == -1] for row in rs.cartan]
    dist = dict.fromkeys(nodes, 0)
    queue = list(nodes)
    for a in queue:  # breadth first: the queue grows as it is read
        for b in adjacent[a]:
            if b not in dist:
                dist[b] = dist[a] + 1
                queue.append(b)
    q = {a: [1, seed(a)] for a in queue if dist[a] < level}
    for m in range(1, level):
        for a in queue:
            if dist[a] < level - m:
                value, rest = divmod(q[a][m] ** 2 - prod(q[b][m] for b in adjacent[a]), q[a][m - 1])
                if rest:
                    raise RuntimeError(
                        f"internal error: the Q-system of {rs.name} does not divide at node {a + 1},"
                        f" m = {m + 1}"
                    )
                q[a].append(value)
    return {a: q[a][level] for a in nodes}
