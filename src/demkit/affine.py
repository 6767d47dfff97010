"""The affine engine: affine weights, straightening, Demazure operators,
graded Demazure characters and their graded isotypic decompositions, plus a
grade-truncated oracle for irreducible affine characters, which expands
the per-depth tables of the one recursion in ``finite`` over Weyl orbits
(imported when the oracle runs, so ``char`` never loads ``finite``).

Two routes reach a stable Demazure module: ``demazure_character`` applies
the operators of a reduced word for its whole Weyl group element w0*u, and
``graded_isotypic`` applies only u's and reads off graded isotypic
multiplicities by Bott's rule.  The claims layer reads decompositions from
the second route; the tests hold it to the first.  Both run one operator
chain with one entry per weight: the key is the weight packed into a single
int (``_pack``), so that a string step is one integer addition, and the
value is the weight's grade polynomial evaluated at a power of two, so that
one addition moves every grade of the weight at once.  The digits are
sized from the module's dimension: the paper's factorization where it
gives it up front (``_dimension``); else ``demazure_character`` takes it
from the second route, and ``graded_isotypic`` runs its word once
without grades first, the one chain that runs twice.  A chain's values
are read back digit by digit, weights in sorted order, so the
character's terms come out in canonical order (``_demazure_from`` proves
the result exact).  An operator fixes every s_i-symmetric part of its
input, so it copies the input and walks only the asymmetric part of each
string (``demazure_operator``).

Conventions.  An affine weight is ``(finite, level, delta)``: a finite weight
in fundamental coordinates, the coefficient of the level-defining fundamental
weight, and the coefficient of the null root.  The zeroth simple root is
``(null root) - (highest finite root)``, so pairing against the zeroth
coroot is ``level - finite(h_theta)``, and reflecting at 0 adds the highest
root to the finite part while lowering the delta coefficient.

Grading.  ``demazure_character`` anchors the extremal weight at delta
coefficient 0 and defines the grade of a term to be its delta coefficient.
With this normalisation all grades are non-negative and the grade-0 slice is
the irreducible finite-type character of the defining weight.  The truncated
irreducible affine character uses the opposite, top-anchored view: grade =
depth below the highest weight, which is the grading the direct-limit
comparison needs.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from itertools import combinations_with_replacement, compress
from math import prod

from .charalg import GradedCharacter
from .rootsystem import WALK_STEP_CAP

__all__ = [
    "AffineWeight",
    "Relation",
    "straighten",
    "demazure_operator",
    "demazure_character",
    "graded_isotypic",
    "kr_character",
    "presentation",
    "affine_irreducible_character_truncated",
]

AffineWeight = namedtuple("AffineWeight", "finite level delta")

_FIELD = "i"  # struct code of one weight field of a chain key: 32 bits
_BITS = 8 * struct.calcsize(_FIELD)
# {packed weight: grade polynomial at X = 2**width}; width 0 forgets the grade
_Chain = namedtuple("_Chain", "terms width")
_DIGITS = {1: "B", 2: "H", 4: "I", 8: "Q"}  # struct code of a grade digit, by its bytes


def straighten(rs, aw):
    """Raise a positive-level affine weight into the dominant chamber.

    Returns ``(dominant, word)`` where replaying ``word`` on ``dominant``
    (first letter first) recovers the input, every replay step crossing
    exactly one wall.  ``RootSystem``'s chamber walk at the weight's level
    always reflects at the smallest node with a strictly negative pairing,
    so the word is reduced and is the minimal coset representative; this is
    what makes it legal to feed straight into the Demazure operators.

    Termination is guaranteed at positive level.  The walk takes one step
    per positive real root alpha + n*delta that pairs negatively with the
    weight: with p = finite(h_alpha) and c = d_alpha*level those are the n
    >= 0 with p + n*c < 0 and, for -alpha, the n >= 1 with n*c < p.  A walk
    of ``WALK_STEP_CAP`` steps or more is refused before its first step, as
    an internal error.
    """
    if aw.level < 1:
        raise ValueError("straightening requires level >= 1; level 0 weights index the trivial module")
    pairs = zip(rs.positive_roots, rs.pairings(aw.finite))
    steps = sum(-(-abs(p) // (root.d * aw.level)) - (p > 0) for root, p in pairs)
    if steps >= WALK_STEP_CAP:
        raise RuntimeError(f"internal error: chamber walk exceeded {WALK_STEP_CAP} steps from {aw.finite}")
    finite, word, lift = rs._to_dominant(aw.finite, aw.level)
    return AffineWeight(finite, aw.level, aw.delta + lift), tuple(reversed(word))


def _pack(rs, weight):
    """A chain key as one int of ``_FIELD``-sized fields, each offset by
    half its range: field 0 holds -weight(h_theta), the finite part of the
    pairing with the zeroth coroot, fields 1..n the weight.  A difference
    of keys is a string step."""
    fields = (-rs.theta_pairing(weight), *weight)
    return sum(f + (1 << _BITS - 1) << _BITS * j for j, f in enumerate(fields))


def _digit_bytes(bound):
    """Bytes per grade digit: the fewest of 1, 2, 4, 8, 16, ... whose
    digits exceed ``bound``."""
    need = bound.bit_length()
    size = 1
    while 8 * size < need:
        size *= 2
    return size


def _unpack(rs, chain, delta):
    """The ``GradedCharacter`` of a chain, its terms in canonical (weight,
    grade) order: the base-2**width digits of a weight's value are its
    multiplicities at grades 0..delta.  The weight fields of each key are
    decoded once, the decoded weights are sorted, and every grade of a
    weight shares its one tuple.  The decode consumes the chain: each
    weight's value leaves ``chain.terms`` as its terms are made, so the
    chain's ints are freed while the character grows, and the chain is
    left empty.  A value must be non-negative with no digit above grade
    ``delta``; anything else is an internal error."""
    fields = struct.Struct(f"<{rs.rank}{_FIELD}")
    flip = _pack(rs, rs.zero_weight())  # leaves each field in two's complement
    size = chain.width // 8
    span = size * (delta + 1)
    if size in _DIGITS:
        digits = struct.Struct(f"<{delta + 1}{_DIGITS[size]}").unpack
    else:
        def digits(raw):
            return [int.from_bytes(raw[j:j + size], "little") for j in range(0, span, size)]
    limit, grades = 1 << 8 * span, range(delta + 1)
    keys = {fields.unpack(((key ^ flip) >> _BITS).to_bytes(fields.size, "little")): key
            for key in chain.terms}
    terms, pop = {}, chain.terms.pop
    for w in sorted(keys):
        p = pop(keys.pop(w))
        if not 0 <= p < limit:
            raise RuntimeError(
                f"internal error: the grade polynomial of weight {w} does not decode in"
                f" {chain.width}-bit digits at grades 0..{delta}"
            )
        mults = digits(p.to_bytes(span, "little"))
        for g in compress(grades, mults):
            terms[w, g] = mults[g]
    return GradedCharacter._adopt(rs, terms)  # fresh, and compress kept no zero


def demazure_operator(rs, i, chain, level):
    """One isobaric divided-difference operator D_i, applied to a Demazure
    chain: packed weights (see ``_pack``) whose values are their grade
    polynomials P(X) evaluated at X = 2**width.

    On a monomial e^w with k = <w, h_i>, D_i gives the string e^w + e^(w -
    a_i) + ... + e^(s_i w) when k >= 0, nothing when k == -1, and minus the
    interior of the string e^(w + a_i) + ... + e^(s_i w - a_i) when k <= -2.
    So D_i fixes e^w + e^(s_i w), and with a(w) = c(w) - c(s_i w) for the
    coefficients c of the input f,

        D_i f = f + sum over k > 0 of a(w) (e^(w - a_i) + ... + e^(s_i w)).

    k depends on the weight alone: it is field i of the key, plus ``level``
    at node 0.  A finite node keeps the grade, so a(w) is P(w) - P(s_i w).
    Node 0 walks along +theta and lowers the grade by one per step, and
    s_0 w lies k grades below w, so a(w) is P(w) - X^k P(s_0 w) and each
    step divides by X; that division must be exact, and is checked.  At a
    finite node the same loop runs with X^0.

    The output starts as a copy of the input, and only the asymmetric part
    of each string is walked: a weight with k > 0 walks its k steps when
    a(w) is nonzero, and a weight with k < 0 whose mirror s_i w is absent
    walks the mirror's string with -X^-k P(w).  This is exact on any input
    whose node-0 divisions are.  A string step adds one int to the key.
    """
    shift, mask = _BITS * i, (1 << _BITS) - 1
    base = (level if i == 0 else 0) - (1 << _BITS - 1)
    # key + k*fwd is the mirror s_i(key)
    zero = _pack(rs, rs.zero_weight())
    if i == 0:
        fwd, x = _pack(rs, rs.theta.coords) - zero, chain.width
    else:
        fwd, x = zero - _pack(rs, rs.simple_root_coords[i - 1]), 0
    terms = chain.terms
    out = dict(terms)
    get = out.get
    for key, p in terms.items():
        k = (key >> shift & mask) + base
        # a shift by 0 still copies a long int, so finite nodes skip them
        if k > 0:
            other = terms.get(key + k * fwd)
            if other is not None:
                p -= other << x * k if x else other
            if not p:
                continue
            if x and p & (1 << x * k) - 1:
                raise RuntimeError(
                    f"internal error: a node-0 string of {k} steps would lower a grade below 0"
                )
        elif k < 0:
            mirror = key + k * fwd
            if mirror in terms:
                continue
            key, k, p = mirror, -k, -p << x * -k if x else -p
        else:
            continue
        for _ in range(k):
            key += fwd
            if x:
                p >>= x
            v = get(key, 0) + p
            if v:
                out[key] = v
            else:
                del out[key]
    return _Chain(out, chain.width)


def _check_stable_input(rs, level, weight):
    """Validate a (level, dominant weight) pair; level 0 admits only the
    zero weight (trivial module)."""
    if level < 0:
        raise ValueError("level must be non-negative")
    weight = rs.check_dominant(weight)
    if level == 0 and any(weight):
        raise ValueError("level 0 admits only the zero weight")
    return weight


def _lowest(rs, weight):
    """w0*weight for a dominant weight: w0 maps the dominant chamber onto
    the antidominant one, which meets each Weyl orbit once, so w0*weight =
    -dom(-weight)."""
    return rs.scale(-1, rs._to_dominant(rs.scale(-1, weight))[0])


def _word(rs, level, extremal):
    """The straightened top of the affine weight ``(extremal, level, 0)``
    and the word whose operators build its module from the top's monomial,
    after refusing a weight bound too wide for the key fields (see
    ``_demazure_from``)."""
    top, word = straighten(rs, AffineWeight(extremal, level, 0))
    nu = rs.add(top.finite, rs.scale(top.delta, rs.theta.coords))
    bound = sum(rs.pairings(nu))
    if bound >= 1 << _BITS - 1:
        raise RuntimeError(
            f"internal error: weight bound {bound} of {top} overflows the {_BITS}-bit fields of the"
            " keys its Demazure chain reads and writes"
        )
    return top, word


def _run(rs, level, word, chain):
    """Apply the operators of ``word`` to ``chain``, first letter first."""
    for letter in word:
        chain = demazure_operator(rs, letter, chain, level)
    return chain


def _demazure_from(rs, level, top, word, bound):
    """Apply the Demazure operators of ``word``, the word that straightens
    an affine weight to ``top`` (see ``_word``), to the monomial of
    ``top``, with digits wider than ``bound``, and decode the chain.

    Bounds.  Every key the chain's operators read or write is a weight of
    the Demazure module V of the whole word.  Each chain weight w is a
    weight of the module of a prefix of the word, which V contains; the
    operator at node i reads the mirror s_i(w) and walks the i-string
    between w and s_i(w), and all of these are weights of the module of the
    prefix one letter longer, which is stable under node i's sl_2 and also
    lies in V.  This holds for k < 0 too, where the operator reads the
    mirror without writing it.  A weight of V lies at grade 0..delta (grade
    0 holds the extremal weight, delta the top), and its finite part is
    Weyl-conjugate to a dominant weight below nu = top + delta*theta.  So
    no field of a key exceeds B = sum over beta > 0 of nu(h_beta) in size,
    and a B too wide for the fields is refused up front (``_word``).

    Exactness.  A weight's value is its grade polynomial P(X) = sum over g
    of c(g) X^g, evaluated at X = 2**width.  Evaluation is a ring
    homomorphism Z[X] -> Z, and the operators only add, subtract, multiply
    by X^k and divide by X.  Each division is exact on the polynomials: a
    node-0 string of k steps ends k grades lower, at a weight of V, so at a
    grade >= 0.  The operator checks that the integer division is exact too
    (an internal error otherwise), so every value is exactly P(2**width),
    whatever its digits look like on the way.  Each c(g) is a graded weight
    multiplicity of the word's module, which lies in the stable module D of
    the weight, so it is at most dim D.  ``demazure_character`` always
    bounds by dim D, from ``_dimension`` or else from the D_u route
    (``_isotypic_dimension``); ``graded_isotypic`` does where ``_dimension``
    knows it, and elsewhere runs its word once without grades first: D_0
    commutes with forgetting the grade, so the chain at width 0 gives m(w)
    = P(1), which bounds every c(g) of w.  Then the base-2**width digits of
    P(2**width) are the c(g).  ``_unpack`` refuses a value below 0 or a
    digit above grade delta, and each builder checks the digits' sum
    against its total.  A carry lowers the digit sum by 2**width - 1 >=
    bound, so a wrong dim D is caught unless the true one exceeds it by a
    multiple of 2**width - 1, more than doubling it: each
    ``demazure_character`` checks the paper's dimension identity, or the D_u
    route, whose word differs from its own.
    """
    width = 8 * _digit_bytes(bound)
    chain = _run(rs, level, word, _Chain({_pack(rs, top.finite): 1 << width * top.delta}, width))
    return _unpack(rs, chain, top.delta)


def _kr_summands(rs, level, a):
    """The highest weights of the irreducible summands of the KR module
    D(level, ``kr_weight(a, level)``) on types A-D, each summand once, by
    Chari's decompositions (Chari 2001; Kleber 1998; HKOTT 2002): the sums
    of ``level`` units, repeats allowed, from the node's units below, where
    omega_0 is the zero weight.
      B_n, a < n, and D_n, a <= n - 2: omega_j for j = a, a - 2, ... >= 0;
      B_n, a = n: 2*omega_n, and omega_j for j = n - 2, n - 4, ... >= 0;
      C_n, a < n: 2*omega_j for j = a, a - 1, ..., 0.
    Every other node's one unit is d_a*omega_a, its whole module V(level *
    d_a*omega_a) (level-dominant, as omega_a(h_theta) = 1 there)."""
    n, series = rs.rank, rs.series

    def omega(j):
        return rs.fundamental_weight(j) if j else rs.zero_weight()

    if series == "C" and a < n:
        units = [rs.scale(2, omega(j)) for j in range(a, -1, -1)]
    elif series == "B" and a == n:
        units = [rs.scale(2, omega(n)), *map(omega, range(n - 2, -1, -2))]
    elif series == "B" or series == "D" and a <= n - 2:
        units = list(map(omega, range(a, -1, -2)))
    else:
        units = [rs.kr_weight(a, 1)]
    return [tuple(map(sum, zip(*parts))) for parts in combinations_with_replacement(units, level)]


def _dimension(rs, level, weight):
    """The exact dimension of D(level, weight), for a dominant weight at
    level >= 1, or None; never a bound.

    The paper's factorization: split the weight greedily as lam0 + sum of
    s_a * ``kr_weight(a, level)``.  When lam0(h_theta) <= level the module
    is V(lam0) fused with s_a copies of each node's KR module, so dim D =
    dim V(lam0) * product of (dim D(level, kr_weight(a, level)))^s_a.  A
    smaller s_a only raises lam0(h_theta), so no other split can apply when
    the greedy one does not.  Two rules size a KR factor D(level, w): on
    types A-D it is the sum of Weyl's formula over Chari's summands
    (``_kr_summands``); on E6-E8, F4 and G2 it is V(w) by Weyl's formula
    when w(h_theta) <= level (Fourier-Littelmann 2007), else it is sized by
    the D_u route (``_isotypic_dimension``), unless it is the request
    itself, which gives None."""
    steps = [d * level for d in rs.d_simple]
    lam0 = tuple(c % step for c, step in zip(weight, steps))
    if rs.theta_pairing(lam0) > level:
        return None
    powers = {a: c // step for a, (c, step) in enumerate(zip(weight, steps), 1) if c >= step}

    def size(a):
        w = rs.kr_weight(a, level)
        if rs.series in "ABCD":
            return sum(map(rs.weyl_dimension, _kr_summands(rs, level, a)))
        if rs.theta_pairing(w) <= level:
            return rs.weyl_dimension(w)
        return None if w == weight else _isotypic_dimension(rs, level, w)

    factors = {a: size(a) for a in powers}
    if None in factors.values():
        return None
    return prod((factors[a] ** s for a, s in powers.items()), start=rs.weyl_dimension(lam0))


def demazure_character(rs, level, weight):
    """Graded character of the level-``level`` stable Demazure module of a
    dominant weight, computed along the straightened reduced word.

    The result has all grades >= 0, its grade-0 slice is the irreducible
    character of ``weight``, and ``weight`` itself carries multiplicity 1.
    At level 0 only the zero weight is admissible (trivial module).  The
    chain runs once, its digits sized by the module's dimension: the
    paper's factorization where ``_dimension`` knows it, else the D_u
    route's (``_isotypic_dimension``), whose word differs from this one.
    Either way the digits must sum to it.  A walk past its step cap or a
    weight bound too wide for the key fields is refused (``_word``) before
    that dimension is computed, which for such a weight is a power too
    large to hold.
    """
    weight = _check_stable_input(rs, level, weight)
    if level == 0:
        return GradedCharacter.unit(rs)
    top, word = _word(rs, level, _lowest(rs, weight))
    dim = _dimension(rs, level, weight)
    if dim is None:
        dim = _isotypic_dimension(rs, level, weight)
    char = _demazure_from(rs, level, top, word, dim)
    got = sum(char.terms.values())
    if got != dim:
        raise RuntimeError(
            f"internal error: the graded Demazure chain's {8 * _digit_bytes(dim)}-bit digits sum to"
            f" {got}, not to the module's dimension {dim}"
        )
    return char


def graded_isotypic(rs, level, weight):
    """Graded isotypic decomposition of the same module as
    :func:`demazure_character`: ``{(dominant weight, grade): multiplicity}``,
    every multiplicity positive, in sorted (weight, grade) order.

    The module is stable under the finite Lie algebra, so its Weyl group
    element factors as w0*u with lengths adding, and D_w = D_w0 D_u; u is
    the word that straightens ``(weight, level, 0)``.  Only u's operators
    are applied.  D_w0 then sends each monomial e^mu to the Weyl character
    sign(v)*chi(v.mu) when mu + rho is regular and to 0 otherwise (the
    Demazure character formula with Bott's rule).  A negative multiplicity
    would contradict the stability and is an internal error.  Where
    ``_dimension`` knows dim D, the chain runs once and the sum over lam of
    m_lam * dim V(lam) must be dim D: Bott's rule and Weyl's formula meet
    the paper's factorization, which share no code with the chain.  Else a
    first pass of the same word without grades sizes the digits (see
    ``_demazure_from``), and they must sum to its total.
    """
    weight = _check_stable_input(rs, level, weight)
    if level == 0:
        return {(weight, 0): 1}
    top, word = _word(rs, level, weight)
    dim = _dimension(rs, level, weight)
    if dim is None:
        counts = _run(rs, level, word, _Chain({_pack(rs, top.finite): 1}, 0)).terms.values()
        bound, total = max(counts), sum(counts)
    else:
        bound = total = dim
    char = _demazure_from(rs, level, top, word, bound)
    out, last = {}, None
    for (mu, g), m in char.terms.items():  # a weight's grades are adjacent and share its tuple
        if mu is not last:
            last, hit = mu, rs.dot_straighten(mu)
        if hit is not None:
            out[hit[0], g] = out.get((hit[0], g), 0) + hit[1] * m
    for (lam, g), m in out.items():
        if m < 0 or g < 0:
            raise RuntimeError(
                f"internal error: multiplicity {m} of {lam} at grade {g} in the module of {weight}"
            )
    got = sum(char.terms.values()) if dim is None else _weyl_total(rs, out)
    if got != total:  # the digits against the grade-free pass, or Bott's rule against dim D
        raise RuntimeError(f"internal error: the level-{level} module of {weight} totals {got}, not {total}")
    return {key: out[key] for key in sorted(out) if out[key]}


def _weyl_total(rs, components):
    """The sum of m * dim V(lam) over ``{(lam, grade): m}``, summed over
    grades first, so one Weyl dimension per distinct lam."""
    summed = {}
    for (lam, _), m in components.items():
        summed[lam] = summed.get(lam, 0) + m
    return sum(m * rs.weyl_dimension(lam) for lam, m in summed.items())


def _isotypic_dimension(rs, level, weight):
    """dim D(level, weight) by the D_u route: Bott's rule on the module's
    ``graded_isotypic``, and Weyl's formula on each component."""
    return _weyl_total(rs, graded_isotypic(rs, level, weight))


def kr_character(rs, level, node):
    """Graded character of the Kirillov-Reshetikhin module at one node,
    realised as the Demazure character of d_i * level * omega_i."""
    return demazure_character(rs, level, rs.kr_weight(node, level))


class Relation(namedtuple("Relation", "root_coords pairing s m nilpotency_order")):
    """Defining relations attached to one positive root in the presentation
    of a stable Demazure module as a quotient of the local Weyl module.

    The lowering operator at the root always vanishes from t-power ``s``
    on; when ``nilpotency_order`` (an int or None) is not None the operator
    at t-power ``s - 1`` is additionally nilpotent of that order.
    """

    __slots__ = ()

    def to_dict(self):
        return {
            "alpha": list(self.root_coords),
            "pairing": self.pairing,
            "s": self.s,
            "m": self.m,
            "power_relation": {"t_exponent": self.s},
            "nilpotency_relation": (
                None
                if self.nilpotency_order is None
                else {"t_exponent": self.s - 1, "power": self.nilpotency_order}
            ),
        }


def presentation(rs, level, weight):
    """The per-root relation data (s, m) for the level-``level`` module.

    For pairing p > 0 these are the unique integers with
    p = (s - 1) * d * level + m and 0 < m <= d * level; for p = 0 both are 0.
    The nilpotency relation is present exactly when p > 0 and m < d * level.
    """
    weight = rs.check_dominant(weight)
    if level < 1:
        raise ValueError("presentation requires level >= 1")
    out = []
    for root, p in zip(rs.positive_roots, rs.pairings(weight)):
        if p == 0:
            s = m = 0
            nil = None
        else:
            cap = root.d * level
            s = -(-p // cap)  # ceil
            m = p - (s - 1) * cap
            if not 0 < m <= cap:
                raise RuntimeError(f"internal error: m={m} outside 1..{cap} at root {root.root_coords}")
            nil = m + 1 if m < cap else None
        out.append(Relation(root.root_coords, p, s, m, nil))
    return out


# ---------------------------------------------------------------------------
# truncated irreducible affine characters by the multiplicity recursion


def affine_irreducible_character_truncated(rs, level, weight, max_grade):
    """Weight multiplicities of the irreducible affine highest-weight module
    of level ``level`` and finite part ``weight``, down to depth ``max_grade``.

    The grade of a term is its depth below the highest weight (so the
    highest weight sits at grade 0 and the grade-0 slice is the irreducible
    finite-type character).  Exact at every depth <= max_grade.

    The one Freudenthal recursion, ``finite.dominant_multiplicities``,
    tabulates the multiplicity of every finite-dominant weight at each
    depth; the slices are the finite Weyl orbits of those weights.
    """
    from .finite import dominant_multiplicities

    weight = rs.check_weight(weight)
    if level < 1:
        raise ValueError("truncated affine characters require level >= 1")
    if max_grade < 0:
        raise ValueError("max_grade must be non-negative")
    if not rs.is_dominant(weight) or rs.theta_pairing(weight) > level:
        raise ValueError(f"{weight} at level {level} is not affine dominant")

    mults = dominant_multiplicities(rs, weight, level, max_grade)
    return GradedCharacter(rs, {
        (w, depth): m for depth, table in enumerate(mults) for mu, m in table.items() for w in rs.weyl_orbit(mu)
    })
