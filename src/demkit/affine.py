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
one addition moves every grade of the weight at once.  The chain runs
twice, first without grades to size the polynomial's digits, and its
values are read back digit by digit, weights in sorted order, so the
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
from itertools import compress

from .charalg import GradedCharacter

__all__ = [
    "AffineWeight",
    "Relation",
    "straighten",
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

    Termination is guaranteed at positive level; the walk's step cap is a
    defensive bound and tripping it is reported as an internal error.
    """
    if aw.level < 1:
        raise ValueError("straightening requires level >= 1; level 0 weights index the trivial module")
    finite, word, lift = rs._to_dominant(aw.finite, aw.level)
    return AffineWeight(finite, aw.level, aw.delta + lift), tuple(reversed(word))


def _pack(rs, weight):
    """A chain key as one int of ``_FIELD``-sized fields, each offset by
    half its range: field 0 holds -weight(h_theta), the finite part of the
    pairing with the zeroth coroot, fields 1..n the weight.  A difference
    of keys is a string step."""
    fields = (-rs.theta_pairing(weight), *weight)
    return sum(f + (1 << _BITS - 1) << _BITS * j for j, f in enumerate(fields))


def _digit_bytes(counts):
    """Bytes per grade digit: the fewest of 1, 2, 4, 8, 16, ... whose
    digits exceed every one of ``counts``."""
    need = max((m.bit_length() for m in counts.values()), default=0)
    size = 1
    while 8 * size < need:
        size *= 2
    return size


def _unpack(rs, chain, counts, delta):
    """The ``GradedCharacter`` of a chain, its terms in canonical (weight,
    grade) order: the base-2**width digits of a weight's value are its
    multiplicities at grades 0..delta.  The weight fields of each key are
    decoded once, the decoded weights are sorted, and every grade of a
    weight shares its one tuple.

    A value must be non-negative with no digit above grade ``delta``, its
    digits must sum to the weight's entry in ``counts`` (the width-0
    chain), and both chains must hold the same weights; anything else is
    an internal error (see ``_demazure_from``)."""
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
    if len(chain.terms) != len(counts):
        raise RuntimeError(
            f"internal error: the graded Demazure chain holds {len(chain.terms)} weights, its"
            f" grade-free pass {len(counts)}"
        )
    keys = {fields.unpack(((key ^ flip) >> _BITS).to_bytes(fields.size, "little")): key
            for key in chain.terms}
    terms = {}
    for w in sorted(keys):
        key = keys[w]
        p = chain.terms[key]
        mults = digits(p.to_bytes(span, "little")) if 0 <= p < limit else None
        if mults is None or sum(mults) != counts.get(key):
            raise RuntimeError(
                f"internal error: the grade polynomial of weight {w} does not decode in"
                f" {chain.width}-bit digits at grades 0..{delta}"
            )
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
    weight = rs.check_dominant(weight)
    if level < 0:
        raise ValueError("level must be non-negative")
    if level == 0 and any(weight):
        raise ValueError("level 0 admits only the zero weight")
    return weight


def _demazure_from(rs, level, extremal):
    """Apply the Demazure operators of the word that straightens the affine
    weight ``(extremal, level, 0)``, starting from the dominant monomial.

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
    and a B too wide for the fields is refused up front.

    Exactness.  A weight's value is its grade polynomial P(X) = sum over g
    of c(g) X^g, evaluated at X = 2**width.  Evaluation is a ring
    homomorphism Z[X] -> Z, and the operators only add, subtract, multiply
    by X^k and divide by X.  Each division is exact on the polynomials: a
    node-0 string of k steps ends k grades lower, at a weight of V, so at a
    grade >= 0.  The operator checks that the integer division is exact too
    (an internal error otherwise), so every value is exactly P(2**width),
    whatever its digits look like on the way.  D_0 commutes with forgetting
    the grade, so the same chain at width 0 gives m(w) = P(1), the
    dimension of the w weight space.  The coefficients c(g) are dimensions
    of graded pieces of that space, so each is at most m(w), and the chain
    runs again with 2**width above every m(w): then the base-2**width
    digits of P(2**width) are the c(g).  ``_unpack`` still checks that
    every value is non-negative with no digit above grade delta, that its
    digits sum to m(w), and that both chains hold the same weights.  A
    coefficient too wide for its digit would carry, and each carry lowers
    the digit sum by 2**width - 1, so the decode cannot give a wrong
    character: it gives the right one or an internal error.
    """
    top, word = straighten(rs, AffineWeight(extremal, level, 0))
    nu = rs.add(top.finite, rs.scale(top.delta, rs.theta.coords))
    bound = sum(rs.pairing(nu, b) for b in range(len(rs.positive_roots)))
    if bound >= 1 << _BITS - 1:
        raise RuntimeError(
            f"internal error: weight bound {bound} of {top} overflows the {_BITS}-bit fields of the"
            " keys its Demazure chain reads and writes"
        )
    key = _pack(rs, top.finite)
    counts = _Chain({key: 1}, 0)
    for letter in word:
        counts = demazure_operator(rs, letter, counts, level)
    width = 8 * _digit_bytes(counts.terms)
    chain = _Chain({key: 1 << width * top.delta}, width)
    for letter in word:
        chain = demazure_operator(rs, letter, chain, level)
    return _unpack(rs, chain, counts.terms, top.delta)


def demazure_character(rs, level, weight):
    """Graded character of the level-``level`` stable Demazure module of a
    dominant weight, computed along the straightened reduced word.

    The result has all grades >= 0, its grade-0 slice is the irreducible
    character of ``weight``, and ``weight`` itself carries multiplicity 1.
    At level 0 only the zero weight is admissible (trivial module).
    """
    weight = _check_stable_input(rs, level, weight)
    if level == 0:
        return GradedCharacter.unit(rs)
    # w0 maps the dominant chamber onto the antidominant one, which meets
    # each Weyl orbit once: w0*weight = -dom(-weight)
    extremal = rs.scale(-1, rs._to_dominant(rs.scale(-1, weight))[0])
    return _demazure_from(rs, level, extremal)


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
    would contradict the stability and is an internal error.
    """
    weight = _check_stable_input(rs, level, weight)
    if level == 0:
        return {(weight, 0): 1}
    out = {}
    bott = {}  # one weight recurs at many grades
    for (mu, g), m in _demazure_from(rs, level, weight).terms.items():
        if mu not in bott:
            bott[mu] = rs.dot_straighten(mu)
        hit = bott[mu]
        if hit is not None:
            key = (hit[0], g)
            out[key] = out.get(key, 0) + hit[1] * m
    for (lam, g), m in out.items():
        if m < 0 or g < 0:
            raise RuntimeError(
                f"internal error: multiplicity {m} of {lam} at grade {g} in the module of {weight}"
            )
    return {key: out[key] for key in sorted(out) if out[key]}


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
    for idx, root in enumerate(rs.positive_roots):
        p = rs.pairing(weight, idx)
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
