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
chain on terms packed into single ints (``_pack``), so that a string step
is one integer addition.  An operator fixes every s_i-symmetric part of
its input, so it copies the input and walks only the asymmetric part of
each string (``demazure_operator``).

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

_FIELD = "i"  # struct code of one field of a packed chain term: 32 bits
_Chain = namedtuple("_Chain", "terms")  # {packed term: multiplicity}


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


def _pack(rs, weight, grade):
    """A chain term as one int of ``_FIELD``-sized fields, each offset by
    half its range: field 0 holds -weight(h_theta), the finite part of the
    pairing with the zeroth coroot, fields 1..n the weight, field n+1 the
    grade.  A difference of packed terms is a string step."""
    bits = 8 * struct.calcsize(_FIELD)
    fields = (-rs.theta_pairing(weight), *weight, grade)
    return sum(f + (1 << bits - 1) << bits * j for j, f in enumerate(fields))


def _unpack(rs, chain):
    """The ``GradedCharacter`` of packed terms, in their order.  The weight
    fields of each distinct weight are decoded once, and every grade of
    the weight shares that one tuple."""
    bits = 8 * struct.calcsize(_FIELD)
    fields = struct.Struct(f"<{rs.rank}{_FIELD}")
    wmask = (1 << bits * rs.rank) - 1 << bits  # fields 1..n; field 0 follows from them
    # flipping the top bit of each field leaves it in two's complement
    flip = _pack(rs, rs.zero_weight(), 0) & wmask
    top, half = bits * (rs.rank + 1), 1 << bits - 1
    weights, terms = {}, {}
    for key, m in chain.terms.items():
        wbits = key & wmask
        w = weights.get(wbits)
        if w is None:
            w = weights[wbits] = fields.unpack(((wbits ^ flip) >> bits).to_bytes(fields.size, "little"))
        terms[w, (key >> top) - half] = m
    return GradedCharacter(rs, terms)


def demazure_operator(rs, i, chain, level):
    """One isobaric divided-difference operator D_i, applied to the packed
    terms of a Demazure chain (see ``_pack``).

    On a monomial e^w with k = <w, h_i>, D_i gives the string e^w + e^(w -
    a_i) + ... + e^(s_i w) when k >= 0, nothing when k == -1, and minus the
    interior of the string e^(w + a_i) + ... + e^(s_i w - a_i) when k <= -2.
    So D_i fixes e^w + e^(s_i w), and with a(w) = c(w) - c(s_i w) for the
    coefficients c of the input f,

        D_i f = f + sum over k > 0 of a(w) (e^(w - a_i) + ... + e^(s_i w)).

    The output starts as a copy of the input, and only the asymmetric part
    of each string is walked: a term with k > 0 walks its k steps when a(w)
    is nonzero, and a term with k < 0 whose mirror s_i w is absent walks the
    mirror's string with -c(w).  This is exact on any input.  k is field i
    of the term, plus ``level`` at node 0; a string step adds one int.
    """
    bits = 8 * struct.calcsize(_FIELD)
    shift, mask = bits * i, (1 << bits) - 1
    base = (level if i == 0 else 0) - (1 << bits - 1)
    # node 0 walks along +theta and lowers the grade; node i walks along
    # -alpha_i at a fixed grade; key + k*fwd is the mirror s_i(key)
    zero = _pack(rs, rs.zero_weight(), 0)
    if i == 0:
        fwd = _pack(rs, rs.theta.coords, -1) - zero
    else:
        fwd = zero - _pack(rs, rs.simple_root_coords[i - 1], 0)
    terms = chain.terms
    out = dict(terms)
    get = out.get
    for key, m in terms.items():
        k = (key >> shift & mask) + base
        if k > 0:
            m -= terms.get(key + k * fwd, 0)
            if not m:
                continue
        elif k < 0:
            mirror = key + k * fwd
            if mirror in terms:
                continue
            key, k, m = mirror, -k, -m
        else:
            continue
        for _ in range(k):
            key += fwd
            v = get(key, 0) + m
            if v:
                out[key] = v
            else:
                del out[key]
    return _Chain(out)


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

    Every key the chain's operators read or write is a weight of the
    Demazure module V of the whole word.  Each chain term w is a weight of
    the module of a prefix of the word, which V contains; the operator at
    node i reads the mirror s_i(w) and walks the i-string between w and
    s_i(w), and all of these are weights of the module of the prefix one
    letter longer, which is stable under node i's sl_2 and also lies in V.
    This holds for k < 0 too, where the operator reads the mirror without
    writing it: at node 0 that key has finite part s_theta(w) + level*theta
    and grade g - k, above w's grade g.  A weight of V lies at grade
    0..delta (grade 0 holds the extremal weight, delta the top), and its
    finite part is Weyl-conjugate to a dominant weight below nu = top +
    delta*theta.  So no field of a key exceeds B = sum over beta > 0 of
    nu(h_beta) >= 2*delta in size, and a B too wide for the fields is
    refused up front.
    """
    top, word = straighten(rs, AffineWeight(extremal, level, 0))
    nu = rs.add(top.finite, rs.scale(top.delta, rs.theta.coords))
    bound = sum(rs.pairing(nu, b) for b in range(len(rs.positive_roots)))
    bits = 8 * struct.calcsize(_FIELD)
    if bound >= 1 << bits - 1:
        raise RuntimeError(
            f"internal error: weight bound {bound} of {top} overflows the {bits}-bit fields of the"
            " keys its Demazure chain reads and writes"
        )
    chain = _Chain({_pack(rs, top.finite, top.delta): 1})
    for letter in word:
        chain = demazure_operator(rs, letter, chain, level)
    return _unpack(rs, chain)


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
    char = _demazure_from(rs, level, extremal)
    if any(g < 0 for (_, g) in char.terms):
        raise RuntimeError(f"internal error: negative grade in the character of {weight}")
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
