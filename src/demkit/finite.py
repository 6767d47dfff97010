"""Finite-type character oracles and the surjection-existence criterion.

Irreducible characters come from the multiplicity recursion over the
dominant weights below the highest weight, each multiplicity then expanded
over its Weyl orbit.  The test suite (``tests/conftest.py``) holds them to
an independent route, the divided-difference operators along a reduced
word for the longest Weyl element; the two share no algorithmic step,
which is what makes their exact agreement a meaningful cross-check.

Tensor product multiplicities are obtained by iterated extraction of maximal
isotypic components in one fixed order, tracking dominant weights only; the
multiset extracted does not depend on that order, since irreducible
characters are linearly independent.  The surjection
criterion compares two such decompositions by multiplicity domination: for
finite-dimensional modules over a simple Lie algebra a surjective
equivariant map exists exactly when every isotypic multiplicity of the
target is at most the corresponding multiplicity of the source.
"""

from __future__ import annotations

from .charalg import GradedCharacter

__all__ = [
    "weyl_character",
    "isotypic_character",
    "weyl_dimension",
    "tensor_decompose",
    "surjection_exists",
    "min_condition_failure",
]


def weyl_character(rs, weight):
    """Character of the irreducible module of a dominant highest weight,
    by the exact multiplicity recursion (all grades 0)."""
    return _weyl_entry(rs, rs.check_dominant(weight))[0]


def _weyl_entry(rs, weight):
    """``(character, dominant multiplicities)`` of the irreducible module
    of a dominant ``weight``, memoised together on ``rs``."""
    hit = rs._weyl_cache.get(weight)
    if hit is not None:
        return hit

    heights = rs.dominant_weights_below(weight)
    dominant = sorted(heights, key=lambda w: (heights[w], w))

    bound = rs.weight_norm2(rs.add(weight, rs.rho))
    D = rs.pairing_scale
    mult = {weight: 1}
    for mu in dominant:
        if mu == weight:
            continue
        acc = 0
        for idx, root in enumerate(rs.positive_roots):
            # D*(mu + j*alpha, alpha) = (D // d)*k, k = (mu + j*alpha)(h_alpha)
            k = rs.pairing(mu, idx)
            cur = mu
            while True:
                cur = tuple(c + a for c, a in zip(cur, root.coords))
                rep = rs.dominant_representative(cur)
                if rep not in heights:
                    break
                k += 2
                acc += D // root.d * k * mult[rep]
        den = rs.freudenthal_denominator(bound, mu)
        num = 2 * acc
        if den <= 0 or num % den:
            raise RuntimeError(f"internal error: non-integral multiplicity at {mu}")
        m = num // den
        if m <= 0:
            raise RuntimeError(f"internal error: non-positive multiplicity at {mu}")
        mult[mu] = m

    terms = {(w, 0): m for mu, m in mult.items() for w in rs.weyl_orbit(mu)}
    entry = rs._weyl_cache[weight] = (GradedCharacter(rs, terms), mult)
    return entry


def isotypic_character(rs, components):
    """The graded character whose isotypic decomposition is ``components``,
    a map ``{(dominant weight, grade): multiplicity}``.  The dominant
    multiplicities of the irreducibles are summed per grade first, so each
    (weight, grade) is expanded over its Weyl orbit once."""
    dominant = {}
    for (lam, g), c in components.items():
        for mu, m in _weyl_entry(rs, lam)[1].items():
            dominant[(mu, g)] = dominant.get((mu, g), 0) + c * m
    return GradedCharacter(
        rs, {(w, g): m for (mu, g), m in dominant.items() for w in rs.weyl_orbit(mu)}
    )


def weyl_dimension(rs, weight):
    """Dimension of the irreducible module, by the product over positive
    roots of (weight + rho, alpha) / (rho, alpha), read as coroot pairings
    (weight + rho)(h_alpha) / rho(h_alpha); exact integers."""
    weight = rs.check_dominant(weight)
    shifted = rs.add(weight, rs.rho)
    num = 1
    den = 1
    for idx in range(len(rs.positive_roots)):
        num *= rs.pairing(shifted, idx)
        den *= rs.pairing(rs.rho, idx)
    if num % den:
        raise RuntimeError(f"internal error: non-integral dimension for {weight}")
    return num // den


def tensor_decompose(rs, char):
    """Isotypic multiplicities of a genuine character: a map from dominant
    weights to positive multiplicities whose irreducible characters sum back
    to the input exactly.

    The input is Weyl-symmetric, so only its dominant multiplicities are
    tracked (Stembridge 2001).  Each round picks a maximal weight of the
    remaining support in one pass over it, in descending lexicographic order,
    moving to a weight whenever it dominates the one held; then it subtracts
    the dominant multiplicities of that irreducible.

    Raises ValueError for inputs that are not characters (wrong grading,
    not Weyl-symmetric, or extraction driving a multiplicity negative).
    """
    if not char.is_plain:
        raise ValueError("tensor decomposition expects an ungraded character")
    if not char.is_w_invariant():
        raise ValueError("not a character: support is not Weyl-symmetric")
    remaining = {w: m for (w, _), m in char.terms.items() if rs.is_dominant(w)}
    out = {}
    while remaining:
        order = iter(sorted(remaining, reverse=True))
        pick = next(order)
        for w in order:
            if rs.dominates(w, pick):
                pick = w
        mult = remaining[pick]
        if mult < 0:
            raise ValueError(f"not a character: negative multiplicity at {pick}")
        out[pick] = mult
        for w, m in _weyl_entry(rs, pick)[1].items():
            v = remaining.get(w, 0) - mult * m
            if v:
                if v < 0:
                    raise ValueError(f"not a character: negative multiplicity at {w}")
                remaining[w] = v
            else:
                remaining.pop(w, None)
    return out


def surjection_exists(source, target):
    """Whether a surjective equivariant map can exist from the module with
    isotypic decomposition ``source`` onto the one with ``target`` (both as
    returned by :func:`tensor_decompose`), by multiplicity domination.

    Returns ``(flag, witness)``; the witness is the first dominant weight
    (in sorted coordinate order) whose target multiplicity exceeds the
    source one, or None.
    """
    for w in sorted(target):
        if target[w] > source.get(w, 0):
            return False, w
    return True, None


def min_condition_failure(rs, lower, upper):
    """Index of the first positive root at which the smaller pairing of the
    two weights ``lower`` exceeds the smaller pairing of the two weights
    ``upper``, or None when the componentwise-minimum condition holds."""
    (a, b), (c, d) = lower, upper
    for idx in range(len(rs.positive_roots)):
        if min(rs.pairing(a, idx), rs.pairing(b, idx)) > min(rs.pairing(c, idx), rs.pairing(d, idx)):
            return idx
    return None

