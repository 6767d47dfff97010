"""Finite-type character oracles and the surjection-existence criterion.

One multiplicity recursion, :func:`dominant_multiplicities`, tabulates
every finite-dominant weight of an affine module at each depth; the
truncated affine character is those tables and the finite one their
depth-0 slice, each multiplicity expanded over its Weyl orbit.  The root
system memoises only each irreducible's slice; :func:`isotypic_character`
is the one orbit expansion, and tensor product extraction reads slices.
The test suite (``tests/conftest.py``) holds the finite characters to an
independent route, the divided-difference operators along a reduced word
for the longest Weyl element; the two share no algorithmic step, which
is what makes their exact agreement a meaningful cross-check.

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

from operator import add

from .charalg import GradedCharacter

__all__ = [
    "weyl_character",
    "dominant_multiplicities",
    "isotypic_character",
    "weyl_dimension",
    "tensor_decompose",
    "surjection_exists",
    "min_condition_failure",
]


def weyl_character(rs, weight):
    """Character of the irreducible module of a dominant highest weight:
    the isotypic character of that weight alone (all grades 0)."""
    return isotypic_character(rs, {(rs.check_dominant(weight), 0): 1})


def _weyl_table(rs, weight):
    """The dominant multiplicities of the irreducible module of a dominant
    ``weight``, memoised on ``rs``: the depth-0 slice of the recursion."""
    if weight not in rs._weyl_cache:
        rs._weyl_cache[weight] = dominant_multiplicities(rs, weight, rs.theta_pairing(weight), 0)[0]
    return rs._weyl_cache[weight]


def dominant_multiplicities(rs, top, level, max_depth):
    """Freudenthal's recursion (Kac, Infinite-dimensional Lie algebras,
    11.14) for the irreducible affine module of highest weight
    ``level * Lambda_0 + top``: for each depth d <= ``max_depth``, the map
    ``{mu: multiplicity}`` over every finite-dominant weight mu of the
    module at depth d below the highest weight, all of them <= top + d*theta.

    Every level-dominant such mu is a weight of the module (Kac 12.6), and
    every real-root string through a weight is unbroken, so each string
    stops at its first weight with no multiplicity.  A weight past the level
    is read through node 0: the affine chamber walk raises it to a
    level-dominant weight, tabulated at a depth lower by the walk's lift.
    The depth-0 slice is the finite irreducible module of ``top``: with
    ``level = top(h_theta)`` the call ``(rs, top, level, 0)`` is the finite
    recursion.  All arithmetic is exact.
    """
    D = rs.pairing_scale
    top_norm = rs.weight_norm2(rs.add(top, rs.rho))
    # depth + height is the affine height below the highest weight; walks
    # and string steps lower it, so each weight read is tabulated already
    candidates = sorted(
        (depth + height, depth, mu)
        for depth in range(max_depth + 1)
        for mu, height in rs.dominant_weights_below(rs.add(top, rs.scale(depth, rs.theta.coords))).items()
    )
    mults = [{} for _ in range(max_depth + 1)]
    for height, depth, mu in candidates:
        if not height:
            mults[0][mu] = 1
            continue
        excess = depth and rs.theta_pairing(mu) - level  # no weight at depth 0 is past it
        if excess > 0:
            # the walk's first step, at node 0, already lifts by the excess;
            # a lift past the depth rises above the highest weight
            if excess <= depth:
                dom, _, lift = rs._to_dominant(mu, level)
                if lift <= depth and dom in mults[depth - lift]:
                    mults[depth][mu] = mults[depth - lift][dom]
            continue
        acc = 0
        # real roots alpha + m*delta: m = 0 takes positive alpha only, while
        # m >= 1 takes alpha of both signs.  Adding j copies raises the
        # weight by j*alpha in the finite part and lowers the depth by j*m.
        for idx, root in enumerate(rs.positive_roots):
            scale = D // root.d  # D*(mu, alpha) = scale * mu(h_alpha)
            base = scale * rs.pairing(mu, idx)
            up = root.coords
            for sign, step in ((1, up), (-1, tuple(-c for c in up))) if depth else ((1, up),):
                for m in range(sign < 0, depth + 1):
                    # D*(mu + j*beta, beta) for beta = sign*alpha + m*delta
                    pair = sign * base + D * level * m
                    cur = mu
                    d2 = depth - m
                    while d2 >= 0:
                        cur = tuple(map(add, cur, step))
                        rep = rs.dominant_representative(cur)
                        mm = mults[d2].get(rep)
                        if not mm:
                            break
                        pair += 2 * scale
                        acc += pair * mm
                        d2 -= m
        # imaginary roots m*delta, each of multiplicity rank
        for m in range(1, depth + 1):
            for d2 in range(depth - m, -1, -m):
                acc += rs.rank * D * level * m * mults[d2].get(mu, 0)
        # D*(|top + rho^|^2 - |mu - depth*delta + rho^|^2), from the L*D units of weight_norm2
        den, rem = divmod(top_norm - rs.weight_norm2(rs.add(mu, rs.rho)), rs.lattice_scale)
        den += 2 * depth * (level + rs.dual_coxeter) * D
        num = 2 * acc
        if rem or den <= 0 or num % den:
            raise RuntimeError(f"internal error: non-integral multiplicity at {mu}, depth {depth}")
        if num <= 0:
            raise RuntimeError(f"internal error: non-positive multiplicity at {mu}, depth {depth}")
        mults[depth][mu] = num // den
    return mults


def isotypic_character(rs, components):
    """The graded character whose isotypic decomposition is ``components``,
    a map ``{(dominant weight, grade): multiplicity}``.  The dominant
    multiplicities of the irreducibles are summed per grade first, so each
    (weight, grade) is expanded over its Weyl orbit once."""
    dominant = {}
    for (lam, g), c in components.items():
        for mu, m in _weyl_table(rs, lam).items():
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
        for w, m in _weyl_table(rs, pick).items():
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

