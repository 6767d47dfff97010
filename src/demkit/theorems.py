"""Verification harness: one operation per verified claim, each returning a
Certificate that embeds both computed sides.

Every certificate names the notion it actually checked (graded character
equality, ungraded character equality, dimension comparison, multiplicity
domination, or an index-set comparison), so a reader can tell exactly what
was established.  Every certificate is built in one place, :class:`_Claim`.

Where a claim needs the isotypic decomposition of a stable Demazure module
(the stabilization windows, ``genschurpos`` and the ``mapsdem``
isomorphism clause), it reads it from :func:`affine.graded_isotypic`
rather than extracting it from the whole character; the other side of
such a comparison keeps its own route.

Each claim checks its hypotheses in a fixed order; the first that fails is
the witness of a ``hypothesis-violated`` certificate, and hypothesis
failures never abort a scan.  A refuted certificate always carries a
minimal witness: one without it is an internal error (``RuntimeError``,
CLI exit 5).
"""

from __future__ import annotations

import json
from functools import reduce
from itertools import chain, product
from math import prod
from operator import gt, mul
from time import perf_counter

__all__ = [
    "Certificate",
    "char_payload",
    "decomp_payload",
    "minuscule_nodes",
    "expected_minuscule_nodes",
    "verify_demprop",
    "verify_mapsdem",
    "verify_krdecom",
    "verify_ev0",
    "verify_twofold",
    "twofold_corollary_thresholds",
    "verify_twofold_corollary",
    "verify_genschurpos",
    "verify_stabilization",
    "verify_minuscule",
    "min_condition_failure",
    "scan_tuples",
    "schur_scan",
    "scan_summary",
]

VERDICTS = ("verified", "refuted", "hypothesis-violated", "inconclusive")
_OUTCOMES = {True: "verified", False: "refuted", None: "inconclusive"}


class Certificate:
    """Machine-checkable record of one verified/refuted claim."""

    # every field but ``elapsed_ms``, which ``to_dict`` adds on request
    _FIELDS = ("claim", "system", "inputs", "lhs", "rhs", "verdict", "notion", "witness", "details")

    def __init__(self, claim, system, inputs, lhs, rhs, verdict, notion,
                 witness=None, details=None, elapsed_ms=0.0):
        self.claim, self.system, self.inputs = claim, system, inputs
        self.lhs, self.rhs, self.verdict, self.notion = lhs, rhs, verdict, notion
        self.witness = witness
        self.details = {} if details is None else details
        self.elapsed_ms = elapsed_ms

    def to_dict(self, include_timing=True):
        out = {name: getattr(self, name) for name in self._FIELDS}
        if include_timing:
            out["elapsed_ms"] = round(self.elapsed_ms, 3)
        return out

    def to_json(self, include_timing=True):
        return json.dumps(self.to_dict(include_timing), sort_keys=True, separators=(",", ":"))


def char_payload(char):
    """JSON-ready term list of a character, canonically ordered."""
    return [
        {"w": list(w), "g": g, "m": str(m)} for (w, g), m in sorted(char.terms.items())
    ]


def decomp_payload(decomp):
    """JSON-ready isotypic decomposition: coordinate keys, decimal strings."""
    return {",".join(map(str, w)): str(m) for w, m in sorted(decomp.items())}


def _char_difference_witness(lhs, rhs):
    """First (weight, grade) where two characters differ, in sorted order."""
    keys = sorted(set(lhs.terms) | set(rhs.terms))
    for key in keys:
        if lhs.terms.get(key, 0) != rhs.terms.get(key, 0):
            return {"weight": list(key[0]), "grade": key[1]}
    return None


class _Claim:
    """One claim's certificate in the making: the claim id, the notion it
    checks, the system, the echoed inputs and the start time."""

    def __init__(self, claim, rs, inputs, notion):
        self.claim = claim
        self.system = rs.name
        self.inputs = inputs
        self.notion = notion
        self.t0 = perf_counter()

    def violated(self, reason):
        """The certificate of a failed hypothesis; ``reason`` is its witness."""
        return Certificate(
            self.claim, self.system, self.inputs, None, None,
            "hypothesis-violated", self.notion, witness=reason,
            elapsed_ms=(perf_counter() - self.t0) * 1e3,
        )

    def conclude(self, ok, lhs, rhs, witness, details=None):
        """The verdict of a computed comparison: ``ok`` True, False or None
        (verified, refuted, inconclusive).  ``witness()`` is called, and
        must return one, only when ``ok`` is not True."""
        verdict = _OUTCOMES[ok]
        found = None if ok else witness()
        if not ok and found is None:
            raise RuntimeError(f"internal error: {self.claim} {verdict} without a witness")
        return Certificate(
            self.claim, self.system, self.inputs, lhs, rhs, verdict, self.notion,
            witness=found, details=details,
            elapsed_ms=(perf_counter() - self.t0) * 1e3,
        )

    def equal(self, lhs, rhs, details):
        """Character equality; the witness is the first term that differs."""
        return self.conclude(
            lhs == rhs, char_payload(lhs), char_payload(rhs),
            lambda: _char_difference_witness(lhs, rhs), details,
        )

    def dominates(self, source, target):
        """Multiplicity domination of one isotypic decomposition by another;
        ``source`` and ``target`` are each a (decomposition, payload) pair."""
        from .finite import surjection_exists

        (source, lhs), (target, rhs) = source, target
        ok, wit = surjection_exists(source, target)
        return self.conclude(ok, lhs, rhs, lambda: list(wit))


# Hypothesis checks shared by several claims: each returns the reason the
# hypothesis fails, or None.


def _level_failure(level):
    return "level must be >= 1" if level < 1 else None


def _lambda_failure(rs, lam, level=None):
    """lam must be dominant and, when ``level`` is given, level-dominant."""
    if not rs.is_dominant(lam):
        return f"lambda {list(lam)} not dominant"
    if level is not None and rs.theta_pairing(lam) > level:
        return f"lambda(h_theta) = {rs.theta_pairing(lam)} exceeds level {level}"
    return None


def _part_failure(rs, weights):
    for w in weights:
        if not rs.is_dominant(w) or not rs.in_gamma(w):
            return f"part {list(w)} not in the d-divisible sublattice"
    return None


def _product_decompositions(rs, pairs):
    """The isotypic decomposition of the product V(a) x V(b) for each pair
    (a, b), with its payload, in the order of ``pairs``.  Each irreducible
    character is built once and each distinct unordered product is
    decomposed once; pairs naming the same product share one entry.  The
    builders are looked up on ``finite`` when this runs."""
    from .finite import tensor_decompose, weyl_character

    keys = [(a, b) if a <= b else (b, a) for a, b in pairs]
    chars = {w: weyl_character(rs, w) for w in dict.fromkeys(chain.from_iterable(keys))}
    table = {}
    for a, b in keys:
        if (a, b) not in table:
            decomp = tensor_decompose(rs, chars[a] * chars[b])
            table[a, b] = decomp, decomp_payload(decomp)
    return [table[key] for key in keys]


def _demazure_decomposition(rs, level, weight):
    """Ungraded isotypic decomposition of a stable Demazure module: its
    graded decomposition summed over grades."""
    from .affine import graded_isotypic

    out = {}
    for (lam, _), m in graded_isotypic(rs, level, weight).items():
        out[lam] = out.get(lam, 0) + m
    return out


# ---------------------------------------------------------------------------
# character factorization of stable Demazure modules


def _fusion_sides(rs, level, lam, parts):
    """The two sides of the fusion identity for parts ``(p, w)``: the
    collapsed D(level, lam + sum of p*w), and the collapsed D(p, p*w) of
    each part, in order, each distinct part built once.  A right-hand side
    multiplies the factors first and the irreducible character of lam last."""
    from .affine import demazure_character

    built = {part: demazure_character(rs, part[0], rs.scale(*part)).collapse()
             for part in dict.fromkeys(parts)}
    weight = reduce(rs.add, (rs.scale(*part) for part in parts), lam)
    return demazure_character(rs, level, weight).collapse(), [built[part] for part in parts]


def verify_demprop(rs, level, parts, lam):
    """Check that the ungraded Demazure character at weight
    level*(sum of parts) + lam factors as the product of the part characters
    times the irreducible character of lam.

    Hypotheses: every part lies in the d-divisible sublattice, and lam pairs
    with the highest coroot at most ``level``.
    """
    from .finite import weyl_character

    lam = rs.check_weight(lam)
    parts = [rs.check_weight(p) for p in parts]
    claim = _Claim(
        "demprop", rs,
        {"level": level, "parts": [list(p) for p in parts], "lambda": list(lam)},
        "ungraded-character",
    )
    reason = _level_failure(level) or _lambda_failure(rs, lam, level) or _part_failure(rs, parts)
    if reason:
        return claim.violated(reason)

    lhs, factors = _fusion_sides(rs, level, lam, [(level, p) for p in parts])
    rhs = reduce(mul, [*factors, weyl_character(rs, lam)])
    factor_dims = [factor.dimension() for factor in factors]
    indep_rhs_dim = prod(factor_dims, start=rs.weyl_dimension(lam))
    details = {
        "lhs_dim": str(lhs.dimension()),
        "rhs_dim": str(rhs.dimension()),
        "factor_dims": [str(d) for d in factor_dims],
        "rhs_dim_independent": str(indep_rhs_dim),
        "dimension_equal": lhs.dimension() == indep_rhs_dim,
    }
    return claim.equal(lhs, rhs, details)


def verify_mapsdem(rs, level, parts, lam):
    """Check the fusion-factorization theorem at the level its proof pins
    down: a dimension inequality for the surjection clause, and exact
    ungraded character equality (plus two-sided multiplicity domination)
    for the isomorphism clause, which applies when every part level equals
    ``level`` and lam is level-dominant.

    ``parts`` is a list of (part_level, part_weight) pairs; the hypothesis
    requires level * mu = sum of part_level * part_weight for some mu in
    the d-divisible sublattice dominating the parts root-wise.
    """
    from .affine import demazure_character
    from .finite import surjection_exists, tensor_decompose, weyl_character

    lam = rs.check_weight(lam)
    parts = [(int(p), rs.check_weight(w)) for p, w in parts]
    iso_clause = bool(parts) and all(p == level for p, _ in parts) and \
        rs.is_dominant(lam) and rs.theta_pairing(lam) <= level
    claim = _Claim(
        "mapsdem-isomorphism" if iso_clause else "mapsdem-surjection", rs,
        {
            "level": level,
            "parts": [{"level": p, "weight": list(w)} for p, w in parts],
            "lambda": list(lam),
        },
        "ungraded-character" if iso_clause else "dimension",
    )
    reason = _level_failure(level) or _lambda_failure(rs, lam)
    for p, w in parts:
        reason = reason or (f"part level {p} must be >= 1" if p < 1 else _part_failure(rs, [w]))
    if reason:
        return claim.violated(reason)
    total = rs.zero_weight()
    for p, w in parts:
        total = rs.add(total, rs.scale(p, w))
    if any(c % level for c in total):
        return claim.violated(f"sum of weighted parts {list(total)} is not divisible by level {level}")
    mu = tuple(c // level for c in total)
    if not rs.is_dominant(mu) or not rs.in_gamma(mu):
        return claim.violated(f"mu {list(mu)} not in the d-divisible sublattice")
    part_pairings = [rs.pairings(w) for _, w in parts]
    for root, have, *each in zip(rs.positive_roots, rs.pairings(mu), *part_pairings):
        need = sum(each)
        if have < need:
            return claim.violated(
                {"failing_alpha": list(root.root_coords), "mu_pairing": have, "parts_pairing": need}
            )

    lhs_char, factors = _fusion_sides(rs, level, lam, parts)
    lhs_dim = lhs_char.dimension()
    # D(level, lam) is V(lam) when lam is level-dominant, as on the isomorphism clause
    lam_dim = (rs.weyl_dimension(lam) if rs.theta_pairing(lam) <= level
               else demazure_character(rs, level, lam).dimension())
    rhs_dim = prod((f.dimension() for f in factors), start=lam_dim)
    details = {"lhs_dim": str(lhs_dim), "rhs_dim": str(rhs_dim)}
    if not iso_clause:
        return claim.conclude(
            lhs_dim >= rhs_dim, str(lhs_dim), str(rhs_dim),
            lambda: {"dimension_deficit": str(rhs_dim - lhs_dim)}, details,
        )
    rhs_char = reduce(mul, [*factors, weyl_character(rs, lam)])
    # the two sides come from independent routes: D_u and Bott's rule on
    # the left, extraction from the product character on the right
    lhs_decomp = _demazure_decomposition(rs, level, rs.add(rs.scale(level, mu), lam))
    rhs_decomp = tensor_decompose(rs, rhs_char)
    fwd, fwd_wit = surjection_exists(lhs_decomp, rhs_decomp)
    bwd, bwd_wit = surjection_exists(rhs_decomp, lhs_decomp)
    details.update(domination_forward=fwd, domination_backward=bwd)
    return claim.conclude(
        lhs_char == rhs_char and fwd and bwd, char_payload(lhs_char), char_payload(rhs_char),
        lambda: _char_difference_witness(lhs_char, rhs_char)
        or {"domination_witness": list(fwd_wit or bwd_wit)},
        details,
    )


def verify_krdecom(rs, level, s_vector, lam):
    """Check the Kirillov-Reshetikhin factorization: the ungraded Demazure
    character at level*mu + lam, mu = sum_i d_i s_i omega_i, equals the
    product of node characters raised to the s_i times the irreducible
    character of lam."""
    from .finite import weyl_character

    lam = rs.check_weight(lam)
    s_vector = tuple(int(s) for s in s_vector)
    claim = _Claim(
        "krdecom", rs, {"level": level, "s_vector": list(s_vector), "lambda": list(lam)},
        "ungraded-character",
    )
    bad_s = len(s_vector) != rs.rank or any(s < 0 for s in s_vector)
    reason = (
        _level_failure(level)
        or (f"s-vector {list(s_vector)} must be {rs.rank} non-negative integers" if bad_s else None)
        or _lambda_failure(rs, lam, level)
    )
    if reason:
        return claim.violated(reason)
    # s_i copies of the level-``level`` KR module at node i, D(level, d_i*level*omega_i)
    parts = [(level, rs.kr_weight(i, 1)) for i, s in enumerate(s_vector, start=1) for _ in range(s)]
    lhs, factors = _fusion_sides(rs, level, lam, parts)
    rhs = reduce(mul, [*factors, weyl_character(rs, lam)])
    details = {"lhs_dim": str(lhs.dimension()), "rhs_dim": str(rhs.dimension())}
    return claim.equal(lhs, rhs, details)


def verify_ev0(rs, level, lam):
    """Check the evaluation-module criterion: the graded Demazure character
    is concentrated in grade 0 and equals the irreducible character exactly
    when lam is level-dominant; otherwise grade 1 must be non-empty."""
    from .affine import demazure_character
    from .finite import weyl_character

    lam = rs.check_weight(lam)
    claim = _Claim("ev0", rs, {"level": level, "lambda": list(lam)}, "graded-character")
    reason = _level_failure(level) or _lambda_failure(rs, lam)
    if reason:
        return claim.violated(reason)
    graded = demazure_character(rs, level, lam)
    irr = weyl_character(rs, lam)
    concentrated = graded.is_plain
    in_level = rs.theta_pairing(lam) <= level
    details = {
        "level_dominant": in_level,
        "concentrated_in_grade_0": concentrated,
        "graded_dimension": {str(g): str(m) for g, m in graded.graded_dimension().items()},
    }
    return claim.conclude(
        (concentrated and graded == irr) if in_level else bool(graded.slice(1)),
        char_payload(graded), char_payload(irr),
        lambda: _char_difference_witness(graded, irr) if in_level else "grade 1 empty",
        details,
    )


# ---------------------------------------------------------------------------
# the minuscule-coweight node table


def minuscule_nodes(rs):
    """Nodes i with d_i * omega_i pairing at most 1 against the highest
    coroot, computed from the built pairings."""
    return [i for i in range(1, rs.rank + 1) if rs.theta_pairing(rs.kr_weight(i, 1)) <= 1]


def expected_minuscule_nodes(series, rank):
    """The classical table of minuscule-coweight nodes, used as a fixture."""
    if series == "A":
        return list(range(1, rank + 1))
    if series == "B":
        return [1]
    if series == "C":
        return [rank]
    if series == "D":
        return [1, rank - 1, rank]
    if series == "E" and rank == 6:
        return [1, 6]
    if series == "E" and rank == 7:
        return [7]
    return []


def verify_minuscule(rs):
    """Compare the computed minuscule-coweight nodes with the classical
    table for this type."""
    claim = _Claim("minuscule", rs, {}, "index-set")
    computed = minuscule_nodes(rs)
    expected = expected_minuscule_nodes(rs.series, rs.rank)
    return claim.conclude(
        computed == expected, computed, expected,
        lambda: sorted(set(computed) ^ set(expected)),
    )


# ---------------------------------------------------------------------------
# surjections between products of irreducibles


def min_condition_failure(low, high):
    """Index of the first positive root h at which ``low`` exceeds
    ``high``, or None when the componentwise-minimum condition
    min(lam1(h), lam2(h)) <= min(mu1(h), mu2(h)) holds at every one; each
    side is the componentwise minimum of its two pairing vectors
    (``RootSystem.pairings``)."""
    fails = list(map(gt, low, high))
    return fails.index(True) if True in fails else None


def verify_twofold(rs, node, level, lam, mu1, mu2):
    """Check multiplicity domination for the two-fold product surjection:
    the product of the node module's irreducible character with the
    irreducible character of lam dominates the product for (mu1, mu2).

    Hypotheses: the node is a minuscule-coweight node, lam is
    level-dominant, the weights balance, and the componentwise-minimum
    condition holds at every positive root.  The domination established is
    the exact criterion for a surjection of modules over the finite-type
    algebra, a necessary condition for the graded current-algebra one.
    """
    lam = rs.check_weight(lam)
    mu1 = rs.check_weight(mu1)
    mu2 = rs.check_weight(mu2)
    claim = _Claim(
        "twofold", rs,
        {"node": node, "level": level, "lambda": list(lam), "mu1": list(mu1), "mu2": list(mu2)},
        "multiplicity-domination",
    )
    if not 1 <= node <= rs.rank:
        return claim.violated(f"node {node} out of range")
    if node not in minuscule_nodes(rs):
        return claim.violated(f"node {node} is not a minuscule-coweight node")
    reason = _level_failure(level) or next(
        (f"weight {list(w)} not dominant" for w in (lam, mu1, mu2) if not rs.is_dominant(w)), None
    ) or _lambda_failure(rs, lam, level)
    if reason:
        return claim.violated(reason)
    kr_weight = rs.kr_weight(node, level)
    if rs.add(kr_weight, lam) != rs.add(mu1, mu2):
        return claim.violated("weights do not balance")
    low, high = (list(map(min, *map(rs.pairings, pair))) for pair in ((mu1, mu2), (kr_weight, lam)))
    idx = min_condition_failure(low, high)
    if idx is not None:
        return claim.violated({
            "failing_alpha": list(rs.positive_roots[idx].root_coords),
            "min_mu": low[idx],
            "min_source": high[idx],
        })
    return claim.dominates(*_product_decompositions(rs, [(kr_weight, lam), (mu1, mu2)]))


def twofold_corollary_thresholds(rs, j, level, m_level):
    """Whether the two-fold product with lam = d_j * m * omega_j is covered:
    lam(h_theta) <= level.  Since lam(h_theta) = d_j * theta_j * m, where
    theta_j is the coefficient of the j-th simple coroot in the highest
    coroot, on A-E7 the factor d_j * theta_j reproduces the paper's table
    (1 at the minuscule-coweight nodes, up to 4 inside the E7 diagram)."""
    lam = rs.kr_weight(j, m_level)  # a bad node is a ValueError
    if m_level < 1:
        raise ValueError("source level must be >= 1")
    return rs.theta_pairing(lam) <= level


def verify_twofold_corollary(rs, node, j, level, m_level, mu1, mu2):
    """The two-fold check specialised to lam = d_j * m_level * omega_j,
    guarded by the thresholds, which are exactly lam's level-dominance.
    E8, F4 and G2 have no minuscule-coweight node, so every input there is
    hypothesis-violated."""
    lam = rs.kr_weight(j, m_level)
    if not twofold_corollary_thresholds(rs, j, level, m_level):
        return _Claim(
            "twofold-corollary", rs,
            {"node": node, "j": j, "level": level, "m_level": m_level,
             "mu1": list(mu1), "mu2": list(mu2)},
            "multiplicity-domination",
        ).violated(f"level {level} below the threshold for node {j} in type {rs.series}")
    cert = verify_twofold(rs, node, level, lam, mu1, mu2)
    cert.claim = "twofold-corollary"
    cert.inputs = dict(cert.inputs, j=j, m_level=m_level)
    return cert


def verify_genschurpos(rs, node, power, level, m_level, lam, mu):
    """Check multiplicity domination for the level-lowering surjection
    between iterated node-module fusions: the level-``m_level`` source
    module dominates the level-``level`` target module, both stable Demazure
    modules whose isotypic decompositions are read off
    :func:`graded_isotypic` and summed over grades.

    Hypothesis: power*d_i*level*omega_i + lam = power*d_i*m_level*omega_i + mu
    with mu m_level-dominant and level >= m_level; lam is then forced to be
    level-dominant and this is asserted, not assumed.
    """
    lam = rs.check_weight(lam)
    mu = rs.check_weight(mu)
    claim = _Claim("genschurpos", rs, {
        "node": node, "power": power, "level": level, "m_level": m_level,
        "lambda": list(lam), "mu": list(mu),
    }, "multiplicity-domination")
    if not 1 <= node <= rs.rank:
        return claim.violated(f"node {node} out of range")
    if power < 1 or m_level < 1 or level < m_level:
        return claim.violated("need power >= 1 and level >= m_level >= 1")
    if not rs.is_dominant(lam) or not rs.is_dominant(mu):
        return claim.violated("weights must be dominant")
    if rs.theta_pairing(mu) > m_level:
        return claim.violated(f"mu(h_theta) = {rs.theta_pairing(mu)} exceeds source level {m_level}")
    weight = rs.add(rs.scale(power, rs.kr_weight(node, m_level)), mu)
    if rs.add(rs.scale(power, rs.kr_weight(node, level)), lam) != weight:
        return claim.violated("weights do not balance")
    if rs.theta_pairing(lam) > level:
        raise RuntimeError("internal error: lambda must be level-dominant when the hypotheses hold")
    # the two modules share their weight and differ in level
    source, target = (_demazure_decomposition(rs, lv, weight) for lv in (m_level, level))
    return claim.dominates((source, decomp_payload(source)), (target, decomp_payload(target)))


# ---------------------------------------------------------------------------
# stabilization of depth-truncated characters


def _top_window(rs, level, weight, max_depth):
    """The Demazure character of ``weight``, re-graded by depth below its
    highest grade and truncated at ``max_depth``; this is the grading in
    which the direct limit stabilizes.  Only the isotypic components inside
    the window are expanded."""
    from .affine import graded_isotypic
    from .finite import isotypic_character

    components = graded_isotypic(rs, level, weight)
    anchor = max(g for (_, g) in components)
    return isotypic_character(rs, {
        (lam, anchor - g): m for (lam, g), m in components.items() if anchor - g <= max_depth
    })


def verify_stabilization(rs, level, lam, max_grade, n_max):
    """Check that depth-truncated Demazure characters along the sequence of
    weights N*level*theta + lam stabilize in N and that the stable value is
    the depth-truncated irreducible affine character -- two independent
    pipelines meeting exactly."""
    from .affine import affine_irreducible_character_truncated

    lam = rs.check_weight(lam)
    claim = _Claim(
        "stabilization", rs,
        {"level": level, "lambda": list(lam), "max_grade": max_grade, "n_max": n_max},
        "graded-character",
    )
    if level < 1 or _lambda_failure(rs, lam, level):
        return claim.violated(_level_failure(level) or "lambda must be level-dominant")
    if max_grade < 0 or n_max < 2:
        return claim.violated("need max_grade >= 0 and n_max >= 2")

    truncations = {}
    for n in range(1, n_max + 1):
        big = rs.add(rs.scale(n * level, rs.theta.coords), lam)
        truncations[n] = _top_window(rs, level, big, max_grade)
    stable_from = None
    for n in range(1, n_max):
        if all(truncations[m] == truncations[n] for m in range(n + 1, n_max + 1)):
            stable_from = n
            break
    details = {
        "per_n_graded_dimension": {
            str(n): {str(g): str(m) for g, m in truncations[n].graded_dimension().items()}
            for n in range(1, n_max + 1)
        }
    }
    if stable_from is None:
        return claim.conclude(
            None, char_payload(truncations[n_max]), None,
            lambda: "no stabilization observed up to n_max", details,
        )
    details["stable_from"] = stable_from
    oracle = affine_irreducible_character_truncated(rs, level, lam, max_grade)
    return claim.equal(truncations[stable_from], oracle, details)


# ---------------------------------------------------------------------------
# exhaustive surjection scan


def scan_tuples(rs, height_bound):
    """All (lam1, lam2, mu1, mu2) with equal sums and coordinates bounded by
    ``height_bound`` that satisfy the minimum conditions, in enumeration
    order: lam1, lam2 and mu1 run over the dominant box in lexicographic
    order, and mu2 balances the sums.  So only the minimum conditions are
    checked (``min_condition_failure`` of (lam1, lam2) below (mu1, mu2)),
    on pairing vectors computed once per box weight."""
    box = list(product(range(height_bound + 1), repeat=rs.rank))
    pairings = {w: rs.pairings(w) for w in box}
    out = []
    for lam1 in box:
        for lam2 in box:
            total = rs.add(lam1, lam2)
            lower = list(map(min, pairings[lam1], pairings[lam2]))
            for mu1 in box:
                mu2 = rs.sub(total, mu1)
                if mu2 not in pairings:
                    continue
                if min_condition_failure(lower, map(min, pairings[mu1], pairings[mu2])) is None:
                    out.append((lam1, lam2, mu1, mu2))
    return out


def schur_scan(rs, height_bound):
    """Run the surjection check over every hypothesis-satisfying tuple in
    the coordinate box (``scan_tuples``).  Returns the certificate list in
    enumeration order; refutations are collected, never raised.  Tuples
    outnumber the distinct unordered products of two irreducibles, so the
    scan reads one product table (``_product_decompositions``), built
    before the first certificate: each product is decomposed once and its
    payload shared by every certificate that names it.  A certificate's
    ``elapsed_ms`` covers its own domination check only."""
    if height_bound < 0:
        raise ValueError("height bound must be non-negative")
    tuples = scan_tuples(rs, height_bound)
    sides = _product_decompositions(rs, [pair for t in tuples for pair in (t[2:], t[:2])])
    certs = []
    for (lam1, lam2, mu1, mu2), source, target in zip(tuples, sides[::2], sides[1::2]):
        claim = _Claim(
            "schur-surjection", rs,
            {"lambda1": list(lam1), "lambda2": list(lam2), "mu1": list(mu1), "mu2": list(mu2)},
            "multiplicity-domination",
        )
        certs.append(claim.dominates(source, target))
    return certs


def scan_summary(certs):
    """Certificate count per verdict, plus the total."""
    counts = {v: 0 for v in VERDICTS}
    for c in certs:
        counts[c.verdict] += 1
    return {"total": len(certs), **{v.replace("-", "_"): n for v, n in counts.items()}}
