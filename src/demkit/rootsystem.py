"""Cartan data and finite Weyl group actions for the simple Lie types A-G.

Weights are plain tuples of integers: ``w[i]`` is the pairing of the weight
against the (i+1)-th simple coroot, i.e. coordinates in the basis of
fundamental weights.  Vertex numbering follows Bourbaki.  Roots additionally
carry their expansion in simple roots, so every pairing, reflection and
dominance test is exact integer arithmetic, the roots and the inverse
Cartan matrix included; no fractions, floating point or irrational numbers
appear anywhere.

The positive roots are the reflection closure of the simple roots; one
chamber walk serves dominant representatives (w_0 lambda is minus the
dominant representative of -lambda), Bott's rule and, with node 0 added at
a given level, the straightening of affine weights.

The bilinear form is normalised so that long roots have squared length 2;
``d`` always denotes the integer 2/(root, root), which is 1 for long roots
and 2 or 3 for short ones.  The one root pairing is the coroot pairing
``pairings(mu)``, mu(h_alpha) = 2(mu, alpha)/(alpha, alpha) at each positive
root alpha; the form follows as D*(mu, alpha) = (D // d)*mu(h_alpha), exact
because d divides D = ``pairing_scale``, the lcm of the d-values.
"""

import functools
from collections import namedtuple
from math import gcd, lcm, prod
from operator import mul, sub

__all__ = [
    "Root",
    "RootSystem",
    "root_system",
    "parse_system",
]

# The largest rank of a classical series.  Building a root system grows
# steeply with the rank (on a 2-vCPU host A32 to D32 take 0.1-0.2 s, A160
# 33 s and 74 MB), so a larger rank is refused up front, like a label that
# names no simple type.
MAX_RANK = 32

_RANK_RULES = {  # series -> (lowest rank, highest rank)
    "A": (1, MAX_RANK),
    "B": (2, MAX_RANK),
    "C": (2, MAX_RANK),
    "D": (4, MAX_RANK),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

WALK_STEP_CAP = 10**6

DOMINANT_CACHE_CAP = 1 << 16  # peaks: 254 in a benchmark request, 9,960 in the tests, 3,794 for B4 V(2,2,2,2)


def parse_system(name):
    """Parse a system label, one letter A-G then the rank as ``str(rank)``
    spells it (``"A2"``), into ``(series, rank)``.  Other spellings (``" A2"``,
    ``"A02"``, or more digits than ``int()`` reads) and labels naming no
    simple type (``"D3"``, ``"E9"``) raise."""
    series, digits = name[:1], name[1:]
    try:
        rank = int(digits) if series in _RANK_RULES and digits.isascii() and digits.isdigit() else None
    except ValueError:  # past sys.get_int_max_str_digits()
        rank = None
    if rank is None or str(rank) != digits:
        raise ValueError(f"malformed system label {name!r}; expected e.g. 'A2' or 'G2'")
    _validate_type(series, rank)
    return series, rank


def _validate_type(series, rank):
    if series not in _RANK_RULES:
        raise ValueError(f"invalid simple type ({series},{rank}): unknown series {series!r}")
    lo, hi = _RANK_RULES[series]
    if not lo <= rank <= hi:
        bound = f"rank {lo}" if hi == lo else f"rank in [{lo},{hi}]"
        raise ValueError(f"invalid simple type ({series},{rank}): series {series} requires {bound}")


def _cartan_and_d(series, rank):
    """Cartan matrix C[i][j] = <alpha_j, h_i> and the d-values of the simple
    roots, in Bourbaki numbering (0-indexed internally)."""
    n = rank
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i, j):
        cartan[i][j] = cartan[j][i] = -1

    if series == "A":
        for i in range(n - 1):
            edge(i, i + 1)
        d = [1] * n
    elif series == "B":
        for i in range(n - 1):
            edge(i, i + 1)
        cartan[n - 1][n - 2] = -2  # alpha_n short
        d = [1] * (n - 1) + [2]
    elif series == "C":
        for i in range(n - 1):
            edge(i, i + 1)
        cartan[n - 2][n - 1] = -2  # alpha_n long
        d = [2] * (n - 1) + [1]
    elif series == "D":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 3, n - 1)
        d = [1] * n
    elif series == "E":
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        for a, b in zip(chain, chain[1:]):
            edge(a - 1, b - 1)
        edge(1, 3)  # vertex 2 hangs off vertex 4
        d = [1] * n
    elif series == "F":
        for i in range(3):
            edge(i, i + 1)
        cartan[2][1] = -2  # alpha_3, alpha_4 short
        d = [1, 1, 2, 2]
    else:  # G
        cartan[0][1] = -3  # alpha_1 short
        cartan[1][0] = -1
        d = [3, 1]

    for i in range(n):
        for j in range(n):
            # symmetrisability of the pairing (alpha_i, alpha_j)
            if cartan[i][j] * d[j] != cartan[j][i] * d[i]:
                raise RuntimeError(f"internal error: {series}{rank} Cartan matrix is not symmetrisable")
    return tuple(tuple(row) for row in cartan), tuple(d)


def _invert_rational(mat):
    """Exact inverse of a small integer matrix, returned as ``(L, L*inverse)``:
    L is the least common denominator of the inverse's entries, so the
    scaled inverse is an integer matrix.  Fraction-free Gauss-Jordan: each
    integer row of ``[mat | I]`` ends as its pivot times a row of the
    inverse."""
    n = len(mat)
    aug = [list(mat[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col]
        for r in range(n):
            if r != col and aug[r][col]:
                row = [p[col] * x - aug[r][col] * y for x, y in zip(aug[r], p)]
                g = gcd(*row)
                aug[r] = [x // g for x in row]
    scale = lcm(*(row[i] // gcd(row[i], x) for i, row in enumerate(aug) for x in row[n:]))
    return scale, tuple(tuple(x * scale // row[i] for x in row[n:]) for i, row in enumerate(aug))


class Root(namedtuple("Root", "root_coords coords d coroot height")):
    """A positive root with all derived data precomputed.

    root_coords -- expansion in simple roots (integers)
    coords      -- pairings against the simple coroots (fundamental basis)
    d           -- 2/(root, root), an integer in {1, 2, 3}
    coroot      -- the coroot h_root expanded in the simple coroots
    height      -- sum of root_coords
    """

    __slots__ = ()


class RootSystem:
    """Immutable Cartan datum of one simple type.

    All methods are pure functions of their arguments; instances are shared
    (see :func:`root_system`) and safe for concurrent reads.
    """

    def __init__(self, series, rank):
        _validate_type(series, rank)
        self.series = series
        self.rank = rank
        self.name = f"{series}{rank}"
        self.cartan, self.d_simple = _cartan_and_d(series, rank)
        # column j of the Cartan matrix = alpha_{j+1} in fundamental coords
        self.simple_root_coords = tuple(
            tuple(self.cartan[i][j] for i in range(rank)) for j in range(rank)
        )
        self.rho = (1,) * rank
        self.pairing_scale = lcm(*self.d_simple)
        # the integer lattice core: L and the integer matrix L * C^-1
        self.lattice_scale, self._scaled_inverse = _invert_rational(self.cartan)
        self.positive_roots = self._generate_positive_roots()
        heights = [r.height for r in self.positive_roots]
        top = [i for i, h in enumerate(heights) if h == max(heights)]
        if len(top) != 1:
            raise RuntimeError(f"internal error: highest root of {self.name} is not unique")
        self.theta_index = top[0]
        theta = self.positive_roots[self.theta_index]
        if theta.d != 1 or any(c < 0 for c in theta.coords):
            raise RuntimeError(f"internal error: highest root of {self.name} is not long and dominant")
        self.theta = theta
        # h-vee: 1 + height of the coroot of the highest root
        self.dual_coxeter = 1 + sum(theta.coroot)

    def __repr__(self):
        return f"RootSystem({self.name})"

    # ------------------------------------------------------------------
    # the positive roots, by reflection closure from the simple roots

    def _generate_positive_roots(self):
        """s_i permutes the positive roots other than alpha_i and keeps
        lengths, so each positive root is reached from a simple one, whose d
        it keeps, by reflections s_i with k = <root, h_i> < 0, each adding
        -k alpha_i.  Ordered by (height, root_coords)."""
        n = self.rank
        found = {}  # root_coords -> (coords, d)
        for i in range(n):
            found[tuple(int(i == j) for j in range(n))] = (self.simple_root_coords[i], self.d_simple[i])
        stack = list(found)
        while stack:
            a = stack.pop()
            coords, d = found[a]
            for i, k in enumerate(coords):
                if k < 0:
                    b = a[:i] + (a[i] - k,) + a[i + 1:]
                    if b not in found:
                        found[b] = (self.reflect(i + 1, coords), d)
                        stack.append(b)
        order = sorted(found, key=lambda a: (sum(a), a))
        return tuple(self._finish_root(a, *found[a]) for a in order)

    def _finish_root(self, root_coords, coords, d):
        n = self.rank
        # D*(root, root), with (alpha_i, alpha_j) = C[i][j]/d_i and D = pairing_scale
        D = self.pairing_scale
        norm = sum(
            self.cartan[i][j] * (D // self.d_simple[i]) * root_coords[i] * root_coords[j]
            for i in range(n)
            for j in range(n)
        )
        if d * norm != 2 * D:  # the carried d must be 2/(root, root)
            raise RuntimeError(f"internal error: bad root length for {root_coords}")
        coroot = []
        for a, dj in zip(root_coords, self.d_simple):
            t, rem = divmod(a * d, dj)
            if rem:
                raise RuntimeError(f"internal error: non-integral coroot for {root_coords}")
            coroot.append(t)
        return Root(root_coords, coords, d, tuple(coroot), sum(root_coords))

    # ------------------------------------------------------------------
    # weights and pairings

    def check_weight(self, weight):
        if len(weight) != self.rank or not all(isinstance(c, int) for c in weight):
            raise ValueError(f"weight {weight!r} is not a length-{self.rank} integer vector")
        return tuple(weight)

    def check_dominant(self, weight):
        """``check_weight`` for a weight that must also be dominant."""
        weight = self.check_weight(weight)
        if not self.is_dominant(weight):
            raise ValueError(f"weight {weight} is not dominant")
        return weight

    def zero_weight(self):
        return (0,) * self.rank

    def fundamental_weight(self, i):
        """The i-th fundamental weight (1-indexed)."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"node index {i} out of range 1..{self.rank}")
        return tuple(int(j == i - 1) for j in range(self.rank))

    def kr_weight(self, i, level):
        """d_i * level * omega_i, the weight of the level-``level``
        Kirillov-Reshetikhin module at node i (1-indexed)."""
        omega = self.fundamental_weight(i)  # a bad node is a ValueError
        return self.scale(self.d_simple[i - 1] * level, omega)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def scale(self, k, a):
        return tuple(k * x for x in a)

    def pairings(self, weight):
        """weight(h_alpha) for every positive root alpha, in root order."""
        return tuple(sum(map(mul, root.coroot, weight)) for root in self.positive_roots)

    def theta_pairing(self, weight):
        """weight(h_theta), the level-relevant pairing with the highest coroot."""
        return sum(map(mul, self.theta.coroot, weight))

    def is_dominant(self, weight):
        return min(weight) >= 0

    def reflect(self, i, weight):
        """Simple reflection s_i (1-indexed) acting on a weight."""
        k = weight[i - 1]
        if k == 0:
            return tuple(weight)
        col = self.simple_root_coords[i - 1]
        return tuple(c - k * a for c, a in zip(weight, col))

    def _to_dominant(self, weight, level=None):
        """The chamber walk: ``(dominant, word, lift)``, reflecting at the
        smallest node with a negative pairing until none is left.  Given a
        ``level`` it walks the affine Weyl group: node 0 comes first, pairs
        as ``level - weight(h_theta)`` and adds that pairing times theta, and
        ``lift`` (else 0) sums minus those pairings, the rise of the null-root
        coefficient.  Replaying ``word`` reversed on ``dominant`` recovers
        ``weight``; it is reduced, one letter per positive (real) root that
        pairs negatively with ``weight``.  The walk ends, at positive level
        if given; hitting ``WALK_STEP_CAP`` is reported as an internal error."""
        word = []
        lift = 0
        cur = weight
        theta = self.theta
        for _ in range(WALK_STEP_CAP):
            if level is not None:
                k = level - self.theta_pairing(cur)
                if k < 0:
                    word.append(0)
                    lift -= k
                    cur = tuple(c + k * t for c, t in zip(cur, theta.coords))
                    continue
            for i, k in enumerate(cur):
                if k < 0:
                    break
            else:
                return cur, word, lift
            word.append(i + 1)
            cur = tuple(c - k * a for c, a in zip(cur, self.simple_root_coords[i]))
        raise RuntimeError(f"internal error: chamber walk exceeded {WALK_STEP_CAP} steps from {weight}")

    # an entry holds its instance until evicted: shared ones live on anyway, the cap bounds the rest
    @functools.lru_cache(maxsize=DOMINANT_CACHE_CAP)
    def dominant_representative(self, weight):
        """The unique dominant weight in the Weyl orbit of ``weight``; the
        last ``DOMINANT_CACHE_CAP`` answers are kept."""
        return self._to_dominant(weight)[0]

    def dot_straighten(self, weight):
        """Bott's rule for the dot action v.mu = v(mu + rho) - rho.

        Returns ``(dominant, sign)``, where ``dominant`` is the dominant
        weight in the dot orbit of ``weight`` and ``sign`` is the sign of
        the Weyl element that reaches it, or None when ``weight + rho`` lies
        on a wall (some reflection then fixes it, and its Weyl character
        vanishes): exactly when its dominant representative has a 0.
        """
        top, word, _ = self._to_dominant(self.add(weight, self.rho))
        if 0 in top:
            return None
        return self.sub(top, self.rho), -1 if len(word) % 2 else 1

    def weyl_orbit(self, weight):
        """The full Weyl orbit of a weight, as a set of tuples.  A node
        where the pairing is zero fixes the weight and is skipped."""
        weight = tuple(weight)
        seen = {weight}
        stack = [weight]
        while stack:
            v = stack.pop()
            for k, col in zip(v, self.simple_root_coords):
                if k:
                    u = tuple([c - k * a for c, a in zip(v, col)])
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
        return seen

    # ------------------------------------------------------------------
    # the sublattice of weights divisible by the d-values

    def in_gamma(self, weight):
        """Whether a dominant weight is sum d_i s_i omega_i with integers
        s_i: membership in this sublattice is what makes a weight a legal
        translation step at every level."""
        weight = self.check_dominant(weight)
        return all(c % d == 0 for c, d in zip(weight, self.d_simple))

    # ------------------------------------------------------------------
    # dominance order and exact inner products

    def dominance_gap(self, upper, lower):
        """Integer simple-root coordinates of upper - lower, or None if the
        difference is not in the root lattice."""
        diff = list(map(sub, upper, lower))
        out = []
        for row in self._scaled_inverse:
            q, r = divmod(sum(map(mul, row, diff)), self.lattice_scale)
            if r:
                return None
            out.append(q)
        return tuple(out)

    def dominates(self, upper, lower):
        """True iff upper - lower is a non-negative integer sum of simple roots."""
        gap = self.dominance_gap(upper, lower)
        return gap is not None and all(c >= 0 for c in gap)

    def dominant_weights_below(self, top):
        """Every dominant weight mu with ``top`` dominating mu, mapped to the
        height of top - mu, for a dominant ``top``.

        Walks down from ``top`` by positive roots through dominant weights
        only: any dominant mu < top is reached that way, since the dominant
        weights below a dominant one are linked by positive-root steps
        (Stembridge, The partial order of dominant weights, Adv. Math. 1998).
        """
        rows = [(root.coords, root.height) for root in self.positive_roots]
        below = {top: 0}
        stack = [top]
        while stack:
            v = stack.pop()
            for coords, height in rows:
                u = tuple(map(sub, v, coords))
                if min(u) >= 0 and u not in below:
                    below[u] = below[v] + height
                    stack.append(u)
        return below

    def weight_norm2(self, weight):
        """L*D*(weight, weight) as an exact integer, where L is
        ``lattice_scale`` and D is ``pairing_scale``: L makes the simple-root
        coordinates L*C^-1*weight integral, and D does the same for
        (weight, alpha_j) = weight[j]/d_j."""
        D = self.pairing_scale
        return sum(
            sum(a * c for a, c in zip(row, weight)) * w * (D // d)
            for row, w, d in zip(self._scaled_inverse, weight, self.d_simple)
        )

    def weyl_dimension(self, weight):
        """Dimension of the irreducible module of a dominant weight by
        Weyl's formula, the product over positive roots alpha of (weight +
        rho)(h_alpha) / rho(h_alpha); exact integers."""
        num = prod(self.pairings(self.add(self.check_dominant(weight), self.rho)))
        den = prod(self.pairings(self.rho))
        if num % den:
            raise RuntimeError(f"internal error: non-integral dimension for {weight}")
        return num // den


@functools.cache
def root_system(label):
    """The shared, immutable root system of a label such as ``"A2"``.

    The label is parsed first (:func:`parse_system` admits one spelling per
    type), and each type has one instance, so characters built on it always
    combine and compare (by ``is``) with each other.  So the cache never
    evicts; the 128 valid labels up to ``MAX_RANK`` bound it.
    """
    return RootSystem(*parse_system(label))
