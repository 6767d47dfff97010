"""Sparse exact arithmetic in the graded group ring of the weight lattice.

A :class:`GradedCharacter` is a finitely supported map
``(weight, grade) -> integer`` attached to one root system; weights are
tuples in the fundamental basis and grades are plain integers.  Coefficients
are Python ints, so multiplicities never overflow.  Values are immutable:
every operation returns a fresh character.

Characters serialize as JSON lines (:meth:`GradedCharacter.to_jsonl`): a
``{"system":…,"kind":…}`` header, then one ``{"w":[…],"g":…,"m":"…"}``
line per term in sorted (weight, grade) order, multiplicities as decimal
strings.  The term lines are formatted by hand, byte-identical to
``json.dumps`` with compact separators; :meth:`GradedCharacter.from_jsonl`
parses them back and raises ``ValueError`` on any malformed file.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import add

__all__ = ["GradedCharacter"]

_PARSE_CHUNK = 1024  # term lines per json.loads call in from_jsonl


class GradedCharacter:
    """An element of Z[weight lattice][grade], stored sparsely.

    ``terms`` maps ``(coords, grade)`` to a nonzero integer multiplicity.
    Characters attached to different root systems never mix.
    """

    __slots__ = ("system", "terms")

    def __init__(self, system, terms=None):
        self.system = system
        if terms is None:
            self.terms = {}
        elif all(terms.values()):  # the common case: one copy at C speed
            self.terms = dict(terms)
        else:
            self.terms = {k: m for k, m in terms.items() if m}

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def unit(cls, system):
        """The ring identity: the zero weight at grade 0."""
        return cls(system, {(system.zero_weight(), 0): 1})

    # ------------------------------------------------------------------
    # ring structure

    def _check_compatible(self, other):
        if self.system is not other.system:
            raise ValueError(
                f"cannot combine characters over {self.system.name} and {other.system.name}"
            )

    def __eq__(self, other):
        if not isinstance(other, GradedCharacter):
            return NotImplemented
        return self.system is other.system and self.terms == other.terms

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.terms)
        for k, m in other.terms.items():
            v = out.get(k, 0) + m
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        return GradedCharacter(self.system, out)

    def __neg__(self):
        return GradedCharacter(self.system, {k: -m for k, m in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Convolution product: weights add, grades add."""
        self._check_compatible(other)
        out = {}
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        for (w1, g1), m1 in a.items():
            for (w2, g2), m2 in b.items():
                key = (tuple(map(add, w1, w2)), g1 + g2)
                v = out.get(key, 0) + m1 * m2
                if v:
                    out[key] = v
                else:
                    del out[key]
        return GradedCharacter(self.system, out)

    def __pow__(self, exponent):
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        result = GradedCharacter.unit(self.system)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # ------------------------------------------------------------------
    # views and statistics

    def dimension(self):
        """Sum of all multiplicities (the module dimension)."""
        return sum(self.terms.values())

    def graded_dimension(self):
        """Map grade -> multiplicity sum: the Hilbert series coefficients."""
        out = {}
        for (_, g), m in self.terms.items():
            out[g] = out.get(g, 0) + m
        return dict(sorted(out.items()))

    def collapse(self):
        """Forget the grading: everything moved to grade 0."""
        out = {}
        for (w, _), m in self.terms.items():
            key = (w, 0)
            out[key] = out.get(key, 0) + m
        return GradedCharacter(self.system, out)

    def slice(self, grade):
        """The single-grade piece, re-anchored at grade 0."""
        return GradedCharacter(
            self.system, {(w, 0): m for (w, g), m in self.terms.items() if g == grade}
        )

    @property
    def is_plain(self):
        return all(g == 0 for (_, g) in self.terms)

    def is_w_invariant(self):
        """True iff every graded slice is symmetric under the Weyl group.

        It suffices to test the simple reflections, which generate; s_i
        fixes every weight with a zero i-th coordinate.
        """
        rs = self.system
        for (w, g), m in self.terms.items():
            for i, k in enumerate(w, 1):
                if k and self.terms.get((rs.reflect(i, w), g), 0) != m:
                    return False
        return True

    # ------------------------------------------------------------------
    # serialization: JSON lines, one term per line, multiplicities as
    # decimal strings so arbitrary precision survives every consumer

    def sorted_terms(self):
        terms = self.terms
        return [(key, terms[key]) for key in sorted(terms)]

    def to_jsonl(self, kind=None):
        if kind is None:
            kind = "plain" if self.is_plain else "graded"
        if kind not in ("plain", "graded"):
            raise ValueError(f"unknown serialization kind {kind!r}")
        header = json.dumps({"system": self.system.name, "kind": kind}, separators=(",", ":"))
        # sorting the distinct weights, then each weight's grades, gives the
        # (weight, grade) order with every weight's prefix formatted once
        groups = {}
        for (w, g), m in self.terms.items():
            if w in groups:
                groups[w].append((g, m))
            else:
                groups[w] = [(g, m)]
        lines = [header + "\n"]
        for w in sorted(groups):
            head = '{"w":[%s],"g":' % ",".join(map(str, w))
            lines += [head + '%d,"m":"%d"}\n' % gm for gm in sorted(groups.pop(w))]
        del groups  # freed before the join, so the peak stays at the lines plus the text
        return "".join(lines)

    @classmethod
    def from_jsonl(cls, text):
        """Parse :meth:`to_jsonl` output.  Raises ``ValueError`` for
        anything that is not a well-formed character file: a header or
        record that is not a JSON object, a weight that is not a list of
        ``rank`` ints, a grade that is not an int, a multiplicity that is
        zero or not a canonical decimal string, or a repeated term."""
        from .rootsystem import root_system

        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty character file")
        header = json.loads(lines[0])
        if (
            type(header) is not dict
            or type(header.get("system")) is not str
            or header.get("kind") not in ("plain", "graded")
        ):
            raise ValueError(f"bad character header {lines[0]!r}")
        rs = root_system(header["system"])
        rank = rs.rank
        terms = {}
        # One json.loads per chunk of lines is faster than one per line and
        # keeps memory bounded; a record count other than the chunk's line
        # count means some line did not hold exactly one record.
        for start in range(1, len(lines), _PARSE_CHUNK):
            chunk = lines[start:start + _PARSE_CHUNK]
            records = json.loads("[" + ",".join(chunk) + "]")
            if len(records) != len(chunk):
                raise ValueError("character file must hold one record per line")
            for rec in records:
                try:  # TypeError: not an object, or an unhashable coordinate
                    w, g, m = rec["w"], rec["g"], rec["m"]
                    # m must read back exactly as to_jsonl writes it
                    if (type(w) is not list or len(w) != rank or type(g) is not int
                            or type(m) is not str or str(n := int(m)) != m or not n):
                        raise ValueError(f"bad character record {rec!r}")
                    terms[tuple(w), g] = n
                except (TypeError, KeyError):
                    raise ValueError(f"bad character record {rec!r}") from None
        if len(terms) != len(lines) - 1:
            raise ValueError("repeated term in character file")
        if not set(map(type, chain.from_iterable(w for w, _ in terms))) <= {int}:
            raise ValueError("weight coordinates must be ints")
        char = cls(rs, terms)
        if header["kind"] == "plain" and not char.is_plain:
            raise ValueError("character file declared plain but carries nonzero grades")
        return char

    def __repr__(self):
        return (
            f"GradedCharacter({self.system.name}, {len(self.terms)} terms, "
            f"dim {self.dimension()})"
        )
