"""Sparse exact arithmetic in the graded group ring of the weight lattice.

A :class:`GradedCharacter` is a finitely supported map
``(weight, grade) -> integer`` attached to one root system; weights are
tuples in the fundamental basis and grades are plain integers.  Coefficients
are Python ints, so multiplicities never overflow.  A character is immutable
and keeps only what the claims use: the product, collapse, slice, dimension,
graded dimension and the codec below; a power is a run of products.  The
constructor is the one place that drops zero multiplicities.

Characters serialize as JSON lines (:meth:`GradedCharacter.to_jsonl`): a
``{"system":…,"kind":…}`` header, then one ``{"w":[…],"g":…,"m":"…"}``
line per term in sorted (weight, grade) order, multiplicities as decimal
strings.  The term lines are formatted by hand, byte-identical to
``json.dumps`` with compact separators, each weight's prefix once, and
every line ends in ``\n``.  The Demazure chain emits sorted terms.
:meth:`GradedCharacter.from_jsonl` is the exact inverse: it matches the
term lines against one pattern per rank, streams them into the result
with each run of one weight's lines sharing one tuple, and raises
``ValueError`` on any other spelling.
"""

from __future__ import annotations

import json
import re
from operator import add

__all__ = ["GradedCharacter"]

_INT = "(?:0|-?[1-9][0-9]*)"  # an int as str() spells it: no sign on 0, no leading zeros


def _record_pattern(rank):
    """One term line exactly as ``to_jsonl`` writes it, for weights of
    ``rank`` coordinates; its groups are the weight's coordinates, the
    grade and the multiplicity.  ``re`` caches the compiled pattern."""
    return re.compile(
        r'^\{"w":\[(%s(?:,%s){%d})\],"g":(%s),"m":"(-?[1-9][0-9]*)"\}\n' % (_INT, _INT, rank - 1, _INT),
        re.MULTILINE,
    )


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

    @classmethod
    def _adopt(cls, system, terms):
        """The character whose terms are ``terms`` itself, not a copy: for
        a decoder's fresh dict of nonzero multiplicities that nothing else
        holds."""
        char = cls.__new__(cls)
        char.system, char.terms = system, terms
        return char

    # ------------------------------------------------------------------
    # equality and the product

    def __eq__(self, other):
        if not isinstance(other, GradedCharacter):
            return NotImplemented
        return self.system is other.system and self.terms == other.terms

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    def __mul__(self, other):
        """Convolution product: weights add, grades add."""
        if self.system is not other.system:
            raise ValueError(
                f"cannot multiply characters over {self.system.name} and {other.system.name}"
            )
        out = {}
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        for (w1, g1), m1 in a.items():
            for (w2, g2), m2 in b.items():
                key = (tuple(map(add, w1, w2)), g1 + g2)
                out[key] = out.get(key, 0) + m1 * m2
        return GradedCharacter(self.system, out)

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

    def to_jsonl(self, kind=None):
        if kind is None:
            kind = "plain" if self.is_plain else "graded"
        if kind not in ("plain", "graded"):
            raise ValueError(f"unknown serialization kind {kind!r}")
        if kind == "plain" and not self.is_plain:  # from_jsonl would refuse the file
            raise ValueError("a character with nonzero grades cannot be written as plain")
        terms, last = self.terms, None
        lines = [self._header(self.system.name, kind)]
        for key in sorted(terms):
            w, g = key
            if w != last:  # each weight's prefix is formatted once
                last, head = w, '{"w":[%s],"g":' % ",".join(map(str, w))
            lines.append(head + '%d,"m":"%d"}\n' % (g, terms[key]))
        return "".join(lines)

    @staticmethod
    def _header(system, kind):
        """The first line of every ``kind`` character file of the system named ``system``."""
        return json.dumps({"system": system, "kind": kind}, separators=(",", ":")) + "\n"

    @classmethod
    def from_jsonl(cls, text):
        """Parse :meth:`to_jsonl` output: the exact inverse of it.  The
        header is read as JSON; every record must be spelled exactly as
        ``to_jsonl`` spells it, one per ``\\n``-terminated line.  Raises
        ``ValueError`` for anything else: a bad header, a record with
        other spacing, key order or keys, a weight that is not ``rank``
        canonical ints, a grade that is not a canonical int, a
        multiplicity that is zero or not a canonical decimal string, a
        blank line, a line not ending in ``\\n``, or a repeated term.

        The records stream into the character's own dict, one match at a
        time, so the parse holds no list of records beside ``text`` and
        the result.  Consecutive records of one weight (every grade of it,
        as the file is sorted) share one weight tuple."""
        from .rootsystem import root_system

        start = text.find("\n") + 1  # where the body begins
        if not start:
            raise ValueError("a character file is a header line, then one line per term")
        header = json.loads(text[:start])
        if (
            type(header) is not dict
            or type(header.get("system")) is not str
            or header.get("kind") not in ("plain", "graded")
        ):
            raise ValueError(f"bad character header {text[:start]!r}")
        rs = root_system(header["system"])
        record = _record_pattern(rs.rank)
        terms, count, last = {}, 0, None
        for count, match in enumerate(record.finditer(text, start), 1):
            coords, g, m = match.groups()
            if coords != last:
                last, w = coords, tuple(map(int, coords.split(",")))
            terms[w, int(g)] = int(m)
        # each match is one whole line, so one per line means all of them
        if count != text.count("\n", start) or not text.endswith("\n"):
            for number, line in enumerate(text[start:].split("\n"), 2):
                if not record.fullmatch(line + "\n"):
                    raise ValueError(f"bad character record on line {number}: {line!r}")
            raise ValueError("a character file must end in a newline")
        if len(terms) != count:
            raise ValueError("repeated term in character file")
        char = cls._adopt(rs, terms)  # the pattern admits no zero multiplicity
        if header["kind"] == "plain" and not char.is_plain:
            raise ValueError("character file declared plain but carries nonzero grades")
        return char

    def __repr__(self):
        return (
            f"GradedCharacter({self.system.name}, {len(self.terms)} terms, "
            f"dim {self.dimension()})"
        )
