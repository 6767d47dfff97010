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
strings.  Every line is formatted by hand, byte-identical to ``json.dumps``
with compact separators, each weight's prefix once, and every line ends in
``\n``.  The Demazure chain emits sorted terms.
:meth:`GradedCharacter.from_jsonl` is the exact inverse: it matches the
header against one pattern and the term lines against one pattern per
rank, requires the terms strictly increasing in (weight, grade), streams
them into the result with each run of one weight's lines sharing one
tuple, and raises ``ValueError`` on any other spelling.  Neither direction
loads ``json``.
"""

from __future__ import annotations

import re
from operator import add

__all__ = ["GradedCharacter"]

_CHUNK_LINES = 1024  # to_jsonl joins this many lines at a time, never every line string at once
_INT = "(?:0|-?[1-9][0-9]*)"  # an int as str() spells it: no sign on 0, no leading zeros
_HEADER = re.compile(r'\{"system":"([A-G](?:0|[1-9][0-9]*))","kind":"(plain|graded)"\}\n')


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

        It suffices to test the simple reflections, which generate.  s_i
        fixes every weight w with w(h_i) = 0 and maps the weights with
        w(h_i) > 0 one to one onto those with w(h_i) < 0, since
        s_i(w)(h_i) = -w(h_i).  So each node reads only its positive side,
        building each mirror s_i(w) = w - w(h_i) alpha_i inline, and counts
        its negative side.  When every positive-side term's mirror is a term
        at the same grade with the same multiplicity, the mirrors are as
        many distinct negative-side terms; the negative side then holds no
        other term exactly when the two counts are equal.
        """
        terms = self.terms
        get = terms.get
        for i, col in enumerate(self.system.simple_root_coords):
            upper = lower = 0
            for (w, g), m in terms.items():
                k = w[i]
                if k > 0:
                    upper += 1
                    if get((tuple([c - k * a for c, a in zip(w, col)]), g)) != m:
                        return False
                elif k:
                    lower += 1
            if upper != lower:
                return False
        return True

    # ------------------------------------------------------------------
    # serialization: JSON lines, one term per line, multiplicities as
    # decimal strings so arbitrary precision survives every consumer

    def to_jsonl(self, kind):
        if kind not in ("plain", "graded"):
            raise ValueError(f"unknown serialization kind {kind!r}")
        if kind == "plain" and not self.is_plain:  # from_jsonl would refuse the file
            raise ValueError("a character with nonzero grades cannot be written as plain")
        terms, keys, last = self.terms, sorted(self.terms), None
        chunks, lines = [self._header(self.system.name, kind)], []
        for start in range(0, len(keys), _CHUNK_LINES):
            for key in keys[start:start + _CHUNK_LINES]:
                w, g = key
                if w != last:  # each weight's prefix is formatted once
                    last, head = w, '{"w":[%s],"g":' % ",".join(map(str, w))
                lines.append(head + '%d,"m":"%d"}\n' % (g, terms[key]))
            chunks.append("".join(lines))
            lines.clear()
        del keys  # freed before the chunks join into one more copy of them
        return "".join(chunks)

    @staticmethod
    def _header(system, kind):
        """The first line of every ``kind`` character file of the system named ``system``."""
        return '{"system":"%s","kind":"%s"}\n' % (system, kind)

    @classmethod
    def from_jsonl(cls, text):
        """Parse :meth:`to_jsonl` output: the exact inverse of it.  Every
        line must be spelled exactly as ``to_jsonl`` spells it, one per
        ``\\n``-terminated line, and the header must name the system as
        its ``name`` does.  Raises ``ValueError`` for anything else: a bad
        header (``"A02"`` for ``"A2"`` included), a record with other
        spacing, key order or keys, a weight that is not ``rank``
        canonical ints, a grade that is not a canonical int, a
        multiplicity that is zero or not a canonical decimal string, a
        blank line, a line not ending in ``\\n``, or records that are not
        strictly increasing in (weight, grade), a repeated term included.

        The records stream into the character's own dict, one match at a
        time, so the parse holds no list of records beside ``text`` and
        the result.  Consecutive records of one weight (every grade of it,
        as the file is sorted) share one weight tuple; the weight is
        compared once per change of weight, the grade once per record."""
        from .rootsystem import root_system

        header = _HEADER.match(text)
        if not header:
            raise ValueError("bad character header %r" % text.partition("\n")[0])
        rs = root_system(header[1])
        start = header.end()  # where the body begins
        record = _record_pattern(rs.rank)
        terms, last, w = {}, None, ()
        for coords, g, m in map(re.Match.groups, record.finditer(text, start)):
            g = int(g)
            if coords != last:
                v = tuple(map(int, coords.split(",")))
                if v <= w:  # () precedes every weight
                    raise ValueError(f"character record {len(terms) + 1} is out of (weight, grade) order")
                last, w = coords, v
            elif g <= g_last:
                raise ValueError(f"character record {len(terms) + 1} is out of (weight, grade) order")
            g_last = g
            terms[w, g] = int(m)
        # in strict order each match is one more term, and each match is one
        # whole line, so one term per line means all of them
        if len(terms) != text.count("\n", start) or not text.endswith("\n"):
            for number, line in enumerate(text[start:].split("\n"), 2):
                if not record.fullmatch(line + "\n"):
                    raise ValueError(f"bad character record on line {number}: {line!r}")
            raise ValueError("a character file must end in a newline")
        char = cls._adopt(rs, terms)  # the pattern admits no zero multiplicity
        if header[2] == "plain" and not char.is_plain:
            raise ValueError("character file declared plain but carries nonzero grades")
        return char

    def __repr__(self):
        return (
            f"GradedCharacter({self.system.name}, {len(self.terms)} terms, "
            f"dim {self.dimension()})"
        )
