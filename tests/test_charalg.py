import tracemalloc

import pytest

from conftest import monomial, random_dominant, scaled, seeded, summed
from demkit.charalg import GradedCharacter
from demkit.finite import weyl_character
from demkit.rootsystem import root_system


def random_character(rng, rs, nterms=6, grade_span=3, coeff_span=5):
    terms = {}
    for _ in range(nterms):
        w = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
        g = rng.randint(0, grade_span)
        c = rng.randint(-coeff_span, coeff_span)
        if c:
            terms[(w, g)] = terms.get((w, g), 0) + c
    return GradedCharacter(rs, terms)


def test_zero_coefficients_are_dropped():
    rs = root_system("A1")
    x = GradedCharacter(rs, {((1,), 0): 0, ((0,), 1): 2})
    assert ((1,), 0) not in x.terms
    assert x.dimension() == 2
    # the terms are a fresh zero-free dict in the argument's order, whether
    # or not the argument holds a zero, and never the argument itself
    for terms in ({((1,), 0): 0, ((0,), 1): 2, ((-1,), 0): 0}, {((1,), 0): 5, ((0,), 1): 2}):
        x = GradedCharacter(rs, terms)
        assert list(x.terms.items()) == [(k, m) for k, m in terms.items() if m]
        x.terms[(9,), 9] = 1
        assert ((9,), 9) not in terms


def test_constructor_copies_what_it_is_given():
    # only the decoders hand over their own dicts; a caller's dict stays
    # the caller's, so changing it later leaves the character as built
    rs = root_system("A1")
    for terms in ({((1,), 0): 5, ((0,), 1): 2}, {((1,), 0): 5, ((0,), 1): 0}):
        x = GradedCharacter(rs, terms)
        before = dict(x.terms)
        terms[(1,), 0] = 7
        terms[(3,), 0] = 1
        del terms[(0,), 1]
        assert x.terms == before and x.terms is not terms


def test_unit_is_the_identity():
    rs = root_system("A2")
    rng = seeded("unit")
    for _ in range(10):
        x = random_character(rng, rs)
        assert GradedCharacter.unit(rs) * x == x


def test_mixed_systems_rejected():
    a1, a2 = root_system("A1"), root_system("A2")
    with pytest.raises(ValueError):
        GradedCharacter.unit(a1) * GradedCharacter.unit(a2)


def test_ring_axioms_on_random_operands():
    rs = root_system("B2")
    rng = seeded("ring-axioms")
    for _ in range(25):
        x = random_character(rng, rs)
        y = random_character(rng, rs)
        z = random_character(rng, rs)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * summed(y, z) == summed(x * y, x * z)
        assert summed(x, y) == summed(y, x)
        assert summed(x, scaled(x, -1)).terms == {}


def test_dimension_is_a_ring_map():
    rs = root_system("A2")
    rng = seeded("dim-hom")
    for _ in range(100):
        x = random_character(rng, rs)
        y = random_character(rng, rs)
        assert (x * y).dimension() == x.dimension() * y.dimension()


def test_collapse_commutes_with_multiplication():
    rs = root_system("A2")
    rng = seeded("collapse")
    for _ in range(25):
        x = random_character(rng, rs)
        y = random_character(rng, rs)
        assert (x * y).collapse() == x.collapse() * y.collapse()


def test_rank1_square_by_hand():
    rs = root_system("A1")
    v = weyl_character(rs, (1,))
    sq = v * v
    assert sq.terms == {((2,), 0): 1, ((0,), 0): 2, ((-2,), 0): 1}


def test_product_cancellation_leaves_no_zero_term():
    rs = root_system("A1")
    plus = GradedCharacter(rs, {((1,), 0): 1, ((-1,), 0): 1})  # e^1 + e^-1
    minus = GradedCharacter(rs, {((1,), 0): 1, ((-1,), 0): -1})  # e^1 - e^-1
    product = plus * minus
    assert ((0,), 0) not in product.terms
    assert product.terms == {((2,), 0): 1, ((-2,), 0): -1}


def test_big_integer_coefficients():
    rs = root_system("A1")
    x = GradedCharacter(rs, {((0,), 0): 10**30, ((2,), 0): 1})
    y = x * x
    assert y.terms[(0,), 0] == 10**60
    assert y.dimension() == (10**30 + 1) ** 2


def test_graded_dimension_and_slices():
    rs = root_system("A1")
    x = GradedCharacter(rs, {((2,), 0): 1, ((0,), 0): 1, ((-2,), 0): 1, ((0,), 1): 1})
    assert x.graded_dimension() == {0: 3, 1: 1}
    assert x.slice(0) == weyl_character(rs, (2,))
    assert x.slice(5).terms == {}
    # collapse equals the sum over slices
    total = summed(*(x.slice(g) for g in sorted({g for _, g in x.terms})))
    assert total == x.collapse()


def test_ev0_style_graded_dimension():
    rs = root_system("A2")
    ch = weyl_character(rs, (1, 1))
    assert ch.graded_dimension() == {0: 8}


def test_w_invariance():
    rs = root_system("A2")
    rng = seeded("w-inv")
    for _ in range(20):
        lam = random_dominant(rng, rs, 3)
        assert weyl_character(rs, lam).is_w_invariant()
    spike = monomial(rs, (1, 0))
    assert not spike.is_w_invariant()


def test_serialization_round_trip():
    rs = root_system("B2")
    rng = seeded("serialize")
    for _ in range(10):
        x = random_character(rng, rs)
        text = x.to_jsonl()
        back = GradedCharacter.from_jsonl(text)
        assert back == x
    big = GradedCharacter(rs, {((1, 0), 2): 12345678901234567890})
    assert '"m":"12345678901234567890"' in big.to_jsonl()
    assert GradedCharacter.from_jsonl(big.to_jsonl()) == big


def test_round_trip_over_a_respelled_label():
    # every spelling of a label names the one instance, so a character built
    # on " A2" equals its own round trip and combines with one built on "A2"
    x = weyl_character(root_system(" A2"), (1, 0))
    assert GradedCharacter.from_jsonl(x.to_jsonl()) == x
    assert (x * weyl_character(root_system("A2"), (0, 1))).dimension() == 9


def test_serialization_headers():
    rs = root_system("A1")
    ch = weyl_character(rs, (2,))
    text = ch.to_jsonl()
    assert text.splitlines()[0] == '{"system":"A1","kind":"plain"}'
    graded = GradedCharacter(rs, {((0,), 1): 1})
    assert graded.to_jsonl().splitlines()[0] == '{"system":"A1","kind":"graded"}'
    with pytest.raises(ValueError):
        GradedCharacter.from_jsonl("")
    with pytest.raises(ValueError):
        GradedCharacter.from_jsonl('{"system":"A1","kind":"nope"}\n')
    with pytest.raises(ValueError):
        # graded content declared plain
        GradedCharacter.from_jsonl('{"system":"A1","kind":"plain"}\n{"w":[0],"g":1,"m":"1"}\n')


def test_serialization_is_canonically_ordered():
    import json

    rs = root_system("A1")
    x = GradedCharacter(rs, {((12,), 0): 1, ((-2,), 1): 1, ((2,), 0): 3, ((-2,), 0): 2})
    recs = [json.loads(ln) for ln in x.to_jsonl().splitlines()[1:]]
    keys = [(tuple(r["w"]), r["g"]) for r in recs]
    assert keys == sorted(keys)


def _reference_jsonl(x, kind):
    """The codec spelled out with one ``json.dumps`` per line."""
    import json

    sep = (",", ":")
    lines = [json.dumps({"system": x.system.name, "kind": kind}, separators=sep)]
    for (w, g), m in sorted(x.terms.items(), key=lambda kv: kv[0]):
        lines.append(json.dumps({"w": list(w), "g": g, "m": str(m)}, separators=sep))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("system", ["A1", "B2", "G2", "E8"])
def test_jsonl_matches_json_dumps_reference(system):
    rs = root_system(system)
    rng = seeded(f"codec-{system}")
    samples = [GradedCharacter(rs), weyl_character(rs, rs.zero_weight())]
    # many grades at each of a few weights
    samples.append(random_character(rng, rs, nterms=40, grade_span=9))
    for _ in range(6):
        x = random_character(rng, rs, nterms=12, coeff_span=9)
        samples.append(x)
        # negative grades
        samples.append(GradedCharacter(rs, {(w, g - 2): m for (w, g), m in x.terms.items()}))
        samples.append(scaled(x, 2**64 + rng.randint(1, 99)))  # past 64 bits
        samples.append(scaled(x, -(3**50)))  # large and negative
    # terms inserted in reverse sorted order, so to_jsonl must sort them
    samples.append(GradedCharacter(rs, dict(sorted(samples[2].terms.items(), reverse=True))))
    for x in samples:
        for kind in ("plain", "graded") if x.is_plain else ("graded",):
            text = x.to_jsonl(kind=kind)
            assert text == _reference_jsonl(x, kind)
            assert GradedCharacter.from_jsonl(text) == x
        assert x.to_jsonl() == x.to_jsonl(kind="plain" if x.is_plain else "graded")


def test_plain_serialization_of_a_graded_character_is_refused():
    # from_jsonl refuses such a file, so to_jsonl does not write it
    graded = GradedCharacter(root_system("A1"), {((0,), 0): 2, ((2,), 1): 1})
    with pytest.raises(ValueError, match="nonzero grades"):
        graded.to_jsonl(kind="plain")
    assert GradedCharacter.from_jsonl(graded.to_jsonl(kind="graded")) == graded


def test_from_jsonl_holds_little_beside_its_result():
    # the records stream into the result: the parse's traced peak stays
    # within 1.5 times what the character it returns retains, so no list
    # of records or copy of the terms is alive at any one time
    from demkit.affine import demazure_character

    text = demazure_character(root_system("A2"), 2, (10, 9)).to_jsonl()
    GradedCharacter.from_jsonl(text)  # compile the record pattern untraced
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        char = GradedCharacter.from_jsonl(text)
        kept, peak = (n - base for n in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(char.terms) > 5000
    assert peak <= 1.5 * kept, (peak, kept)


@pytest.mark.parametrize("header", [
    pytest.param("[1]", id="not-an-object"),
    pytest.param('{"system":["A1"],"kind":"graded"}', id="system-not-a-string"),
])
def test_from_jsonl_rejects_malformed_headers(header):
    with pytest.raises(ValueError):
        GradedCharacter.from_jsonl(header + '\n{"w":[0],"g":0,"m":"1"}\n')


@pytest.mark.parametrize("record", [
    pytest.param("[1]", id="list"),
    pytest.param("7", id="number"),
    pytest.param('{"w":2,"g":0,"m":"1"}', id="weight-not-a-list"),
    pytest.param('{"w":[0.5],"g":0,"m":"1"}', id="weight-float"),
    pytest.param('{"w":[true],"g":0,"m":"1"}', id="weight-bool"),
    pytest.param('{"w":[[0]],"g":0,"m":"1"}', id="weight-nested"),
    pytest.param('{"w":[0,0],"g":0,"m":"1"}', id="weight-wrong-rank"),
    pytest.param('{"w":[0],"g":"0","m":"1"}', id="grade-string"),
    pytest.param('{"w":[0],"g":[0],"m":"1"}', id="grade-list"),
    pytest.param('{"w":[0],"g":0,"m":1}', id="mult-not-a-string"),
    pytest.param('{"w":[0],"g":0,"m":"1.5"}', id="mult-not-decimal"),
    pytest.param('{"w":[0],"g":0}', id="mult-missing"),
    pytest.param('{"w":[0],"g":0,"m":"1_0"}', id="mult-underscore"),
    pytest.param('{"w":[0],"g":0,"m":" 7"}', id="mult-space"),
    pytest.param('{"w":[0],"g":0,"m":"+5"}', id="mult-plus"),
    pytest.param('{"w":[0],"g":0,"m":"007"}', id="mult-leading-zeros"),
    pytest.param('{"w":[0],"g":0,"m":"\u0663"}', id="mult-non-ascii-digit"),
    pytest.param('{"w":[0],"g":0,"m":"0"}', id="mult-zero"),
    pytest.param('{"w":[0],"g":0,"m":"-0"}', id="mult-negative-zero"),
    pytest.param('{"w":[0],"g":0,"m":"1"},{"w":[2],"g":0,"m":"1"}', id="two-on-one-line"),
    pytest.param('{"w":[0],"g":0,"m":"1"}\n{"w":[0],"g":0,"m":"2"}', id="repeated-term"),
    # spellings json.loads accepts but to_jsonl never writes
    pytest.param('{"w": [0],"g":0,"m":"1"}', id="space-after-colon"),
    pytest.param('{"g":0,"w":[0],"m":"1"}', id="reordered-keys"),
    pytest.param('{"w":[0],"g":0,"m":"1","x":0}', id="extra-key"),
    pytest.param('{"w":[-0],"g":0,"m":"1"}', id="weight-negative-zero"),
    pytest.param('{"w":[00],"g":0,"m":"1"}', id="weight-leading-zero"),
    pytest.param('{"w":[0],"g":-0,"m":"1"}', id="grade-negative-zero"),
    pytest.param('{"w":[0],"g":01,"m":"1"}', id="grade-leading-zero"),
    pytest.param('{"w":[0],"g":0,"m":"1"}\n', id="blank-line"),
    pytest.param('\n{"w":[0],"g":0,"m":"1"}', id="blank-line-first"),
    pytest.param('{"w":[0],"g":0,"m":"1"}\r', id="crlf"),
    pytest.param('{"w":[0],"g":0,"m":"1"}\u2028{"w":[1],"g":0,"m":"1"}', id="line-separator"),
])
def test_from_jsonl_rejects_malformed_records(record):
    with pytest.raises(ValueError):
        GradedCharacter.from_jsonl('{"system":"A1","kind":"graded"}\n' + record + "\n")


@pytest.mark.parametrize("text", [
    pytest.param('{"system":"A1","kind":"graded"}\n{"w":[0],"g":0,"m":"1"}', id="no-final-newline"),
    pytest.param('{"system":"A1","kind":"graded"}', id="header-without-newline"),
    pytest.param('{"system":"A1","kind":"graded"}\n\n', id="header-then-blank-line"),
])
def test_from_jsonl_rejects_unterminated_and_blank_lines(text):
    with pytest.raises(ValueError):
        GradedCharacter.from_jsonl(text)


@pytest.mark.parametrize("kind", ["plain", "graded"])
def test_header_only_round_trip(kind):
    rs = root_system("B2")
    text = GradedCharacter(rs).to_jsonl(kind=kind)
    assert text == '{"system":"B2","kind":"%s"}\n' % kind
    back = GradedCharacter.from_jsonl(text)
    assert back == GradedCharacter(rs) and back.to_jsonl(kind=kind) == text
