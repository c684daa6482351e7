import itertools
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecert.words import (
    Word,
    conjugacy_canonical,
    cyclic_free_product,
    direct_product,
    drop_first,
    first_letter,
    format_word,
    free_group,
    generator,
    inverse,
    multiply,
    pair_word,
    parse_word,
    sort_key,
    unit,
    word_length,
)

F2 = free_group(2)
Z3 = cyclic_free_product(2, 3)
Z2 = cyclic_free_product(2, 2)


def g(i, e=1, spec=F2):
    return generator(spec, i, e)


def random_word(rng, spec=F2, max_len=6):
    w = unit(spec)
    for _ in range(rng.randrange(max_len + 1)):
        w = multiply(w, generator(spec, rng.randrange(1, spec.d + 1),
                                  rng.choice([-2, -1, 1, 2])))
    return w


def test_cancellation_to_unit():
    assert multiply(g(1), g(1, -1)) == unit(F2)


def test_forced_reduction():
    # (s1 s2)(s2^-1 s1) -> s1^2
    a = multiply(g(1), g(2))
    b = multiply(g(2, -1), g(1))
    assert multiply(a, b) == g(1, 2)


def test_cyclic_exponent_wraps():
    assert multiply(g(1, 2, Z3), g(1, 2, Z3)) == g(1, 1, Z3)


def test_inverse_examples():
    assert inverse(multiply(g(1), g(2, -1))) == multiply(g(2), g(1, -1))
    assert inverse(unit(F2)) == unit(F2)
    # order-2 generators: (s1 s2)^-1 = s2 s1
    w = multiply(g(1, 1, Z2), g(2, 1, Z2))
    assert inverse(w) == multiply(g(2, 1, Z2), g(1, 1, Z2))


def test_conjugacy_examples():
    w = multiply(multiply(g(1), g(2)), g(1, -1))
    assert conjugacy_canonical(w) == g(2)
    assert conjugacy_canonical(multiply(g(2), g(1))) == multiply(g(1), g(2))
    assert conjugacy_canonical(g(1, -1)) == g(1, -1)


def test_associativity_random():
    rng = random.Random(11)
    for spec in (F2, Z3):
        for _ in range(200):
            a, b, c = (random_word(rng, spec) for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_inverse_cancels_random():
    rng = random.Random(12)
    for spec in (F2, Z3):
        for _ in range(200):
            a = random_word(rng, spec)
            assert multiply(a, inverse(a)) == unit(spec)
            assert multiply(inverse(a), a) == unit(spec)


def test_conjugation_invariance_random():
    rng = random.Random(13)
    for spec in (F2, Z3):
        for _ in range(200):
            a = random_word(rng, spec)
            h = random_word(rng, spec)
            conj = multiply(h, multiply(a, inverse(h)))
            assert conjugacy_canonical(conj) == conjugacy_canonical(a)


def test_reduced_invariant_random():
    rng = random.Random(14)
    for _ in range(200):
        a = multiply(random_word(rng), random_word(rng))
        for (g1, e1), (g2, e2) in zip(a.letters, a.letters[1:]):
            assert g1 != g2
        assert all(e != 0 for _, e in a.letters)
    for _ in range(200):
        a = multiply(random_word(rng, Z3), random_word(rng, Z3))
        assert all(1 <= e <= 2 for _, e in a.letters)


def test_spec_mismatch_raises():
    with pytest.raises(ValueError):
        multiply(g(1), g(1, 1, Z3))


def test_first_letter_and_drop():
    w = multiply(g(1, 2), g(2, -1))
    assert first_letter(w) == (1, 1)
    assert drop_first(w) == multiply(g(1, 1), g(2, -1))
    assert drop_first(g(1, 1)) == unit(F2)
    assert word_length(w) == 3


def test_text_roundtrip():
    rng = random.Random(15)
    for spec in (F2, Z3):
        for _ in range(100):
            w = random_word(rng, spec)
            assert parse_word(spec, format_word(w)) == w
    assert format_word(unit(F2)) == "e"
    assert format_word(multiply(g(1, -1), g(2))) == "g1^-1 g2^1"
    # ^1 may be omitted on input
    assert parse_word(F2, "g1 g2^-1") == multiply(g(1), g(2, -1))


def test_product_words():
    spec = direct_product(Z2, Z2)
    w = pair_word(spec, g(1, 1, Z2), g(2, 1, Z2))
    assert format_word(w) == "(g1^1)x(g2^1)"
    assert parse_word(spec, "(g1^1)x(g2^1)") == w
    assert multiply(w, inverse(w)) == unit(spec)
    assert word_length(w) == 2


def test_product_nesting_rejected():
    spec = direct_product(Z2, Z2)
    with pytest.raises(ValueError):
        direct_product(spec, Z2)


def test_conjugacy_cyclic_group_merge():
    # in Z3^{*2}: g1^2 g2^1 g1^2 rotates to g2^1 g1^1 (4 mod 3 = 1), whose
    # canonical rotation is g1^1 g2^1
    w = multiply(multiply(g(1, 2, Z3), g(2, 1, Z3)), g(1, 2, Z3))
    assert conjugacy_canonical(w) == multiply(g(1, 1, Z3), g(2, 1, Z3))


def test_sort_key_orders_by_length_then_lex():
    words = [g(2), g(1), multiply(g(1), g(2)), unit(F2), g(1, -1)]
    ordered = sorted(words, key=sort_key)
    assert ordered[0] == unit(F2)
    assert ordered[1] == g(1, -1)  # exponent -1 sorts before +1
    assert ordered[2] == g(1)
    assert ordered[-1] == multiply(g(1), g(2))


# ------------------------------------------------- junction products

F3 = free_group(3)
Z3_2 = cyclic_free_product(2, 3)
Z2_3 = cyclic_free_product(3, 2)
BASE_SPECS = (F3, Z3_2, Z2_3)
PRODUCT = direct_product(Z2, Z3)


def _letters(spec):
    exps = st.integers(-3, 3) if spec.kind == "free" else st.integers(1, 5)
    return st.lists(st.tuples(st.integers(1, spec.d), exps), max_size=8)


def _words(spec):
    """Random reduced words: random letter runs through the validating
    constructor, which reduces them."""
    if spec.is_product:
        return st.builds(lambda a, b: pair_word(spec, a, b),
                         _words(spec.left), _words(spec.right))
    return _letters(spec).map(lambda ls: Word(spec, tuple(ls)))


def _word_pairs(spec):
    return st.tuples(_words(spec), _words(spec))


ALL_PAIRS = st.one_of(*(_word_pairs(s) for s in BASE_SPECS + (PRODUCT,)))


@settings(max_examples=300, deadline=None)
@given(ALL_PAIRS)
def test_junction_product_matches_full_reduction(pair):
    a, b = pair
    got = multiply(a, b)
    if a.spec.is_product:
        want = Word(a.spec, pair=(Word(a.spec.left, a.pair[0].letters
                                       + b.pair[0].letters),
                                  Word(a.spec.right, a.pair[1].letters
                                       + b.pair[1].letters)))
    else:
        want = Word(a.spec, a.letters + b.letters)
    assert got == want
    assert hash(got) == hash(want)
    assert got.letters == want.letters and got.pair == want.pair


@settings(max_examples=300, deadline=None)
@given(ALL_PAIRS)
def test_inverse_round_trip_and_cancellation(pair):
    a, b = pair
    assert inverse(inverse(a)) == a
    assert hash(inverse(inverse(a))) == hash(a)
    assert multiply(a, inverse(a)).is_unit
    assert multiply(inverse(a), a).is_unit
    ab = multiply(a, b)
    assert inverse(ab) == multiply(inverse(b), inverse(a))
    assert multiply(ab, inverse(b)) == a


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(BASE_SPECS), st.integers(0, 3), st.integers(1, 3))
def test_out_of_range_generator_still_raises(spec, k, e):
    for g_bad in (-k, spec.d + 1 + k):
        with pytest.raises(ValueError):
            Word(spec, ((1, 1), (g_bad, e)))
        with pytest.raises(ValueError):
            generator(spec, g_bad, e)
    with pytest.raises(ValueError):
        parse_word(spec, f"g1 g{spec.d + 1 + k}^{e}")


# ------------------------------------------------- parsing

_TOKEN = re.compile(r"^g(\d+)(?:\^(-?\d+))?$")


def reference_parse(spec, text):
    """The word grammar as one anchored regular expression per token: the
    reference that parse_word's tokenizer must agree with, text by text and
    message by message."""
    text = text.strip()
    if spec.is_product:
        match = re.match(r"^\((.*)\)x\((.*)\)$", text)
        if not match:
            raise ValueError(f"malformed product word {text!r}")
        return Word(spec, pair=(reference_parse(spec.left, match.group(1)),
                                reference_parse(spec.right, match.group(2))))
    if text == "e":
        return unit(spec)
    letters = []
    for token in text.split():
        m = _TOKEN.match(token)
        if not m:
            raise ValueError(f"malformed word token {token!r}")
        e = int(m.group(2)) if m.group(2) is not None else 1
        letters.append((int(m.group(1)), e))
    return Word(spec, tuple(letters))


def _outcome(parse, spec, text):
    try:
        w = parse(spec, text)
    except ValueError as exc:
        return ("error", str(exc))
    return ("word", w, w.letters, w.pair)


PARSE_SPECS = (F2, Z3, direct_product(Z2, Z3), direct_product(F2, F2))
# "\u0663" is a decimal digit outside ASCII, "\u00b2" a digit that is not
# decimal, "\t" a second kind of space
FRAGMENTS = list("ge^-+_()x0123456789 ") + [")x(", "\u0663", "\u00b2", "\t"]
_TOKENS = st.builds(
    "".join, st.tuples(st.sampled_from(["g", "g", "g", "g", "e", "G", ""]),
                       st.text("0123456789\u0663\u00b2", max_size=2),
                       st.sampled_from(["", "^", "^", "^-", "^-", "^+", "^^",
                                        "_", "-"]),
                       st.text("0123456789\u0663\u00b2", max_size=2),
                       st.sampled_from([" ", " ", " ", "", "\t"])))
# mostly token-shaped text, so that a fault late in a word is reached
_TEXTS = st.lists(st.one_of(_TOKENS, _TOKENS, _TOKENS,
                            st.sampled_from(FRAGMENTS)),
                  max_size=6).map("".join)
WORD_TEXTS = st.one_of(_TEXTS, st.builds("({})x({})".format, _TEXTS, _TEXTS))


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(PARSE_SPECS), WORD_TEXTS)
def test_parse_word_matches_reference_grammar(spec, text):
    assert _outcome(parse_word, spec, text) == \
        _outcome(reference_parse, spec, text)


def test_parse_word_matches_reference_on_every_short_text():
    # every text of up to five symbols over the letters that matter to a
    # token, "\u00b2" being a digit that is not decimal
    alphabet = "g1^-+ e_\u00b2"
    for n in range(6):
        for chars in itertools.product(alphabet, repeat=n):
            text = "".join(chars)
            assert _outcome(parse_word, F2, text) == \
                _outcome(reference_parse, F2, text), text


@pytest.mark.parametrize("text", [
    "g1", "g1^", "g1^+1", "g1^1_0", "g1^^2", "g 1", "ee", "  g1^2 g2^-1\t",
    " e ", "", "g1^-", "g1^--1", "g-1", "g01^-02", "g3", "g1^0 g2",
    "G1", "g\u0663^\u0661", "(g1)x(g2^-1)", " (e)x(g1 g2) ", "(g1)x g2"])
@pytest.mark.parametrize("spec", PARSE_SPECS)
def test_parse_word_explicit_cases(spec, text):
    assert _outcome(parse_word, spec, text) == \
        _outcome(reference_parse, spec, text)


def test_word_reader_parses_each_text_once(monkeypatch):
    from freecert import words

    calls = []

    def counting(spec, text):
        calls.append(text)
        return parse_word(spec, text)

    monkeypatch.setattr(words, "parse_word", counting)
    read = words.WordReader(free_group(2))
    a, b, c = read("g1 g2^-1"), read("g1 g2^-1"), read(" g1 g2^-1")
    assert a is b and a == c and a is not c
    assert calls == ["g1 g2^-1", " g1 g2^-1"]
    assert a.spec is read.spec
    with pytest.raises(ValueError, match="malformed word token"):
        read("g1 h2")
    # JSON values that are no text: a number, a list, null
    for value in (5, 2.5, ["g1"], None):
        with pytest.raises(ValueError, match="a word must be a string"):
            read(value)


# ------------------------------------------------- hashing and equality

def test_words_over_equal_specs_are_equal():
    a = parse_word(free_group(2), "g1 g2^-1")
    b = parse_word(free_group(2), "g1 g2^-1")
    assert a.spec is not b.spec
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    pa = parse_word(direct_product(Z2, Z3), "(g1)x(g2^2)")
    pb = parse_word(direct_product(cyclic_free_product(2, 2), Z3),
                    "(g1)x(g2^2)")
    assert pa == pb and hash(pa) == hash(pb)


def test_same_letters_in_different_groups_are_unequal():
    a = parse_word(F2, "g1 g2")
    b = parse_word(Z3, "g1 g2")
    assert a.letters == b.letters
    assert a != b
    assert len({a, b}) == 2


def test_hash_is_that_of_letters_and_pair():
    w = parse_word(Z3, "g1^2 g2")
    assert hash(w) == hash((w.letters, None))
    spec = direct_product(Z2, Z3)
    p = multiply(pair_word(spec, g(1, 1, Z2), unit(Z3)),
                 pair_word(spec, unit(Z2), g(2, 2, Z3)))
    assert hash(p) == hash(((), p.pair))
    assert p == pair_word(spec, g(1, 1, Z2), g(2, 2, Z3))
    assert hash(p) == hash(pair_word(spec, g(1, 1, Z2), g(2, 2, Z3)))


def test_pickle_drops_the_cached_hash():
    for w in (parse_word(F2, "g1 g2^-3"),
              parse_word(direct_product(Z2, Z3), "(g1)x(g2^2)")):
        h = hash(w)
        assert "_hash" in w.__dict__
        back = pickle.loads(pickle.dumps(w))
        assert "_hash" not in back.__dict__
        assert back == w and hash(back) == h
