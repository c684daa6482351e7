"""Reduced-word arithmetic for free groups, free products of finite cyclic
groups, and direct products of two such groups.

Words are immutable and hashable; all operations return reduced words. The
public constructor reduces and range-checks its letters; products and
inverses of base-group words, whose factors are already reduced, only touch
the letters at the junction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = [
    "GroupSpec",
    "Word",
    "free_group",
    "cyclic_free_product",
    "direct_product",
    "unit",
    "generator",
    "pair_word",
    "multiply",
    "inverse",
    "conjugacy_canonical",
    "word_length",
    "drop_first",
    "first_letter",
    "sort_key",
    "format_word",
    "parse_word",
    "WordReader",
    "json_int",
]

FREE = "free"
CYCLIC = "cyclic_free_product"
PRODUCT = "direct_product"


@dataclass(frozen=True)
class GroupSpec:
    """Describes the ambient group: F_d, Z_m^{*d}, or a direct product of two
    non-product specs."""

    kind: str
    d: int = 0
    m: int = 0
    left: "GroupSpec | None" = None
    right: "GroupSpec | None" = None

    def __post_init__(self):
        if self.kind == FREE:
            if self.d < 1:
                raise ValueError("free group needs d >= 1")
        elif self.kind == CYCLIC:
            if self.d < 1:
                raise ValueError("cyclic free product needs d >= 1")
            if self.m < 2:
                raise ValueError("cyclic order must be >= 2")
        elif self.kind == PRODUCT:
            if self.left is None or self.right is None:
                raise ValueError("direct product needs two factors")
            if self.left.kind == PRODUCT or self.right.kind == PRODUCT:
                raise ValueError("direct products nest at most one level")
        else:
            raise ValueError(f"unknown group kind {self.kind!r}")

    @property
    def is_product(self) -> bool:
        return self.kind == PRODUCT

    def to_json(self) -> dict:
        if self.kind == PRODUCT:
            return {"kind": PRODUCT, "left": self.left.to_json(),
                    "right": self.right.to_json()}
        if self.kind == CYCLIC:
            return {"kind": CYCLIC, "d": self.d, "m": self.m}
        return {"kind": FREE, "d": self.d}

    @staticmethod
    def from_json(obj: dict) -> "GroupSpec":
        if not isinstance(obj, dict):
            raise ValueError(f"a group must be a JSON object, got {obj!r}")
        kind = obj.get("kind")
        if kind == PRODUCT:
            return direct_product(GroupSpec.from_json(obj["left"]),
                                  GroupSpec.from_json(obj["right"]))
        if kind == CYCLIC:
            return cyclic_free_product(*(json_int(obj[k], k) for k in "dm"))
        if kind == FREE:
            return free_group(json_int(obj["d"], "d"))
        raise ValueError(f"unknown group kind {kind!r}")


def json_int(value, name: str) -> int:
    """value when JSON wrote it as an integer: not a float, bool or text."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def free_group(d: int) -> GroupSpec:
    return GroupSpec(FREE, d=d)


def cyclic_free_product(d: int, m: int) -> GroupSpec:
    return GroupSpec(CYCLIC, d=d, m=m)


def direct_product(left: GroupSpec, right: GroupSpec) -> GroupSpec:
    return GroupSpec(PRODUCT, left=left, right=right)


def _reduce(letters, spec: GroupSpec):
    """Stack reduction of a letter sequence; cyclic exponents normalize to
    1..m-1, free exponents to nonzero integers."""
    m = spec.m if spec.kind == CYCLIC else 0
    out: list[tuple[int, int]] = []
    for g, e in letters:
        if not 1 <= g <= spec.d:
            raise ValueError(f"generator index {g} out of range 1..{spec.d}")
        if m:
            e %= m
        if e == 0:
            continue
        if out and out[-1][0] == g:
            merged = out[-1][1] + e
            if m:
                merged %= m
            out.pop()
            if merged != 0:
                out.append((g, merged))
        else:
            out.append((g, e))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A reduced word. Base-group words carry a letter tuple of
    (generator, exponent) runs; direct-product words carry a component pair."""

    spec: GroupSpec
    letters: tuple[tuple[int, int], ...] = ()
    pair: "tuple[Word, Word] | None" = field(default=None)

    def __post_init__(self):
        if self.spec.is_product:
            if self.pair is None or self.letters:
                raise ValueError("product words are component pairs")
            lw, rw = self.pair
            left, right = self.spec.left, self.spec.right
            if ((lw.spec is not left and lw.spec != left)
                    or (rw.spec is not right and rw.spec != right)):
                raise ValueError("component spec mismatch")
        else:
            if self.pair is not None:
                raise ValueError("only product words carry a pair")
            reduced = _reduce(self.letters, self.spec)
            if reduced != self.letters:
                object.__setattr__(self, "letters", reduced)

    def __hash__(self) -> int:
        # words key every quotient table and value map: hash each one once,
        # by its letters and pair only; __eq__ tells apart equal letters in
        # different groups
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.letters, self.pair))
        return h

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Word:
            return NotImplemented
        return (self.letters == other.letters and self.pair == other.pair
                and (self.spec is other.spec or self.spec == other.spec))

    def __getstate__(self):
        # string hashes differ between processes: never pickle the cache
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @property
    def is_unit(self) -> bool:
        if self.spec.is_product:
            return self.pair[0].is_unit and self.pair[1].is_unit
        return not self.letters

    def __mul__(self, other: "Word") -> "Word":
        return multiply(self, other)

    def __invert__(self) -> "Word":
        return inverse(self)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


def unit(spec: GroupSpec) -> Word:
    if spec.is_product:
        return Word(spec, pair=(unit(spec.left), unit(spec.right)))
    return Word(spec)


def generator(spec: GroupSpec, i: int, e: int = 1) -> Word:
    """The word g_i^e in a base (non-product) group."""
    if spec.is_product:
        raise ValueError("use pair_word for direct products")
    return Word(spec, ((i, e),))


def pair_word(spec: GroupSpec, left: Word, right: Word) -> Word:
    if not spec.is_product:
        raise ValueError("pair_word needs a direct-product spec")
    return Word(spec, pair=(left, right))


def _from_reduced(spec: GroupSpec, letters: tuple, pair=None) -> Word:
    """A word from base-group letters that are already reduced and in range,
    or from a pair of words over spec's two factors; skips the validation of
    the public constructor."""
    w = object.__new__(Word)
    w.__dict__.update(spec=spec, letters=letters, pair=pair)
    return w


def multiply(a: Word, b: Word) -> Word:
    if a.spec is not b.spec and a.spec != b.spec:
        raise ValueError("words live in different groups")
    spec = a.spec
    if spec.is_product:
        return _from_reduced(spec, (), (multiply(a.pair[0], b.pair[0]),
                                        multiply(a.pair[1], b.pair[1])))
    x, y = a.letters, b.letters
    if not x:
        return b
    if not y:
        return a
    # both factors are reduced, so letters can only cancel or merge where
    # they meet: walk back from the junction
    m = spec.m if spec.kind == CYCLIC else 0
    i, j, ny = len(x), 0, len(y)
    while i and j < ny:
        g, e = x[i - 1]
        h, f = y[j]
        if g != h:
            break
        e += f
        if m:
            e %= m
        if e:
            return _from_reduced(spec, x[:i - 1] + ((g, e),) + y[j + 1:])
        i -= 1
        j += 1
    return _from_reduced(spec, x[:i] + y[j:])


def inverse(a: Word) -> Word:
    spec = a.spec
    if spec.is_product:
        return _from_reduced(spec, (), (inverse(a.pair[0]),
                                        inverse(a.pair[1])))
    m = spec.m if spec.kind == CYCLIC else 0
    return _from_reduced(spec, tuple((g, (m - e) if m else -e)
                                for g, e in reversed(a.letters)))


def conjugacy_canonical(a: Word) -> Word:
    """Canonical representative of a's conjugacy class: cyclically reduce,
    then take the lexicographically least rotation under the (generator,
    exponent) letter order."""
    if a.spec.is_product:
        raise ValueError("conjugacy classes supported for base groups only")
    m = a.spec.m if a.spec.kind == CYCLIC else 0
    letters = list(a.letters)
    # cyclic reduction: merge matching first/last generators via rotation
    while len(letters) >= 2 and letters[0][0] == letters[-1][0]:
        g = letters[0][0]
        e = letters[0][1] + letters[-1][1]
        if m:
            e %= m
        letters = letters[1:-1]
        if e != 0:
            letters.append((g, e))
    if len(letters) <= 1:
        return Word(a.spec, tuple(letters))
    best = min(tuple(letters[i:] + letters[:i]) for i in range(len(letters)))
    return Word(a.spec, best)


def word_length(a: Word) -> int:
    """Generator word length: sum of |exponent| over letters (cyclic
    exponents count as stored, 1..m-1)."""
    if a.spec.is_product:
        return word_length(a.pair[0]) + word_length(a.pair[1])
    return sum(abs(e) for _, e in a.letters)


def first_letter(a: Word) -> tuple[int, int]:
    """(generator, sign) of the leading single-generator symbol of a free
    word."""
    if a.spec.kind != FREE:
        raise ValueError("first_letter is defined for free groups")
    if a.is_unit:
        raise ValueError("the unit has no first letter")
    g, e = a.letters[0]
    return g, (1 if e > 0 else -1)


def drop_first(a: Word) -> Word:
    """Remove one leading generator symbol (the Cayley-tree parent step)."""
    if a.spec.kind != FREE:
        raise ValueError("drop_first is defined for free groups")
    if a.is_unit:
        raise ValueError("cannot drop a letter from the unit")
    g, e = a.letters[0]
    rest = a.letters[1:]
    if abs(e) > 1:
        rest = ((g, e - (1 if e > 0 else -1)),) + rest
    return Word(a.spec, rest)


def _atoms(a: Word):
    out = []
    for g, e in a.letters:
        step = 1 if e > 0 else -1
        out.extend((g, step) for _ in range(abs(e)))
    return tuple(out)


def sort_key(a: Word):
    """Deterministic (length, lexicographic) key shared by every ordered
    word collection in this package."""
    if a.spec.is_product:
        kl, kr = sort_key(a.pair[0]), sort_key(a.pair[1])
        return (kl[0] + kr[0], (kl[1], kr[1]))
    return (word_length(a), _atoms(a))


def format_word(a: Word) -> str:
    if a.spec.is_product:
        return f"({format_word(a.pair[0])})x({format_word(a.pair[1])})"
    if a.is_unit:
        return "e"
    return " ".join(f"g{g}^{e}" for g, e in a.letters)


def parse_word(spec: GroupSpec, text: str) -> Word:
    """Parse the textual word form: space-separated g<i>^<e> tokens, "e" for
    the unit, "(<left>)x(<right>)" for direct products. "^1" may be omitted
    on input."""
    text = text.strip()
    if spec.is_product:
        match = re.match(r"^\((.*)\)x\((.*)\)$", text)
        if not match:
            raise ValueError(f"malformed product word {text!r}")
        return Word(spec, pair=(parse_word(spec.left, match.group(1)),
                                parse_word(spec.right, match.group(2))))
    if text == "e":
        return unit(spec)
    letters = []
    for token in text.split():
        # g<digits>, then optionally ^<digits> or ^-<digits>; a digit is
        # any Unicode decimal digit (category Nd), as int() reads them
        g, caret, e = token[1:].partition("^")
        if (token[0] != "g" or not g.isdecimal()
                or caret and not (e[1:] if e[:1] == "-" else e).isdecimal()):
            raise ValueError(f"malformed word token {token!r}")
        letters.append((int(g), int(e) if caret else 1))
    return _from_reduced(spec, _reduce(letters, spec))


class WordReader:
    """parse_word over one GroupSpec with a text -> Word memo.

    One reader serves all the words read from one file: each distinct text
    is parsed and hashed once, and every word carries the reader's spec
    object, so per-term spec checks hit their identity case. The memo lives
    as long as the reader, which the CLI keeps for one command call only."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self._words: dict[str, Word] = {}

    def __call__(self, text: str) -> Word:
        if not isinstance(text, str):  # a JSON number, list or null
            raise ValueError(f"a word must be a string, got {text!r}")
        w = self._words.get(text)
        if w is None:
            w = self._words[text] = parse_word(self.spec, text)
        return w
