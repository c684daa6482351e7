"""Grounded subsets of free groups: finite, unit-containing, connected in the
Cayley tree (equivalently closed under right suffixes)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .quotients import QuotientTable
from .words import (
    FREE,
    GroupSpec,
    Word,
    drop_first,
    sort_key,
    unit,
)

__all__ = [
    "GroundedSet",
    "grounded_set",
    "is_grounded",
    "double_set",
    "grounded_hull",
    "extension_chain",
]


@dataclass(frozen=True)
class GroundedSet:
    spec: GroupSpec
    elements: tuple[Word, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, w: Word) -> bool:
        return w in self._members

    @cached_property
    def _members(self) -> frozenset[Word]:
        return frozenset(self.elements)

    @cached_property
    def positions(self) -> dict[Word, int]:
        """Word -> its index in `elements`."""
        return {w: i for i, w in enumerate(self.elements)}

    @cached_property
    def quotients(self) -> QuotientTable:
        """The quotient table of `elements`, formed on first use."""
        return QuotientTable(self.elements)

    def as_set(self) -> frozenset[Word]:
        return self._members


def _require_free(spec: GroupSpec):
    if spec.kind != FREE:
        raise ValueError("grounded sets are defined over free groups only")


def is_grounded(spec: GroupSpec, words: Iterable[Word]) -> bool:
    """True iff the unit is present and dropping the first letter of any
    non-unit element stays inside the set."""
    _require_free(spec)
    pool = set(words)
    for w in pool:
        if w.spec is not spec and w.spec != spec:
            raise ValueError("word spec mismatch")
    if unit(spec) not in pool:
        return False
    return all(w.is_unit or drop_first(w) in pool for w in pool)


def grounded_set(spec: GroupSpec, words: Iterable[Word]) -> GroundedSet:
    """Validate and order a grounded set; raises if the set is not grounded."""
    pool = set(words)
    if not is_grounded(spec, pool):
        raise ValueError("set is not grounded (unit missing or suffix gap)")
    return GroundedSet(spec, tuple(sorted(pool, key=sort_key)))


def double_set(E: GroundedSet) -> list[Word]:
    """E^{-1}E = {s^{-1}t : s,t in E}, deduplicated, in (length, lex) order."""
    return sorted(E.quotients.classes, key=sort_key)


def grounded_hull(spec: GroupSpec, words: Iterable[Word]) -> GroundedSet:
    """Smallest grounded set containing the input: the unit plus all right
    suffixes of every word."""
    _require_free(spec)
    pool = {unit(spec)}
    for w in words:
        if w.spec is not spec and w.spec != spec:
            raise ValueError("word spec mismatch")
        while not w.is_unit:
            if w in pool:
                break
            pool.add(w)
            w = drop_first(w)
    return GroundedSet(spec, tuple(sorted(pool, key=sort_key)))


def extension_chain(E: GroundedSet, F: GroundedSet) -> list[Word]:
    """Order F \\ E so that every prefix union with E stays grounded.

    Ascending (length, lex) order works: each new word's tree parent is
    shorter, lies in F by groundedness, and hence was added earlier or is
    already in E.
    """
    if E.spec != F.spec:
        raise ValueError("grounded sets over different groups")
    e_set, f_set = E.as_set(), F.as_set()
    if not e_set <= f_set:
        raise ValueError("E is not contained in F")
    return sorted(f_set - e_set, key=sort_key)
