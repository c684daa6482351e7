"""The quotient table of a finite word list W: every product s^-1 t over
W x W, formed once and labelled by the word it gives.

Labels number the distinct quotients in row-major order of first
appearance, so anything built class by class from the table keeps the order
of a plain double loop over W. A list of direct-product words (x, y) has
(x, y)^-1 (x', y') = (x^-1 x', y^-1 y'), so its table is read off one table
per component word list, with no product of pair words. Label 0, at (0, 0),
is the unit. The Gram and moment instances (certify.gram_instance and
sdpcore.moment_form, which find a term's class by its word's `index`),
Toeplitz compressions and the extension chain read E^-1 E from the table of
E; the certificate verifier reads the table of the factors' support, which
is E's own table when the factors list E's words in E's order.
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from typing import Iterable

import numpy as np

from .words import Word, conjugacy_canonical, inverse, multiply, pair_word

__all__ = ["QuotientTable", "label_pairs"]


class QuotientTable:
    """`labels[i, j]` is the label of words[i]^-1 words[j]; `classes[k]` is
    the quotient with label k, `index` its inverse map, and `inverse[k]`
    the label of classes[k]^-1."""

    def __init__(self, words: Iterable[Word]):
        self.words = words = tuple(words)
        n = len(words)
        spec = words[0].spec if words else None
        if spec is not None and spec.is_product and all(
                w.spec is spec or w.spec == spec for w in words):
            self.labels, self.classes = _product_table(spec, words)
            self.index = {q: k for k, q in enumerate(self.classes)}
        else:
            index: dict[Word, int] = {}
            label = index.setdefault
            flat: list[int] = []
            for s in words:
                s_inv = inverse(s)
                flat += [label(q, len(index))
                         for q in map(multiply, repeat(s_inv, n), words)]
            self.labels = np.array(flat, dtype=np.intp).reshape(n, n)
            self.index = index
            self.classes = tuple(index)
        # (s^-1 t)^-1 = t^-1 s
        self.inverse = np.empty(len(self.classes), dtype=np.intp)
        self.inverse[self.labels] = self.labels.T

    def __len__(self) -> int:
        return len(self.classes)

    @cached_property
    def conjugacy(self) -> tuple[np.ndarray, tuple[Word, ...]]:
        """(conjugacy label of every class, the canonical words of the
        conjugacy classes in label order), labelled in order of first
        appearance like the quotients themselves."""
        index: dict[Word, int] = {}
        of_class = np.array(
            [index.setdefault(conjugacy_canonical(w), len(index))
             for w in self.classes], dtype=np.intp)
        return of_class, tuple(index)


def _product_table(spec, words) -> tuple[np.ndarray, tuple[Word, ...]]:
    """The labels and classes of direct-product words (x_i, y_i), whose
    quotients are (x_i^-1 x_j, y_i^-1 y_j): the pair of labels from one
    table per component word list, coded as label_x K_y + label_y and
    renumbered in row-major order of first appearance."""
    tables, at = [], []
    for side in (0, 1):
        component = [w.pair[side] for w in words]
        distinct = {x: k for k, x in enumerate(dict.fromkeys(component))}
        tables.append(QuotientTable(distinct))
        at.append(np.array([distinct[x] for x in component], dtype=np.intp))
    left, right = tables
    code = (left.labels[np.ix_(at[0], at[0])] * len(right)
            + right.labels[np.ix_(at[1], at[1])])
    codes, first, of_code = np.unique(code, return_index=True,
                                      return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    classes = tuple(pair_word(spec, left.classes[c // len(right)],
                              right.classes[c % len(right)])
                    for c in codes[order].tolist())
    return rank[of_code].reshape(code.shape), classes


def label_pairs(labels: np.ndarray) -> list[list[tuple[int, int]]]:
    """The (i, j) positions carrying each label 0, 1, ..., max label, by
    label, each list in row-major order."""
    labels = np.asarray(labels)
    flat = labels.ravel()
    order = np.argsort(flat, kind="stable")
    rows, cols = np.divmod(order, labels.shape[1] if labels.ndim == 2 else 1)
    ends = np.cumsum(np.bincount(flat)).tolist() if flat.size else []
    pairs = list(zip(rows.tolist(), cols.tolist()))
    return [pairs[a:b] for a, b in zip([0] + ends, ends)]
