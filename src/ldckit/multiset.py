"""Truncated multiset bases.

The basis of the degree-d exponential over a base space consists of all
multisets of base labels of size at most d, ordered by (size, lexicographic
by base index).  A multiset is represented as a sorted tuple of base
indices.
"""
from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from .errors import MAX_ENTRIES, ResourceLimit


class MultisetBasis:
    def __init__(self, base_labels: Sequence[str], degree: int):
        if degree < 0:
            raise ValueError("degree bound must be nonnegative")
        self.base = tuple(base_labels)
        self.degree = degree
        # multisets of size <= d over k letters: multisets of size d over
        # k + 1 letters, the extra letter padding; 1 (the empty multiset)
        # when k = 0.  They hold k C(k + d, k + 1) letters in all.  Both
        # counts are refused before any multiset is built.
        k = len(self.base)
        self.dim = math.comb(k + degree, degree)
        for what, size in (("multisets", self.dim),
                           ("letters of all multisets",
                            k * math.comb(k + degree, k + 1))):
            if size > MAX_ENTRIES:
                raise ResourceLimit(f"degree-{degree} multiset basis over "
                                    f"{k} letters ({what})", size,
                                    MAX_ENTRIES)
        self.elements: list[tuple[int, ...]] = []
        for n in range(degree + 1):
            self.elements.extend(
                itertools.combinations_with_replacement(range(k), n))
        self.index = {m: i for i, m in enumerate(self.elements)}
        assert len(self.elements) == self.dim

    def label(self, m: tuple[int, ...]) -> str:
        return "[" + ",".join(self.base[i] for i in m) + "]"

    def labels(self) -> list[str]:
        return [self.label(m) for m in self.elements]

    def grade_indices(self, n: int) -> list[int]:
        return [i for i, m in enumerate(self.elements) if len(m) == n]

    def degrees(self) -> list[int]:
        return [len(m) for m in self.elements]


def sub_multiset_splits(m: tuple[int, ...]) \
        -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All distinct ordered pairs (m1, m2) with m1 + m2 = m, each once."""
    items = sorted(set(m))
    counts = [m.count(x) for x in items]
    for choice in itertools.product(*(range(c + 1) for c in counts)):
        m1 = tuple(itertools.chain.from_iterable(
            (x,) * k for x, k in zip(items, choice)))
        m2 = tuple(itertools.chain.from_iterable(
            (x,) * (c - k) for x, c, k in zip(items, counts, choice)))
        yield m1, m2


def remove_one(m: tuple[int, ...], x: int) -> tuple[int, ...]:
    out = list(m)
    out.remove(x)
    return tuple(out)


def distinct_orderings(m: tuple[int, ...]) -> list[tuple[int, ...]]:
    return sorted(set(itertools.permutations(m)))


def multiset_union(m1: tuple[int, ...], m2: tuple[int, ...]) \
        -> tuple[int, ...]:
    return tuple(sorted(m1 + m2))
