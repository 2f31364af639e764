"""Truncated multiset bases.

The basis of the degree-d exponential over a base space consists of all
multisets of base labels of size at most d, ordered by (size, lexicographic
by base index).  A multiset is represented as a sorted tuple of base
indices.  They are enumerated once per basis shape (letters, degree), in a
bounded LRU cache, as a read-only tuple and index that every `MultisetBasis`
of that shape and every index table built over it share.
"""
from __future__ import annotations

import functools
import itertools
import math
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .errors import MAX_ENTRIES, ResourceLimit, count, string_labels


def _multisets(letters: int, degree: int) -> tuple[tuple, Mapping]:
    """The multisets of size <= degree over `letters` letters, in basis
    order, and the position of each.  They are the multisets of size d over
    k + 1 letters, the extra letter padding: C(k + d, d) of them, holding
    k C(k + d, k + 1) letters in all.  Both counts are refused on every
    call, before any multiset is built."""
    degree = count(degree, "a degree bound is a nonnegative integer")
    letters = count(letters, "a base has a nonnegative number of elements")
    for what, size in (("multisets", math.comb(letters + degree, degree)),
                       ("letters of all multisets",
                        letters * math.comb(letters + degree, letters + 1))):
        if size > MAX_ENTRIES:
            raise ResourceLimit(f"degree-{degree} multiset basis over "
                                f"{letters} letters ({what})", size,
                                MAX_ENTRIES)
    return _enumerated(letters, degree)


@functools.lru_cache(maxsize=64)
def _enumerated(letters: int, degree: int) -> tuple[tuple, Mapping]:
    elements = tuple(itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(letters), n)
        for n in range(degree + 1)))
    return elements, MappingProxyType({m: i for i, m in enumerate(elements)})


class MultisetBasis:
    def __init__(self, base_labels: Sequence[str], degree: int):
        self.base = string_labels(base_labels,
                                  "base labels are a list of strings")
        self.elements, self.index = _multisets(len(self.base), degree)
        self.degree = int(degree)
        self.dim = len(self.elements)

    def label(self, m: tuple[int, ...]) -> str:
        return "[" + ",".join(self.base[i] for i in m) + "]"

    def labels(self) -> list[str]:
        return [self.label(m) for m in self.elements]

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


def distinct_orderings(m: tuple[int, ...]) -> list[tuple[int, ...]]:
    return sorted(set(itertools.permutations(m)))
