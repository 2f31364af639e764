"""Truncated multiset bases.

The basis of the degree-d exponential over a base space consists of all
multisets of base labels of size at most d, ordered by (size, lexicographic
by base index).  A multiset is represented as a sorted tuple of base
indices.  They are enumerated once per basis shape (letters, degree), in a
bounded LRU cache, as a read-only `_Shape` that every `MultisetBasis` of
that shape shares, with every index table read over them, each built once,
on first use: the multisets' sizes, the peel tables and Delta's splits.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import MAX_ENTRIES, ResourceLimit, count, string_labels


def _multisets(letters: int, degree: int) -> _Shape:
    """The shape of the multisets of size <= degree over `letters`
    letters (`_Shape`).  They are the multisets of size d over k + 1
    letters, the extra letter padding: C(k + d, d) of them, holding
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


def _frozen(xs) -> np.ndarray:
    """A read-only index array: its cache hands one copy to every caller."""
    out = np.array(xs, dtype=np.intp)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class _Grade:
    """Index tables of the grade-n slice start:stop of a basis shape.  As
    the target of !f, row r peels off its first element first[r], leaving
    rest[r].  As the source, column c sums over its distinct elements: for
    k in seg[c]:seg[c + 1], element elem[k] and the multiset without it,
    elem_rest[k].  rest and elem_rest are positions within grade n - 1."""
    start: int
    stop: int
    first: np.ndarray
    rest: np.ndarray
    elem: np.ndarray
    elem_rest: np.ndarray
    seg: np.ndarray


@dataclass(frozen=True, eq=False)
class _Shape:
    """The multisets of one basis shape, in basis order, the position of
    each, and the index arithmetic of the explicit formulas (Mellies,
    Tabareau & Tasson, ICALP 2009) over them, as read-only integer arrays."""
    letters: int
    degree: int
    elements: tuple
    index: Mapping

    @functools.cached_property
    def degrees(self) -> np.ndarray:   # the size of each multiset
        return _frozen([len(m) for m in self.elements])

    @functools.cached_property
    def grades(self) -> tuple[_Grade, ...]:
        """The tables of grades 1..degree.  Grade n ends at C(letters + n,
        n), the number of multisets of size at most n."""
        out, index = [], self.index
        below, start = 0, 1
        for n in range(1, self.degree + 1):
            stop = math.comb(self.letters + n, n)
            grade = self.elements[start:stop]
            elem, elem_rest, seg = [], [], []
            for m in grade:
                seg.append(len(elem))
                for j, a in enumerate(m):
                    if j == 0 or m[j - 1] != a:
                        elem.append(a)
                        elem_rest.append(index[m[:j] + m[j + 1:]] - below)
            out.append(_Grade(start, stop, *map(_frozen, (
                [m[0] for m in grade], [index[m[1:]] - below for m in grade],
                elem, elem_rest, seg))))
            below, start = start, stop
        return tuple(out)

    @functools.cached_property
    def splits(self) -> tuple[np.ndarray, ...]:
        """Index arrays (m1, m2, m1 + m2) over every split of every
        multiset into an ordered pair of sub-multisets: the nonzero entries
        of Delta, column by column."""
        index = self.index
        return tuple(map(_frozen, zip(*(
            (index[m1], index[m2], i) for i, m in enumerate(self.elements)
            for m1, m2 in sub_multiset_splits(m)))))


@functools.lru_cache(maxsize=64)
def _enumerated(letters: int, degree: int) -> _Shape:
    elements = tuple(itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(letters), n)
        for n in range(degree + 1)))
    return _Shape(letters, degree, elements, MappingProxyType(
        {m: i for i, m in enumerate(elements)}))


class MultisetBasis:
    def __init__(self, base_labels: Sequence[str], degree: int):
        self.base = string_labels(base_labels,
                                  "base labels are a list of strings")
        self.shape = _multisets(len(self.base), degree)
        self.elements, self.index = self.shape.elements, self.shape.index
        self.degree = int(degree)
        self.dim = len(self.elements)

    def label(self, m: tuple[int, ...]) -> str:
        return "[" + ",".join(self.base[i] for i in m) + "]"

    def labels(self) -> list[str]:
        return [self.label(m) for m in self.elements]


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
