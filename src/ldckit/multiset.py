"""Truncated multiset bases.

The basis of the degree-d exponential over a base space consists of all
multisets of base labels of size at most d, ordered by (size, lexicographic
by base index).  A multiset is represented as a sorted tuple of base
indices.  Every `MultisetBasis` of one shape (letters, degree) shares one
read-only `_Shape`, kept in a bounded LRU cache, which builds each table
over the shape once, on first use: the multisets, their positions and
sizes, the peel tables, Delta's splits, the duplication's multisets of
parts and the comonad law's window.  The multisets, the splits and the
window each count themselves from (letters, degree), by closed forms or,
for the window, a small dynamic programme, and are refused past
`errors.MAX_TABLE_ENTRIES` entries before any table is built.  The others
are bounded by these: the positions, sizes and peel tables by the
multisets, and the multisets of parts by the window, which holds each as a
one-element entry, or by the duplication's dense check in `build_exp`.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import MAX_TABLE_ENTRIES, ResourceLimit, count, string_labels


def _multisets(letters: int, degree: int) -> _Shape:
    """The shape of the multisets of size <= degree over `letters`
    letters (`_Shape`)."""
    degree = count(degree, "a degree bound is a nonnegative integer")
    letters = count(letters, "a base has a nonnegative number of elements")
    return _enumerated(letters, degree)


def _law_size(letters: int, degree: int, limit: int) -> int:
    """The number of entries of the comonad law's window (`_Shape.law`),
    or, once the count passes `limit`, a number past it.  The window only
    grows with the degree, so it is counted at the degrees 1, 2, 4, ...
    below `degree` first, and stops at the first that passes `limit`:
    no count runs at a degree much past the one where the window does."""
    low = 1
    while low < degree:
        size = _law_size_at(letters, low, limit)
        if size > limit:
            return size
        low *= 2
    return _law_size_at(letters, degree, limit)


def _law_size_at(letters: int, degree: int, limit: int) -> int:
    """`_law_size` at one degree d, by a count over part sizes.  It counts
    the multisets of parts by (number of parts, total size) from the
    multisets of letters of each size, and then the multisets Q of those
    by their total number of parts and total size, all at most d.  The
    empty multiset of parts adds to neither, so it is counted apart: a Q
    of j others takes it 0..d - j times, d + 1 - j ways, which is why the
    second count also sums j.  Every multiset of parts, and every Q, is an
    entry, so each count stops once it passes `limit`."""
    span = degree + 1
    parts, _ = _with_kinds(
        ((1, s, math.comb(letters + s - 1, s) if s else 1)
         for s in range(span)), span, limit)
    if sum(parts.values()) > limit:
        return sum(parts.values())
    law, elements = _with_kinds(
        ((k, s, n) for (k, s), n in sorted(parts.items()) if k and n),
        span, limit)
    return sum(span * n - elements[key] for key, n in law.items())


def _with_kinds(kinds, span: int, limit: int) -> tuple[dict, dict]:
    """The number of multisets of elements of the `kinds` (parts, total
    size, how many elements of that kind), and their summed number of
    elements, by (total parts, total size) below `span`: exact integers,
    in dicts of the sums that occur.  Each kind only adds multisets, so it
    stops after the first kind at which their number passes `limit`."""
    count, moment = {(0, 0): 1}, {(0, 0): 0}
    for k, s, many in kinds:
        if not many:
            continue
        new_count, new_moment = dict(count), dict(moment)
        for (parts, size), n in count.items():
            m, r = moment[parts, size], 1
            while parts + r * k < span and size + r * s < span:
                ways = math.comb(many + r - 1, r)   # r of `many`, with repeats
                key = parts + r * k, size + r * s
                new_count[key] = new_count.get(key, 0) + ways * n
                new_moment[key] = new_moment.get(key, 0) + ways * (m + r * n)
                r += 1
        count, moment = new_count, new_moment
        if sum(count.values()) > limit:
            break
    return count, moment


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


@dataclass(frozen=True)
class _Parts:
    """The duplication's table (`_Shape.parts`): its multisets of parts,
    sorted tuples of positions in the basis, with the position of the union
    of each."""
    elements: tuple
    union: np.ndarray


@dataclass(frozen=True)
class _Law:
    """The comonad law's window (`_Shape.law`): for each multiset Q of
    multisets of parts, its first element and the sum of its elements as
    positions in `_Shape.parts`, and the position of Q less its first
    element.  Grade g, the Q of g elements, is grades[g]:grades[g + 1];
    the empty Q, grade 0, holds 0 in each."""
    first: np.ndarray
    rest: np.ndarray
    sum: np.ndarray
    grades: np.ndarray


@dataclass(frozen=True, eq=False)
class _Shape:
    """The multisets of one basis shape, in basis order, the position of
    each, and the index arithmetic of the explicit formulas (Mellies,
    Tabareau & Tasson, ICALP 2009) over them, as read-only integer arrays."""
    letters: int
    degree: int

    def _refuse(self, table: str, what: str, size: int, needed=None) -> None:
        if size > MAX_TABLE_ENTRIES:
            raise ResourceLimit(f"degree-{self.degree} {table} over "
                                f"{self.letters} letters ({what})",
                                size if needed is None else needed,
                                MAX_TABLE_ENTRIES)

    @functools.cached_property
    def elements(self) -> tuple:
        """The multisets, in basis order.  They are the multisets of size
        d over k + 1 letters, the extra letter padding: C(k + d, d) of
        them, holding k C(k + d, k + 1) letters in all."""
        k, d = self.letters, self.degree
        self._refuse("multiset basis", "multisets", math.comb(k + d, d))
        self._refuse("multiset basis", "letters of all multisets",
                     k * math.comb(k + d, k + 1))
        return tuple(itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(k), n)
            for n in range(d + 1)))

    @functools.cached_property
    def index(self) -> Mapping:   # the position of each multiset
        return MappingProxyType({m: i for i, m in enumerate(self.elements)})

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
        of Delta, row by row.  The m2 beside m1 are the multisets of size
        at most degree - |m1|, a prefix of the basis, so the split
        (m1, m2) is number `_rows(self)[m1] + m2` and its third array is
        the sum of multisets as one gather."""
        self._refuse("splits of Delta", "entries",
                     _split_count(self.letters, self.degree))
        index, elements = self.index, self.elements
        within = _within(self.letters, self.degree)
        return tuple(map(_frozen, zip(*(
            (i1, i2, index[tuple(sorted(m1 + m2))])
            for i1, m1 in enumerate(elements)
            for i2, m2 in enumerate(elements[:within[-1 - len(m1)]])))))

    @functools.cached_property
    def parts(self) -> _Parts:
        """The duplication's table: every multiset of parts P of the
        degree window, at most degree parts of total size at most degree,
        in the order of the outer basis (number of parts, then
        lexicographic), with the index of its union.  Each P is a P' of
        one part less with a part at its end, no smaller than the last of
        P' and of size within what P' leaves, so each is built once, and
        its union is the union of P' plus that part, read in `splits`."""
        elements, size = [()], [0]
        union = [0]
        within = _within(self.letters, self.degree)
        # the splits first: their count refuses before _rows reads a table
        sums, rows = self.splits[2].tolist(), _rows(self).tolist()
        grade = range(1)
        for _ in range(self.degree):
            start = len(elements)
            for i in grade:
                prefix, used = elements[i], size[i]
                for p in range(prefix[-1] if prefix else 0,
                               within[self.degree - used]):
                    elements.append(prefix + (p,))
                    size.append(used + len(self.elements[p]))
                    union.append(sums[rows[union[i]] + p])
            grade = range(start, len(elements))
        return _Parts(tuple(elements), _frozen(union))

    @functools.cached_property
    def law(self) -> _Law:
        """The window of the comonad law in !!!A: every multiset Q of the
        multisets of parts of `parts` whose number of elements, total
        number of parts and total size are at most degree, grade by grade
        (the number of elements).  Each Q of grade g is an element P
        before a Q' of grade g - 1 that holds no element before P; it
        carries P (`first`), the position of Q' (`rest`) and the position
        in `parts` of the sum of its elements (`sum`)."""
        window = _law_size(self.letters, self.degree, MAX_TABLE_ENTRIES)
        self._refuse("comonad law window", "entries", window,
                     f"at least {window}")
        table, d = self.parts, self.degree
        elements = table.elements
        index = {p: i for i, p in enumerate(elements)}
        sizes = self.degrees[table.union].tolist()
        # the positions of the multisets of parts of at most k parts and
        # total size at most s, ascending, for each budget (k, s)
        fits = [[[i for i, p in enumerate(elements)
                  if len(p) <= k and sizes[i] <= s]
                 for s in range(d + 1)] for k in range(d + 1)]
        first, rest, total = [0], [0], [0]
        used, size, bound = [0], [0], [len(elements) - 1]
        grades = [0, 1]
        for _ in range(d):
            for q in range(grades[-2], grades[-1]):
                k, s, summed = used[q], size[q], elements[total[q]]
                fit = fits[d - k][d - s]
                for p in fit[:bisect.bisect_right(fit, bound[q])]:
                    part = elements[p]
                    first.append(p)
                    rest.append(q)
                    total.append(index[tuple(sorted(part + summed))])
                    used.append(k + len(part))
                    size.append(s + sizes[p])
                    bound.append(p)
            grades.append(len(first))
        return _Law(*map(_frozen, (first, rest, total, grades)))


def _split_count(letters: int, degree: int) -> int:
    """The number of Delta's splits (`_Shape.splits`): an ordered pair of
    multisets over k letters is one multiset over 2k, so the pairs of
    total size at most d are C(2k + d, d)."""
    return math.comb(2 * letters + degree, degree)


def _within(letters: int, degree: int) -> list[int]:
    """The number of multisets of size at most r, for r = 0..degree."""
    return [math.comb(letters + r, r) for r in range(degree + 1)]


def _rows(shape: _Shape) -> np.ndarray:
    """Where the splits of each multiset m1 begin in `shape.splits`."""
    within = np.array(_within(shape.letters, shape.degree), dtype=np.intp)
    counts = within[shape.degree - shape.degrees]
    return np.concatenate(([0], np.cumsum(counts)[:-1]))


@functools.lru_cache(maxsize=64)
def _enumerated(letters: int, degree: int) -> _Shape:
    return _Shape(letters, degree)


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


def distinct_orderings(m: tuple[int, ...]) -> list[tuple[int, ...]]:
    return sorted(set(itertools.permutations(m)))
