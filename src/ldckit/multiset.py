"""Truncated multiset bases.

The basis of the degree-d exponential over a base space consists of all
multisets of base labels of size at most d, ordered by (size, lexicographic
by base index).  A multiset is represented as a sorted tuple of base
indices.  They are enumerated once per basis shape (letters, degree), in a
bounded LRU cache, as a read-only `_Shape` that every `MultisetBasis` of
that shape shares, with every index table read over them, each built once,
on first use: the multisets' sizes, the peel tables, Delta's splits, the
duplication's multisets of parts and the window of the comonad law.  The
window is counted from (letters, degree) by a small dynamic programme, and
refused past `errors.MAX_ENTRIES` entries before any multiset is built.
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

from .errors import MAX_ENTRIES, ResourceLimit, count, string_labels


def _multisets(letters: int, degree: int) -> _Shape:
    """The shape of the multisets of size <= degree over `letters`
    letters (`_Shape`).  They are the multisets of size d over k + 1
    letters, the extra letter padding: C(k + d, d) of them, holding
    k C(k + d, k + 1) letters in all.  Both counts are refused on every
    call, before any multiset is built."""
    letters, degree = _shape_args(letters, degree)
    for what, size in (("multisets", math.comb(letters + degree, degree)),
                       ("letters of all multisets",
                        letters * math.comb(letters + degree, letters + 1))):
        if size > MAX_ENTRIES:
            raise ResourceLimit(f"degree-{degree} multiset basis over "
                                f"{letters} letters ({what})", size,
                                MAX_ENTRIES)
    return _enumerated(letters, degree)


def _law_window(letters: int, degree: int) -> _Shape:
    """The shape of (letters, degree), once the comonad law's window over
    it (`_Shape.law`) is found within MAX_ENTRIES entries, by a bound or
    else by its count: it is refused on every call, before any multiset is
    built."""
    letters, degree = _shape_args(letters, degree)
    if not _law_bounded(letters, degree):
        size = _law_size(letters, degree, MAX_ENTRIES)
        if size > MAX_ENTRIES:
            raise ResourceLimit(f"degree-{degree} comonad law window over "
                                f"{letters} letters (entries)",
                                f"at least {size}", MAX_ENTRIES)
    return _multisets(letters, degree)


def _law_bounded(letters: int, degree: int) -> bool:
    """Whether a bound on the comonad law's window is within MAX_ENTRIES,
    as it is for the small windows, which need no count.  An entry Q is
    fixed by how many empty elements it holds, at most d + 1 ways, and by
    the parts of its other elements in order, j <= d of the C(k + d, d)
    multisets, each of which starts an element or not."""
    sequences = 2 * math.comb(letters + degree, degree)
    bound = term = degree + 1
    for _ in range(degree):
        term *= sequences
        bound += term
        if bound > MAX_ENTRIES:
            return False
    return True


def _shape_args(letters: object, degree: object) -> tuple[int, int]:
    degree = count(degree, "a degree bound is a nonnegative integer")
    letters = count(letters, "a base has a nonnegative number of elements")
    return letters, degree


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
    if parts.sum() > limit:
        return int(parts.sum())
    law, elements = _with_kinds(
        ((k, s, parts[k, s]) for k in range(1, span) for s in range(span)
         if parts[k, s]), span, limit)
    return int((span * law - elements).sum())


def _with_kinds(kinds, span: int, limit: int) \
        -> tuple[np.ndarray, np.ndarray]:
    """The number of multisets of elements of the `kinds` (parts, total
    size, how many elements of that kind), and their summed number of
    elements, by total parts and total size below `span`, as exact
    integers.  Each kind only adds multisets, so it stops after the first
    kind at which their number passes `limit`."""
    count = np.zeros((span, span), dtype=object)
    moment = np.zeros((span, span), dtype=object)
    count[0, 0] = 1
    for k, s, many in kinds:
        new_count, new_moment = count.copy(), moment.copy()
        r = 1
        while many and r * k < span and r * s < span:
            ways = math.comb(many + r - 1, r)   # r of `many`, with repeats
            src = slice(0, span - r * k), slice(0, span - r * s)
            dst = slice(r * k, span), slice(r * s, span)
            new_count[dst] += ways * count[src]
            new_moment[dst] += ways * (moment[src] + r * count[src])
            r += 1
        count, moment = new_count, new_moment
        if count.sum() > limit:
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
        of Delta, row by row.  The m2 beside m1 are the multisets of size
        at most degree - |m1|, a prefix of the basis, so the split
        (m1, m2) is number `_rows(self)[m1] + m2` and its third array is
        the sum of multisets as one gather."""
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
        rows, sums = _rows(self).tolist(), self.splits[2].tolist()
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


def distinct_orderings(m: tuple[int, ...]) -> list[tuple[int, ...]]:
    return sorted(set(itertools.permutations(m)))
