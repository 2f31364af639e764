"""Degree-truncated free exponential on the matrix model.

The space !A has the multisets of basis labels of A of size at most d as
basis.  The comultiplication has coefficient 1 for every distinct ordered
pair of sub-multisets; the counit projects onto the empty multiset; the
dereliction projects onto singletons.  The monad side is given by conjugate
transposes.  Each structure map has one construction: the functor !f is
filled grade by grade, peeling one factor off each multiset, and the
duplication !A -> !!A and the monoidal structure !A (x) !B -> !(A (x) B) are
closed forms (Mellies-Tabareau-Tasson): the duplication sends a multiset to
every multiset of parts with that union, and the monoidal structure sends a
pair of multisets to every multiset of pairs with those projections.  The
index arithmetic of both forms is compiled once per basis shape (number of
base elements, degree) into integer tables, held in a bounded LRU cache, so
!f is one gather, product and segment sum per grade, and the monoidal
structure is one column index per multiset of pairs, through which the
induced multiplication and cups are summed without a dense matrix.  Every
dense array left is refused with `ResourceLimit` past `errors.MAX_ENTRIES`
entries, before it is allocated.  Couniversal lifts through the comonoid of
a base gadget, which the retract needs, are computed degree by degree from
the comonoid-morphism constraint and fail loudly when the constraints are
inconsistent, making cofreeness an executable contract.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (LdcError, LiftFailure, NotAComonoid, ShapeMismatch,
                     check_entries)
from .gadget import Gadget
from .model import ModelEnv, interp
from .multiset import (MultisetBasis, multiset_union, remove_one,
                       sub_multiset_splits)
from .objects import Atom
from .suites import _require_suite


# -- structure matrices ----------------------------------------------------

def comult_matrix(basis: MultisetBasis) -> np.ndarray:
    """Delta: !A -> !A (x) !A, coefficient 1 per ordered sub-multiset pair:
    a one at (m1, m2) and m1 + m2 for each pair of `_window_unions`."""
    n = basis.dim
    check_entries("Delta", n * n * n)
    out = np.zeros((n * n, n), dtype=complex)
    i1, i2, union = _window_unions(basis)
    out[i1 * n + i2, union] = 1
    return out


def _window_unions(basis: MultisetBasis) \
        -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays (m1, m2, m1 + m2) over every pair of basis multisets
    whose union is within the degree bound: the nonzero entries of Delta."""
    triples = [(i1, i2, basis.index[multiset_union(m1, m2)])
               for i1, m1 in enumerate(basis.elements)
               for i2, m2 in enumerate(basis.elements)
               if len(m1) + len(m2) <= basis.degree]
    return tuple(np.array(x, dtype=int) for x in zip(*triples))


def counit_matrix(basis: MultisetBasis) -> np.ndarray:
    out = np.zeros((1, basis.dim), dtype=complex)
    out[0, basis.index[()]] = 1
    return out


def dereliction_matrix(basis: MultisetBasis) -> np.ndarray:
    """eps: !A -> A, projection onto singleton multisets."""
    out = np.zeros((len(basis.base), basis.dim), dtype=complex)
    for a in range(len(basis.base)):
        out[a, basis.index[(a,)]] = 1
    return out


# -- compiled basis shapes ---------------------------------------------------
#
# The elements of a MultisetBasis depend only on its number of base elements
# and its degree, so the index arithmetic of the explicit formulas
# (Mellies, Tabareau & Tasson, "An explicit formula for the free exponential
# modality of linear logic", ICALP 2009) is compiled once per such shape
# into integer arrays, and the maps are a few NumPy calls over them.

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


def _frozen(xs) -> np.ndarray:
    """A read-only index array: the caches hand one copy to every caller."""
    out = np.array(xs, dtype=np.intp)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=64)
def _grades(size: int, degree: int) -> tuple[_Grade, ...]:
    """The tables of grades 1..degree of the basis of multisets over `size`
    elements, in `MultisetBasis` order."""
    out = []
    below = {(): 0}
    start = 1
    for n in range(1, degree + 1):
        elems = list(itertools.combinations_with_replacement(range(size), n))
        elem, elem_rest, seg = [], [], []
        for m in elems:
            seg.append(len(elem))
            for j, a in enumerate(m):
                if j == 0 or m[j - 1] != a:
                    elem.append(a)
                    elem_rest.append(below[m[:j] + m[j + 1:]])
        out.append(_Grade(start, start + len(elems), *map(_frozen, (
            [m[0] for m in elems], [below[m[1:]] for m in elems],
            elem, elem_rest, seg))))
        below = {m: i for i, m in enumerate(elems)}
        start += len(elems)
    return tuple(out)


def bang_matrix(f: np.ndarray, basis_a: MultisetBasis,
                basis_b: MultisetBasis) -> np.ndarray:
    """Functorial action !f: !A -> !B of f: A -> B, the symmetric power on
    each grade.  Grade n is filled from grade n - 1 by peeling the first
    factor off each target multiset:
    !f[mb, ma] = sum over distinct a in ma of f[mb[0], a] * !f[mb[1:], ma - a],
    one gather, product and segment sum per grade.
    """
    if f.shape != (len(basis_b.base), len(basis_a.base)):
        raise ShapeMismatch(
            f"expected {(len(basis_b.base), len(basis_a.base))}, "
            f"got {f.shape}")
    check_entries("!f", basis_b.dim * basis_a.dim)
    f = np.asarray(f, dtype=complex)
    out = np.zeros((basis_b.dim, basis_a.dim), dtype=complex)
    out[0, 0] = 1
    below = out[:1, :1]
    for rows, cols in zip(_grades(len(basis_b.base), basis_b.degree),
                          _grades(len(basis_a.base), basis_a.degree)):
        terms = f[rows.first][:, cols.elem]
        terms *= below[rows.rest][:, cols.elem_rest]
        below = out[rows.start:rows.stop, cols.start:cols.stop]
        below[...] = np.add.reduceat(terms, cols.seg, axis=1)
    return out


# -- couniversal lifts -----------------------------------------------------

def comonoid_residual(delta_c: np.ndarray, e_c: np.ndarray) -> float:
    """Worst residual of coassociativity and the two counit laws."""
    dim = delta_c.shape[1]
    d3 = delta_c.reshape(dim, dim, dim)
    left = np.einsum("xyc,pqx->pqyc", d3, d3, optimize=True)
    right = np.einsum("xyc,pqy->xpqc", d3, d3, optimize=True)
    r1 = float(np.max(np.abs(left - right))) if dim else 0.0
    lhs = np.einsum("xyc,x->yc", d3, e_c[0])
    rhs = np.einsum("xyc,y->xc", d3, e_c[0])
    eye = np.eye(dim, dtype=complex)
    r2 = float(np.max(np.abs(lhs - eye)))
    r3 = float(np.max(np.abs(rhs - eye)))
    return max(r1, r2, r3)


def lift_flat(comonoid: tuple[np.ndarray, np.ndarray], f: np.ndarray,
              target: MultisetBasis, tol: float = 1e-9) -> np.ndarray:
    """Unique comonoid morphism F: C -> !A with F;eps = f, for a comonoid
    (C, delta_c, e_c) and f: C -> A.  Solved degree by degree; the grade-n
    row of F is forced by any single element of the multiset, and the
    remaining choices must agree (checked, with loud failure)."""
    delta_c, e_c = (np.asarray(x, dtype=complex) for x in comonoid)
    f = np.asarray(f, dtype=complex)
    dim_c = f.shape[1]
    if delta_c.shape != (dim_c * dim_c, dim_c) or e_c.shape != (1, dim_c):
        raise ShapeMismatch("comonoid data shapes do not match f")
    if f.shape[0] != len(target.base):
        raise ShapeMismatch("f must land in the base of the target")
    res = comonoid_residual(delta_c, e_c)
    if res > tol:
        raise NotAComonoid(res)
    d3 = delta_c.reshape(dim_c, dim_c, dim_c)
    big = np.zeros((target.dim, dim_c), dtype=complex)
    big[target.index[()], :] = e_c[0]
    for a in range(len(target.base)):
        big[target.index[(a,)], :] = f[a]
    scale = max(1.0, float(np.max(np.abs(f))) if f.size else 0.0)
    worst = 0.0
    for n in range(2, target.degree + 1):
        for i in target.grade_indices(n):
            m = target.elements[i]
            rows = []
            for a in sorted(set(m)):
                rest = target.index[remove_one(m, a)]
                rows.append(np.einsum("i,j,ijc->c", f[a], big[rest], d3))
            big[i, :] = rows[0]
            for other in rows[1:]:
                worst = max(worst, float(np.max(np.abs(other - rows[0]))))
    if worst > tol * scale:
        raise LiftFailure(
            f"degree-wise constraints are inconsistent (residual {worst:.3e})")
    # Compare only on the degree window: outside it the truncated
    # comultiplication cannot produce the term, by construction.  Inside
    # it, Delta . big reads big at the union of the pair.
    i1, i2, union = _window_unions(target)
    rhs = np.einsum("mc,nd,cde->mne", big, big, d3, optimize=True)
    r = float(np.max(np.abs(big[union] - rhs[i1, i2])))
    if r > tol * max(1.0, float(np.max(np.abs(big)))):
        raise LiftFailure(f"comonoid morphism law fails ({r:.3e})")
    return big


def lift_sharp(monoid: tuple[np.ndarray, np.ndarray], g: np.ndarray,
               target: MultisetBasis, tol: float = 1e-9) -> np.ndarray:
    """Unique monoid morphism ?B -> M with eta;g# = g: the dagger dual of
    lift_flat applied to the daggered data."""
    mult, unit = (np.asarray(x, dtype=complex) for x in monoid)
    flat = lift_flat((mult.conj().T, unit.conj().T), g.conj().T, target,
                     tol=tol)
    return flat.conj().T


# -- bundled structure -----------------------------------------------------

@dataclass
class ExpStructure:
    basis: MultisetBasis
    outer: Optional[MultisetBasis]
    Delta: np.ndarray        # !A -> !A (x) !A
    counit_e: np.ndarray     # !A -> T
    eps: np.ndarray          # !A -> A
    delta: Optional[np.ndarray]  # !A -> !!A
    nabla: np.ndarray        # ?A (x) ?A -> ?A
    unit_u: np.ndarray       # _|_ -> ?A
    eta: np.ndarray          # A -> ?A
    mu: Optional[np.ndarray]     # ??A -> ?A

    @property
    def dim(self) -> int:
        return self.basis.dim


def build_exp(base: Sequence[str] | int, degree: int,
              with_duplication: bool = True) -> ExpStructure:
    if degree < 1:
        raise LdcError(f"degree must be at least 1, got {degree}")
    if isinstance(base, int):
        base = [str(i) for i in range(base)]
    basis = MultisetBasis(base, degree)
    delta_mat = comult_matrix(basis)
    e_mat = counit_matrix(basis)
    eps_mat = dereliction_matrix(basis)
    outer = None
    dup = None
    if with_duplication:
        check_entries("delta: !A -> !!A",
                      math.comb(basis.dim + degree, degree) * basis.dim)
        outer = MultisetBasis(basis.labels(), degree)
        dup = np.zeros((outer.dim, basis.dim), dtype=complex)
        for i, m in enumerate(basis.elements):
            for parts, c in delta_sparse(m, degree).items():
                key = tuple(sorted(basis.index[p] for p in parts))
                dup[outer.index[key], i] = c
    return ExpStructure(
        basis=basis, outer=outer,
        Delta=delta_mat, counit_e=e_mat, eps=eps_mat, delta=dup,
        nabla=delta_mat.conj().T, unit_u=e_mat.conj().T,
        eta=eps_mat.conj().T,
        mu=dup.conj().T if dup is not None else None)


# -- sparse column calculus ------------------------------------------------
#
# Every structure map has small per-column support, so a column is a dict
# from basis elements to coefficients.  Elements are represented
# structurally: a multiset is a sorted tuple of its elements, and a
# multiset of multisets a sorted tuple of those.  The dense duplication of
# `build_exp` is these columns scattered into the outer basis; iterated
# exponentials, too large to materialize, are only ever handled this way.

def _multiplicity_factorial(m: tuple) -> int:
    """Product of the factorials of the multiplicities in m."""
    out = 1
    for x in set(m):
        out *= math.factorial(m.count(x))
    return out


def delta_sparse(m: tuple, degree: int) -> dict:
    """Column of the duplication at a multiset m: all multisets of parts
    with union m, parts of size <= degree, at most degree parts including
    empty padding; coefficient 1 each."""
    found: set = set()

    def rec(remaining: tuple, acc: tuple) -> None:
        if len(acc) > degree:
            return
        if not remaining:
            for extra in range(degree - len(acc) + 1):
                found.add(tuple(sorted(acc + ((),) * extra)))
            return
        first = remaining[0]
        seen = set()
        for p1, rest in sub_multiset_splits(remaining):
            if not p1 or first not in p1 or len(p1) > degree:
                continue
            if (p1, rest) in seen:
                continue
            seen.add((p1, rest))
            rec(rest, tuple(sorted(acc + (p1,))))

    rec(tuple(m), ())
    return {key: 1 for key in found}


def bang_apply_sparse(f_col, m: tuple) -> dict:
    """Column of !f at the multiset m, where f_col(x) gives the sparse
    column of f at a base element x.  It is the product of the columns
    f(x) for x in m, one factor peeled at a time as in `bang_matrix`, with
    the monomial k scaled by k!/m! (products of multiplicity factorials)."""
    prod: dict = {(): 1}
    for x in m:
        col = [(t, c) for t, c in f_col(x).items() if c != 0]
        nxt: dict = {}
        for key, v in prod.items():
            for t, c in col:
                k = tuple(sorted(key + (t,)))
                nxt[k] = nxt.get(k, 0) + v * c
        prod = nxt
    scale = _multiplicity_factorial(m)
    return {k: v * _multiplicity_factorial(k) / scale
            for k, v in prod.items() if v != 0}


def _fits_degree(elt, degree: int) -> bool:
    """Whether a nested multiset element lies in the degree-d basis at
    every level."""
    if not isinstance(elt, tuple):
        return True
    return len(elt) <= degree and all(_fits_degree(x, degree) for x in elt)


def comonad_coassoc_report(base_dim: int, degree: int,
                           tol: float = 1e-9) -> tuple[bool, float, int]:
    """Check delta;!delta = delta;delta on the window where no intermediate
    value exceeds the degree bound.  For a target entry, the only
    contributing intermediate is the multiset of part-unions; the entry is
    in-window exactly when that multiset fits in degree d.  Returns
    (pass, worst residual on the window, entries compared)."""
    basis = MultisetBasis([str(i) for i in range(base_dim)], degree)
    columns: dict = {}

    def delta(m: tuple) -> dict:
        col = columns.get(m)
        if col is None:
            col = columns[m] = delta_sparse(m, degree)
        return col

    worst = 0.0
    checked = 0
    ok = True
    for m in basis.elements:
        lhs: dict = {}
        rhs: dict = {}
        for mm, c in delta(m).items():
            for key, c2 in bang_apply_sparse(delta, mm).items():
                lhs[key] = lhs.get(key, 0) + c * c2
            for key, c2 in delta(mm).items():
                rhs[key] = rhs.get(key, 0) + c * c2
        for k in set(lhs) | set(rhs):
            # past the bound the forced intermediate is not in the basis
            if sum(len(part) for part in k) > degree \
                    or not _fits_degree(k, degree):
                continue
            checked += 1
            r = abs(lhs.get(k, 0) - rhs.get(k, 0))
            worst = max(worst, float(r))
            if r > tol:
                ok = False
    return ok, worst, checked


# -- monoidal structure ----------------------------------------------------

def _product_basis(exp_a: ExpStructure, exp_b: ExpStructure) -> MultisetBasis:
    labels = [f"{x}{y}" for x in exp_a.basis.base for y in exp_b.basis.base]
    return MultisetBasis(labels, exp_a.basis.degree)


def _top_basis(degree: int) -> MultisetBasis:
    return MultisetBasis(["*"], degree)


def _m_top(degree: int) -> np.ndarray:
    """T -> !T: the unit of the monoidal structure, one per grade."""
    return np.ones((degree + 1, 1), dtype=complex)


@dataclass(frozen=True)
class _Monoidal:
    """m_tensor: !A (x) !B -> !(A (x) B) as an index: row M, a multiset of
    pairs, holds a single 1, in column index[M], that of its two
    projections (the first and the second components of its pairs).  The
    rows sorted by column are `order`; runs of one column start at
    `starts` and land in `targets`."""
    index: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    targets: np.ndarray
    cols: int

    def push(self, x: np.ndarray) -> np.ndarray:
        """x @ m_tensor for x with one column per multiset of pairs: each
        column of the result sums the columns of x that map to it."""
        out = np.zeros((x.shape[0], self.cols), dtype=complex)
        out[:, self.targets] = np.add.reduceat(x[:, self.order], self.starts,
                                               axis=1)
        return out


@functools.lru_cache(maxsize=64)
def _monoidal(size_a: int, size_b: int, degree: int) -> _Monoidal:
    basis_a = MultisetBasis(range(size_a), degree)
    basis_b = MultisetBasis(range(size_b), degree)
    prod = MultisetBasis(range(size_a * size_b), degree)
    index = _frozen(
        [basis_a.index[tuple(sorted(p // size_b for p in m))] * basis_b.dim
         + basis_b.index[tuple(sorted(p % size_b for p in m))]
         for m in prod.elements])
    order = np.argsort(index, kind="stable")
    run = np.flatnonzero(np.diff(index[order], prepend=-1))
    return _Monoidal(index, *map(_frozen, (order, run, index[order][run])),
                     basis_a.dim * basis_b.dim)


def _monoidal_of(exp_a: ExpStructure, exp_b: ExpStructure) -> _Monoidal:
    if exp_a.basis.degree != exp_b.basis.degree:
        raise ShapeMismatch("degree bounds differ")
    sizes = (len(exp_a.basis.base), len(exp_b.basis.base))
    check_entries("!(A (x) B) basis",
                  math.comb(sizes[0] * sizes[1] + exp_a.basis.degree,
                            exp_a.basis.degree))
    return _monoidal(*sizes, exp_a.basis.degree)


def monoidal_structure(exp_a: ExpStructure, exp_b: ExpStructure) \
        -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m_top, m_tensor, nu_tensor) at the common degree bound, as dense
    matrices.  Row M of m_tensor, a multiset of pairs, holds a single 1, in
    the column of its two projections: the first and second components of
    its pairs.  The induced structure never builds this matrix; it pushes
    through the index of `_monoidal` instead."""
    mon = _monoidal_of(exp_a, exp_b)
    check_entries("m_tensor", mon.index.size * mon.cols)
    m_tensor = np.zeros((mon.index.size, mon.cols), dtype=complex)
    m_tensor[np.arange(mon.index.size), mon.index] = 1
    return _m_top(exp_a.basis.degree), m_tensor, m_tensor.conj().T


# -- induced structure on the exponential ----------------------------------
#
# A linear monoid on the base space induces a linear bialgebra on the
# truncated exponential: the monoid is pushed through the monoidal
# structure, the cups and caps are lifted as states/costates of the
# exponential, and the comonoid is the free comultiplication/counit.

def lifted_cup(state: np.ndarray, exp_a: ExpStructure,
               exp_b: ExpStructure) -> np.ndarray:
    """Induced cup T -> !A (x) !B of a cup T -> A (x) B: the functorial
    image of the state, pushed back through the monoidal costructure.  The
    image summed over grades is one entry per multiset of pairs, and the
    costructure sums those entries by their projections."""
    mon = _monoidal_of(exp_a, exp_b)
    d = exp_a.basis.degree
    banged = bang_matrix(np.asarray(state, dtype=complex).reshape(-1, 1),
                         _top_basis(d), _product_basis(exp_a, exp_b))
    return mon.push((banged @ _m_top(d)).T).T


def lifted_cap(costate: np.ndarray, exp_a: ExpStructure,
               exp_b: ExpStructure) -> np.ndarray:
    """Induced cap !A (x) !B -> _|_ of a cap A (x) B -> _|_, built as the
    dagger of the lifted cup of the daggered costate.  (Pushing the costate
    forward with the functor instead would overcount each multiset by its
    number of distinct orderings and break the snake equations.)"""
    state = np.asarray(costate, dtype=complex).conj().reshape(-1, 1)
    return lifted_cup(state, exp_a, exp_b).conj().T


def induce_bang_monoid(g: Gadget, degree: int = 3,
                       tol: float = 1e-9) -> Gadget:
    """Push a linear monoid on the base space to a linear bialgebra on the
    degree-truncated exponential.  The multiplication is the functorial
    image of the base multiplication composed with the monoidal structure,
    the comonoid is the free one, and all cups and caps are lifted states
    and costates.  When the input also carries comonoid-side cups and caps
    those are lifted for the comonoid; otherwise the monoid's are reused."""
    _require_suite(g, "linear-monoid", tol)
    labels_a = interp(g.object("A"), g.env)[1]
    labels_b = interp(g.object("B"), g.env)[1]
    same = g.object("A") == g.object("B")
    exp_a = build_exp(list(labels_a), degree, with_duplication=False)
    exp_b = exp_a if same \
        else build_exp(list(labels_b), degree, with_duplication=False)
    m_bang = _monoidal_of(exp_a, exp_a).push(
        bang_matrix(np.asarray(g.morphism("m"), dtype=complex),
                    _product_basis(exp_a, exp_a), exp_a.basis))
    u_bang = bang_matrix(np.asarray(g.morphism("u"), dtype=complex),
                         _top_basis(degree), exp_a.basis) @ _m_top(degree)
    morphs = {
        "m": m_bang, "u": u_bang,
        "d": exp_a.Delta, "k": exp_a.counit_e,
        "eta_L": lifted_cup(g.morphism("eta_L"), exp_a, exp_b),
        "eps_L": lifted_cap(g.morphism("eps_L"), exp_b, exp_a),
        "eta_R": lifted_cup(g.morphism("eta_R"), exp_b, exp_a),
        "eps_R": lifted_cap(g.morphism("eps_R"), exp_a, exp_b),
    }
    com = (("tau_L", "gam_L", "tau_R", "gam_R")
           if g.has("tau_L", "gam_L", "tau_R", "gam_R")
           else ("eta_L", "eps_L", "eta_R", "eps_R"))
    morphs["tau_L"] = lifted_cup(g.morphism(com[0]), exp_a, exp_b)
    morphs["gam_L"] = lifted_cap(g.morphism(com[1]), exp_b, exp_a)
    morphs["tau_R"] = lifted_cup(g.morphism(com[2]), exp_b, exp_a)
    morphs["gam_R"] = lifted_cap(g.morphism(com[3]), exp_a, exp_b)

    atoms = {"bangA": (exp_a.dim, tuple(exp_a.basis.labels()))}
    objects = {"A": Atom("bangA"), "B": Atom("bangA")}
    if not same:
        atoms["bangB"] = (exp_b.dim, tuple(exp_b.basis.labels()))
        objects["B"] = Atom("bangB")
    env = ModelEnv(atoms=atoms, degree=degree)
    gradings = {"A": exp_a.basis.degrees(), "B": exp_b.basis.degrees()}
    return Gadget("linear_bialgebra", objects, morphs, env, gradings)


def retract_idempotent(g: Gadget, degree: int = 3,
                       tol: float = 1e-9) -> dict:
    """Exhibit the base space as a retract of its exponential.

    Returns the induced bialgebra on the exponential together with the
    binary idempotent (ub, vb) whose splitting recovers the base: the
    retraction is the dereliction, the section is the lift of the identity
    through the base comonoid, and the par-side pair is given dually by the
    unit lift through the base monoid.  The canonical splitting is returned
    so downstream splits can reproduce the base maps on the nose."""
    _require_suite(g, "linear-bialgebra", tol)
    if g.object("A") != g.object("B"):
        raise ShapeMismatch("retract requires a self-linear bialgebra")
    na, _ = interp(g.object("A"), g.env)
    induced = induce_bang_monoid(g, degree, tol)
    basis = MultisetBasis(list(interp(g.object("A"), g.env)[1]), degree)
    eye = np.eye(na, dtype=complex)
    flat = lift_flat((g.morphism("d"), g.morphism("k")), eye, basis, tol)
    sharp = lift_sharp((g.morphism("m"), g.morphism("u")), eye, basis, tol)
    eps = dereliction_matrix(basis)
    eta = eps.conj().T
    ub = eta @ eps       # !A -> ?A through the base
    vb = flat @ sharp    # ?A -> !A through the base
    gadget = induced.with_morphisms(ub=ub, vb=vb)
    return {
        "gadget": gadget,
        "e_bang": flat @ eps,
        "e_whim": eta @ sharp,
        "splitting": (eps, flat, sharp, eta),   # r, s, r', s'
        "flat": flat, "sharp": sharp,
    }
