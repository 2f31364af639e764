"""The exponential's functor, duplication and monoidal structure as first
written, kept as the references that `ldckit.exponential` is tested against.

`bang_matrix` sums, for every entry, the products of `f` over all distinct
orderings of the source multiset.  `comult_apply` fills Delta . f pair by
pair of multisets.  `delta` solves the duplication
!A -> !!A as the couniversal lift of the identity through the free
comonoid, with `lift_flat` on the outer basis.  `monoidal_structure` solves
!A (x) !B -> !(A (x) B) as the couniversal lift of the tensor of the
derelictions through the dense product comultiplication.  All three take
time and memory exponential in the degree, so the tests use them on small
bases only.

`split_comult_matrix` fills Delta multiset by multiset, one entry per
split into an ordered pair of sub-multisets (`sub_multiset_splits`, which
`ldckit.multiset` kept while Delta's splits and the duplication's columns
were built from it).

`peel_bang_matrix`, `dense_monoidal_structure`, `dense_lifted_cup`,
`dense_lifted_cap` and `dense_induce_bang_monoid` are the closed forms that
came next, kept verbatim but for their names and the typing of the induced
gadget, which follows the library's (!X over the base atoms): the functor
filled grade by grade in a Python loop, and the monoidal structure as a
dense matrix with one 1 per multiset of pairs, through which the induced
multiplication and the lifted cups are pushed by matrix products.

`lifted_duals` is the induced bialgebra's eight lifted cups and caps as
they were before one loop over the role signatures read them: each lift
called by hand with its pair of bases.

`delta_sparse`, `bang_apply_sparse`, `_fits_degree` and
`comonad_coassoc_report` are the sparse column calculus as it was before
the coassociativity check built only its degree window, kept verbatim: the
duplication's columns from every split of each multiset, deduplicated,
and the check that builds the whole product delta;!delta and then drops
the entries outside the window.  `bounded_bang_apply_sparse` and
`window_comonad_coassoc_report` are the calculus as it was next, before
the check read the shape's tables, kept verbatim but for their names, the
duplication's columns, which are `delta_sparse`'s, and the tolerance,
taken as given: the product of
columns dropped once its parts pass the bound, so that only the window is
built.  `_multiplicity_factorial` serves both.

`lift_flat`, `_grades`, `_window_unions`, `remove_one`, `multiset_union`
and `grade_indices` are the couniversal lift and the multiset index as they
were before one cached enumeration per basis shape served them all, kept
verbatim but for `grade_indices`, once a method of `MultisetBasis`: the
lift solved multiset by multiset in Python, the peel tables enumerating
their own multisets, and Delta's nonzeros found by a scan of all pairs of
multisets.  `delta` and `monoidal_structure` lift through this copy.
`_product_basis` and `_top_basis` are the bases they and the dense forms
built on every call, kept verbatim.

`comonoid_residual` is the comonoid check as it was before the laws of
`suites` decided it, kept verbatim: coassociativity and the two counit
laws as four `np.einsum` contractions of the comultiplication reshaped to
(n, n, n).  The copy of `lift_flat` here calls it.
"""
from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator

import numpy as np

from ldckit.errors import LiftFailure, NotAComonoid, ShapeMismatch
from ldckit.errors import shaped
from ldckit.exponential import (ExpStructure, _m_top, build_exp,
                                _lifted_cap, _lifted_cup, comult_matrix,
                                counit_matrix)
from ldckit.gadget import Gadget
from ldckit.model import ModelEnv, interp
from ldckit.multiset import (MultisetBasis, _frozen, _Grade, _multisets,
                             distinct_orderings)
from ldckit.objects import Bang
from ldckit.suites import _require_suite


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


def _product_basis(exp_a: ExpStructure, exp_b: ExpStructure) -> MultisetBasis:
    labels = [f"{x}{y}" for x in exp_a.basis.base for y in exp_b.basis.base]
    return MultisetBasis(labels, exp_a.basis.degree)


def _top_basis(degree: int) -> MultisetBasis:
    return MultisetBasis(["*"], degree)


def split_comult_matrix(basis: MultisetBasis) -> np.ndarray:
    """Delta: !A -> !A (x) !A, coefficient 1 per ordered sub-multiset pair."""
    n = basis.dim
    out = np.zeros((n * n, n), dtype=complex)
    for i, m in enumerate(basis.elements):
        for m1, m2 in sub_multiset_splits(m):
            out[basis.index[m1] * n + basis.index[m2], i] += 1
    return out


def bang_matrix(f: np.ndarray, basis_a: MultisetBasis,
                basis_b: MultisetBasis) -> np.ndarray:
    """Functorial action !f: !A -> !B of f: A -> B, acting grade by grade
    as the symmetric power in the multiset basis."""
    if f.shape != (len(basis_b.base), len(basis_a.base)):
        raise ShapeMismatch(
            f"expected {(len(basis_b.base), len(basis_a.base))}, "
            f"got {f.shape}")
    out = np.zeros((basis_b.dim, basis_a.dim), dtype=complex)
    out[basis_b.index[()], basis_a.index[()]] = 1
    for n in range(1, min(basis_a.degree, basis_b.degree) + 1):
        for ia in grade_indices(basis_a, n):
            m = basis_a.elements[ia]
            orderings = distinct_orderings(m)
            for ib in grade_indices(basis_b, n):
                mp = basis_b.elements[ib]  # fixed ordering of the target
                coeff = 0
                for w in orderings:
                    prod = 1
                    for bi, ai in zip(mp, w):
                        prod *= f[bi, ai]
                        if prod == 0:
                            break
                    coeff += prod
                out[ib, ia] = coeff
    return out


def comult_apply(basis: MultisetBasis, f: np.ndarray) -> np.ndarray:
    """Delta . f computed without materializing Delta; result has shape
    (dim, dim, f.cols) indexed by (m1, m2, column)."""
    out = np.zeros((basis.dim, basis.dim, f.shape[1]), dtype=complex)
    for i1, m1 in enumerate(basis.elements):
        for i2, m2 in enumerate(basis.elements):
            if len(m1) + len(m2) > basis.degree:
                continue
            out[i1, i2, :] = f[basis.index[multiset_union(m1, m2)], :]
    return out


def delta(base: int, degree: int) -> np.ndarray:
    """The duplication !A -> !!A on the degree-truncated exponential of a
    space with `base` basis vectors."""
    basis = MultisetBasis([str(i) for i in range(base)], degree)
    delta_mat = comult_matrix(basis)
    e_mat = counit_matrix(basis)
    outer = MultisetBasis(basis.labels(), degree)
    dup = lift_flat((delta_mat, e_mat),
                    np.eye(basis.dim, dtype=complex), outer)
    return dup


def monoidal_structure(exp_a: ExpStructure, exp_b: ExpStructure) \
        -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m_top, m_tensor, nu_tensor) at the common degree bound."""
    if exp_a.basis.degree != exp_b.basis.degree:
        raise ShapeMismatch("degree bounds differ")
    na, nb = exp_a.dim, exp_b.dim
    da3 = exp_a.Delta.reshape(na, na, na)
    db3 = exp_b.Delta.reshape(nb, nb, nb)
    delta_prod = np.einsum("xyi,zwj->xzywij", da3, db3) \
        .reshape(na * nb * na * nb, na * nb)
    e_prod = np.kron(exp_a.counit_e, exp_b.counit_e)
    f = np.kron(exp_a.eps, exp_b.eps)
    m_tensor = lift_flat((delta_prod, e_prod), f,
                         _product_basis(exp_a, exp_b))
    return _m_top(exp_a.basis.degree), m_tensor, m_tensor.conj().T


def peel_bang_matrix(f: np.ndarray, basis_a: MultisetBasis,
                     basis_b: MultisetBasis) -> np.ndarray:
    """Functorial action !f: !A -> !B of f: A -> B, the symmetric power on
    each grade.  Grade n is filled from grade n - 1 by peeling the first
    factor off each target multiset:
    !f[mb, ma] = sum over distinct a in ma of f[mb[0], a] * !f[mb[1:], ma - a].
    """
    if f.shape != (len(basis_b.base), len(basis_a.base)):
        raise ShapeMismatch(
            f"expected {(len(basis_b.base), len(basis_a.base))}, "
            f"got {f.shape}")
    out = np.zeros((basis_b.dim, basis_a.dim), dtype=complex)
    out[basis_b.index[()], basis_a.index[()]] = 1
    for n in range(1, min(basis_a.degree, basis_b.degree) + 1):
        rows = grade_indices(basis_b, n)
        first = [basis_b.elements[i][0] for i in rows]
        below = out[[basis_b.index[basis_b.elements[i][1:]] for i in rows]]
        # per base element a: the grade-n columns holding a, and ma - a
        peel: dict[int, tuple[list[int], list[int]]] = {}
        for ia in grade_indices(basis_a, n):
            m = basis_a.elements[ia]
            for a in set(m):
                cols, rest = peel.setdefault(a, ([], []))
                cols.append(ia)
                rest.append(basis_a.index[remove_one(m, a)])
        for a, (cols, rest) in peel.items():
            out[np.ix_(rows, cols)] += f[first, a][:, None] * below[:, rest]
    return out


def dense_monoidal_structure(exp_a: ExpStructure,
                             exp_b: ExpStructure) \
        -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m_top, m_tensor, nu_tensor) at the common degree bound.  Row M of
    m_tensor, a multiset of pairs, holds a single 1, in the column of its
    two projections: the first and second components of its pairs."""
    if exp_a.basis.degree != exp_b.basis.degree:
        raise ShapeMismatch("degree bounds differ")
    basis_a, basis_b = exp_a.basis, exp_b.basis
    width = len(basis_b.base)
    prod = _product_basis(exp_a, exp_b)
    m_tensor = np.zeros((prod.dim, basis_a.dim * basis_b.dim), dtype=complex)
    for i, m in enumerate(prod.elements):
        ma = tuple(sorted(p // width for p in m))
        mb = tuple(sorted(p % width for p in m))
        m_tensor[i, basis_a.index[ma] * basis_b.dim + basis_b.index[mb]] = 1
    return _m_top(basis_a.degree), m_tensor, m_tensor.conj().T


def dense_lifted_cup(state: np.ndarray, exp_a: ExpStructure,
                     exp_b: ExpStructure) -> np.ndarray:
    """Induced cup T -> !A (x) !B of a cup T -> A (x) B: the functorial
    image of the state, pushed back through the monoidal costructure."""
    d = exp_a.basis.degree
    _, _, nu_tensor = dense_monoidal_structure(exp_a, exp_b)
    banged = peel_bang_matrix(
        np.asarray(state, dtype=complex).reshape(-1, 1),
        _top_basis(d), _product_basis(exp_a, exp_b))
    return nu_tensor @ banged @ _m_top(d)


def dense_lifted_cap(costate: np.ndarray, exp_a: ExpStructure,
                     exp_b: ExpStructure) -> np.ndarray:
    """Induced cap !A (x) !B -> _|_ of a cap A (x) B -> _|_, built as the
    dagger of the lifted cup of the daggered costate.  (Pushing the costate
    forward with the functor instead would overcount each multiset by its
    number of distinct orderings and break the snake equations.)"""
    state = np.asarray(costate, dtype=complex).conj().reshape(-1, 1)
    return dense_lifted_cup(state, exp_a, exp_b).conj().T


def dense_induce_bang_monoid(g: Gadget, degree: int = 3,
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
    m_bang = peel_bang_matrix(np.asarray(g.morphism("m"), dtype=complex),
                              _product_basis(exp_a, exp_a), exp_a.basis) \
        @ dense_monoidal_structure(exp_a, exp_a)[1]
    u_bang = peel_bang_matrix(np.asarray(g.morphism("u"), dtype=complex),
                              _top_basis(degree), exp_a.basis) \
        @ _m_top(degree)
    morphs = {
        "m": m_bang, "u": u_bang,
        "d": exp_a.Delta, "k": exp_a.counit_e,
        "eta_L": dense_lifted_cup(g.morphism("eta_L"), exp_a, exp_b),
        "eps_L": dense_lifted_cap(g.morphism("eps_L"), exp_b, exp_a),
        "eta_R": dense_lifted_cup(g.morphism("eta_R"), exp_b, exp_a),
        "eps_R": dense_lifted_cap(g.morphism("eps_R"), exp_a, exp_b),
    }
    com = (("tau_L", "gam_L", "tau_R", "gam_R")
           if g.has("tau_L", "gam_L", "tau_R", "gam_R")
           else ("eta_L", "eps_L", "eta_R", "eps_R"))
    morphs["tau_L"] = dense_lifted_cup(g.morphism(com[0]), exp_a, exp_b)
    morphs["gam_L"] = dense_lifted_cap(g.morphism(com[1]), exp_b, exp_a)
    morphs["tau_R"] = dense_lifted_cup(g.morphism(com[2]), exp_b, exp_a)
    morphs["gam_R"] = dense_lifted_cap(g.morphism(com[3]), exp_a, exp_b)

    objects = {"A": Bang(g.object("A")), "B": Bang(g.object("B"))}
    return Gadget("linear_bialgebra", objects, morphs,
                  ModelEnv(atoms=g.env.atoms, degree=degree))


def lifted_duals(g: Gadget, basis_a: MultisetBasis,
                 basis_b: MultisetBasis) -> dict[str, np.ndarray]:
    morphs = {
        "eta_L": _lifted_cup(g.morphism("eta_L"), basis_a, basis_b),
        "eps_L": _lifted_cap(g.morphism("eps_L"), basis_b, basis_a),
        "eta_R": _lifted_cup(g.morphism("eta_R"), basis_b, basis_a),
        "eps_R": _lifted_cap(g.morphism("eps_R"), basis_a, basis_b),
    }
    com = (("tau_L", "gam_L", "tau_R", "gam_R")
           if g.has("tau_L", "gam_L", "tau_R", "gam_R")
           else ("eta_L", "eps_L", "eta_R", "eps_R"))
    morphs["tau_L"] = _lifted_cup(g.morphism(com[0]), basis_a, basis_b)
    morphs["gam_L"] = _lifted_cap(g.morphism(com[1]), basis_b, basis_a)
    morphs["tau_R"] = _lifted_cup(g.morphism(com[2]), basis_b, basis_a)
    morphs["gam_R"] = _lifted_cap(g.morphism(com[3]), basis_a, basis_b)
    return morphs


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


def _multiplicity_factorial(m: tuple) -> int:
    """Product of the factorials of the multiplicities in m."""
    out = 1
    for x in set(m):
        out *= math.factorial(m.count(x))
    return out


def bounded_bang_apply_sparse(f_col, m: tuple, bound: int) -> dict:
    """Column of !f at the multiset m, where f_col(x) gives the sparse
    column of f at a base element x, on the monomials k (multisets of
    tuples t) of total size sum(len(t)) <= bound.  It is the product of
    the columns f(x) for x in m, one factor peeled at a time as in
    `bang_matrix`, scaled by k!/m! (products of multiplicity factorials).
    A partial product is dropped as soon as its size passes the bound:
    each factor adds a size >= 0, so it could only have ended past it, and
    every kept monomial sums the same terms in the same order as the
    unbounded product."""
    prod: dict = {(): (0, 1)}
    for x in m:
        col = [(t, len(t), c) for t, c in f_col(x).items() if c != 0]
        nxt: dict = {}
        for key, (size, v) in prod.items():
            for t, n, c in col:
                if size + n > bound:
                    continue
                k = tuple(sorted(key + (t,)))
                old = nxt.get(k)
                nxt[k] = (size + n, v * c if old is None else old[1] + v * c)
        prod = nxt
    scale = _multiplicity_factorial(m)
    return {k: v * _multiplicity_factorial(k) / scale
            for k, (_, v) in prod.items() if v != 0}


def window_comonad_coassoc_report(base_dim: int, degree: int,
                                  tol: float = 1e-9) \
        -> tuple[bool, float, int]:
    """Check delta;!delta = delta;delta on the window where no intermediate
    value exceeds the degree bound.  For a target entry, a multiset of
    multisets of parts, the only contributing intermediate is the multiset
    of part-unions, and the entry is in the window exactly when the sizes
    of those unions sum to at most d.  Only the window is built:
    delta;!delta is the product of the duplication's columns bounded by d
    (`bounded_bang_apply_sparse`), and every entry of delta;delta at a
    multiset of parts P is in the window already, as its sizes sum to
    len(P) <= d.  Returns (pass, worst residual on the window, entries
    compared)."""
    # the duplication's columns, each built once per report
    delta = functools.cache(functools.partial(delta_sparse, degree=degree))
    worst = 0.0
    checked = 0
    ok = True
    for m in _multisets(base_dim, degree).elements:
        lhs: dict = {}
        rhs: dict = {}
        for mm, c in delta(m).items():
            for key, c2 in bounded_bang_apply_sparse(delta, mm,
                                                     degree).items():
                lhs[key] = lhs.get(key, 0) + c * c2
            for key, c2 in delta(mm).items():
                rhs[key] = rhs.get(key, 0) + c * c2
        for k in lhs.keys() | rhs.keys():
            checked += 1
            r = abs(lhs.get(k, 0) - rhs.get(k, 0))
            worst = max(worst, float(r))
            if r > tol:
                ok = False
    return ok, worst, checked


def remove_one(m: tuple[int, ...], x: int) -> tuple[int, ...]:
    out = list(m)
    out.remove(x)
    return tuple(out)


def multiset_union(m1: tuple[int, ...], m2: tuple[int, ...]) \
        -> tuple[int, ...]:
    return tuple(sorted(m1 + m2))


def grade_indices(basis: MultisetBasis, n: int) -> list[int]:
    return [i for i, m in enumerate(basis.elements) if len(m) == n]


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


def _window_unions(basis: MultisetBasis) \
        -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays (m1, m2, m1 + m2) over every pair of basis multisets
    whose union is within the degree bound: the nonzero entries of Delta."""
    triples = [(i1, i2, basis.index[multiset_union(m1, m2)])
               for i1, m1 in enumerate(basis.elements)
               for i2, m2 in enumerate(basis.elements)
               if len(m1) + len(m2) <= basis.degree]
    return tuple(np.array(x, dtype=int) for x in zip(*triples))


def comonoid_residual(delta_c: np.ndarray, e_c: np.ndarray) -> float:
    """Worst residual of coassociativity and the two counit laws, for a
    counit e_c of shape (1, n) and a comultiplication delta_c of shape
    (n * n, n).  All three are 0 at n = 0."""
    e_c = shaped(e_c, (1, None), "comonoid counit must be a row, "
                 "got {shape}")
    dim = e_c.shape[1]
    d3 = shaped(delta_c, (dim * dim, dim), "comonoid comultiplication "
                "must be {want} to match the counit, got {shape}"
                ).reshape(dim, dim, dim)
    left = np.einsum("xyc,pqx->pqyc", d3, d3, optimize=True)
    right = np.einsum("xyc,pqy->xpqc", d3, d3, optimize=True)
    lhs = np.einsum("xyc,x->yc", d3, e_c[0])
    rhs = np.einsum("xyc,y->xc", d3, e_c[0])
    eye = np.eye(dim)
    return max(float(np.max(np.abs(x - y), initial=0.0))
               for x, y in ((left, right), (lhs, eye), (rhs, eye)))


def lift_flat(comonoid: tuple[np.ndarray, np.ndarray], f: np.ndarray,
              target: MultisetBasis, tol: float = 1e-9) -> np.ndarray:
    """Unique comonoid morphism F: C -> !A with F;eps = f, for a comonoid
    (C, delta_c, e_c) and f: C -> A.  Solved degree by degree; the grade-n
    row of F is forced by any single element of the multiset, and the
    remaining choices must agree (checked, with loud failure)."""
    delta_c, e_c, f = map(np.asarray, (*comonoid, f))
    dim_c = f.shape[1]
    if delta_c.shape != (dim_c * dim_c, dim_c) or e_c.shape != (1, dim_c):
        raise ShapeMismatch("comonoid data shapes do not match f")
    if f.shape[0] != len(target.base):
        raise ShapeMismatch("f must land in the base of the target")
    res = comonoid_residual(delta_c, e_c)
    if res > tol:
        raise NotAComonoid(res)
    d3 = delta_c.reshape(dim_c, dim_c, dim_c)
    big = np.zeros((target.dim, dim_c), np.result_type(d3, e_c, f, float))
    big[target.index[()], :] = e_c[0]
    for a in range(len(target.base)):
        big[target.index[(a,)], :] = f[a]
    scale = max(1.0, float(np.max(np.abs(f))) if f.size else 0.0)
    worst = 0.0
    for n in range(2, target.degree + 1):
        for i in grade_indices(target, n):
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
