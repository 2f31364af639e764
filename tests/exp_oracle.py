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
split into an ordered pair of sub-multisets.

`peel_bang_matrix`, `dense_monoidal_structure`, `dense_lifted_cup`,
`dense_lifted_cap` and `dense_induce_bang_monoid` are the closed forms that
came next, kept verbatim but for their names: the functor filled grade by
grade in a Python loop, and the monoidal structure as a dense matrix with
one 1 per multiset of pairs, through which the induced multiplication and
the lifted cups are pushed by matrix products.
"""
from __future__ import annotations

import numpy as np

from ldckit.errors import ShapeMismatch
from ldckit.exponential import (ExpStructure, _m_top, _product_basis,
                                _top_basis, build_exp, comult_matrix,
                                counit_matrix, lift_flat)
from ldckit.gadget import Gadget
from ldckit.model import ModelEnv, interp
from ldckit.multiset import (MultisetBasis, distinct_orderings,
                             multiset_union, remove_one, sub_multiset_splits)
from ldckit.objects import Atom
from ldckit.suites import _require_suite


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
        for ia in basis_a.grade_indices(n):
            m = basis_a.elements[ia]
            orderings = distinct_orderings(m)
            for ib in basis_b.grade_indices(n):
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
        rows = basis_b.grade_indices(n)
        first = [basis_b.elements[i][0] for i in rows]
        below = out[[basis_b.index[basis_b.elements[i][1:]] for i in rows]]
        # per base element a: the grade-n columns holding a, and ma - a
        peel: dict[int, tuple[list[int], list[int]]] = {}
        for ia in basis_a.grade_indices(n):
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

    atoms = {"bangA": (exp_a.dim, tuple(exp_a.basis.labels()))}
    objects = {"A": Atom("bangA"), "B": Atom("bangA")}
    if not same:
        atoms["bangB"] = (exp_b.dim, tuple(exp_b.basis.labels()))
        objects["B"] = Atom("bangB")
    env = ModelEnv(atoms=atoms, degree=degree)
    gradings = {"A": exp_a.basis.degrees(), "B": exp_b.basis.degrees()}
    return Gadget("linear_bialgebra", objects, morphs, env, gradings)
