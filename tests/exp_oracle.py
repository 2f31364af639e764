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
"""
from __future__ import annotations

import numpy as np

from ldckit.errors import ShapeMismatch
from ldckit.exponential import (ExpStructure, _m_top, _product_basis,
                                comult_matrix, counit_matrix, lift_flat)
from ldckit.multiset import MultisetBasis, distinct_orderings, multiset_union


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
