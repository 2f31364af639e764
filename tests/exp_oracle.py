"""The exponential's functor and duplication as first written, kept as the
references that `ldckit.exponential` is tested against.

`bang_matrix` sums, for every entry, the products of `f` over all distinct
orderings of the source multiset.  `delta` solves the duplication
!A -> !!A as the couniversal lift of the identity through the free
comonoid, with `lift_flat` on the outer basis.  Both take time and memory
exponential in the degree, so the tests use them on small bases only.
"""
from __future__ import annotations

import numpy as np

from ldckit.errors import ShapeMismatch
from ldckit.exponential import comult_matrix, counit_matrix, lift_flat
from ldckit.multiset import MultisetBasis, distinct_orderings


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


def delta(base: int, degree: int) -> np.ndarray:
    """The duplication !A -> !!A on the degree-truncated exponential of a
    space with `base` basis vectors."""
    basis = MultisetBasis([str(i) for i in range(base)], degree)
    delta_mat = comult_matrix(basis)
    e_mat = counit_matrix(basis)
    outer = MultisetBasis(basis.labels(), degree)
    dup = lift_flat((delta_mat, e_mat),
                    np.eye(basis.dim, dtype=complex), outer,
                    verify=basis.dim <= 64)
    return dup
