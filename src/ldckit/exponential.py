"""Degree-truncated free exponential on the matrix model.

The space !A has the multisets of basis labels of A of size at most d as
basis.  The comultiplication has coefficient 1 for every distinct ordered
pair of sub-multisets; the counit projects onto the empty multiset; the
dereliction projects onto singletons.  The monad side is given by conjugate
transposes.  Each structure map is built one way, through the integer
tables of its basis's shape (number of base elements, degree), which
`multiset` builds once per shape (`MultisetBasis.shape`).  Delta scatters
the splits of each multiset into ordered pairs.  The functor
!f is one gather, product and segment sum per grade, peeling one factor off
each multiset; the couniversal lift through the comonoid of a base gadget,
which the retract needs, is one gather per grade over the same peel tables,
checked against the comonoid-morphism law on Delta's splits, and fails
loudly when the constraints are inconsistent, making cofreeness an
executable contract; the comonoid it lifts through is checked by the
comonoid laws of `suites`, on a gadget of one object.  The duplication
!A -> !!A and the monoidal structure !A (x) !B -> !(A (x) B) are closed
forms (Mellies-Tabareau-Tasson): the duplication sends a multiset to every
multiset of parts with that union, scattered from the shape's table of
them, and the monoidal structure, one column index per multiset of pairs
through which the induced multiplication and cups are summed without a
dense matrix, sends a pair of multisets to every multiset of pairs with
those projections.  Every dense array left is refused with `ResourceLimit`
past `errors.MAX_ENTRIES` entries, before it is allocated.  The comonad law
delta;!delta = delta;delta is checked on the degree window of !!!A, which
the shape lists once, with the first element, the rest and the sum of
each entry: one gather per grade for delta;!delta, one for delta;delta.
The structure maps are real 0/1 matrices, and every map built from a
gadget's roles is computed in their field: real data stays real.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (LdcError, LiftFailure, NotAComonoid, ShapeMismatch,
                     check_entries, count, finite, numbers, shaped,
                     tolerance)
from .gadget import Gadget, _exponential
from .model import ModelEnv, interp, matrices_equal
from .multiset import (MultisetBasis, _frozen, _law_window, _multisets,
                       _rows)
from .objects import Atom, Bang
from .suites import _COMONOID, _ROLE_SIGNATURES, _require_suite, check_suite


# -- structure matrices ----------------------------------------------------

def comult_matrix(basis: MultisetBasis) -> np.ndarray:
    """Delta: !A -> !A (x) !A, coefficient 1 per ordered sub-multiset pair:
    a one at (m1, m2) and m1 + m2 for each of the shape's splits."""
    n = basis.dim
    check_entries("Delta", n * n * n)
    out = np.zeros((n * n, n))
    i1, i2, union = basis.shape.splits
    out[i1 * n + i2, union] = 1
    return out


def counit_matrix(basis: MultisetBasis) -> np.ndarray:
    """e: !A -> T, projection onto the empty multiset, the first."""
    return np.eye(1, basis.dim)


def dereliction_matrix(basis: MultisetBasis) -> np.ndarray:
    """eps: !A -> A, projection onto singleton multisets."""
    count(basis.degree, "a dereliction needs a basis of degree at least 1",
          floor=1)
    out = np.zeros((len(basis.base), basis.dim))
    for a in range(len(basis.base)):
        out[a, basis.index[(a,)]] = 1
    return out


def bang_matrix(f: np.ndarray, basis_a: MultisetBasis,
                basis_b: MultisetBasis) -> np.ndarray:
    """Functorial action !f: !A -> !B of f: A -> B, the symmetric power on
    each grade.  Grade n is filled from grade n - 1 by peeling the first
    factor off each target multiset:
    !f[mb, ma] = sum over distinct a in ma of f[mb[0], a] * !f[mb[1:], ma - a],
    one gather, product and segment sum per grade, over the reals when f
    is real.
    """
    f = finite(shaped(f, (len(basis_b.base), len(basis_a.base)),
                      "expected {want}, got {shape}"))
    check_entries("!f", basis_b.dim * basis_a.dim)
    f = np.asarray(f, dtype=np.result_type(f, float))
    out = np.zeros((basis_b.dim, basis_a.dim), dtype=f.dtype)
    out[0, 0] = 1
    below = out[:1, :1]
    for rows, cols in zip(basis_b.shape.grades, basis_a.shape.grades):
        terms = f[rows.first][:, cols.elem]
        terms *= below[rows.rest][:, cols.elem_rest]
        below = out[rows.start:rows.stop, cols.start:cols.stop]
        below[...] = np.add.reduceat(terms, cols.seg, axis=1)
    return out


# -- couniversal lifts -----------------------------------------------------

def comonoid_residual(delta_c: np.ndarray, e_c: np.ndarray) -> float:
    """Worst residual of the comonoid laws of `suites` (coassociativity
    and the two counit laws), for a counit e_c of shape (1, n) and a
    comultiplication delta_c of shape (n * n, n), checked by `check_suite`
    on a gadget of one object of dimension n.  All three are 0 at n = 0."""
    e_c = shaped(e_c, (1, None), "comonoid counit must be a row, "
                 "got {shape}")
    dim = e_c.shape[1]
    delta_c = shaped(delta_c, (dim * dim, dim), "comonoid comultiplication "
                     "must be {want} to match the counit, got {shape}")
    comonoid = Gadget("comonoid", {"A": Atom("C")}, {"d": delta_c, "k": e_c},
                      ModelEnv.make({"C": dim}))
    return check_suite(comonoid, _COMONOID).worst()


def lift_flat(comonoid: tuple[np.ndarray, np.ndarray], f: np.ndarray,
              target: MultisetBasis, tol: float = 1e-9) -> np.ndarray:
    """Unique comonoid morphism F: C -> !A with F;eps = f, for a comonoid
    (C, delta_c, e_c) and f: C -> A.  Solved grade by grade, one gather over
    the peel tables of `bang_matrix` each: row m is f[a] (x) F[m - a]
    through delta_c for any distinct element a of m, a = m[0] is taken, and
    the others must agree (checked, with loud failure)."""
    tol = tolerance(tol)
    count(target.degree, "a lift needs a target of degree at least 1",
          floor=1)
    size = len(target.base)
    f = finite(shaped(f, (size, None),
                      "f must land in the base of the target"))
    dim_c = f.shape[1]
    comonoid_shapes = "comonoid data shapes do not match f"
    delta_c = shaped(comonoid[0], (dim_c * dim_c, dim_c), comonoid_shapes)
    e_c = shaped(comonoid[1], (1, dim_c), comonoid_shapes)
    res = comonoid_residual(delta_c, e_c)
    if res > tol:
        raise NotAComonoid(res)
    big = np.zeros((target.dim, dim_c),
                   np.result_type(delta_c, e_c, f, float))
    big[0] = e_c[0]
    big[1:1 + size] = f
    worst = 0.0
    grades = target.shape.grades
    for prev, grade in zip(grades, grades[1:]):
        rows = _tensor_rows(f[grade.elem],
                            big[prev.start:prev.stop][grade.elem_rest],
                            delta_c)
        block = big[grade.start:grade.stop]
        block[...] = rows[grade.seg]
        counts = np.diff(grade.seg, append=len(grade.elem))
        worst = max(worst, matrices_equal(
            rows, np.repeat(block, counts, axis=0))[1])
    if worst > tol * float(np.max(np.abs(f), initial=1.0)):
        raise LiftFailure(
            f"degree-wise constraints are inconsistent (residual {worst:.3e})")
    # Compare only on the degree window: outside it the truncated
    # comultiplication cannot produce the term, by construction.  Inside
    # it, Delta . big reads big at the union of each split.
    i1, i2, union = target.shape.splits
    r = matrices_equal(big[union],
                       _tensor_rows(big[i1], big[i2], delta_c))[1]
    if r > tol * float(np.max(np.abs(big), initial=1.0)):
        raise LiftFailure(f"comonoid morphism law fails ({r:.3e})")
    return big


def _tensor_rows(x: np.ndarray, y: np.ndarray,
                 delta_c: np.ndarray) -> np.ndarray:
    """Row r is (x[r] (x) y[r]) . delta_c, for delta_c: C -> C (x) C."""
    pairs = x[:, :, None] * y[:, None, :]
    return pairs.reshape(len(x), len(delta_c)) @ delta_c


def lift_sharp(monoid: tuple[np.ndarray, np.ndarray], g: np.ndarray,
               target: MultisetBasis, tol: float = 1e-9) -> np.ndarray:
    """Unique monoid morphism ?B -> M with eta;g# = g: the dagger dual of
    lift_flat applied to the daggered data."""
    mult, unit, g = map(numbers, (*monoid, g))
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
    """The exponential over `base`, an iterable of string labels (a string
    reads as its characters) or a count of them."""
    degree = count(degree, "degree must be at least 1", floor=1)
    base = list(base) if isinstance(base, Iterable) else [
        str(i) for i in range(count(
            base, "a base has a nonnegative number of elements"))]
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
        dup = np.zeros((outer.dim, basis.dim))
        table = basis.shape.parts
        dup[[outer.index[p] for p in table.elements], table.union] = 1
    return ExpStructure(
        basis=basis, outer=outer,
        Delta=delta_mat, counit_e=e_mat, eps=eps_mat, delta=dup,
        nabla=delta_mat.conj().T, unit_u=e_mat.conj().T,
        eta=eps_mat.conj().T,
        mu=dup.conj().T if dup is not None else None)


def comonad_coassoc_report(base_dim: int, degree: int,
                           tol: float = 1e-9) -> tuple[bool, float, int]:
    """Check delta;!delta = delta;delta on the window where no intermediate
    value exceeds the degree bound: the multisets Q of at most d multisets
    of parts (`basis.shape.law`) whose total number of parts and total
    size are at most d.  Every row of delta holds a single 1, at the union of its
    parts (`basis.shape.parts`), so both composites are 0/1 maps with a
    single 1 in each row of the window, and each is computed as the column
    of that 1.  delta;!delta peels the first element P off Q as
    `bang_matrix` does, one gather per grade: its column is the union of
    P's parts plus that of the rest of Q, summed by `basis.shape.splits`.
    delta;delta reads the union of the sum of Q's elements.  A row where
    the columns differ holds two entries that differ by 1.  The window is
    counted, and refused past `errors.MAX_ENTRIES` entries, before any
    table is built.  Returns (pass, worst residual on the window, entries
    compared)."""
    tol = tolerance(tol)
    shape = _law_window(base_dim, degree)
    union, law = shape.parts.union, shape.law
    sums = shape.splits[2]
    rows = _rows(shape)
    lhs = np.zeros(len(law.first), dtype=np.intp)   # () for the empty Q
    for lo, hi in zip(law.grades[1:], law.grades[2:]):
        lhs[lo:hi] = sums[rows[union[law.first[lo:hi]]]
                          + lhs[law.rest[lo:hi]]]
    differ = int(np.count_nonzero(lhs != union[law.sum]))
    worst = 1.0 if differ else 0.0
    return worst <= tol, worst, len(lhs) + differ


# -- monoidal structure ----------------------------------------------------

def _m_top(degree: int) -> np.ndarray:
    """T -> !T: the unit of the monoidal structure, one per grade."""
    return np.ones((degree + 1, 1))


@dataclass(frozen=True)
class _Monoidal:
    """m_tensor: !A (x) !B -> !(A (x) B) as an index: row M, a multiset of
    pairs in the basis `prod` of !(A (x) B), holds a single 1, in column
    index[M], that of its two projections (the first and the second
    components of its pairs).  The rows sorted by column are `order`; runs
    of one column start at `starts` and land in `targets`."""
    prod: MultisetBasis
    index: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    targets: np.ndarray
    cols: int

    def push(self, x: np.ndarray) -> np.ndarray:
        """x @ m_tensor for x with one column per multiset of pairs: each
        column of the result sums the columns of x that map to it."""
        out = np.zeros((x.shape[0], self.cols), np.result_type(x, float))
        out[:, self.targets] = np.add.reduceat(x[:, self.order], self.starts,
                                               axis=1)
        return out


@functools.lru_cache(maxsize=64)
def _monoidal(size_a: int, size_b: int, degree: int) -> _Monoidal:
    index_a = _multisets(size_a, degree).index
    index_b = _multisets(size_b, degree).index
    prod = MultisetBasis([str(p) for p in range(size_a * size_b)], degree)
    index = _frozen(
        [index_a[tuple(sorted(p // size_b for p in m))] * len(index_b)
         + index_b[tuple(sorted(p % size_b for p in m))]
         for m in prod.elements])
    order = np.argsort(index, kind="stable")
    run = np.flatnonzero(np.diff(index[order], prepend=-1))
    return _Monoidal(prod, index,
                     *map(_frozen, (order, run, index[order][run])),
                     len(index_a) * len(index_b))


def _monoidal_of(basis_a: MultisetBasis, basis_b: MultisetBasis) -> _Monoidal:
    if basis_a.degree != basis_b.degree:
        raise ShapeMismatch("degree bounds differ")
    return _monoidal(len(basis_a.base), len(basis_b.base), basis_a.degree)


def monoidal_structure(exp_a: ExpStructure, exp_b: ExpStructure) \
        -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m_top, m_tensor, nu_tensor) at the common degree bound, as dense
    matrices.  Row M of m_tensor, a multiset of pairs, holds a single 1, in
    the column of its two projections: the first and second components of
    its pairs.  The induced structure never builds this matrix; it pushes
    through the index of `_monoidal` instead."""
    mon = _monoidal_of(exp_a.basis, exp_b.basis)
    check_entries("m_tensor", mon.index.size * mon.cols)
    m_tensor = np.zeros((mon.index.size, mon.cols))
    m_tensor[np.arange(mon.index.size), mon.index] = 1
    return _m_top(exp_a.basis.degree), m_tensor, m_tensor.conj().T


# -- induced structure on the exponential ----------------------------------
#
# A linear monoid on the base space induces a linear bialgebra on the
# truncated exponential: the monoid is pushed through the monoidal
# structure, the cups and caps are lifted as states/costates of the
# exponential, and the comonoid is the free comultiplication/counit.

def _lifted_cup(state: np.ndarray, basis_a: MultisetBasis,
                basis_b: MultisetBasis) -> np.ndarray:
    """Induced cup T -> !A (x) !B of a cup T -> A (x) B: the functorial
    image of the state, pushed back through the monoidal costructure.  The
    image summed over grades is one entry per multiset of pairs, and the
    costructure sums those entries by their projections."""
    mon = _monoidal_of(basis_a, basis_b)
    d = basis_a.degree
    banged = bang_matrix(np.asarray(state).reshape(-1, 1),
                         MultisetBasis(["*"], d), mon.prod)
    return mon.push((banged @ _m_top(d)).T).T


def _lifted_cap(costate: np.ndarray, basis_a: MultisetBasis,
                basis_b: MultisetBasis) -> np.ndarray:
    """Induced cap !A (x) !B -> _|_ of a cap A (x) B -> _|_, built as the
    dagger of the lifted cup of the daggered costate.  (Pushing the costate
    forward with the functor instead would overcount each multiset by its
    number of distinct orderings and break the snake equations.)"""
    state = np.asarray(costate).conj().reshape(-1, 1)
    return _lifted_cup(state, basis_a, basis_b).conj().T


def induction_degree(g: Gadget, degree: object) -> int:
    """`degree` as the bound to induce `g` at, if it is an integer of at
    least 1 and, when `g` is over an exponential, `g`'s own bound: the
    model holds one bound for both levels of !!X."""
    degree = count(degree, "degree must be at least 1", floor=1)
    if _exponential(g.objects) and degree != g.env.degree:
        raise LdcError(f"induction at degree {degree} of a gadget over a "
                       f"degree-{g.env.degree} exponential: the model holds "
                       f"one degree bound, so induce it at {g.env.degree}")
    return degree


def induce_bang_monoid(g: Gadget, degree: int = 3,
                       tol: float = 1e-9) -> Gadget:
    """Push a linear monoid on the base space to a linear bialgebra on the
    degree-truncated exponential.  The multiplication is the functorial
    image of the base multiplication composed with the monoidal structure,
    the comonoid is the free one, and all cups and caps are lifted states
    and costates.  When the input also carries comonoid-side cups and caps
    those are lifted for the comonoid; otherwise the monoid's are reused.
    Its objects are !X and !Y on the input's X and Y, over its atoms."""
    degree = induction_degree(g, degree)
    _require_suite(g, "linear-monoid", tol)
    bases = {o: MultisetBasis(interp(g.object(o), g.env)[1], degree)
             for o in "AB"}
    basis = bases["A"]
    mon = _monoidal_of(basis, basis)
    m_bang = mon.push(bang_matrix(g.morphism("m"), mon.prod, basis))
    u_bang = bang_matrix(g.morphism("u"), MultisetBasis(["*"], degree),
                         basis) @ _m_top(degree)
    morphs = {"m": m_bang, "u": u_bang,
              "d": comult_matrix(basis), "k": counit_matrix(basis)}
    # every other role is a cup, onto (X, Y), or a cap, from (Y, X)
    own_duals = g.has("tau_L", "gam_L", "tau_R", "gam_R")
    for role, (dom, cod) in _ROLE_SIGNATURES.items():
        if role in morphs:
            continue
        mat = g.morphism(role if own_duals else
                         role.replace("tau", "eta").replace("gam", "eps"))
        morphs[role] = (_lifted_cap(mat, *(bases[o] for o in dom)) if dom
                        else _lifted_cup(mat, *(bases[o] for o in cod)))

    objects = {"A": Bang(g.object("A")), "B": Bang(g.object("B"))}
    return Gadget("linear_bialgebra", objects, morphs,
                  ModelEnv(atoms=g.env.atoms, degree=degree))


def retract_idempotent(g: Gadget, degree: int = 3,
                       tol: float = 1e-9) -> dict:
    """Exhibit the base space as a retract of its exponential.

    Returns the induced bialgebra on the exponential together with the
    binary idempotent (ub, vb) whose splitting recovers the base: the
    retraction is the dereliction, the section is the lift of the identity
    through the base comonoid, and the par-side pair is given dually by the
    unit lift through the base monoid.  The canonical splitting is returned
    so downstream splits can reproduce the base maps on the nose."""
    degree = induction_degree(g, degree)
    _require_suite(g, "linear-bialgebra", tol)
    if g.object("A") != g.object("B"):
        raise ShapeMismatch("retract requires a self-linear bialgebra")
    induced = induce_bang_monoid(g, degree, tol)
    basis = MultisetBasis(interp(g.object("A"), g.env)[1], degree)
    eye = np.eye(len(basis.base))
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
    }
