"""The concrete model: finite-dimensional complex matrices.

Both tensors are interpreted by the same Kronecker product with left index
major, both units by the one-dimensional space, and the dagger by conjugate
transpose.  The mix map, mixors, laxors, and the canonical involution are
all identities here, so an invalid circuit may still evaluate; evaluation
is independent of validity by design.

A morphism X -> Y is stored as a |Y| x |X| matrix; the diagrammatic
composite f;g is the product matG . matF.

A matrix whose entries are all real is kept, and contracted, over the
reals.  `in_field` decides the field where a matrix enters, in the
`ModelEnv` constructor and `ModelEnv.assign` and in `Gadget`, and refuses
one whose entries are not numbers, or are NaN or infinite; past them every
map, contraction included, computes in the field of its operands.  The
atom table is checked where it enters, in the `ModelEnv` constructor, and
stored as pairs of an int and a tuple of labels.
"""
from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass, field
from math import prod
from typing import Optional

import numpy as np

from . import plan
from .circuit import Circuit
from .errors import (MAX_ENTRIES, LdcError, NotIdempotent, ResourceLimit,
                     UnassignedGenerator, UnboundAtom, check_entries, count,
                     finite, numbers, shaped, string_labels, tolerance)
from .multiset import MultisetBasis
from .objects import (Atom, Bang, Bot, Dagger, ObjectExpr, Par, Quest,
                      Tensor, Top, factors)


@dataclass
class ModelEnv:
    atoms: dict[str, tuple[int, tuple[str, ...]]] = field(default_factory=dict)
    degree: int = 3
    generators: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.degree = count(self.degree,
                            "a degree bound is a nonnegative integer")
        atoms = {}
        for name, entry in _table(self.atoms, "an atom table").items():
            rule = (f"atom {name!r}: an entry is a dim and a list of string "
                    f"labels")
            try:
                if not isinstance(entry, (tuple, list)) or len(entry) != 2:
                    raise LdcError(rule)
                labels = string_labels(entry[1], rule)
            except LdcError:   # the refusal names the whole entry
                raise LdcError(f"{rule}, got {entry!r}") from None
            dim = _dim(name, entry[0])
            if len(labels) != dim:
                raise LdcError(f"atom {name!r}: {dim} basis labels "
                               f"expected, got {len(labels)}")
            atoms[name] = dim, labels
        self.atoms = atoms
        self.generators = {
            name: in_field(m) for name, m in
            _table(self.generators, "a generator table").items()}

    @staticmethod
    def make(atom_dims: dict[str, int], degree: int = 3,
             generators: Optional[dict[str, np.ndarray]] = None) -> "ModelEnv":
        atoms = {name: (dim, tuple(map(str, range(_dim(name, dim)))))
                 for name, dim in _table(atom_dims, "an atom table").items()}
        return ModelEnv(atoms, degree, generators or {})

    def assign(self, name: str, matrix: np.ndarray) -> None:
        """Bind `name` to `matrix` in its field (see `in_field`)."""
        self.generators[name] = in_field(matrix)


def _table(value: object, what: str) -> Mapping:
    """`value`, if it is a mapping of names to entries."""
    if not isinstance(value, Mapping):
        raise LdcError(f"{what} is a mapping of names to entries, "
                       f"got {value!r}")
    return value


# The largest atom dim, refused before any label is built: its default
# labels, about 64 bytes each, take no more memory than the largest dense
# complex array (MAX_ENTRIES).
_MAX_DIM = MAX_ENTRIES // 4


def _dim(name: str, dim: object) -> int:
    # 0 is a dimension: a rank-0 idempotent splits through it
    dim = count(dim, f"atom {name!r}: dim must be a nonnegative integer")
    if dim > _MAX_DIM:
        raise ResourceLimit(f"atom {name!r} (basis labels)", dim, _MAX_DIM)
    return dim


def in_field(matrix: np.ndarray) -> np.ndarray:
    """`matrix` as a contiguous float64 array when its imaginary part is
    all zero, as a complex128 one otherwise; `LdcError` if it is not an
    array of numbers (`errors.numbers`), or an entry is NaN or infinite."""
    m = numbers(matrix)
    if m.dtype.kind == "c":
        m = np.asarray(m, dtype=complex)
    finite(m)
    if m.dtype.kind == "c":
        if np.count_nonzero(m.imag):
            return m
        m = m.real
    return np.ascontiguousarray(m, dtype=float)


def interp(t: ObjectExpr, env: ModelEnv) -> tuple[int, tuple[str, ...]]:
    """Dimension and ordered basis labels of an object formula."""
    if isinstance(t, Atom):
        if t.name not in env.atoms:
            raise UnboundAtom(t.name)
        return env.atoms[t.name]
    if isinstance(t, (Top, Bot)):
        return 1, ("*",)
    if isinstance(t, (Tensor, Par)):
        dl, ll = interp(t.left, env)
        dr, lr = interp(t.right, env)
        labels = tuple(f"{a}{b}" for a in ll for b in lr)
        return dl * dr, labels
    if isinstance(t, Dagger):
        return interp(t.inner, env)
    if isinstance(t, (Bang, Quest)):
        return _exponential_shape(interp(t.inner, env)[1], env.degree)
    raise TypeError(f"not an object formula: {t!r}")


@functools.lru_cache(maxsize=64)
def _exponential_shape(labels: tuple[str, ...], degree: int
                       ) -> tuple[int, tuple[str, ...]]:
    """The multiset basis's dim and labels, once per shape (`_program`)."""
    basis = MultisetBasis(labels, degree)
    return basis.dim, tuple(basis.labels())


class _Program:
    """A circuit's contraction at fixed factor dimensions: a binder per
    operand, which reads its matrix from the environment, the pairwise
    steps of the plan, and the layout of the result.

    Each step is one matrix product into slot i, after which slot j is
    free: (i, j, then for its left and its right factor the slot it reads,
    a shape and an axis permutation, and the matrix shape it is read as).
    A factor whose permutation is None is only reshaped, so it is read
    where it lies; any other is copied through the permutation first,
    unless that too is a view, as a transposed matrix is.  `_compile`
    tracks the memory order of every operand's axes, so most steps read
    the larger operand in place: reshaped to (p, s, q) around the run of
    its summed axes, it is multiplied by the smaller operand as one
    matrix when p or q is 1, else as a batch of p products (`_step`).
    The last result's axes lie in the order `shape`, and `perm` (None
    when it is the identity) puts the outputs first, then the inputs."""

    def __init__(self, binders: list, steps: list, last: int,
                 shape: list[int], perm: Optional[list[int]],
                 rows: int, cols: int, cost: tuple[int, int]):
        self.binders, self.steps = binders, steps
        self.last, self.shape, self.perm = last, shape, perm
        self.rows, self.cols = rows, cols
        self.flops, self.largest = cost

    def tensor(self, env: ModelEnv) -> np.ndarray:
        """One axis per factor of the outputs, then of the inputs.  A
        program whose largest intermediate would pass `errors.MAX_ENTRIES`
        is refused before anything is allocated; its cost can still be
        read."""
        check_entries("largest contraction intermediate", self.largest)
        t = [bind(env) for bind in self.binders]
        if not t:
            return np.ones(())
        for i, j, ka, sa, pa, ma, kb, sb, pb, mb in self.steps:
            a, b = t[ka], t[kb]
            if pa is not None:
                a = a.reshape(sa).transpose(pa)
            if pb is not None:
                b = b.reshape(sb).transpose(pb)
            t[i], t[j] = a.reshape(ma) @ b.reshape(mb), None
        out = t[self.last].reshape(self.shape)
        if self.perm is not None:
            out = out.transpose(self.perm)
        # without a step the result would share memory with an operand
        return out if self.steps else out.copy()


def _bind_generator(name: str, rows: int, cols: int, conj: bool):
    shape = rows, cols
    mismatch = f"generator {name!r}: expected {{want}}, got {{shape}}"

    def bind(env: ModelEnv) -> np.ndarray:
        m = env.generators.get(name)
        if m is None:
            raise UnassignedGenerator(name)
        m = shaped(m, shape, mismatch)
        if m.dtype != np.float64:
            # bound without `assign`, so perhaps complex64 or integer
            m = m.astype(complex, copy=False)
            if conj:
                m = np.conj(m)
        return m
    return bind


_JOINS = ("tensor_intro", "par_intro", "tensor_elim", "par_elim", "swap")

# A batch of p products of the smaller operand by (s, q) slices of the
# larger one runs slower than one product of copies when the smaller one
# has more than _BATCH_SMALL entries, or when q is below _BATCH_WIDE.
_BATCH_SMALL, _BATCH_WIDE = 2 ** 16, 8


def _network(c: Circuit, dim: dict[ObjectExpr, int]) -> tuple:
    """Each wire carries one label per factor of its type.  Symmetries, the
    introductions and eliminations of both tensors and the unit nodes only
    join labels.  A dagger box is contracted where it stands: its interior
    joins its boundary labels to the box's ports, mirrored, and its
    generators enter conjugated (plain again two boxes deep).  So the
    generators are the only operands, in flow order.  Returns a binder and
    the labels of each operand, the size of each label, and the labels of
    the outputs and of the inputs."""
    size: list[int] = []
    parent: list[int] = []

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def join(xs: list[int], ys: list[int]) -> None:
        for x, y in zip(xs, ys):
            parent[find(x)] = find(y)

    def label(circ: Circuit) -> dict[str, list[int]]:
        out = {}
        for w, t in circ.wires.items():
            out[w] = list(range(len(size), len(size) + len(factors(t))))
            size.extend(dim[f] for f in factors(t))
        parent.extend(range(len(parent), len(size)))
        return out

    def on(labels: dict, wires) -> list[int]:
        return [x for w in wires for x in labels[w]]

    binders, operands = [], []
    outer = label(c)
    # circuits being walked: (nodes left in flow order, labels, conjugated)
    stack = [(iter(c.topo_order()), c, outer, False)]
    while stack:
        nodes, circ, labels, conj = stack[-1]
        n = circ.nodes.get(next(nodes, None))
        if n is None:
            stack.pop()
        elif n.kind in _JOINS:
            outs = n.outs[::-1] if n.kind == "swap" else n.outs
            join(on(labels, n.ins), on(labels, outs))
        elif n.kind == "gen":
            ax_out, ax_in = on(labels, n.outs), on(labels, n.ins)
            binders.append(_bind_generator(
                n.name, prod(size[x] for x in ax_out),
                prod(size[x] for x in ax_in), conj))
            operands.append(ax_out + ax_in)
        elif n.kind == "dagger_box":
            inner = label(n.inner)
            join(on(inner, n.inner.outputs), on(labels, n.ins[::-1]))
            join(on(inner, n.inner.inputs), on(labels, n.outs[::-1]))
            order = n.inner.topo_order()   # the interior flows backwards
            stack.append((iter(order if conj else order[::-1]), n.inner,
                          inner, not conj))
        # unit nodes: unit wires carry no label
    operands = [[find(x) for x in o] for o in operands]
    out_ax = [find(x) for x in on(outer, c.outputs)]
    in_ax = [find(x) for x in on(outer, c.inputs)]
    # A strand from the input boundary straight to the output boundary is
    # an identity operand: its output end gets a label of its own.
    ends = {}
    for x in sorted(set(out_ax) & set(in_ax)):
        ends[x] = len(size)
        size.append(size[x])
        binders.append(lambda env, eye=np.eye(size[x]): eye)
        operands.append([ends[x], x])
    out_ax = [ends.get(x, x) for x in out_ax]
    return binders, operands, size, out_ax, in_ax


def _read(k: int, axes: list[int], rows: list[int], cols: list[int],
          size: list[int]) -> tuple:
    """The factor spec (slot, shape, perm, matrix shape) that reads operand
    k, whose axes lie in the order `axes`, as a matrix over `rows` by
    `cols`: a reshape when they lie in that order, a transposed view of a
    matrix when they lie as `cols` then `rows`, a copy otherwise."""
    m, n = prod(size[x] for x in rows), prod(size[x] for x in cols)
    if axes == rows + cols:
        return k, None, None, (m, n)
    if axes == cols + rows:
        return k, (n, m), (1, 0), (m, n)
    return (k, [size[x] for x in axes],
            [axes.index(x) for x in rows + cols], (m, n))


def _step(i: int, j: int, a: list[int], b: list[int], size: list[int]
          ) -> tuple[tuple, list[int]]:
    """One step of the plan, operand j into operand i, whose axes lie in
    the orders `a` and `b`: the step and the order of the result's axes.
    When the summed axes of the larger operand x (failing that, of the
    smaller) lie in one run, x is read in place as (p, s, q) and the other
    operand y is arranged around it: x (p, s) times y (s, r) when q is 1,
    y (r, s) times x (s, q) when p is 1, else a batch of p products
    y (r, s) times x (s, q), if y is small and q wide enough.  The result
    lies as x's axes before the run, y's kept axes, then x's axes after
    the run.  Otherwise both are arranged as matrices, i's kept axes by
    the summed ones times the summed ones by j's kept axes."""
    pairs = [(i, a, j, b), (j, b, i, a)]
    if prod(size[x] for x in b) > prod(size[x] for x in a):
        pairs.reverse()
    for kx, x, ky, y in pairs:
        summed = [ax for ax in x if ax in y]
        at = x.index(summed[0]) if summed else len(x)
        if x[at:at + len(summed)] != summed:
            continue
        before, after = x[:at], x[at + len(summed):]
        kept = [ax for ax in y if ax not in summed]
        p, s, q = (prod(size[ax] for ax in axes)
                   for axes in (before, summed, after))
        if q == 1:
            step = (kx, None, None, (p, s)) \
                + _read(ky, y, summed, kept, size)
        elif p == 1:
            step = _read(ky, y, kept, summed, size) \
                + (kx, None, None, (s, q))
        elif q >= _BATCH_WIDE and prod(size[ax] for ax in y) <= _BATCH_SMALL:
            step = _read(ky, y, kept, summed, size) + (kx, None, None,
                                                       (p, s, q))
        else:
            continue
        return (i, j) + step, before + kept + after
    summed = [ax for ax in a if ax in b]
    keep_a = [ax for ax in a if ax not in summed]
    keep_b = [ax for ax in b if ax not in summed]
    return ((i, j) + _read(i, a, keep_a, summed, size)
            + _read(j, b, summed, keep_b, size)), keep_a + keep_b


def _compile(c: Circuit, dim: dict[ObjectExpr, int]) -> _Program:
    """The contraction network of `c` (`_network`), the plan of
    `plan.best` over it in flow order, and the steps that carry it out."""
    binders, operands, size, out_ax, in_ax = _network(c, dim)
    chosen, cost = plan.best(operands, size, range(len(operands)))
    steps = []
    for i, j in chosen:
        step, operands[i] = _step(i, j, operands[i], operands[j], size)
        operands[j] = None
        steps.append(step)
    last = chosen[-1][0] if chosen else 0
    axes = operands[last] if operands else []
    perm = [axes.index(x) for x in out_ax + in_ax]
    return _Program(binders, steps, last, [size[x] for x in axes],
                    None if perm == sorted(perm) else perm,
                    prod(size[x] for x in out_ax),
                    prod(size[x] for x in in_ax), cost)


def _program(c: Circuit, env: ModelEnv) -> _Program:
    key = tuple(interp(f, env)[0] for f in c.factors)
    prog = c._programs.get(key)
    if prog is None:
        prog = c._programs[key] = _compile(c, dict(zip(c.factors, key)))
    return prog


def contraction_cost(c: Circuit, env: ModelEnv) -> tuple[int, int]:
    """FLOPs and largest intermediate, in entries, of the contraction that
    `evaluate` carries out on `c`."""
    prog = _program(c, env)
    return prog.flops, prog.largest


def evaluate(c: Circuit, env: ModelEnv) -> np.ndarray:
    """Evaluate by tensor-network contraction.  Returns the matrix from the
    tensored inputs to the parred outputs (both are Kronecker here).  The
    contraction is compiled once per circuit and factor dimensions, and
    then only reads the generator matrices from `env`.  The result is
    float64 exactly when every generator that `c` reads is bound to a
    float64 matrix, and complex128 otherwise."""
    prog = _program(c, env)
    return prog.tensor(env).reshape(prog.rows, prog.cols)


def matrices_equal(a: np.ndarray, b: np.ndarray,
                   tol: float = 1e-9) -> tuple[bool, float]:
    """Whether no entry of `a - b` passes `tol` times the largest modulus
    in `a` and `b` (at least 1) in modulus; and the largest modulus of
    `a - b`.  Computed in the field of both, in one temporary of their
    size (over the complex numbers, a second of half that size); neither
    is written."""
    tol = tolerance(tol)
    a = numbers(a)
    b = shaped(b, a.shape, "{want} vs {shape}")
    if not a.size:
        return True, 0.0
    field = np.result_type(a, b, np.float64)
    d = np.subtract(a, b, dtype=field)
    d = np.abs(d, out=d if field.kind == "f" else None)
    residual = float(d.max())
    scale = max(1.0, float(np.abs(a, out=d).max()),
                float(np.abs(b, out=d).max()))
    return residual <= tol * scale, residual


def split_idempotent(e: np.ndarray, tol: float = 1e-9) \
        -> tuple[np.ndarray, np.ndarray]:
    """Rank factorization of an idempotent: returns (r, s) with r k x n and
    s n x k such that s.r = e and r.s = I (so diagrammatically r;s = e and
    s;r = 1).  The SVD runs over the complex numbers even on a real `e`,
    and r and s are complex128: a real SVD rounds differently, and would
    change the gadgets that `ldckit split` writes."""
    tol = tolerance(tol)
    e = np.asarray(numbers(e), dtype=complex)
    square = "expected a square matrix, got {shape}"
    shaped(e, (None, None), square)        # a matrix,
    shaped(e, (len(e), len(e)), square)    # with as many columns as rows
    finite(e)   # a NaN residual would pass the comparison below
    scale = float(np.max(np.abs(e), initial=1.0))
    residual = matrices_equal(e @ e, e)[1]
    if residual > tol * scale:
        raise NotIdempotent(residual)
    if e.size == 0:
        return e.copy().reshape(0, 0), e.copy().reshape(0, 0)
    u, sv, vh = np.linalg.svd(e)
    if sv.size and sv[0] > 0:
        k = int(np.sum(sv > tol * sv[0]))
    else:
        k = 0
    s = u[:, :k]
    r = sv[:k, None] * vh[:k, :]
    # polish: enforce r.s = I exactly up to numerical inversion
    gram = r @ s
    r = np.linalg.solve(gram, r)
    return r, s
