"""The concrete model: finite-dimensional complex matrices.

Both tensors are interpreted by the same Kronecker product with left index
major, both units by the one-dimensional space, and the dagger by conjugate
transpose.  The mix map, mixors, laxors, and the canonical involution are
all identities here, so an invalid circuit may still evaluate; evaluation
is independent of validity by design.

A morphism X -> Y is stored as a |Y| x |X| matrix; the diagrammatic
composite f;g is the product matG . matF.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .circuit import Circuit
from .errors import (NotIdempotent, ResourceLimit, ShapeMismatch,
                     UnassignedGenerator, UnboundAtom)
from .multiset import MultisetBasis
from .objects import (Atom, Bang, Bot, Dagger, ObjectExpr, Par, Quest,
                      Tensor, Top)


@dataclass
class ModelEnv:
    atoms: dict[str, tuple[int, tuple[str, ...]]] = field(default_factory=dict)
    degree: int = 3
    generators: dict[str, np.ndarray] = field(default_factory=dict)

    @staticmethod
    def make(atom_dims: dict[str, int], degree: int = 3,
             generators: Optional[dict[str, np.ndarray]] = None) -> "ModelEnv":
        atoms = {name: (dim, tuple(str(i) for i in range(dim)))
                 for name, dim in atom_dims.items()}
        return ModelEnv(atoms=atoms, degree=degree,
                        generators=dict(generators or {}))

    def assign(self, name: str, matrix: np.ndarray) -> None:
        self.generators[name] = np.asarray(matrix, dtype=complex)


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
        _, labels = interp(t.inner, env)
        basis = MultisetBasis(labels, env.degree)
        return basis.dim, tuple(basis.labels())
    raise TypeError(f"not an object formula: {t!r}")


# np.einsum names each index by one letter of a-z and A-Z.
_EINSUM_INDICES = 52


def dims_of(types: Sequence[ObjectExpr], env: ModelEnv) -> list[int]:
    return [interp(t, env)[0] for t in types]


def evaluate(c: Circuit, env: ModelEnv) -> np.ndarray:
    """Evaluate by tensor-network contraction.  Returns the matrix from the
    tensored inputs to the parred outputs (both are Kronecker here)."""
    operands: list = []
    next_index = 0

    def fresh() -> int:
        nonlocal next_index
        next_index += 1
        return next_index - 1

    wire_idx: dict[str, int] = {}
    wire_second: dict[str, int] = {}

    for w in c.wires:
        wire_idx[w] = fresh()

    # A wire passing straight from the boundary input to the boundary output
    # needs two distinct indices joined by an identity operand.
    for w in c.inputs:
        if w in c.outputs and c.producer(w) is None and c.consumer(w) is None:
            wire_second[w] = fresh()
            d = interp(c.wires[w], env)[0]
            operands.append((np.eye(d, dtype=complex),
                             [wire_second[w], wire_idx[w]]))

    def out_index(w: str) -> int:
        return wire_second.get(w, wire_idx[w])

    for nid, n in c.nodes.items():
        din = dims_of([c.wires[w] for w in n.ins], env)
        dout = dims_of([c.wires[w] for w in n.outs], env)
        k = n.kind
        if k == "gen":
            if n.name not in env.generators:
                raise UnassignedGenerator(n.name)
            m = np.asarray(env.generators[n.name], dtype=complex)
            rows = int(np.prod(dout)) if dout else 1
            cols = int(np.prod(din)) if din else 1
            if m.shape != (rows, cols):
                raise ShapeMismatch(
                    f"generator {n.name!r}: expected {(rows, cols)}, "
                    f"got {m.shape}")
            tens = m.reshape(dout + din)
            operands.append((tens, [wire_idx[w] for w in n.outs]
                             + [wire_idx[w] for w in n.ins]))
        elif k in ("tensor_intro", "par_intro"):
            d = din[0] * din[1]
            tens = np.eye(d, dtype=complex).reshape(d, din[0], din[1])
            operands.append((tens, [wire_idx[n.outs[0]],
                                    wire_idx[n.ins[0]],
                                    wire_idx[n.ins[1]]]))
        elif k in ("tensor_elim", "par_elim"):
            d = dout[0] * dout[1]
            tens = np.eye(d, dtype=complex).reshape(dout[0], dout[1], d)
            operands.append((tens, [wire_idx[n.outs[0]],
                                    wire_idx[n.outs[1]],
                                    wire_idx[n.ins[0]]]))
        elif k in ("top_intro", "bot_intro"):
            operands.append((np.ones(1, dtype=complex),
                             [wire_idx[n.outs[0]]]))
        elif k in ("top_elim", "bot_elim"):
            operands.append((np.ones(1, dtype=complex),
                             [wire_idx[n.ins[0]]]))
        elif k == "swap":
            operands.append((np.eye(din[1], dtype=complex),
                             [wire_idx[n.outs[0]], wire_idx[n.ins[1]]]))
            operands.append((np.eye(din[0], dtype=complex),
                             [wire_idx[n.outs[1]], wire_idx[n.ins[0]]]))
        elif k == "dagger_box":
            inner = evaluate(n.inner, env)
            idin = dims_of(n.inner.input_types(), env)
            idout = dims_of(n.inner.output_types(), env)
            tens = np.conj(inner).reshape(idout + idin)
            # inner output axis i <-> box input wire (reversed order);
            # inner input axis j <-> box output wire (reversed order)
            idx = [wire_idx[n.ins[len(idout) - 1 - i]]
                   for i in range(len(idout))]
            idx += [wire_idx[n.outs[len(idin) - 1 - j]]
                    for j in range(len(idin))]
            operands.append((tens, idx))
        else:  # pragma: no cover
            raise AssertionError(k)

    out_idx = [out_index(w) for w in c.outputs]
    in_idx = [wire_idx[w] for w in c.inputs]
    if not operands:
        return np.eye(1, dtype=complex)
    if next_index > _EINSUM_INDICES:
        raise ResourceLimit("einsum indices", next_index, _EINSUM_INDICES)
    args: list = []
    for tens, idx in operands:
        args.append(tens)
        args.append(idx)
    args.append(out_idx + in_idx)
    result = np.einsum(*args, optimize="greedy")
    rows = int(np.prod(dims_of(c.output_types(), env))) \
        if c.outputs else 1
    cols = int(np.prod(dims_of(c.input_types(), env))) \
        if c.inputs else 1
    return np.asarray(result, dtype=complex).reshape(rows, cols)


def matrices_equal(a: np.ndarray, b: np.ndarray,
                   tol: float = 1e-9) -> tuple[bool, float]:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ShapeMismatch(f"{a.shape} vs {b.shape}")
    residual = float(np.max(np.abs(a - b))) if a.size else 0.0
    scale = max(1.0,
                float(np.max(np.abs(a))) if a.size else 0.0,
                float(np.max(np.abs(b))) if b.size else 0.0)
    return residual <= tol * scale, residual


def split_idempotent(e: np.ndarray, tol: float = 1e-9) \
        -> tuple[np.ndarray, np.ndarray]:
    """Rank factorization of an idempotent: returns (r, s) with r k x n and
    s n x k such that s.r = e and r.s = I (so diagrammatically r;s = e and
    s;r = 1)."""
    e = np.asarray(e, dtype=complex)
    if e.ndim != 2 or e.shape[0] != e.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got {e.shape}")
    scale = max(1.0, float(np.max(np.abs(e))) if e.size else 0.0)
    residual = float(np.max(np.abs(e @ e - e))) if e.size else 0.0
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
