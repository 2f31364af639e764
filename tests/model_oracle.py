"""`evaluate` as it was before the compiled contraction engine, kept
verbatim as the reference that `ldckit.model.evaluate` is tested against;
and `evaluate_by_copies`, the compiled program's runner as it was before
its steps read operands where they lie.

The whole network goes to one `np.einsum(..., optimize="greedy")` call:
one index per wire, an operand for every node (identities for the
symmetries, the tensor and par nodes and the units), and a network of
more than 52 indices is refused.

NumPy's greedy plan can hold gigabytes at once on a small random net (an
outer product of many disconnected operands), so the `np` that `evaluate`
sees here refuses, with `ResourceLimit`, a plan whose largest intermediate
exceeds `LARGEST` entries.  Nothing else differs from plain NumPy.
"""
from __future__ import annotations

import re
from typing import Sequence

import numpy

LARGEST = 2 ** 20


class _GuardedNumpy:
    def __getattr__(self, name):
        return getattr(numpy, name)

    @staticmethod
    def einsum(*operands, optimize):
        path, report = numpy.einsum_path(*operands, optimize=optimize)
        largest = float(re.search(r"Largest intermediate:\s*(\S+)",
                                  report).group(1))
        if largest > LARGEST:
            raise ResourceLimit("einsum intermediate", largest, LARGEST)
        return numpy.einsum(*operands, optimize=path)


np = _GuardedNumpy()

from math import prod

from ldckit import model, plan
from ldckit.circuit import Circuit
from ldckit.errors import ResourceLimit, ShapeMismatch, UnassignedGenerator
from ldckit.model import ModelEnv, interp
from ldckit.objects import ObjectExpr


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


def evaluate_by_copies(c: Circuit, env: ModelEnv) -> numpy.ndarray:
    """`model.evaluate` on the same network and plan, by the runner it had
    before the copy-free steps: each step copies operand i, its kept axes
    first, and operand j, its summed axes first, into matrices, and the
    result is copied into the order of the outputs, then the inputs."""
    key = tuple(interp(f, env)[0] for f in c.factors)
    binders, operands, size, out_ax, in_ax = model._network(
        c, dict(zip(c.factors, key)))
    chosen, _ = plan.best(operands, size, range(len(operands)))
    rows = prod(size[x] for x in out_ax)
    cols = prod(size[x] for x in in_ax)
    t = [bind(env).reshape([size[x] for x in o])
         for bind, o in zip(binders, operands)]
    if not t:
        return numpy.ones((rows, cols))
    i = 0
    for i, j in chosen:
        a, b = operands[i], operands[j]
        summed = [x for x in a if x in b]
        keep_a = [x for x in a if x not in summed]
        keep_b = [x for x in b if x not in summed]
        m, k, n = (prod(size[x] for x in xs)
                   for xs in (keep_a, summed, keep_b))
        t[i] = (t[i].transpose([a.index(x) for x in keep_a + summed])
                .reshape(m, k)
                @ t[j].transpose([b.index(x) for x in summed + keep_b])
                .reshape(k, n)).reshape([size[x] for x in keep_a + keep_b])
        t[j] = None
        operands[i], operands[j] = keep_a + keep_b, None
    last = operands[i]
    out = t[i].transpose([last.index(x) for x in out_ax + in_ax])
    return (out if chosen else out.copy()).reshape(rows, cols)
