"""Pairwise contraction plans for tensor networks.

A network is a list of operands, each a tuple of index labels, with a
size for every label.  A label sits on at most two operands: a label on
two is summed over when they meet, a label on one is free.  The networks
that `model` compiles from circuits have this form (every factor of a wire
is one strand with two ends), so a pairwise contraction never keeps a
shared label and never traces within one operand.

A plan is a list of steps (i, j): operand j is contracted into operand i,
whose labels become its own unshared labels followed by j's.  Two searches
make plans:

- `greedy`, after Smith & Gray, "opt_einsum" (JOSS 2018): contract the
  pair of operands sharing a label whose result frees the most memory (its
  size less the sizes of both operands), ties going to fewer FLOPs; when no
  two operands share a label, join what is left by outer products,
  smallest first;
- `sweep`: contract the operands one by one in a given order.  For a
  circuit in topological order this never costs more than multiplying its
  layers as full matrices.

`best` keeps the plan of fewer FLOPs, counted as NumPy's `einsum_path`
counts them (the size of the joint index space, twice over when a label
is summed), unless the greedy plan holds a larger intermediate than the
sweep.  So no plan costs more than the sweep in either, and on a layered
circuit no intermediate is larger than its matrix.  An optimal order (Pfeifer, Haegeman & Verstraete, "Faster
identification of optimal contraction sequences for tensor networks",
PRE 2014) needs an exponential search and is not attempted.
"""
from __future__ import annotations

import heapq
from math import prod
from typing import Sequence

Plan = list[tuple[int, int]]


def cost(operands: Sequence[Sequence[int]], size: Sequence[int],
         plan: Plan) -> tuple[int, int]:
    """FLOPs and largest intermediate, in entries, of carrying out
    `plan`."""
    ops: list = [tuple(o) for o in operands]
    flops = peak = 0
    for i, j in plan:
        a, b = ops[i], ops[j]
        shared = set(a) & set(b)
        out = tuple(x for x in a + b if x not in shared)
        out_size = prod(size[x] for x in out)
        flops += out_size * prod(size[x] for x in shared) \
            * (2 if shared else 1)
        peak = max(peak, out_size)
        ops[i], ops[j] = out, None
    return flops, peak


def sweep(order: Sequence[int]) -> Plan:
    """Contract the operands into the first one, in `order`."""
    return [(order[0], k) for k in order[1:]]


def greedy(operands: Sequence[Sequence[int]], size: Sequence[int]) -> Plan:
    ops: list = [frozenset(o) for o in operands]
    sizes = [prod(size[x] for x in o) for o in ops]
    owners: dict[int, list[int]] = {}
    for k, o in enumerate(ops):
        for x in o:
            owners.setdefault(x, []).append(k)
    version = [0] * len(ops)
    heap: list = []

    def push(i: int, j: int) -> None:
        i, j = min(i, j), max(i, j)
        out = prod(size[x] for x in ops[i] ^ ops[j])
        flops = 2 * out * prod(size[x] for x in ops[i] & ops[j])
        heapq.heappush(heap, (out - sizes[i] - sizes[j], flops, i, j,
                              version[i], version[j]))

    for ks in owners.values():
        if len(ks) == 2:
            push(*ks)
    plan: Plan = []
    while heap:
        *_, i, j, vi, vj = heapq.heappop(heap)
        if (version[i], version[j]) != (vi, vj):
            continue   # one of the pair has since been contracted
        plan.append((i, j))
        for x in ops[i] & ops[j]:
            del owners[x]
        for x in ops[j] - ops[i]:
            owners[x] = [i if k == j else k for k in owners[x]]
        ops[i], ops[j] = ops[i] ^ ops[j], None
        sizes[i] = prod(size[x] for x in ops[i])
        version[i] += 1
        version[j] += 1
        for k in {k for x in ops[i] for k in owners[x] if k != i}:
            push(i, k)
    left = sorted((k for k, o in enumerate(ops) if o is not None),
                  key=lambda k: (sizes[k], k))
    return plan + (sweep(left) if left else [])


def best(operands: Sequence[Sequence[int]], size: Sequence[int],
         order: Sequence[int]) -> tuple[Plan, tuple[int, int]]:
    """The `greedy` plan if it costs fewer FLOPs than the `sweep` in
    `order` and holds no larger intermediate, else the sweep; with its
    `cost`."""
    chosen = sweep(order) if operands else []
    found = chosen, cost(operands, size, chosen)
    if len(operands) > 2:
        chosen = greedy(operands, size)
        flops, largest = cost(operands, size, chosen)
        if (flops, largest) < found[1] and largest <= found[1][1]:
            found = chosen, (flops, largest)
    return found
