"""Pairwise contraction plans for tensor networks.

A network is a list of operands, each a tuple of index labels, with a
size for every label.  A label sits on at most two operands: a label on
two is summed over when they meet, a label on one is free.  The networks
that `model` compiles from circuits have this form (every factor of a wire
is one strand with two ends), so a pairwise contraction never keeps a
shared label and never traces within one operand.

A plan is a list of steps (i, j): operand j is contracted into operand i,
whose labels become the labels of either that the other lacks (in which
order they lie is the caller's choice).  Three searches make plans:

- `greedy`, after Smith & Gray, "opt_einsum" (JOSS 2018): contract the
  pair of operands sharing a label whose result frees the most memory (its
  size less the sizes of both operands), ties going to fewer FLOPs, then
  to the lowest operand numbers or, as in NumPy's greedy, to the pair
  found first; when no two operands share a label, join what is left by
  outer products, smallest first;
- `sweep`: contract the operands one by one in a given order.  For a
  circuit in topological order this never costs more than multiplying its
  layers as full matrices;
- `slices`: matrix-chain ordering over the same order, the cheapest plan
  that only joins adjacent runs of operands; the sweep is one of them.

`best` keeps the plan of fewest FLOPs, counted as NumPy's `einsum_path`
counts them (the size of the joint index space, twice over when a label
is summed), among those that hold no larger intermediate than the sweep;
the searches past the sweep and the first greedy plan run only on
networks where those cost enough to be worth them.  So no plan costs more
than the sweep in either, and on a layered circuit no intermediate is
larger than its matrix.  An optimal order (Pfeifer, Haegeman &
Verstraete, "Faster identification of optimal contraction sequences for
tensor networks", PRE 2014) needs an exponential search and is not
attempted.
"""
from __future__ import annotations

import heapq
from itertools import count, repeat
from math import prod, sqrt
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


def greedy(operands: Sequence[Sequence[int]], size: Sequence[int],
           first_found: bool = False) -> Plan:
    """Ties go to the pair of the lowest operand numbers, or with
    `first_found` to the pair found first, as in NumPy's greedy: the pairs
    of the operands in order, then those of each result as it is made, its
    partners ranked as the operands in order, then the results by age."""
    ops: list = [frozenset(o) for o in operands]
    sizes = [prod(size[x] for x in o) for o in ops]
    owners: dict[int, list[int]] = {}
    for k, o in enumerate(ops):
        for x in o:
            owners.setdefault(x, []).append(k)
    version = [0] * len(ops)
    found = count() if first_found else repeat(0)
    rank, made = list(range(len(ops))), count(len(ops))
    heap: list = []

    def push(i: int, j: int) -> None:
        i, j = min(i, j), max(i, j)
        common = prod(size[x] for x in ops[i] & ops[j])
        out = sizes[i] * sizes[j] // common ** 2 if common \
            else prod(size[x] for x in ops[i] ^ ops[j])
        flops = 2 * out * common
        heapq.heappush(heap, (out - sizes[i] - sizes[j], flops, next(found),
                              i, j, version[i], version[j]))

    for i, j in sorted({tuple(ks) for ks in owners.values() if len(ks) == 2}):
        push(i, j)
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
        rank[i] = next(made)
        for k in sorted({k for x in ops[i] for k in owners[x] if k != i},
                        key=rank.__getitem__):
            push(i, k)
    left = sorted((k for k, o in enumerate(ops) if o is not None),
                  key=lambda k: (sizes[k], k))
    return plan + (sweep(left) if left else [])


# `slices` is cubic in the number of operands; past this many operands
# `best` does not try it.  Below _SEARCH_FROM FLOPs, a plan costs less to
# carry out than `slices` takes to search.
_SLICES_MOST, _SEARCH_FROM = 40, 2 ** 16


def slices(operands: Sequence[Sequence[int]], size: Sequence[int],
           order: Sequence[int], largest: float = float("inf")) -> Plan:
    """Matrix-chain ordering over `order`: the plan of fewest FLOPs among
    those that only join adjacent runs of operands, and hold no
    intermediate of more than `largest` entries.  The sweep is one of
    them.  A run's labels are a bitmask, the exclusive or of its
    operands', and the summed labels of two runs a and b have the size
    sqrt(size(a) size(b) / size(a ^ b)), so each candidate join costs
    O(1): 2 sqrt(size(a) size(b) size(a ^ b)) FLOPs when they share a
    label, size(a ^ b) when they do not."""
    def joint(mask: int) -> int:
        total = 1
        while mask:
            low = mask & -mask
            total *= size[low.bit_length() - 1]
            mask ^= low
        return total

    n = len(order)
    masks = [sum(1 << x for x in set(operands[k])) for k in order]
    sizes = [joint(m) for m in masks]
    run = [[0] * n for _ in range(n)]   # run[i][j]: labels of i..j
    big = [[1] * n for _ in range(n)]   # big[i][j]: their joint size
    for i in range(n):
        m, total = 0, 1
        for j in range(i, n):
            common = joint(m & masks[j])
            m = run[i][j] = m ^ masks[j]
            total = big[i][j] = total * sizes[j] // common ** 2 \
                if common else joint(m)
    root = [[sqrt(x) for x in row] for row in big]
    # flops[i][j]: of the best plan for i..j; by column j in col_*
    flops = [[0.0] * n for _ in range(n)]
    split = [[0] * n for _ in range(n)]
    for j in range(1, n):
        col_f = [0.0] * n
        col_r = [r[j] for r in run]
        col_s = [r[j] for r in root]
        for i in range(j - 1, -1, -1):
            out = big[i][j]
            found = float("inf")
            if out <= largest:
                twice = 2.0 * root[i][j]
                row_f, row_r, row_s = flops[i], run[i], root[i]
                for k in range(i, j):
                    f = row_f[k] + col_f[k + 1]
                    if row_r[k] & col_r[k + 1]:
                        f += twice * row_s[k] * col_s[k + 1]
                    else:
                        f += out
                    if f < found:
                        found, split[i][j] = f, k
            flops[i][j] = col_f[i] = found
    plan: Plan = []

    def emit(i: int, j: int) -> None:
        if i < j:
            k = split[i][j]
            emit(i, k)
            emit(k + 1, j)
            plan.append((order[i], order[k + 1]))
    if n:
        emit(0, n - 1)
    return plan


def best(operands: Sequence[Sequence[int]], size: Sequence[int],
         order: Sequence[int]) -> tuple[Plan, tuple[int, int]]:
    """The plan of fewest FLOPs among the `sweep` in `order`, `greedy`
    under both tie-breaks and `slices` over `order`, of those that hold no
    larger intermediate than the sweep (on a tie, the first in that list);
    with its `cost`.  `slices` is tried only when the best of the first
    three costs at least `_SEARCH_FROM` FLOPs."""
    chosen = sweep(order) if operands else []
    found = chosen, cost(operands, size, chosen)
    cap = found[1][1]

    def keep(chosen: Plan) -> None:
        nonlocal found
        flops, largest = cost(operands, size, chosen)
        if (flops, largest) < found[1] and largest <= cap:
            found = chosen, (flops, largest)

    if len(operands) > 2:
        keep(greedy(operands, size))
        keep(greedy(operands, size, True))
        if found[1][0] >= _SEARCH_FROM and len(operands) <= _SLICES_MOST:
            keep(slices(operands, size, order, cap))
    return found
