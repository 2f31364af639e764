"""The circuit builders as first written, kept as the references that
`ldckit.circuit` is tested against.

`seq` and `par` fold their parts pairwise through `compose` and
`tensor_parallel`, and each of those copies both operands under fresh ids
and validates the result.  `permutation` bubbles the target order into
place and composes one layer per adjacent swap.  Building `seq` of n parts
takes time quadratic in n, so the tests use them on small circuits only.
"""
from __future__ import annotations

from typing import Sequence

from ldckit.circuit import (Circuit, Node, fresh_node, fresh_wire, identity,
                            swap)
from ldckit.errors import TypeMismatch
from ldckit.objects import ObjectExpr


def _fresh_copy(c: Circuit) -> Circuit:
    wire_map = {w: fresh_wire() for w in c.wires}
    node_map = {n: fresh_node() for n in c.nodes}
    return _renamed(c, wire_map, node_map)


def _renamed(c: Circuit, wire_map: dict[str, str],
             node_map: dict[str, str]) -> Circuit:
    def rw(w: str) -> str:
        return wire_map.get(w, w)

    wires = {rw(w): t for w, t in c.wires.items()}
    nodes = {}
    for nid, node in c.nodes.items():
        nodes[node_map.get(nid, nid)] = Node(
            kind=node.kind,
            ins=tuple(rw(w) for w in node.ins),
            outs=tuple(rw(w) for w in node.outs),
            name=node.name, dom=node.dom, cod=node.cod,
            thin=rw(node.thin) if node.thin is not None else None,
            inner=node.inner)
    return Circuit(wires, nodes,
                   [rw(w) for w in c.inputs],
                   [rw(w) for w in c.outputs])


def compose(f: Circuit, g: Circuit) -> Circuit:
    """Plug f's outputs into g's inputs, position-wise."""
    fo, gi = f.output_types(), g.input_types()
    if len(fo) != len(gi):
        raise TypeMismatch(len(fo), f"{len(fo)} wires", f"{len(gi)} wires")
    for i, (a, b) in enumerate(zip(fo, gi)):
        if a != b:
            raise TypeMismatch(i, a, b)
    f = _fresh_copy(f)
    g = _fresh_copy(g)
    glue = dict(zip(g.inputs, f.outputs))
    g = _renamed(g, glue, {})
    wires = dict(f.wires)
    wires.update(g.wires)
    nodes = dict(f.nodes)
    nodes.update(g.nodes)
    return Circuit(wires, nodes, f.inputs, g.outputs)


def tensor_parallel(f: Circuit, g: Circuit) -> Circuit:
    """Disjoint union with concatenated boundaries."""
    f = _fresh_copy(f)
    g = _fresh_copy(g)
    wires = dict(f.wires)
    wires.update(g.wires)
    nodes = dict(f.nodes)
    nodes.update(g.nodes)
    return Circuit(wires, nodes, f.inputs + g.inputs, f.outputs + g.outputs)


def seq(first: Circuit, *rest: Circuit) -> Circuit:
    out = first
    for c in rest:
        out = compose(out, c)
    return out


def par(first: Circuit, *rest: Circuit) -> Circuit:
    out = first
    for c in rest:
        out = tensor_parallel(out, c)
    return out


def permutation(types: Sequence[ObjectExpr],
                order: Sequence[int]) -> Circuit:
    """Circuit mapping input i to output position order.index(i), built from
    adjacent symmetries.  `order[j]` is the input index appearing at output j.
    """
    n = len(types)
    if sorted(order) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {order}")
    current = list(range(n))
    result = identity(types)
    target = list(order)
    # bubble target into place with adjacent swaps
    while current != target:
        for j in range(n - 1):
            # current positions j, j+1; desired relative order per target
            if target.index(current[j]) > target.index(current[j + 1]):
                layer_types = [types[i] for i in current]
                layer = (par(identity(layer_types[:j]),
                             swap(layer_types[j], layer_types[j + 1]),
                             identity(layer_types[j + 2:]))
                         if n > 2 else swap(layer_types[0], layer_types[1]))
                result = compose(result, layer)
                current[j], current[j + 1] = current[j + 1], current[j]
                break
    return result
