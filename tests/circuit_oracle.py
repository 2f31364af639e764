"""The circuit builders as first written, kept as the references that
`ldckit.circuit` is tested against.

`seq` and `par` fold their parts pairwise through `compose` and
`tensor_parallel`, and each of those copies both operands under fresh ids
and validates the result.  `permutation` bubbles the target order into
place and composes one layer per adjacent swap.  Building `seq` of n parts
takes time quadratic in n, so the tests use them on small circuits only.

`isomorphic` recurses once per node and re-sorts the second circuit's
nodes at every step, so it is quadratic and raises `RecursionError` on
circuits of about a thousand nodes.
"""
from __future__ import annotations

import itertools
from collections import Counter
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


def _node_signature(c: Circuit, nid: str) -> tuple:
    n = c.nodes[nid]
    inner_sig = None
    if n.inner is not None:
        inner_sig = (tuple(n.inner.input_types()),
                     tuple(n.inner.output_types()),
                     len(n.inner.nodes), len(n.inner.wires))
    return (n.kind, n.name, len(n.ins), len(n.outs),
            tuple(c.wires[w] for w in n.ins),
            tuple(c.wires[w] for w in n.outs),
            n.thin is not None, inner_sig)


def isomorphic(c1: Circuit, c2: Circuit) -> bool:
    """Port-graph isomorphism respecting boundary order, wire types, node
    kinds/names, port order, and thinning anchors.  Backtracking search;
    intended for the small circuits this package manipulates."""
    if (c1.input_types() != c2.input_types()
            or c1.output_types() != c2.output_types()
            or len(c1.wires) != len(c2.wires)
            or len(c1.nodes) != len(c2.nodes)):
        return False
    if Counter(_node_signature(c1, n) for n in c1.nodes) != \
            Counter(_node_signature(c2, n) for n in c2.nodes):
        return False

    wire_map: dict[str, str] = {}
    node_map: dict[str, str] = {}

    def match_wire(w1: str, w2: str) -> bool:
        if w1 in wire_map:
            return wire_map[w1] == w2
        if w2 in wire_map.values():
            return False
        if c1.wires[w1] != c2.wires[w2]:
            return False
        wire_map[w1] = w2
        return True

    for a, b in itertools.chain(zip(c1.inputs, c2.inputs),
                                zip(c1.outputs, c2.outputs)):
        if not match_wire(a, b):
            return False

    nodes1 = sorted(c1.nodes)
    used2: set[str] = set()

    def try_node(i: int, saved_wm: dict[str, str]) -> bool:
        if i == len(nodes1):
            return all(_thin_ok(n1) for n1 in nodes1)
        n1 = nodes1[i]
        s1 = _node_signature(c1, n1)
        for n2 in sorted(c2.nodes):
            if n2 in used2 or _node_signature(c2, n2) != s1:
                continue
            snapshot = dict(wire_map)
            ok = True
            for w1, w2 in zip(c1.nodes[n1].ports(), c2.nodes[n2].ports()):
                if not match_wire(w1, w2):
                    ok = False
                    break
            if ok and c1.nodes[n1].inner is not None:
                ok = isomorphic(c1.nodes[n1].inner, c2.nodes[n2].inner)
            if ok:
                node_map[n1] = n2
                used2.add(n2)
                if try_node(i + 1, snapshot):
                    return True
                used2.discard(n2)
                del node_map[n1]
            wire_map.clear()
            wire_map.update(snapshot)
        return False

    def _thin_ok(n1: str) -> bool:
        t1 = c1.nodes[n1].thin
        if t1 is None:
            return True
        t2 = c2.nodes[node_map[n1]].thin
        return t1 in wire_map and wire_map[t1] == t2

    return try_node(0, dict(wire_map))
