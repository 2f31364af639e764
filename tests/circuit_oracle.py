"""The circuit builders as first written, kept as the references that
`ldckit.circuit` is tested against.

`seq` and `par` fold their parts pairwise through `compose` and
`tensor_parallel`, and each of those copies both operands under fresh ids
and validates the result.  `permutation` bubbles the target order into
place and composes one layer per adjacent swap.  Building `seq` of n parts
takes time quadratic in n, so the tests use them on small circuits only.
`rescanning_permutation` draws the same symmetries as
`ldckit.circuit.permutation` but looks for each one from position 0, and
finds each input's position with `list.index`, so it is quadratic in the
wires at least.

`isomorphic` recurses once per node and re-sorts the second circuit's
nodes at every step, so it is quadratic and raises `RecursionError` on
circuits of about a thousand nodes.

`CheckedCircuit` types each node by the branch of its kind, as
`Circuit._check_node` did before the node-kind table, and `parse_one`
reads a document of one node by the port counts of the parser's own
table `ARITY`, as `io.parse` did.
"""
from __future__ import annotations

import itertools
import json
from collections import Counter
from typing import Sequence

from ldckit.circuit import (Circuit, Node, fresh_node, fresh_wire, identity,
                            swap)
from ldckit.errors import IllTyped, SchemaError, TypeMismatch
from ldckit.io import parse
from ldckit.objects import (Bot, ObjectExpr, Par, Tensor, Top, dagger_of,
                            type_from_json)


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


def rescanning_permutation(types: Sequence[ObjectExpr],
                           order: Sequence[int]) -> Circuit:
    """`permutation` as one circuit of symmetries, each exchanging the
    first adjacent pair still out of order, found by a scan from 0."""
    n = len(types)
    if sorted(order) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {order}")
    wires = {fresh_wire(): t for t in types}
    inputs = list(wires)
    line = list(inputs)
    dest = [list(order).index(i) for i in range(n)]
    nodes = {}
    while True:
        j = next((j for j in range(n - 1) if dest[j] > dest[j + 1]), None)
        if j is None:
            return Circuit(wires, nodes, inputs, line)
        outs = (fresh_wire(), fresh_wire())
        wires[outs[0]], wires[outs[1]] = wires[line[j + 1]], wires[line[j]]
        nodes[fresh_node()] = Node(kind="swap", ins=tuple(line[j:j + 2]),
                                   outs=outs)
        line[j:j + 2] = outs
        dest[j:j + 2] = dest[j + 1], dest[j]


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


# -- node typing and port splitting, one branch per kind ---------------------

NODE_KINDS = (
    "gen", "tensor_intro", "tensor_elim", "par_intro", "par_elim",
    "top_intro", "top_elim", "bot_intro", "bot_elim", "swap", "dagger_box",
)

ARITY = {
    "tensor_intro": (2, 1), "tensor_elim": (1, 2),
    "par_intro": (2, 1), "par_elim": (1, 2),
    "top_intro": (0, 1), "top_elim": (1, 0),
    "bot_intro": (0, 1), "bot_elim": (1, 0),
    "swap": (2, 2),
}


class CheckedCircuit(Circuit):
    """`Circuit` with each node typed by the branch of its kind."""

    def _check_node(self, nid: str, node: Node) -> None:
        if node.kind not in NODE_KINDS:
            raise IllTyped(nid, f"unknown node kind {node.kind!r}")
        for w in node.ports():
            if w not in self.wires:
                raise IllTyped(nid, f"port references unknown wire {w}")
        tin = tuple(self.wires[w] for w in node.ins)
        tout = tuple(self.wires[w] for w in node.outs)
        k = node.kind
        if k == "gen":
            if node.name is None:
                raise IllTyped(nid, "generator node needs a name")
            dom = node.dom if node.dom is not None else tin
            cod = node.cod if node.cod is not None else tout
            if tuple(dom) != tin or tuple(cod) != tout:
                raise IllTyped(nid, "generator signature does not match "
                                    "port wire types")
        elif k == "tensor_intro":
            if len(tin) != 2 or len(tout) != 1 or \
                    tout[0] != Tensor(tin[0], tin[1]):
                raise IllTyped(nid, "tensor introduction must be "
                                    "(A, B) -> A*B")
        elif k == "tensor_elim":
            if len(tin) != 1 or len(tout) != 2 or \
                    tin[0] != Tensor(tout[0], tout[1]):
                raise IllTyped(nid, "tensor elimination must be "
                                    "A*B -> (A, B)")
        elif k == "par_intro":
            if len(tin) != 2 or len(tout) != 1 or \
                    tout[0] != Par(tin[0], tin[1]):
                raise IllTyped(nid, "par introduction must be (A, B) -> A+B")
        elif k == "par_elim":
            if len(tin) != 1 or len(tout) != 2 or \
                    tin[0] != Par(tout[0], tout[1]):
                raise IllTyped(nid, "par elimination must be A+B -> (A, B)")
        elif k == "top_intro":
            if tin or len(tout) != 1 or not isinstance(tout[0], Top):
                raise IllTyped(nid, "top introduction must be () -> T")
        elif k == "top_elim":
            if len(tin) != 1 or tout or not isinstance(tin[0], Top):
                raise IllTyped(nid, "top elimination must be T -> ()")
            if node.thin is None or node.thin not in self.wires:
                raise IllTyped(nid, "top elimination needs an existing "
                                    "thinning anchor wire")
        elif k == "bot_intro":
            if tin or len(tout) != 1 or not isinstance(tout[0], Bot):
                raise IllTyped(nid, "bot introduction must be () -> _|_")
            if node.thin is None or node.thin not in self.wires:
                raise IllTyped(nid, "bot introduction needs an existing "
                                    "thinning anchor wire")
        elif k == "bot_elim":
            if len(tin) != 1 or tout or not isinstance(tin[0], Bot):
                raise IllTyped(nid, "bot elimination must be _|_ -> ()")
        elif k == "swap":
            if len(tin) != 2 or len(tout) != 2 or \
                    (tout[0], tout[1]) != (tin[1], tin[0]):
                raise IllTyped(nid, "symmetry must be (A, B) -> (B, A)")
        elif k == "dagger_box":
            if node.inner is None:
                raise IllTyped(nid, "dagger box needs an inner circuit")
            want_in = tuple(dagger_of(t)
                            for t in reversed(node.inner.output_types()))
            want_out = tuple(dagger_of(t)
                             for t in reversed(node.inner.input_types()))
            if tin != want_in or tout != want_out:
                raise IllTyped(nid, "dagger box boundary must mirror the "
                                    "daggered inner boundary")



def parse_one(doc: dict) -> Circuit:
    """What `io.parse` makes of a well-formed document of one node whose
    ports and anchor name listed wires: its ports split by `ARITY` (a
    generator's by the boundary, a dagger box's by its inner circuit),
    each wire claimed by one producer and one consumer, and the circuit
    checked by `CheckedCircuit`."""
    wires = {w["id"]: type_from_json(w["type"]) for w in doc["wires"]}
    inputs, outputs = doc["inputs"], doc["outputs"]
    (entry,) = doc["nodes"]
    kind, ports = entry["kind"], entry["ports"]
    inner = None
    if kind in ARITY:
        n_in, n_out = ARITY[kind]
        if len(ports) != n_in + n_out:
            raise SchemaError(f"{kind} node takes {n_in + n_out} ports")
    elif kind == "dagger_box":
        inner = parse(json.dumps(entry["inner"]))
        n_in = len(inner.outputs)
        if len(ports) != n_in + len(inner.inputs):
            raise SchemaError("dagger_box port count does not match "
                              "its inner circuit boundary")
    elif kind != "gen":
        raise SchemaError(f"unknown node kind {kind!r}")
    if kind == "gen":
        ins, outs = [], []
        for w in ports:
            if w in inputs:
                ins.append(w)
            elif w in outputs:
                outs.append(w)
            else:
                raise SchemaError(f"wire {w!r} has a dangling endpoint")
    else:
        ins, outs = ports[:n_in], ports[n_in:]
    for taken, ends in ((list(outputs), ins), (list(inputs), outs)):
        for w in ends:
            if w in taken:
                raise SchemaError(f"wire {w!r} has two endpoints of the "
                                  "same polarity")
            taken.append(w)
    node = Node(kind, tuple(ins), tuple(outs), name=entry.get("name"),
                thin=entry.get("thin"), inner=inner)
    return CheckedCircuit(wires, {"n0": node}, inputs, outputs)
