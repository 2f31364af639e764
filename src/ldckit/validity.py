"""Circuit correctness by box merging.

Components are progressively enclosed in boxes: introduction nodes for the
tensor and elimination nodes for the par start boxed, bare wires and unit
nodes are boxable, boxes joined by exactly one attachment merge, and a box
eats an adjacent tensor-elimination or par-introduction when both branch
wires already lie in it.  Thinning-linked unit nodes are eaten by a box
their anchor wire attaches to.  The circuit is correct precisely when a
single box (or a bare wire) remains.

`validate` runs in near-linear time in the size of the circuit: it keeps
box membership, the attachment counts between boxes and the pending nodes
watching each box up to date as it goes, so no step rescans the circuit.
Its trace is fixed: each step takes the least legal move in tuple order,
`(rule, node, box)` for an absorption and `("c", box, box)` for a merge,
with names compared as strings.  So legal ⊗E absorptions (`b1`) come
first, then ⅋I absorptions (`b2`), merges (`c`) and unit absorptions
(`e1`, `e3`).
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional

from .circuit import Circuit

# rule labels for initial boxing, per node kind
_INITIAL_RULE = {
    "tensor_intro": "a1", "par_elim": "a2",
    "bot_elim": "d1", "top_intro": "d2",
    "gen": "gen", "dagger_box": "gen",
}

_ABSORB_RULE = {
    "tensor_elim": "b1", "par_intro": "b2",
    "top_elim": "e1", "bot_intro": "e3",
}


@dataclass
class BoxState:
    """Partition of nodes and wire segments into boxes."""
    boxes: dict[str, tuple[set[str], set[str]]] = field(default_factory=dict)
    pending: list[str] = field(default_factory=list)  # unabsorbed nodes

    def summary(self) -> dict:
        return {
            "boxes": {b: {"nodes": sorted(ns), "wires": sorted(ws)}
                      for b, (ns, ws) in self.boxes.items()},
            "unabsorbed": sorted(self.pending),
        }


@dataclass
class ValidityReport:
    valid: bool
    trace: list[dict]
    stuck: Optional[dict] = None


class _Graph:
    """Circuit view with symmetries dissolved into wire identifications."""

    def __init__(self, c: Circuit):
        self.nodes: dict[str, str] = {}       # node id -> kind
        self.branches: dict[str, list[str]] = {}
        self.anchors: dict[str, str] = {}
        swaps = {nid for nid, n in c.nodes.items() if n.kind == "swap"}
        rep: dict[str, str] = {}

        def forward(w: str) -> str:
            cur = w
            while True:
                cons = c.consumer(cur)
                if cons is None or cons not in swaps:
                    return cur
                node = c.nodes[cons]
                cur = node.outs[1] if cur == node.ins[0] else node.outs[0]

        self.edges: dict[str, tuple] = {}
        for w in c.wires:
            prod = c.producer(w)
            if prod is not None and prod in swaps:
                continue  # interior segment of a dissolved symmetry chain
            end = forward(w)
            cons = c.consumer(end)
            ep_a = ("node", prod) if prod is not None else ("bnd",)
            ep_b = ("node", cons) if cons is not None else ("bnd",)
            self.edges[w] = (ep_a, ep_b)
            cur = w
            rep[cur] = w
            while cur != end:
                node = c.nodes[c.consumer(cur)]
                cur = node.outs[1] if cur == node.ins[0] else node.outs[0]
                rep[cur] = w

        for nid, n in c.nodes.items():
            if n.kind == "swap":
                continue
            self.nodes[nid] = n.kind
            if n.kind == "tensor_elim":
                self.branches[nid] = [rep[w] for w in n.outs]
            elif n.kind == "par_intro":
                self.branches[nid] = [rep[w] for w in n.ins]
            if n.thin is not None:
                self.anchors[nid] = rep[n.thin]


class _Box:
    """One box of the worklist: its members, its attachment counts to the
    other boxes, and the pending nodes that may become absorbable into it
    (a ⊗E/⅋I with a branch wire inside, a unit whose anchor touches it)."""
    __slots__ = ("name", "nodes", "wires", "conn", "watch")

    def __init__(self, name: str, nodes: set[str], wires: set[str]):
        self.name = name
        self.nodes = nodes
        self.wires = wires
        self.conn: dict[_Box, int] = {}
        self.watch: list[str] = []

    def weight(self) -> int:
        return len(self.nodes) + len(self.wires) + len(self.conn) \
            + len(self.watch)


def validate(c: Circuit) -> ValidityReport:
    """Run the boxing procedure on `c`, each step taking the least legal
    move, as the module docstring orders them.  Moves wait in a heap; one
    is pushed when it may have become legal (an attachment count reaching
    1, both branch wires meeting in a box, an anchor wire gaining a box) or
    when a merge renames its box, and is checked again when popped.  A
    merge moves the lighter box into the heavier one."""
    g = _Graph(c)
    trace: list[dict] = []
    boxes: dict[str, _Box] = {}
    node_box: dict[str, _Box] = {}
    wire_box: dict[str, _Box] = {}
    pending: set[str] = set()
    heap: list[tuple] = []
    incident: dict[str, list[str]] = {nid: [] for nid in g.nodes}
    anchored: dict[str, list[str]] = {}   # wire -> units anchored on it
    for eid, ends in g.edges.items():
        for ep in ends:
            if ep[0] == "node":
                incident[ep[1]].append(eid)
    for nid, a in g.anchors.items():
        anchored.setdefault(a, []).append(nid)

    def push_merge(b: _Box, x: _Box) -> None:
        heapq.heappush(heap, ("c",) + ((b.name, x.name) if b.name < x.name
                                       else (x.name, b.name)))

    def new_box(nodes: set[str], wires: set[str]) -> _Box:
        b = _Box(f"b{len(boxes)}", nodes, wires)
        boxes[b.name] = b
        return b

    def attaches(nid: str, b: _Box) -> bool:
        if g.nodes[nid] in ("tensor_elim", "par_intro"):
            e1, e2 = g.branches[nid]
            return wire_box[e1] is b and wire_box[e2] is b
        a = g.anchors[nid]
        return wire_box[a] is b or any(
            ep[0] == "node" and node_box.get(ep[1]) is b
            for ep in g.edges[a])

    def wake(b: _Box, nids: list[str]) -> None:
        for nid in nids:
            if nid in pending and attaches(nid, b):
                heapq.heappush(heap, (_ABSORB_RULE[g.nodes[nid]], nid,
                                      b.name))

    def settle(nid: str, b: _Box) -> None:
        """Node `nid` has joined `b`: count its attachments and wake the
        units anchored on its wires."""
        for e in incident[nid]:
            x = wire_box[e]
            if x is not b:
                k = b.conn[x] = x.conn[b] = b.conn.get(x, 0) + 1
                if k == 1:
                    push_merge(b, x)
            units = anchored.get(e, ())
            b.watch.extend(units)
            wake(b, units)

    def merge(n1: str, n2: str) -> None:
        b1, b2 = boxes[n1], boxes.pop(n2)
        big, small = (b1, b2) if b1.weight() >= b2.weight() else (b2, b1)
        renamed = big is b2
        big.name = n1
        boxes[n1] = big
        del big.conn[small]
        for x, k in small.conn.items():
            if x is not big:
                del x.conn[small]
                k = big.conn[x] = x.conn[big] = big.conn.get(x, 0) + k
                if k == 1 and not renamed:
                    push_merge(big, x)
        for nid in small.nodes:
            node_box[nid] = big
        for w in small.wires:
            wire_box[w] = big
        big.nodes |= small.nodes
        big.wires |= small.wires
        if renamed:
            for x, k in big.conn.items():
                if k == 1:
                    push_merge(big, x)
            wake(big, big.watch)
        wake(big, small.watch)
        big.watch.extend(small.watch)

    for nid in sorted(g.nodes):
        kind = g.nodes[nid]
        if kind in _ABSORB_RULE:
            pending.add(nid)
        else:
            b = node_box[nid] = new_box({nid}, set())
            trace.append({"rule": _INITIAL_RULE[kind],
                          "node": nid, "box": b.name})
    for eid in sorted(g.edges):
        b = wire_box[eid] = new_box(set(), {eid})
        trace.append({"rule": "d3", "wire": eid, "box": b.name})
    for nid in sorted(pending):
        for e in g.branches.get(nid) or [g.anchors[nid]]:
            wire_box[e].watch.append(nid)
            wake(wire_box[e], [nid])
    for nid, b in node_box.items():
        settle(nid, b)

    while heap:
        move = heapq.heappop(heap)
        if move[0] == "c":
            _, n1, n2 = move
            if n1 in boxes and n2 in boxes \
                    and boxes[n1].conn.get(boxes[n2]) == 1:
                merge(n1, n2)
                trace.append({"rule": "c", "boxes": [n1, n2]})
        else:
            rule, nid, name = move
            b = boxes.get(name)
            if nid in pending and b is not None and attaches(nid, b):
                pending.remove(nid)
                b.nodes.add(nid)
                node_box[nid] = b
                settle(nid, b)
                trace.append({"rule": rule, "node": nid, "box": name})

    valid = len(boxes) <= 1 and not pending
    stuck = None
    if not valid:
        cuts = sorted((b.name, x.name, k) for b in boxes.values()
                      for x, k in b.conn.items() if b.name < x.name)
        state = BoxState({n: (b.nodes, b.wires) for n, b in boxes.items()},
                         list(pending))
        stuck = state.summary() | {"cuts": [
            {"boxes": [n1, n2], "attachments": k} for n1, n2, k in cuts]}
    return ValidityReport(valid=valid, trace=trace, stuck=stuck)
