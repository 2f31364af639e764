"""Circuit correctness by box merging.

Components are progressively enclosed in boxes: introduction nodes for the
tensor and elimination nodes for the par start boxed, bare wires and unit
nodes are boxable, boxes joined by exactly one attachment merge, and a box
eats an adjacent tensor-elimination or par-introduction when both branch
wires already attach to it.  Thinning-linked unit nodes are eaten by the box
holding their anchor wire.  The circuit is correct precisely when a single
box (or a bare wire) remains.
"""
from __future__ import annotations

import random
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


def validate(c: Circuit, rng: Optional[random.Random] = None) \
        -> ValidityReport:
    g = _Graph(c)
    state = BoxState()
    trace: list[dict] = []
    counter = 0

    def new_box(nodes: set[str], wires: set[str]) -> str:
        nonlocal counter
        bid = f"b{counter}"
        counter += 1
        state.boxes[bid] = (nodes, wires)
        return bid

    for nid in sorted(g.nodes):
        kind = g.nodes[nid]
        if kind in _ABSORB_RULE:
            state.pending.append(nid)
        else:
            bid = new_box({nid}, set())
            trace.append({"rule": _INITIAL_RULE[kind],
                          "node": nid, "box": bid})
    for eid in sorted(g.edges):
        bid = new_box(set(), {eid})
        trace.append({"rule": "d3", "wire": eid, "box": bid})

    def connections(b1: str, b2: str) -> int:
        n1, w1 = state.boxes[b1]
        n2, w2 = state.boxes[b2]
        count = 0
        for e in w1:
            for ep in g.edges[e]:
                if ep[0] == "node" and ep[1] in n2:
                    count += 1
        for e in w2:
            for ep in g.edges[e]:
                if ep[0] == "node" and ep[1] in n1:
                    count += 1
        return count

    def edge_attaches(e: str, b: str) -> bool:
        nodes, wires = state.boxes[b]
        if e in wires:
            return True
        return any(ep[0] == "node" and ep[1] in nodes for ep in g.edges[e])

    def candidates() -> list[tuple]:
        moves = []
        boxes = sorted(state.boxes)
        for i, b1 in enumerate(boxes):
            for b2 in boxes[i + 1:]:
                if connections(b1, b2) == 1:
                    moves.append(("c", b1, b2))
        for nid in state.pending:
            kind = g.nodes[nid]
            if kind in ("tensor_elim", "par_intro"):
                e1, e2 = g.branches[nid]
                for b in boxes:
                    _, wires = state.boxes[b]
                    if e1 in wires and e2 in wires:
                        moves.append((_ABSORB_RULE[kind], nid, b))
            else:  # thinning-linked unit node
                anchor = g.anchors[nid]
                for b in boxes:
                    if edge_attaches(anchor, b):
                        moves.append((_ABSORB_RULE[kind], nid, b))
        return moves

    while True:
        moves = candidates()
        if not moves:
            break
        moves.sort()
        move = moves[0] if rng is None else rng.choice(moves)
        if move[0] == "c":
            _, b1, b2 = move
            n2, w2 = state.boxes.pop(b2)
            state.boxes[b1][0].update(n2)
            state.boxes[b1][1].update(w2)
            trace.append({"rule": "c", "boxes": [b1, b2]})
        else:
            rule, nid, b = move
            state.pending.remove(nid)
            state.boxes[b][0].add(nid)
            trace.append({"rule": rule, "node": nid, "box": b})

    valid = len(state.boxes) <= 1 and not state.pending
    stuck = None
    if not valid:
        boxes = sorted(state.boxes)
        cuts = []
        for i, b1 in enumerate(boxes):
            for b2 in boxes[i + 1:]:
                k = connections(b1, b2)
                if k:
                    cuts.append({"boxes": [b1, b2], "attachments": k})
        stuck = state.summary() | {"cuts": cuts}
    return ValidityReport(valid=valid, trace=trace, stuck=stuck)


def validate_all_orders(c: Circuit, seeds: list[int]) -> bool:
    """True when the boxing verdict is independent of worklist order over
    the given seeds (and matches the deterministic order)."""
    base = validate(c).valid
    for seed in seeds:
        if validate(c, rng=random.Random(seed)).valid != base:
            return False
    return True
