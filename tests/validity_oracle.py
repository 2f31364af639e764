"""The boxing procedure as first written, kept as the reference that
`ldckit.validity.validate` is tested against.

After every move it recounts the attachments between every pair of boxes
and sorts all legal moves, so it takes roughly cubic time; the tests use it
on small and medium circuits only.  With no `rng` it must agree with
`ldckit.validity.validate` on `valid`, `trace` and `stuck`; with an `rng` it
picks a random legal move at each step, and only the verdict is comparable.
"""
from __future__ import annotations

import random
from typing import Optional

from ldckit.circuit import Circuit
from ldckit.validity import (_ABSORB_RULE, _INITIAL_RULE, BoxState, _Graph,
                             ValidityReport)


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
