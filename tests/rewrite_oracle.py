"""The normalizer as first written, kept as the reference that
`ldckit.rewrite.normalize` is tested against.

`normalize` looks for the first redex in topological order, copies the
circuit into an `_Editable`, erases that one redex and builds and checks a
new `Circuit`, once per redex.  `_find_redex` writes each rule out as its
own branch and scans every node for thinning anchors, so normalizing takes
time quadratic in the circuit size.
"""
from __future__ import annotations

from typing import Callable, Optional

from ldckit.circuit import Circuit


class _Editable:
    def __init__(self, c: Circuit):
        self.wires = dict(c.wires)
        self.nodes = dict(c.nodes)
        self.inputs = list(c.inputs)
        self.outputs = list(c.outputs)

    def merge_wires(self, keep: str, gone: str) -> None:
        """Fuse two dangling wire stubs left by a deleted redex."""
        if keep == gone:
            return
        for nid, n in list(self.nodes.items()):
            if gone in n.ins or gone in n.outs or n.thin == gone:
                self.nodes[nid] = n.rewired({gone: keep})
        self.inputs = [keep if w == gone else w for w in self.inputs]
        self.outputs = [keep if w == gone else w for w in self.outputs]
        del self.wires[gone]

    def drop(self, *node_ids: str) -> None:
        for nid in node_ids:
            del self.nodes[nid]

    def to_circuit(self) -> Circuit:
        return Circuit(self.wires, self.nodes, self.inputs, self.outputs)


def _find_redex(c: Circuit) -> Optional[Callable[[_Editable], None]]:
    for nid in c.topo_order():
        n = c.nodes[nid]
        if n.kind in ("top_intro", "bot_intro"):
            w = n.outs[0]
            cons = c.consumer(w)
            want = "top_elim" if n.kind == "top_intro" else "bot_elim"
            if cons is not None and c.nodes[cons].kind == want:
                other_thin = [t for t, m in c.nodes.items()
                              if m.thin == w and t != nid and t != cons]
                if not other_thin:
                    def apply(e: _Editable, i=nid, j=cons, wire=w) -> None:
                        e.drop(i, j)
                        del e.wires[wire]
                    return apply
        if n.kind in ("tensor_intro", "par_intro"):
            w = n.outs[0]
            cons = c.consumer(w)
            want = "tensor_elim" if n.kind == "tensor_intro" else "par_elim"
            if cons is not None and c.nodes[cons].kind == want:
                j = c.nodes[cons]
                if not [t for t, m in c.nodes.items() if m.thin == w]:
                    def apply(e: _Editable, i=nid, jn=cons, wire=w,
                              pairs=tuple(zip(n.ins, j.outs))) -> None:
                        e.drop(i, jn)
                        del e.wires[wire]
                        for keep, gone in pairs:
                            e.merge_wires(keep, gone)
                    return apply
        if n.kind in ("tensor_elim", "par_elim"):
            a, b = n.outs
            cons = c.consumer(a)
            want = "tensor_intro" if n.kind == "tensor_elim" else "par_intro"
            if cons is not None and c.nodes[cons].kind == want \
                    and c.nodes[cons].ins == (a, b):
                j = c.nodes[cons]
                thins = [t for t, m in c.nodes.items()
                         if m.thin in (a, b)]
                if not thins:
                    def apply(e: _Editable, i=nid, jn=cons,
                              win=n.ins[0], wout=j.outs[0],
                              dead=(a, b)) -> None:
                        e.drop(i, jn)
                        for w in dead:
                            del e.wires[w]
                        e.merge_wires(win, wout)
                    return apply
        if n.kind == "top_elim":
            t = n.thin
            prod = c.producer(t)
            if prod is not None and c.nodes[prod].kind == "top_intro":
                others = [x for x, m in c.nodes.items()
                          if m.thin == t and x != nid]
                if not others:
                    def apply(e: _Editable, i=nid, j=prod,
                              win=n.ins[0], wout=t) -> None:
                        e.drop(i, j)
                        e.merge_wires(win, wout)
                    return apply
        if n.kind == "bot_intro":
            a = n.thin
            cons = c.consumer(a)
            if cons is not None and c.nodes[cons].kind == "bot_elim":
                others = [x for x, m in c.nodes.items()
                          if m.thin == a and x != nid]
                if not others:
                    def apply(e: _Editable, i=nid, j=cons,
                              keep=a, wout=n.outs[0]) -> None:
                        e.drop(i, j)
                        e.merge_wires(keep, wout)
                    return apply
    return None


def normalize(c: Circuit) -> Circuit:
    """Erase redexes until none remains.  Deterministic innermost-leftmost
    strategy over the topological node order; every step removes two nodes,
    so the process terminates."""
    while True:
        redex = _find_redex(c)
        if redex is None:
            return c
        e = _Editable(c)
        redex(e)
        c = e.to_circuit()
