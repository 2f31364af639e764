"""Oriented circuit rewrites.

The reduction rules erase an introduction node meeting the matching
elimination node (for the tensor, par, and both units).  The same equalities
read the other way are exposed through `expand_wire`, which replaces a wire
by its elimination-then-introduction pair; for the units the inserted pair
is thinned onto itself, exactly the drawn configuration.  `normalize` erases
both orientations' redex shapes, so expanding a wire and normalizing returns
the original circuit.
"""
from __future__ import annotations

from typing import Callable, Optional

from .circuit import Circuit, Node, fresh_node, fresh_wire
from .errors import NotExpandable
from .objects import Bot, Par, Tensor, Top


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


def _unused_wire(c: Circuit) -> str:
    """A fresh wire id avoiding the circuit's existing ids (which may come
    from a parsed document rather than the in-process counter)."""
    while True:
        w = fresh_wire()
        if w not in c.wires:
            return w


def _unused_node(c: Circuit) -> str:
    while True:
        n = fresh_node()
        if n not in c.nodes:
            return n


def expand_wire(c: Circuit, wire: str) -> Circuit:
    """Replace a wire by its elimination-then-introduction pair."""
    if wire not in c.wires:
        raise NotExpandable(wire, "no such wire")
    t = c.wires[wire]
    e = _Editable(c)
    w2 = _unused_wire(c)

    def reroute_consumer() -> None:
        cons = c.consumer(wire)
        if cons is None:
            e.outputs = [w2 if w == wire else w for w in e.outputs]
        else:
            n = e.nodes[cons]
            e.nodes[cons] = Node(
                kind=n.kind,
                ins=tuple(w2 if w == wire else w for w in n.ins),
                outs=n.outs, name=n.name, dom=n.dom, cod=n.cod,
                thin=n.thin, inner=n.inner)

    if isinstance(t, (Tensor, Par)):
        a, b = _unused_wire(c), _unused_wire(c)
        e.wires[a], e.wires[b], e.wires[w2] = t.left, t.right, t
        elim = "tensor_elim" if isinstance(t, Tensor) else "par_elim"
        intro = "tensor_intro" if isinstance(t, Tensor) else "par_intro"
        reroute_consumer()
        e.nodes[_unused_node(c)] = Node(kind=elim, ins=(wire,), outs=(a, b))
        e.nodes[_unused_node(c)] = Node(kind=intro, ins=(a, b), outs=(w2,))
    elif isinstance(t, Top):
        e.wires[w2] = t
        reroute_consumer()
        e.nodes[_unused_node(c)] = Node(kind="top_elim", ins=(wire,), outs=(),
                                     thin=w2)
        e.nodes[_unused_node(c)] = Node(kind="top_intro", ins=(), outs=(w2,))
    elif isinstance(t, Bot):
        e.wires[w2] = t
        reroute_consumer()
        e.nodes[_unused_node(c)] = Node(kind="bot_elim", ins=(wire,), outs=())
        e.nodes[_unused_node(c)] = Node(kind="bot_intro", ins=(), outs=(w2,),
                                     thin=wire)
    else:
        raise NotExpandable(wire, f"type {t} is atomic here")
    return e.to_circuit()
