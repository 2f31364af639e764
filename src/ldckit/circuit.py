"""Typed open circuit graphs.

A circuit is a port graph: wires carry object formulas, nodes are the
introduction/elimination structure for the two tensors and their units,
thinning-linked unit nodes, symmetries, named generators, and dagger boxes.
Every wire has exactly one producer endpoint and one consumer endpoint,
where the circuit boundary counts as an endpoint.  Flow is acyclic.
"""
from __future__ import annotations

import itertools
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .errors import IllTyped, TypeMismatch
from .objects import ObjectExpr, Tensor, Par, Top, Bot, dagger_of, factors

NODE_KINDS = (
    "gen", "tensor_intro", "tensor_elim", "par_intro", "par_elim",
    "top_intro", "top_elim", "bot_intro", "bot_elim", "swap", "dagger_box",
)


@dataclass(frozen=True)
class Node:
    kind: str
    ins: tuple[str, ...]
    outs: tuple[str, ...]
    name: Optional[str] = None
    dom: Optional[tuple[ObjectExpr, ...]] = None
    cod: Optional[tuple[ObjectExpr, ...]] = None
    thin: Optional[str] = None
    inner: Optional["Circuit"] = None

    def ports(self) -> tuple[str, ...]:
        return self.ins + self.outs

    def rewired(self, wire_map: Mapping[str, str]) -> "Node":
        """This node with its ports and thinning anchor renamed through
        `wire_map` (ids it lacks are kept)."""
        def rw(ws: tuple[str, ...]) -> tuple[str, ...]:
            return tuple(wire_map.get(w, w) for w in ws)
        thin = None if self.thin is None else wire_map.get(self.thin,
                                                           self.thin)
        return Node(self.kind, rw(self.ins), rw(self.outs), self.name,
                    self.dom, self.cod, thin, self.inner)


class Circuit:
    """Immutable typed port graph with an ordered boundary."""

    def __init__(self,
                 wires: dict[str, ObjectExpr],
                 nodes: dict[str, Node],
                 inputs: Sequence[str],
                 outputs: Sequence[str]):
        self.wires = dict(wires)
        self.nodes = dict(nodes)
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self._check()
        # model.evaluate's compiled contractions, by factor dimensions
        self._programs: dict = {}

    # -- structural views -------------------------------------------------

    def input_types(self) -> tuple[ObjectExpr, ...]:
        return tuple(self.wires[w] for w in self.inputs)

    def output_types(self) -> tuple[ObjectExpr, ...]:
        return tuple(self.wires[w] for w in self.outputs)

    def producer(self, w: str) -> Optional[str]:
        """Node id producing wire w, or None when w is a circuit input."""
        return self._producers.get(w)

    def consumer(self, w: str) -> Optional[str]:
        """Node id consuming wire w, or None when w is a circuit output."""
        return self._consumers.get(w)

    def nested(self) -> list["Circuit"]:
        """It and the circuits inside its dagger boxes, at any depth."""
        out = [self]
        for c in out:   # grows while it is walked
            out += (n.inner for n in c.nodes.values() if n.inner is not None)
        return out

    @cached_property
    def factors(self) -> tuple[ObjectExpr, ...]:
        """The distinct Kronecker factors (`objects.factors`) of its wires
        and of the wires inside its dagger boxes, in first-seen order."""
        return tuple(dict.fromkeys(f for c in self.nested()
                                   for t in c.wires.values()
                                   for f in factors(t)))

    @cached_property
    def generator_names(self) -> frozenset[str]:
        """Names of its generators, inside dagger boxes too."""
        return frozenset(n.name for c in self.nested()
                         for n in c.nodes.values() if n.kind == "gen")

    # -- validation -------------------------------------------------------

    def _check(self) -> None:
        producers: dict[str, str] = {}
        consumers: dict[str, str] = {}
        for w in self.wires:
            if not isinstance(w, str) or not w:
                raise IllTyped(str(w), "wire ids must be nonempty strings")
        seen_in = set()
        for w in self.inputs:
            if w not in self.wires:
                raise IllTyped(w, "boundary input references unknown wire")
            if w in seen_in:
                raise IllTyped(w, "wire appears twice among inputs")
            seen_in.add(w)
        seen_out = set()
        for w in self.outputs:
            if w not in self.wires:
                raise IllTyped(w, "boundary output references unknown wire")
            if w in seen_out:
                raise IllTyped(w, "wire appears twice among outputs")
            seen_out.add(w)

        for nid, node in self.nodes.items():
            self._check_node(nid, node)
            for w in node.ins:
                if w in consumers:
                    raise IllTyped(nid, f"wire {w} consumed twice")
                consumers[w] = nid
            for w in node.outs:
                if w in producers:
                    raise IllTyped(nid, f"wire {w} produced twice")
                producers[w] = nid

        for w in self.wires:
            has_prod = (w in producers) + (w in seen_in)
            has_cons = (w in consumers) + (w in seen_out)
            if has_prod != 1 or has_cons != 1:
                raise IllTyped(w, "wire must have exactly one producer and "
                                  "one consumer endpoint")
        self._producers = producers
        self._consumers = consumers
        self._check_acyclic()

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

    def _flow(self) -> tuple[dict[str, list[str]], dict[str, int]]:
        """Each node's successors, once per wire between them, and its
        number of incoming wires."""
        succ: dict[str, list[str]] = {nid: [] for nid in self.nodes}
        indeg = dict.fromkeys(self.nodes, 0)
        for w in self.wires:
            p, c = self._producers.get(w), self._consumers.get(w)
            if p is not None and c is not None:
                succ[p].append(c)
                indeg[c] += 1
        return succ, indeg

    def _check_acyclic(self) -> None:
        succ, indeg = self._flow()
        done = [n for n, d in indeg.items() if d == 0]
        for n in done:   # grows while it is walked
            for m in succ[n]:
                indeg[m] -= 1
                if indeg[m] == 0:
                    done.append(m)
        if len(done) != len(self.nodes):
            raise IllTyped("<circuit>", "flow graph contains a cycle")

    # -- utilities --------------------------------------------------------

    def topo_order(self) -> list[str]:
        succ, indeg = self._flow()
        order = []
        ready = sorted((n for n, d in indeg.items() if d == 0), reverse=True)
        while ready:
            n = ready.pop()
            order.append(n)
            changed = False
            for m in succ[n]:
                indeg[m] -= 1
                if indeg[m] == 0:
                    ready.append(m)
                    changed = True
            if changed:
                ready.sort(reverse=True)
        return order


# -- fresh-name plumbing ---------------------------------------------------

_counter = itertools.count()


def fresh_wire() -> str:
    return f"w{next(_counter)}"


def fresh_node() -> str:
    return f"n{next(_counter)}"


# -- builders --------------------------------------------------------------

def identity(types: Sequence[ObjectExpr]) -> Circuit:
    wires = {fresh_wire(): t for t in types}
    ids = list(wires)
    return Circuit(wires, {}, ids, ids)


def generator(name: str, dom: Sequence[ObjectExpr],
              cod: Sequence[ObjectExpr]) -> Circuit:
    return _structural("gen", dom, cod, name=name, dom=tuple(dom),
                       cod=tuple(cod))


def swap(a: ObjectExpr, b: ObjectExpr) -> Circuit:
    return _structural("swap", [a, b], [b, a])


def _place(part: Circuit, wires: dict[str, ObjectExpr],
           nodes: dict[str, Node], glued: Sequence[str] = ()
           ) -> tuple[list[str], list[str]]:
    """Copy `part` into the shared `wires` and `nodes` pools under fresh
    ids, in its own order; its inputs take the ids in `glued`, which are
    already pooled.  Returns the new ids of its inputs and outputs."""
    wire_map = dict(zip(part.inputs, glued))
    for w, t in part.wires.items():
        if w not in wire_map:
            wire_map[w] = fresh_wire()
            wires[wire_map[w]] = t
    for node in part.nodes.values():
        nodes[fresh_node()] = node.rewired(wire_map)
    return ([wire_map[w] for w in part.inputs],
            [wire_map[w] for w in part.outputs])


def seq(first: Circuit, *rest: Circuit) -> Circuit:
    """Plug each part's outputs into the next part's inputs, position-wise."""
    for f, g in zip((first,) + rest, rest):
        fo, gi = f.output_types(), g.input_types()
        if len(fo) != len(gi):
            raise TypeMismatch(len(fo), f"{len(fo)} wires",
                               f"{len(gi)} wires")
        for i, (a, b) in enumerate(zip(fo, gi)):
            if a != b:
                raise TypeMismatch(i, a, b)
    wires: dict[str, ObjectExpr] = {}
    nodes: dict[str, Node] = {}
    inputs, outputs = _place(first, wires, nodes)
    for c in rest:
        outputs = _place(c, wires, nodes, outputs)[1]
    return Circuit(wires, nodes, inputs, outputs)


def par(first: Circuit, *rest: Circuit) -> Circuit:
    """Disjoint union with concatenated boundaries."""
    wires: dict[str, ObjectExpr] = {}
    nodes: dict[str, Node] = {}
    inputs: list[str] = []
    outputs: list[str] = []
    for c in (first,) + rest:
        ins, outs = _place(c, wires, nodes)
        inputs += ins
        outputs += outs
    return Circuit(wires, nodes, inputs, outputs)


def compose(f: Circuit, g: Circuit) -> Circuit:
    """Plug f's outputs into g's inputs: `seq` of two parts."""
    return seq(f, g)


def tensor_parallel(f: Circuit, g: Circuit) -> Circuit:
    """`par` of two parts."""
    return par(f, g)


def empty() -> Circuit:
    return Circuit({}, {}, (), ())


def _structural(kind: str, tin: Sequence[ObjectExpr],
                tout: Sequence[ObjectExpr], *, name: Optional[str] = None,
                dom: Optional[tuple[ObjectExpr, ...]] = None,
                cod: Optional[tuple[ObjectExpr, ...]] = None,
                inner: Optional[Circuit] = None) -> Circuit:
    """One node of `kind` on fresh wires of the given types."""
    wi = [fresh_wire() for _ in tin]
    wo = [fresh_wire() for _ in tout]
    wires = dict(zip(wi, tin)) | dict(zip(wo, tout))
    node = Node(kind, tuple(wi), tuple(wo), name, dom, cod, inner=inner)
    return Circuit(wires, {fresh_node(): node}, wi, wo)


def tensor_intro(a: ObjectExpr, b: ObjectExpr) -> Circuit:
    return _structural("tensor_intro", [a, b], [Tensor(a, b)])


def tensor_elim(a: ObjectExpr, b: ObjectExpr) -> Circuit:
    return _structural("tensor_elim", [Tensor(a, b)], [a, b])


def par_intro(a: ObjectExpr, b: ObjectExpr) -> Circuit:
    return _structural("par_intro", [a, b], [Par(a, b)])


def par_elim(a: ObjectExpr, b: ObjectExpr) -> Circuit:
    return _structural("par_elim", [Par(a, b)], [a, b])


def top_intro() -> Circuit:
    return _structural("top_intro", [], [Top()])


def bot_elim() -> Circuit:
    return _structural("bot_elim", [Bot()], [])


def top_elim_on(carrier: ObjectExpr) -> Circuit:
    """(T, A) -> A: eliminate the unit, thinning-linked to the carrier."""
    wt, wc = fresh_wire(), fresh_wire()
    wires = {wt: Top(), wc: carrier}
    node = Node(kind="top_elim", ins=(wt,), outs=(), thin=wc)
    return Circuit(wires, {fresh_node(): node}, [wt, wc], [wc])


def bot_intro_on(carrier: ObjectExpr) -> Circuit:
    """A -> (_|_, A): introduce the unit, thinning-linked to the carrier."""
    wb, wc = fresh_wire(), fresh_wire()
    wires = {wb: Bot(), wc: carrier}
    node = Node(kind="bot_intro", ins=(), outs=(wb,), thin=wc)
    return Circuit(wires, {fresh_node(): node}, [wc], [wb, wc])


def permutation(types: Sequence[ObjectExpr],
                order: Sequence[int]) -> Circuit:
    """Circuit mapping input i to output position order.index(i), built from
    adjacent symmetries.  `order[j]` is the input index appearing at output j.
    Each symmetry exchanges the first adjacent pair still out of order.
    """
    n = len(types)
    if sorted(order) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {order}")
    wires = {fresh_wire(): t for t in types}
    inputs = list(wires)
    # the wire at each position, and the output position it is bound for
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


def dagger_box(inner: Circuit) -> Circuit:
    return _structural(
        "dagger_box", [dagger_of(t) for t in reversed(inner.output_types())],
        [dagger_of(t) for t in reversed(inner.input_types())], inner=inner)


def _redrawn(c: Circuit, rename: Mapping[str, str], how: str,
             order, redraw) -> dict[str, Node]:
    """The nodes of `c`, taken in `order`, each generator renamed through
    `rename` (names it lacks are kept) and then redrawn by `redraw`;
    the loop of `reverse` and `mirror`, which `how` names."""
    nodes = {}
    for nid in order:
        n = c.nodes[nid]
        if n.kind not in ("gen", "swap"):
            raise IllTyped(nid, f"cannot {how} a {n.kind} node")
        name = rename.get(n.name, n.name) if n.kind == "gen" else None
        nodes[nid] = redraw(n, name)
    return nodes


def reverse(c: Circuit, rename: Mapping[str, str]) -> Circuit:
    """Flip a circuit of generators and symmetries upside down: every node
    and the boundary swap inputs with outputs, and each generator is renamed
    through `rename` (names it lacks are kept).  With every renamed
    generator assigned the transpose of the original's matrix, the flipped
    circuit evaluates to the transpose.  Nodes come out in reverse order, so
    contraction meets them in the flipped flow order."""
    nodes = _redrawn(c, rename, "reverse", reversed(list(c.nodes)),
                     lambda n, name: Node(n.kind, n.outs, n.ins, name,
                                          n.cod, n.dom))
    return Circuit(c.wires, nodes, c.outputs, c.inputs)


def mirror(c: Circuit, rename: Mapping[str, str]) -> Circuit:
    """Reflect a circuit of generators and symmetries left to right: every
    node and the boundary reverse the order of their inputs and of their
    outputs, and each generator is renamed through `rename` (names it lacks
    are kept).  With every renamed generator assigned the original's matrix
    with its ports reversed, the mirror evaluates to the matrix with its
    boundary reversed.  Nodes keep their order, as the flow does."""
    def flip(ts: Optional[tuple]) -> Optional[tuple]:
        return None if ts is None else ts[::-1]
    nodes = _redrawn(c, rename, "mirror", c.nodes,
                     lambda n, name: Node(n.kind, n.ins[::-1], n.outs[::-1],
                                          name, flip(n.dom), flip(n.cod)))
    return Circuit(c.wires, nodes, c.inputs[::-1], c.outputs[::-1])


def dagger(c: Circuit) -> Circuit:
    """`reverse` with each generator n renamed n_dag and each n_dag renamed
    n.  With n_dag assigned the conjugate transpose of n's matrix, the
    result evaluates to the conjugate transpose; its dagger is c again."""
    return reverse(c, {n: n.removesuffix("_dag") if n.endswith("_dag")
                       else n + "_dag" for n in c.generator_names})


def substitute(c: Circuit, table: Mapping[str, Circuit]) -> Circuit:
    """Replace each generator whose name is in `table` by that circuit: its
    boundary is glued to the generator's ports and its nodes are inlined,
    under fresh ids, where the generator stood in node order.  Replacements
    are not substituted again; generators inside dagger boxes are kept.  A
    replacement whose boundary types differ from the generator's ports
    raises `IllTyped`, and so does one that passes a wire straight through,
    since that wire would join two of the circuit's wires into one."""
    wires = dict(c.wires)
    nodes: dict[str, Node] = {}
    for nid, n in c.nodes.items():
        sub = table.get(n.name) if n.kind == "gen" else None
        if sub is None:
            nodes[nid] = n
            continue
        if (sub.input_types(), sub.output_types()) != (
                tuple(c.wires[w] for w in n.ins),
                tuple(c.wires[w] for w in n.outs)):
            raise IllTyped(nid, f"replacement for {n.name!r} does not "
                                "match the generator's port types")
        wire_map = dict(zip(sub.inputs + sub.outputs, n.ins + n.outs))
        for w, t in sub.wires.items():
            if w not in wire_map:
                wire_map[w] = fresh_wire()
                wires[wire_map[w]] = t
        for node in sub.nodes.values():
            nodes[fresh_node()] = node.rewired(wire_map)
    return Circuit(wires, nodes, c.inputs, c.outputs)


# -- graph isomorphism -----------------------------------------------------

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


def _search_order(c: Circuit) -> list[str]:
    """c's nodes breadth first from the boundary, across ports and thinning
    anchors; a part that the boundary does not reach starts from its least
    node id.  Every other node is reached through a wire of the boundary or
    of an earlier node."""
    anchored = defaultdict(list)
    for nid, n in c.nodes.items():
        if n.thin is not None:
            anchored[n.thin].append(nid)

    def near(w: Optional[str]) -> tuple:
        return c.producer(w), c.consumer(w), *anchored[w]

    order: dict[str, None] = {}   # an insertion-ordered set
    queue = deque(m for w in c.inputs + c.outputs for m in near(w))
    for root in [*sorted(c.nodes), None]:
        while queue:
            nid = queue.popleft()
            if nid is not None and nid not in order:
                order[nid] = None
                n = c.nodes[nid]
                queue.extend(m for w in n.ports() + (n.thin,) for m in near(w))
        queue.append(root)
    return list(order)


def isomorphic(c1: Circuit, c2: Circuit) -> bool:
    """Port-graph isomorphism respecting boundary order, wire types, node
    kinds/names, port order, and thinning anchors.  Backtracking search over
    c1's nodes in `_search_order`, on an explicit stack: a node reached
    through a matched wire can only match the node at the same port of that
    wire's image (or one thinned onto it), so a circuit that the boundary
    reaches matches in time linear in its size."""
    if (c1.input_types() != c2.input_types()
            or c1.output_types() != c2.output_types()
            or len(c1.wires) != len(c2.wires)
            or len(c1.nodes) != len(c2.nodes)):
        return False
    sig1 = {n: _node_signature(c1, n) for n in c1.nodes}
    sig2 = {n: _node_signature(c2, n) for n in c2.nodes}
    if Counter(sig1.values()) != Counter(sig2.values()):
        return False
    by_sig, anchored2 = defaultdict(list), defaultdict(list)
    for n in sorted(c2.nodes):
        by_sig[sig2[n]].append(n)
        anchored2[c2.nodes[n].thin].append(n)
    wire_map: dict[str, str] = {}
    back: dict[str, str] = {}
    used: set[str] = set()

    def bind(w1: str, w2: str, trail: list[str]) -> bool:
        if w1 in wire_map:
            return wire_map[w1] == w2
        if w2 in back or c1.wires[w1] != c2.wires[w2]:
            return False
        wire_map[w1], back[w2] = w2, w1
        trail.append(w1)
        return True

    def undo(trail: list[str]) -> None:
        for w1 in trail:
            del back[wire_map.pop(w1)]

    def candidates(n1: str) -> list[str]:
        n = c1.nodes[n1]
        for i, w in enumerate(n.ports()):
            if w in wire_map:
                at = c2.consumer if i < len(n.ins) else c2.producer
                return [m for m in [at(wire_map[w])] if m is not None]
        if n.thin in wire_map:
            return anchored2[wire_map[n.thin]]
        return by_sig[sig1[n1]]

    def match(n1: str, n2: str, trail: list[str]) -> bool:
        a, b = c1.nodes[n1], c2.nodes[n2]
        return (n2 not in used and sig2[n2] == sig1[n1]
                and all(bind(x, y, trail)
                        for x, y in zip(a.ports(), b.ports()))
                and (a.thin is None or bind(a.thin, b.thin, trail))
                and (a.inner is None or isomorphic(a.inner, b.inner)))

    if not all(bind(a, b, []) for a, b in zip(c1.inputs + c1.outputs,
                                             c2.inputs + c2.outputs)):
        return False
    order = _search_order(c1)
    stack = [iter(candidates(order[0]))] if order else []
    chosen: list[tuple[str, list[str]]] = []   # matched node, wires bound
    while stack:
        n1 = order[len(chosen)]
        for n2 in stack[-1]:
            trail: list[str] = []
            if match(n1, n2, trail):
                used.add(n2)
                chosen.append((n2, trail))
                break
            undo(trail)
        else:
            stack.pop()
            if chosen:
                n2, trail = chosen.pop()
                used.discard(n2)
                undo(trail)
            continue
        if len(chosen) == len(order):
            return True
        stack.append(iter(candidates(order[len(chosen)])))
    return not order
