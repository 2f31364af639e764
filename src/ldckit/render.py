"""DOT rendering of circuits."""
from __future__ import annotations

import itertools
import re
from typing import Iterator

from .circuit import Circuit
from .objects import pretty

_SHAPES = {
    "gen": "circle", "tensor_intro": "triangle", "tensor_elim": "invtriangle",
    "par_intro": "triangle", "par_elim": "invtriangle",
    "top_intro": "circle", "top_elim": "circle",
    "bot_intro": "circle", "bot_elim": "circle", "swap": "point",
}

_LABELS = {
    "tensor_intro": "*I", "tensor_elim": "*E", "par_intro": "+I",
    "par_elim": "+E", "top_intro": "T", "top_elim": "T",
    "bot_intro": "_|_", "bot_elim": "_|_", "swap": "x",
}


# node ids drawn as `id:<id>`: those that could read as a boundary end
# (`in<i>`, `out<i>`), a box interior's name (`b<k>.`) or an escaped id
_ESCAPED = re.compile(r"in\d|out\d|b\d+\.|id:")


def render_dot(c: Circuit) -> bytes:
    """The Graphviz dot drawing of `c`.  A dagger box is a cluster holding
    its interior, whose node names carry a prefix `b<k>.` numbered in the
    order the boxes are drawn, so names stay short and unique, whatever the
    ids (`_ESCAPED`), and the drawing is linear at any nesting depth."""
    lines = ["digraph circuit {", "  rankdir=TB;"]
    _body(c, "", "  ", lines, itertools.count())
    lines.append("}")
    return ("\n".join(lines) + "\n").encode()


def _body(c: Circuit, prefix: str, pad: str, lines: list[str],
          boxes: Iterator[int]) -> None:
    """Append the lines of `c` to `lines`, each indented by `pad`, its
    names prefixed by `prefix`; `boxes` numbers the box interiors."""
    # a string with a backslash is an HTML string, where a backslash is
    # plain text: DOT reads the \" that ends a quoted "f\" as an escaped
    # quote.  Quoted names then hold none, so the two forms never meet
    q = lambda s: ("<" + s.replace("&", "&amp;").replace("<", "&lt;")
                   .replace(">", "&gt;") + ">" if "\\" in s
                   else '"' + s.replace('"', '\\"') + '"')
    node = lambda nid: prefix + ("id:" if _ESCAPED.match(nid) else "") + nid
    for i, w in enumerate(c.inputs):
        lines.append(f"{pad}{q(prefix + 'in' + str(i))} "
                     f"[shape=plaintext, label={q('in ' + str(i))}];")
    for i, w in enumerate(c.outputs):
        lines.append(f"{pad}{q(prefix + 'out' + str(i))} "
                     f"[shape=plaintext, label={q('out ' + str(i))}];")
    for nid, n in c.nodes.items():
        name = node(nid)
        if n.kind == "dagger_box":
            # every interior is indented once, whatever its depth
            inner = "    "
            lines.append(f"{pad}subgraph {q('cluster_' + name)} {{")
            lines.append(f"{inner}label={q('dagger')};")
            _body(n.inner, f"b{next(boxes)}.", inner, lines, boxes)
            lines.append(f"{pad}}}")
            lines.append(f"{pad}{q(name)} [shape=box, "
                         f"label={q('dagger box')}];")
        else:
            label = n.name if n.kind == "gen" else _LABELS[n.kind]
            lines.append(f"{pad}{q(name)} [shape={_SHAPES[n.kind]}, "
                         f"label={q(label)}];")

    ins = {w: f"{prefix}in{i}" for i, w in enumerate(c.inputs)}
    outs = {w: f"{prefix}out{i}" for i, w in enumerate(c.outputs)}

    def producer(w: str) -> str:
        p = c.producer(w)
        return ins[w] if p is None else node(p)

    for w, t in c.wires.items():
        p = c.consumer(w)
        dst = outs[w] if p is None else node(p)
        lines.append(f"{pad}{q(producer(w))} -> {q(dst)} "
                     f"[label={q(pretty(t))}];")
    # thinning links, drawn dotted against the anchor wire's producer
    for nid, n in c.nodes.items():
        if n.thin is not None:
            lines.append(f"{pad}{q(node(nid))} -> {q(producer(n.thin))} "
                         "[style=dotted, arrowhead=none];")
