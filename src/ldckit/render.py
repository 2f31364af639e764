"""DOT rendering of circuits."""
from __future__ import annotations

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


def render_dot(c: Circuit) -> bytes:
    lines = ["digraph circuit {", "  rankdir=TB;"]
    lines += _body(c, prefix="")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode()


def _body(c: Circuit, prefix: str) -> list[str]:
    lines = []
    q = lambda s: '"' + s.replace('"', '\\"') + '"'
    for i, w in enumerate(c.inputs):
        lines.append(f"  {q(prefix + 'in' + str(i))} "
                     f"[shape=plaintext, label={q('in ' + str(i))}];")
    for i, w in enumerate(c.outputs):
        lines.append(f"  {q(prefix + 'out' + str(i))} "
                     f"[shape=plaintext, label={q('out ' + str(i))}];")
    for nid, n in c.nodes.items():
        name = prefix + nid
        if n.kind == "dagger_box":
            lines.append(f"  subgraph {q('cluster_' + name)} {{")
            lines.append(f"    label={q('dagger')};")
            lines += ["  " + ln for ln in _body(n.inner, prefix=name + ".")]
            lines.append("  }")
            lines.append(f"  {q(name)} [shape=box, label={q('dagger box')}];")
        else:
            label = n.name if n.kind == "gen" else _LABELS[n.kind]
            lines.append(f"  {q(name)} [shape={_SHAPES[n.kind]}, "
                         f"label={q(label)}];")

    def endpoint(role: str, w: str) -> str:
        if role == "prod":
            p = c.producer(w)
            if p is not None:
                return prefix + p
            return prefix + "in" + str(c.inputs.index(w))
        p = c.consumer(w)
        if p is not None:
            return prefix + p
        return prefix + "out" + str(c.outputs.index(w))

    for w, t in c.wires.items():
        src = endpoint("prod", w)
        dst = endpoint("cons", w)
        lines.append(f"  {q(src)} -> {q(dst)} [label={q(pretty(t))}];")
    # thinning links, drawn dotted against the anchor wire's producer
    for nid, n in c.nodes.items():
        if n.thin is not None:
            anchor = endpoint("prod", n.thin)
            lines.append(f"  {q(prefix + nid)} -> {q(anchor)} "
                         "[style=dotted, arrowhead=none];")
    return lines
