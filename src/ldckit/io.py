"""JSON formats for circuits and matrices."""
from __future__ import annotations

import base64
import json
from typing import Callable, TypeVar

import numpy as np

from .circuit import _STRUCTURAL, Circuit, Node
from .errors import (CircuitSyntaxError, LdcError, SchemaError, count, finite,
                     shaped)
from .model import in_field
from .objects import type_from_json, type_to_json

T = TypeVar("T")


def serialize(c: Circuit) -> bytes:
    """The JSON document of `c` on one line: one dict, dagger box interiors
    nested in place, written in one pass of the C encoder, so its size is
    linear in the circuit at any nesting depth (`python -m json.tool`
    indents it for reading)."""
    try:
        return json.dumps(_circuit_to_json(c),
                          separators=(",", ":")).encode()
    except RecursionError:
        raise LdcError("circuit nested too deeply to write as JSON") \
            from None


def _circuit_to_json(c: Circuit) -> dict:
    nodes = []
    for nid in c.topo_order():
        n = c.nodes[nid]
        entry: dict = {"kind": n.kind, "ports": list(n.ins + n.outs)}
        if n.name is not None:
            entry["name"] = n.name
        if n.thin is not None:
            entry["thin"] = n.thin
        if n.inner is not None:
            entry["inner"] = _circuit_to_json(n.inner)
        nodes.append(entry)
    return {
        "wires": [{"id": w, "type": type_to_json(t)}
                  for w, t in c.wires.items()],
        "nodes": nodes,
        "inputs": list(c.inputs),
        "outputs": list(c.outputs),
    }


def _read_document(text: bytes | str, build: Callable[[object], T],
                   error: type[LdcError], what: str) -> T:
    """`build` applied to the JSON document `text`, which must be UTF-8 if
    it is bytes.  Text that is not UTF-8 or not JSON, or a `what` nested
    too deeply to read or build, is refused with `error`."""
    try:
        if isinstance(text, bytes):
            text = text.decode()
        return build(json.loads(text))
    except UnicodeDecodeError as exc:
        raise error(
            f"byte {exc.start}: not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise error(f"line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise error(f"{what} nested too deeply") from None


def parse(text: bytes | str) -> Circuit:
    return _read_document(text, _circuit_from_json, CircuitSyntaxError,
                          "document")


def _circuit_from_json(doc: object) -> Circuit:
    if not isinstance(doc, dict):
        raise SchemaError("circuit document must be an object")
    for key in ("wires", "nodes", "inputs", "outputs"):
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
        if not isinstance(doc[key], list):
            raise SchemaError(f"{key} must be a list")
    wires = {}
    for entry in doc["wires"]:
        if not isinstance(entry, dict) or "id" not in entry \
                or "type" not in entry:
            raise SchemaError(f"bad wire entry: {entry!r}")
        wid = entry["id"]
        if not isinstance(wid, str):
            raise SchemaError(f"wire id must be a string: {wid!r}")
        if wid in wires:
            raise SchemaError(f"duplicate wire id {wid!r}")
        wires[wid] = type_from_json(entry["type"])

    inputs = _wire_refs(doc["inputs"], wires, "boundary")
    outputs = _wire_refs(doc["outputs"], wires, "boundary")

    raw_nodes = doc["nodes"]
    for entry in raw_nodes:
        if not isinstance(entry, dict) or "kind" not in entry \
                or "ports" not in entry:
            raise SchemaError(f"bad node entry: {entry!r}")
        if not isinstance(entry["kind"], str):
            raise SchemaError(f"bad node kind: {entry['kind']!r}")
        if entry.get("name") is not None \
                and not isinstance(entry["name"], str):
            raise SchemaError(f"bad node name: {entry['name']!r}")
        _wire_refs(entry["ports"], wires, "node")
        if entry.get("thin") is not None:
            _wire_refs([entry["thin"]], wires, "thinning anchor")

    # Wire directions: circuit inputs are produced by the boundary, outputs
    # consumed by it; fixed-arity kinds declare their port split.  Generator
    # ports are inferred from the opposite endpoint of each wire; a wire
    # between two generators is oriented from the earlier node in the list.
    produced: dict[str, tuple] = {}
    consumed: dict[str, tuple] = {}
    for w in inputs:
        produced[w] = ("boundary",)
    for w in outputs:
        consumed[w] = ("boundary",)
    gen_ports: list[tuple[int, list[str]]] = []
    gens_on: dict[str, list[int]] = {}   # wire -> generators, in list order
    split_nodes: dict[int, tuple[list[str], list[str]]] = {}
    inners: dict[int, Circuit] = {}
    for idx, entry in enumerate(raw_nodes):
        kind, ports = entry["kind"], list(entry["ports"])
        if kind in _STRUCTURAL:
            n_in, n_out = _STRUCTURAL[kind][:2]
            if len(ports) != n_in + n_out:
                raise SchemaError(f"{kind} node takes {n_in + n_out} ports")
            ins, outs = ports[:n_in], ports[n_in:]
        elif kind == "dagger_box":
            if "inner" not in entry:
                raise SchemaError("dagger_box node needs an inner circuit")
            inner = inners[idx] = _circuit_from_json(entry["inner"])
            n_in, n_out = len(inner.outputs), len(inner.inputs)
            if len(ports) != n_in + n_out:
                raise SchemaError("dagger_box port count does not match "
                                  "its inner circuit boundary")
            ins, outs = ports[:n_in], ports[n_in:]
        elif kind == "gen":
            gen_ports.append((idx, ports))
            for w in ports:
                gens_on.setdefault(w, []).append(idx)
            continue
        else:
            raise SchemaError(f"unknown node kind {kind!r}")
        split_nodes[idx] = _claimed(consumed, produced, idx, ins, outs)

    for idx, ports in gen_ports:
        ins, outs = [], []
        for w in ports:
            if w in produced and produced[w] != ("node", idx):
                ins.append(w)
            elif w in consumed and consumed[w] != ("node", idx):
                outs.append(w)
            else:
                # wire between two generators: earlier node produces
                other = [j for j in gens_on[w] if j != idx]
                if not other:
                    raise SchemaError(f"wire {w!r} has a dangling endpoint")
                (ins if other[0] < idx else outs).append(w)
        split_nodes[idx] = _claimed(consumed, produced, idx, ins, outs)

    nodes = {}
    for idx, entry in enumerate(raw_nodes):
        ins, outs = split_nodes[idx]
        nodes[f"n{idx}"] = Node(
            kind=entry["kind"], ins=tuple(ins), outs=tuple(outs),
            name=entry.get("name"), thin=entry.get("thin"),
            inner=inners.get(idx))
    return Circuit(wires, nodes, inputs, outputs)


def _wire_refs(refs: object, wires: dict, what: str) -> list[str]:
    """`refs` as a list of ids of wires in `wires`."""
    if not isinstance(refs, list):
        raise SchemaError(f"{what} wires must be a list: {refs!r}")
    for w in refs:
        if not isinstance(w, str):
            raise SchemaError(f"{what} wire id must be a string: {w!r}")
        if w not in wires:
            raise SchemaError(f"{what} references dangling wire {w!r}")
    return refs


def _claimed(consumed: dict, produced: dict, idx: int, ins: list[str],
             outs: list[str]) -> tuple[list[str], list[str]]:
    """Enter node `idx` as the consumer of `ins` and the producer of
    `outs`; returns both."""
    for table, ends in ((consumed, ins), (produced, outs)):
        for w in ends:
            if w in table:
                raise SchemaError(f"wire {w!r} has two endpoints of the "
                                  "same polarity")
            table[w] = ("node", idx)
    return ins, outs


# -- matrices --------------------------------------------------------------

# Each entry type of the `base64` encoding: its name in a document and its
# little-endian NumPy dtype.
_ENTRY_DTYPES = {"float64": "<f8", "complex128": "<c16"}


def matrix_to_json(m: np.ndarray) -> dict:
    """The document of a two-dimensional matrix: `rows`, `cols`, and the
    entries, row-major, as the standard `base64` of their little-endian
    bytes.  Their `dtype` is float64 when every imaginary part is zero (the
    rule of `model.in_field`), complex128 otherwise."""
    m = shaped(in_field(m), (None, None), "matrix must be two-dimensional",
               SchemaError)
    dtype = "float64" if m.dtype == float else "complex128"
    raw = m.astype(_ENTRY_DTYPES[dtype], copy=False).tobytes()
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "dtype": dtype,
        "base64": base64.b64encode(raw).decode("ascii"),
    }


def matrix_from_json(doc: object) -> np.ndarray:
    """The matrix of a matrix document, in the document's own entry type.
    Its entries are either `base64` of `dtype` entries, as `matrix_to_json`
    writes them, which give a float64 or a complex128 matrix, or `data`, a
    list of pairs [re, im] of numbers, as it wrote them before, which give a
    complex128 one.  A `Gadget` narrows a role whose imaginary part is all
    zero to float64."""
    if not isinstance(doc, dict) or not {"rows", "cols"} <= set(doc):
        # not the document itself, which may hold megabytes of entries
        raise SchemaError("a matrix document is an object with rows and "
                          "cols")
    rows, cols = (count(doc[key], "matrix rows and cols must be "
                        "nonnegative integers", error=SchemaError)
                  for key in ("rows", "cols"))
    if ("base64" in doc) == ("data" in doc):
        raise SchemaError("a matrix document holds its entries in exactly "
                          "one of base64 and data")
    if "base64" in doc:
        vals = _base64_entries(doc["base64"], doc.get("dtype"), rows * cols)
    else:
        vals = _pair_entries(doc["data"], rows * cols)
    return finite(vals, SchemaError).reshape(rows, cols)


def _base64_entries(text: object, dtype: object, n: int) -> np.ndarray:
    """The `n` entries of a `base64` encoding, as a new native array of
    `dtype`."""
    if not isinstance(dtype, str) or dtype not in _ENTRY_DTYPES:
        raise SchemaError(f"matrix dtype must be one of "
                          f"{sorted(_ENTRY_DTYPES)}, got {dtype!r}")
    if not isinstance(text, str):
        raise SchemaError("matrix base64 must be a string")
    entry = np.dtype(_ENTRY_DTYPES[dtype])
    nbytes = n * entry.itemsize
    wrong_size = f"matrix base64 must hold rows*cols = {n} {dtype} entries"
    # the padded length first, so that nothing is decoded for a document
    # whose shape and payload disagree
    if len(text) != 4 * -(-nbytes // 3):
        raise SchemaError(wrong_size)
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:   # binascii.Error, or a non-ASCII character
        raise SchemaError("matrix base64 is not valid base64") from None
    if len(raw) != nbytes:
        raise SchemaError(wrong_size)
    return np.frombuffer(raw, entry).astype(dtype)


def _pair_entries(data: object, n: int) -> np.ndarray:
    """The `n` entries of a `data` list of pairs, as a complex128 array."""
    if not isinstance(data, list) or len(data) != n:
        raise SchemaError("matrix data must be a list of rows*cols entries")
    not_pairs = "matrix entries must be pairs [re, im] of numbers"
    try:
        pairs = np.array(data) if data else np.zeros((0, 2))
    except ValueError:  # ragged entries
        raise SchemaError(not_pairs) from None
    if pairs.shape != (n, 2) or pairs.dtype.kind not in "iuf":
        raise SchemaError(not_pairs)
    # each row (re, im) of float64 is one complex128
    return np.ascontiguousarray(pairs, dtype=float).view(complex).reshape(n)
