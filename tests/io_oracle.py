"""The matrix writer as it was before entries travelled as base64, kept
verbatim as the source of documents in the `data` form that
`ldckit.io.matrix_from_json` still reads.

Every entry is one JSON pair `[re, im]` of floats, row-major.
`gadget_to_pair_json` is `ldckit.gadget.gadget_to_json` with this writer
in place of the current one.
"""
from __future__ import annotations

import numpy as np

from ldckit.errors import SchemaError
from ldckit.gadget import Gadget, gadget_to_json


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise SchemaError("matrix must be two-dimensional")
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [[float(v.real), float(v.imag)] for v in m.reshape(-1)],
    }


def gadget_to_pair_json(g: Gadget) -> dict:
    doc = gadget_to_json(g)
    doc["morphisms"] = {role: matrix_to_json(m)
                        for role, m in g.morphisms.items()}
    return doc
