"""Shared error types, and one rule per kind of argument: a count, an
array of numbers, a finite matrix, a matrix shape, a list of basis labels
and a tolerance.  Each is called where its argument enters the package,
and no other module refuses a value of these kinds by a check of its
own."""
from __future__ import annotations

import math

import numpy as np


class LdcError(Exception):
    """Base class for all package errors."""


class TypeMismatch(LdcError):
    def __init__(self, position: int, expected: object, found: object):
        super().__init__(f"type mismatch at position {position}: "
                         f"expected {expected}, found {found}")
        self.position = position
        self.expected = expected
        self.found = found


class IllTyped(LdcError):
    def __init__(self, node_id: str, message: str):
        super().__init__(f"node {node_id}: {message}")
        self.node_id = node_id


class SchemaError(LdcError):
    pass


class CircuitSyntaxError(LdcError):
    pass


class NotExpandable(LdcError):
    def __init__(self, wire_id: str, message: str = ""):
        super().__init__(f"wire {wire_id} cannot be expanded"
                         + (f": {message}" if message else ""))
        self.wire_id = wire_id


class UnboundAtom(LdcError):
    def __init__(self, name: str):
        super().__init__(f"atom {name!r} has no dimension assigned")
        self.name = name


class UnassignedGenerator(LdcError):
    def __init__(self, name: str):
        super().__init__(f"generator {name!r} has no matrix assigned")
        self.name = name


class ShapeMismatch(LdcError):
    pass


class NotIdempotent(LdcError):
    def __init__(self, residual: float):
        super().__init__(f"matrix is not idempotent (residual {residual:.3e})")
        self.residual = residual


class MissingRole(LdcError):
    def __init__(self, role: str):
        super().__init__(f"gadget is missing role {role!r}")
        self.role = role


class SuiteFailure(LdcError):
    def __init__(self, suite: str, detail: str = ""):
        super().__init__(f"suite {suite} failed"
                         + (f": {detail}" if detail else ""))
        self.suite = suite


class NotAComonoid(LdcError):
    def __init__(self, residual: float):
        super().__init__(f"comonoid laws violated (residual {residual:.3e})")
        self.residual = residual


class LiftFailure(LdcError):
    pass


class ResourceLimit(LdcError):
    def __init__(self, limit: str, needed: object, allowed: object):
        super().__init__(f"{limit}: needs {needed}, the limit is {allowed}")
        self.limit = limit
        self.needed = needed
        self.allowed = allowed


# The most entries of any dense array that ldckit allocates: 2**27 complex
# entries are 2 GiB, and 2**27 real ones 1 GiB.
MAX_ENTRIES = 2 ** 27

# The most entries of an index table of Python objects (`multiset._Shape`):
# at 93-173 bytes an entry, up to 256, it fits in MAX_ENTRIES complex ones.
MAX_TABLE_ENTRIES = MAX_ENTRIES // 16


def check_entries(what: str, entries: int) -> None:
    """Refuse, before allocating it, a dense array of more than
    MAX_ENTRIES entries."""
    if entries > MAX_ENTRIES:
        raise ResourceLimit(f"{what} (dense entries)", entries, MAX_ENTRIES)


def count(value: object, rule: str, floor: int = 0,
          error: type[Exception] = LdcError) -> int:
    """`value` as an int, if it is an integer, not a bool, of at least
    `floor`; otherwise `error("<rule>, got <value>")`."""
    if isinstance(value, bool) \
            or not isinstance(value, (int, np.integer)) or value < floor:
        raise error(f"{rule}, got {value!r}")
    return int(value)


def numbers(value: object) -> np.ndarray:
    """`value` read as an array, if it is one or a rectangular nesting of
    numbers (bools, integers, reals or complex numbers); otherwise
    `LdcError`.  Only the dtype's kind is tested, in constant time."""
    try:
        m = np.asarray(value)
    except ValueError:   # nested sequences of unequal lengths
        raise LdcError("matrix rows must be of one length, got a ragged "
                       "nesting") from None
    if m.dtype.kind not in "biufc":
        raise LdcError(f"matrix entries must be numbers, got {m.dtype} "
                       f"entries")
    return m


def finite(m: np.ndarray, error: type[LdcError] = LdcError) -> np.ndarray:
    """`m`, if none of its entries is NaN or infinite."""
    # count_nonzero, not .all(): the reduction's set-up dominates on the
    # small matrices of every gadget load and bang_matrix call
    if np.count_nonzero(np.isfinite(m)) != m.size:
        raise error("matrix entries must be finite")
    return m


def shaped(value: object, want: tuple, message: str,
           error: type[LdcError] = ShapeMismatch) -> np.ndarray:
    """`value` read as an array of numbers (`numbers`), if its shape
    matches `want`, a tuple of extents in which None matches any; otherwise
    `error(message)`, with `{want}` and `{shape}` in it read as `want` and
    the shape found."""
    m = numbers(value)
    if m.shape != want and (m.ndim != len(want) or any(
            w is not None and w != n for w, n in zip(want, m.shape))):
        raise error(message.replace("{want}", str(want))
                    .replace("{shape}", str(m.shape)))
    return m


def string_labels(value: object, rule: str) -> tuple[str, ...]:
    """`value` as a tuple, if it is a list or tuple of strings; otherwise
    `LdcError("<rule>, got <value>")`."""
    if not isinstance(value, (list, tuple)) \
            or not all(isinstance(x, str) for x in value):
        raise LdcError(f"{rule}, got {value!r}")
    return tuple(value)


def tolerance(value: object, error: type[Exception] = LdcError) -> float:
    """`value` as a float, if it is a real number, not a bool, finite and
    at least 0; otherwise `error("tolerance must be ..., got <value>")`."""
    # `type(...) is not bool` as bool has no subclasses, and it is quicker
    real = isinstance(value, (float, int, np.floating, np.integer)) \
        and type(value) is not bool
    try:
        tol = float(value) if real else math.nan
    except OverflowError:   # an int past the largest float
        tol = math.inf
    if not 0 <= tol < math.inf:
        raise error(f"tolerance must be a finite number of at least 0, "
                    f"got {value!r}")
    return tol
