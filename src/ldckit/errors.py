"""Shared error types, and the rules for a count and a finite matrix."""
from __future__ import annotations

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


def finite(m: np.ndarray, error: type[LdcError] = LdcError) -> np.ndarray:
    """`m`, if none of its entries is NaN or infinite."""
    if not np.isfinite(m).all():
        raise error("matrix entries must be finite")
    return m
