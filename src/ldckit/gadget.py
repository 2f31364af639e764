"""Role-tagged bundles of objects and morphisms instantiating a structure.
A gadget stores each role in its field (`model.in_field`), decided once,
and its object and role tables are mappings of formulas and matrices, its
env a `ModelEnv`; an exponential is typed by `Bang` or `Quest`."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (LdcError, MissingRole, ResourceLimit, SchemaError,
                     count)
from .io import matrix_from_json, matrix_to_json
from .model import ModelEnv, _dim, _table, in_field
from .objects import (Bang, ObjectExpr, Quest, factors, type_from_json,
                      type_to_json)


@dataclass
class Gadget:
    kind: str
    objects: dict[str, ObjectExpr]
    morphisms: dict[str, np.ndarray]
    env: ModelEnv
    # None only; kept while the benchmark's inputs pass it, then deleted
    gradings: None = None

    def __post_init__(self) -> None:
        _table(self.objects, "an object table")
        self.morphisms = {role: in_field(m) for role, m in
                          _table(self.morphisms, "a role table").items()}
        if not isinstance(self.env, ModelEnv):
            raise LdcError(f"a gadget's env is a ModelEnv, got {self.env!r}")
        for role, t in self.objects.items():
            try:   # a formula at every depth
                type_to_json(t)
            except TypeError as exc:
                raise LdcError(f"object {role!r}: {exc}") from None
        if self.gradings is not None:
            raise LdcError("gradings are read from the objects' bang and "
                           f"quest types, got {self.gradings!r}")

    def object(self, role: str) -> ObjectExpr:
        if role not in self.objects:
            raise MissingRole(role)
        return self.objects[role]

    def morphism(self, role: str) -> np.ndarray:
        if role not in self.morphisms:
            raise MissingRole(role)
        return self.morphisms[role]

    def has(self, *roles: str) -> bool:
        return all(r in self.morphisms for r in roles)

    def with_morphisms(self, **extra: np.ndarray) -> "Gadget":
        return Gadget(self.kind, dict(self.objects),
                      {**self.morphisms, **extra}, self.env)


def _exponential(objects: Mapping[str, ObjectExpr]) -> bool:
    """Whether an object of the table has a `Bang` or `Quest` factor."""
    return any(isinstance(f, (Bang, Quest))
               for t in objects.values() for f in factors(t))


def gadget_to_json(g: Gadget) -> dict:
    doc = {
        "kind": g.kind,
        "objects": {role: type_to_json(t) for role, t in g.objects.items()},
        "morphisms": {role: matrix_to_json(m)
                      for role, m in g.morphisms.items()},
        "atoms": {name: {"dim": dim, "basis": list(labels)}
                  for name, (dim, labels) in g.env.atoms.items()},
    }
    if _exponential(g.objects):
        doc["degree"] = g.env.degree
    return doc


def gadget_from_json(doc: object) -> Gadget:
    """The gadget of a JSON document.  A document over an exponential (a
    `bang` or `quest` object) states its `degree`, the bound of the
    multiset bases; any other may state one."""
    if not isinstance(doc, dict):
        raise SchemaError("gadget document must be an object")
    for key in ("kind", "objects", "morphisms", "atoms"):
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
    if "gradings" in doc:
        raise SchemaError("'gradings' is no longer read: rebuild the gadget "
                          "and re-save it with gadget_to_json, which types "
                          "its objects {\"bang\": ...} with a \"degree\"")
    for key in ("objects", "morphisms", "atoms"):
        if not isinstance(doc[key], dict):
            raise SchemaError(f"{key} must be an object")
    for name, spec in doc["atoms"].items():
        if not isinstance(spec, dict) or "dim" not in spec:
            raise SchemaError(f"atom {name!r} must be an object with a dim")
    objects = {role: type_from_json(t)
               for role, t in doc["objects"].items()}
    morphisms = {role: matrix_from_json(m)
                 for role, m in doc["morphisms"].items()}
    if "degree" not in doc and _exponential(objects):
        raise SchemaError("a gadget document over an exponential must "
                          "state its 'degree', the bound of its multiset "
                          "bases")
    degree = count(doc.get("degree", ModelEnv.degree), "a document's degree "
                   "is a nonnegative integer", error=SchemaError)
    try:   # the constructor checks the atom table
        env = ModelEnv(atoms={
            name: (spec["dim"], spec.get("basis")
                   or [str(i) for i in range(_dim(name, spec["dim"]))])
            for name, spec in doc["atoms"].items()}, degree=degree)
    except ResourceLimit:
        raise
    except LdcError as exc:
        raise SchemaError(str(exc)) from None
    return Gadget(str(doc["kind"]), objects, morphisms, env)
