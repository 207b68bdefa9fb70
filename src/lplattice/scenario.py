"""Scenario documents: JSON schemas, execution, and a deterministic serializer.

Document formats (UTF-8 JSON, numbers emitted with 17 significant digits):

    space      {"p": number, "cells": [{"id": str, "weight": number}]}
    function   {"values": {cellId: number}}
    sublattice {"blocks": [{"cells": [id], "profile": {id: number}}]}
               or {"generators": [functionName]}
    scenario   {"space": ..., "functions": {name: function},
                "sublattices": {name: sublattice}, "commands": [command]}

Commands are records {"op": ..., field: value}; `_FIELDS` lists the ops, the
fields each reads and their kinds.  Commands that refine the space (realize,
extend, maharam) thread the refinement through everything registered, and
the report logs it.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Iterable

from .core import DEFAULT_TOL, Refinement, Space, StepFunction, lift, step_function
from .errors import (
    NonFiniteValue,
    ParseError,
    UnknownReference,
    ValidationError,
)
from .independence import (
    IndependenceVerdict,
    canonical_base,
    nonforking_extension,
    product_check,
    star_independent,
)
from .sublattice import Sublattice, cond_exp, dcl
from .typespace import (
    SliceProfile,
    canonical_realization,
    conditional_slice,
    distance,
    maharam_select,
    slice_profile,
    tuple_type_equal,
    type_datum,
)


# --- deterministic serializer -------------------------------------------------

def _format_number(x: float) -> str:
    if not math.isfinite(x):
        raise ValidationError(f"cannot serialize non-finite number {x!r}")
    s = format(float(x), ".17g")
    return s if "." in s or "e" in s else s + ".0"


def _encode(doc: Any, newline: str) -> str:
    """The text of `doc`; `newline` is a line break and the indent of its line."""
    kind = type(doc)
    if kind is float:
        return _format_number(doc)
    if kind is str:
        return _quote(doc)
    if kind is dict:
        if not doc:
            return "{}"
        inner = newline + "  "
        items = [_quote(str(key)) + ": " + _encode(value, inner) for key, value in doc.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not doc:
            return "[]"
        inner = newline + "  "
        items = [_encode(item, inner) for item in doc]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if doc is None:
        return "null"
    if kind is bool:
        return "true" if doc else "false"
    if kind is int:
        return str(doc)
    # subclasses (numpy.float64, OrderedDict, ...) are written as their base type
    if isinstance(doc, int):
        return str(doc)
    if isinstance(doc, float):
        return _format_number(doc)
    if isinstance(doc, str):
        return _quote(doc)
    if isinstance(doc, (list, tuple)):
        return _encode(list(doc), newline)
    if isinstance(doc, dict):
        return _encode(dict(doc.items()), newline)
    raise ValidationError(f"cannot serialize {type(doc).__name__}")


def dumps(doc: Any) -> str:
    """Serialize a report or scenario document with stable bytes."""
    return _encode(doc, "\n") + "\n"


# --- document <-> object ------------------------------------------------------

def space_to_doc(space: Space) -> dict:
    return {
        "p": space.p,
        "cells": [{"id": cid, "weight": w} for cid, w in space.cells],
    }


def _number(value: Any, path: str, key: Any = None) -> float:
    """A document number as a float; a value that float() refuses is a
    ValidationError naming its path, path.key when a key is given (built only
    then: objects of numbers hold thousands of values)."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        where = path if key is None else f"{path}.{key}"
        if isinstance(exc, OverflowError):  # an integer past the float range
            raise ValidationError(f"{where}: number past the float range") from None
        raise ValidationError(f"{where}: {value!r} is not a number") from None


def _require(doc: Any, path: str, fields: Iterable[str]) -> None:
    """A ValidationError naming path.field for the first field doc lacks."""
    for field in fields:
        if not isinstance(doc, dict) or field not in doc:
            raise ValidationError(f"{path}.{field}: missing")


def _numbers(doc: Any, path: str) -> dict[str, float]:
    """An object of numbers keyed by cell id, as floats."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: must be an object of numbers")
    return {str(k): _number(v, path, k) for k, v in doc.items()}


def space_from_doc(doc: Any) -> Space:
    _require(doc, "space", ("p", "cells"))
    cells = []
    for j, c in enumerate(_of_kind(doc["cells"], "space.cells", _LIST)):
        _require(c, f"space.cells[{j}]", ("id", "weight"))
        cells.append((str(c["id"]), _number(c["weight"], f"space.cells[{j}].weight")))
    return Space(tuple(cells), _number(doc["p"], "space.p"))


def function_to_doc(f: StepFunction) -> dict:
    return {"values": {cid: f.values[cid] for cid in f.space.ids() if cid in f.values}}


def sublattice_to_doc(C: Sublattice) -> dict:
    return {
        "blocks": [
            {
                "cells": list(block),
                "profile": {cid: C.profile[cid] for cid in block},
            }
            for block in C.blocks
        ]
    }


def profile_to_doc(prof: SliceProfile) -> dict:
    return {
        "blocks": [
            {
                "cells": list(block),
                "segments": [
                    {"length": ln, "value": v} for ln, v in prof.per_block[k]
                ],
            }
            for k, block in enumerate(prof.sublattice.blocks)
        ]
    }


def verdict_to_doc(v: IndependenceVerdict) -> dict:
    doc: dict[str, Any] = {"independent": v.independent}
    if v.witness is None:
        doc["witness"] = None
    else:
        w = v.witness
        witness: dict[str, Any] = {"kind": w.kind}
        if w.element is not None:
            witness["element"] = function_to_doc(w.element)
        if w.r is not None:
            witness["r"] = w.r
        witness["overB"] = function_to_doc(w.over_b)
        witness["overC"] = function_to_doc(w.over_c)
        witness["gap"] = w.gap
        doc["witness"] = witness
    return doc


def refinement_to_doc(r: Refinement) -> dict:
    splitting = {
        cid: [{"id": kid, "weight": w} for kid, w in kids]
        for cid, kids in ((cid, r.splitting[cid]) for cid in r.parent.ids())
        if len(kids) > 1 or kids[0][0] != cid
    }
    return {
        "splitting": splitting,
        "fresh": [
            {"id": cid, "weight": r.child.weight(cid)} for cid in r.fresh_cells
        ],
    }


# --- execution ----------------------------------------------------------------

# the kinds of value a command field can hold: (description, test)
_NAME = ("a name", lambda v: isinstance(v, str))
_NAMES = ("a list of names", lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v))
_SIDE = ("a name or a list of names", lambda v: _NAME[1](v) or _NAMES[1](v))
_NUMBER = ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool))
_CELLS = ("a list of cells", lambda v: isinstance(v, list))
_LIST = ("a list", lambda v: isinstance(v, list))
_OBJECT = ("an object", lambda v: isinstance(v, dict))

# per op, the fields it reads and the kind of each; all are required but "as"
_FIELDS = {
    "condexp": {"f": _NAME, "c": _NAME, "as": _NAME},
    "slice": {"f": _NAME, "c": _NAME, "r": _NUMBER, "as": _NAME},
    "profile": {"f": _NAME, "c": _NAME},
    "dist": {"f": _NAME, "g": _NAME, "c": _NAME},
    "typeeq": {"fs": _NAMES, "gs": _NAMES, "c": _NAME},
    "indep": {"a": _SIDE, "b": _SIDE, "c": _SIDE},
    "productcheck": {"a": _NAME, "b": _NAME, "c": _NAME},
    "cb": {"fs": _NAMES, "a": _NAME, "as": _NAME},
    "realize": {"f": _NAME, "c": _NAME, "as": _NAME},
    "extend": {"fs": _NAMES, "c": _NAME, "b": _NAME, "as": _NAMES},
    "maharam": {"cells": _CELLS, "c": _NAME, "target": _NAME},
}


def _of_kind(value: Any, path: str, kind: tuple) -> Any:
    """value, if it is of the kind; else a ValidationError naming path."""
    if not kind[1](value):
        raise ValidationError(f"{path}: must be {kind[0]}")
    return value


def _check_fields(i: int, cmd: Any) -> None:
    # a missing or ill-typed field is named as commands[i].field before the command runs
    if not isinstance(cmd, dict) or "op" not in cmd:
        raise ValidationError(f"commands[{i}]: command records need an 'op'")
    op = cmd["op"]
    if not isinstance(op, str) or op not in _FIELDS:
        raise ValidationError(f"commands[{i}].op: unknown op {op!r}")
    for field, (kind, test) in _FIELDS[op].items():
        if field not in cmd:
            if field != "as":
                raise ValidationError(f"commands[{i}].{field}: {op} needs '{field}', {kind}")
        elif not test(cmd[field]):
            raise ValidationError(f"commands[{i}].{field}: {op}: '{field}' must be {kind}")


class _Runner:
    def __init__(self, doc: dict, tol: float):
        self.tol = tol
        self.space = space_from_doc(doc.get("space"))
        self.functions: dict[str, StepFunction] = {}
        self.sublattices: dict[str, Sublattice] = {}
        self.refinements: list[dict] = []
        for name, fdoc in _of_kind(doc.get("functions", {}), "functions", _OBJECT).items():
            _require(fdoc, f"functions.{name}", ("values",))
            values = _numbers(fdoc["values"], f"functions.{name}.values")
            self.functions[name] = step_function(self.space, values)
        for name, sdoc in _of_kind(doc.get("sublattices", {}), "sublattices", _OBJECT).items():
            self.sublattices[name] = self._sublattice_from_doc(name, sdoc)

    def _sublattice_from_doc(self, name: str, doc: Any) -> Sublattice:
        path = f"sublattices.{name}"
        _of_kind(doc, path, _OBJECT)
        if "generators" in doc:
            names = _of_kind(doc["generators"], f"{path}.generators", _NAMES)
            return dcl(self.space, [self.function(gen) for gen in names], self.tol)
        if "blocks" in doc:
            blocks = []
            for j, b in enumerate(_of_kind(doc["blocks"], f"{path}.blocks", _LIST)):
                _require(b, f"{path}.blocks[{j}]", ("cells", "profile"))
                cells = [str(c) for c in _of_kind(b["cells"], f"{path}.blocks[{j}].cells", _CELLS)]
                prof = _numbers(b["profile"], f"{path}.blocks[{j}].profile")
                _require(prof, f"{path}.blocks[{j}].profile", cells)
                blocks.append((cells, prof))
            return Sublattice.make(self.space, blocks)
        raise ValidationError(f"{path}: sublattice document needs 'blocks' or 'generators'")

    def function(self, name: str) -> StepFunction:
        try:
            return self.functions[name]
        except KeyError:
            raise UnknownReference(f"no function named {name!r}") from None

    def sub(self, name: str) -> Sublattice:
        try:
            return self.sublattices[name]
        except KeyError:
            raise UnknownReference(f"no sublattice named {name!r}") from None

    def side(self, arg: Any):
        # a sublattice name or a list of function names
        if isinstance(arg, str):
            return self.sub(arg)
        return [self.function(name) for name in arg]

    def _apply_refinement(self, refinement: Refinement) -> None:
        self.space = refinement.child
        self.functions = {
            name: lift(f, refinement) for name, f in self.functions.items()
        }
        self.sublattices = {
            name: C.lift(refinement) for name, C in self.sublattices.items()
        }
        self.refinements.append(refinement_to_doc(refinement))

    def run(self, i: int, cmd: dict) -> dict:
        _check_fields(i, cmd)
        op = cmd["op"]
        record: dict[str, Any] = dict(cmd)
        if op == "condexp":
            result = cond_exp(self.function(cmd["f"]), self.sub(cmd["c"]))
            record["result"] = function_to_doc(result)
            self._maybe_store(cmd, result)
        elif op == "slice":
            result = conditional_slice(
                self.function(cmd["f"]), self.sub(cmd["c"]), float(cmd["r"]), self.tol
            )
            record["result"] = function_to_doc(result)
            self._maybe_store(cmd, result)
        elif op == "profile":
            prof = slice_profile(self.function(cmd["f"]), self.sub(cmd["c"]), self.tol)
            record["result"] = profile_to_doc(prof)
        elif op == "dist":
            C = self.sub(cmd["c"])
            t1 = type_datum(self.function(cmd["f"]), C, self.tol)
            t2 = type_datum(self.function(cmd["g"]), C, self.tol)
            record["result"] = distance(t1, t2, self.tol)
        elif op == "typeeq":
            record["result"] = tuple_type_equal(
                [self.function(n) for n in cmd["fs"]],
                [self.function(n) for n in cmd["gs"]],
                self.sub(cmd["c"]),
                self.tol,
            )
        elif op == "indep":
            verdict = star_independent(
                self.side(cmd["a"]), self.side(cmd["b"]), self.side(cmd["c"]), self.tol
            )
            record["result"] = verdict_to_doc(verdict)
        elif op == "productcheck":
            record["result"] = product_check(
                self.sub(cmd["a"]), self.sub(cmd["b"]), self.sub(cmd["c"]), self.tol
            )
        elif op == "cb":
            base = canonical_base(
                [self.function(n) for n in cmd["fs"]], self.sub(cmd["a"]), self.tol
            )
            record["result"] = sublattice_to_doc(base)
            if "as" in cmd:
                self.sublattices[cmd["as"]] = base
        elif op == "realize":
            C = self.sub(cmd["c"])
            t = type_datum(self.function(cmd["f"]), C, self.tol)
            _, refinement, g = canonical_realization(t, self.tol)
            self._apply_refinement(refinement)
            record["result"] = function_to_doc(g)
            self._maybe_store(cmd, g)
        elif op == "extend":
            names = cmd.get("as", [])
            fs = [self.function(n) for n in cmd["fs"]]
            _, refinement, gs = nonforking_extension(
                fs, self.sub(cmd["c"]), self.sub(cmd["b"]), self.tol
            )
            self._apply_refinement(refinement)
            record["result"] = [function_to_doc(g) for g in gs]
            for name, g in zip(names, gs):
                self.functions[name] = g
        elif op == "maharam":
            C = self.sub(cmd["c"])
            _, refinement, selected = maharam_select(
                [str(c) for c in cmd["cells"]],
                C,
                self.function(cmd["target"]),
                self.tol,
            )
            self._apply_refinement(refinement)
            record["result"] = {"selected": sorted(selected)}
        return record

    def _maybe_store(self, cmd: dict, f: StepFunction) -> None:
        if "as" in cmd:
            self.functions[cmd["as"]] = f


def execute_scenario_doc(doc: Any, tol: float = DEFAULT_TOL) -> dict:
    """Run a parsed scenario document and return the report document.

    Report documents are accepted too: the scenario they embed is run.
    """
    if isinstance(doc, dict) and "scenario" in doc and ("results" in doc or "space" not in doc):
        doc = doc["scenario"]
    if not isinstance(doc, dict):
        raise ValidationError("scenario must be a JSON object")
    runner = _Runner(doc, tol)
    commands = _of_kind(doc.get("commands", []), "commands", _LIST)
    results = []
    for i, cmd in enumerate(commands):
        try:
            results.append(runner.run(i, cmd))
        except NonFiniteValue as exc:  # raised deep inside the command: name it
            raise NonFiniteValue(f"commands[{i}]: {exc}") from None
    return {
        "tol": tol,
        "scenario": doc,
        "results": results,
        "refinements": runner.refinements,
        "space": space_to_doc(runner.space),
    }


def execute_scenario(path: str, tol: float = DEFAULT_TOL) -> dict:
    """Load, validate, and run a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc

    def reject(token: str) -> float:
        raise ParseError(f"{path}: {token} is not a finite number")

    try:
        doc = json.loads(raw, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal longer than int() accepts
        raise ParseError(f"{path}: {exc}") from exc
    return execute_scenario_doc(doc, tol)
