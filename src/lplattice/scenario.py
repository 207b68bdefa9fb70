"""Scenario documents: JSON schemas, execution, and a deterministic serializer.

Document formats (UTF-8 JSON, numbers emitted with 17 significant digits):

    space      {"p": number, "cells": [{"id": str, "weight": number}]}
    function   {"values": {cellId: number}}
    sublattice {"blocks": [{"cells": [id], "profile": {id: number}}]}
               or {"generators": [functionName]}
    scenario   {"space": ..., "functions": {name: function},
                "sublattices": {name: sublattice}, "commands": [command]}

Commands are records {"op": ..., field: value}; `_OPS` holds one entry per op:
the fields it reads and their kinds, the function it calls, and how its result
is written and bound under "as".  Commands that refine the space (realize,
extend, maharam) thread the refinement through everything registered, and
the report logs it.

The serializer writes a document column by column, so that its cost goes to
C-level passes rather than to one Python call per value.  The items of all
the containers at one depth under one parent sequence are written as one
sequence: exact floats through a memo that formats each distinct value once
per `dumps` (zeros are never kept, as 0.0 == -0.0), exact strings in one
quoting pass.  Records, lists of more dicts than keys that share one tuple of
string keys (space cells, blocks, profile segments, refinement children), go
through one %-template per key tuple, each column written at once.  The bytes
are those of the item-by-item writer, and an unwritable value is named in
document order: a record list that meets one re-writes itself record by record.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from functools import partial
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Iterable, Iterator, Sequence

from .core import DEFAULT_TOL, Refinement, Space, StepFunction, check_tol, lift, step_function
from .errors import LatticeError, ParseError, UnknownReference, ValidationError
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
    TypeDatum,
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


class _Floats(dict):
    """The text of each exact float met in one `dumps`, formatted on its first
    miss.  Zeros are formatted every time and never kept: 0.0 == -0.0, so one
    entry would serve both."""

    __slots__ = ()

    def __missing__(self, x: float) -> str:
        text = _format_number(x)
        if x:
            self[x] = text
        return text


def _texts(seq: Sequence, newline: str, floats: _Floats) -> Iterator[str]:
    """The text of each item of seq, each written on a line that `newline` opens.

    Items of one kind are written together: exact floats through the memo,
    exact strings through one quoting pass, and lists or dicts by writing all
    their items (values) as one sequence, column by column.  Every other
    sequence is written item by item.  Either way the first unwritable value
    in document order is the one named.  Texts are made as they are read, so
    that each is freed once its container has joined it."""
    kinds = set(map(type, seq))
    if len(kinds) == 1:
        kind = kinds.pop()
        if kind is float:
            return map(floats.__getitem__, seq)
        if kind is str:
            return map(_quote, seq)
        if kind is dict:
            return iter(_dicts(seq, newline, floats))
        if kind is list or kind is tuple:
            return iter(_lists(seq, newline, floats))
    return map(_encode, seq, repeat(newline), repeat(floats))


def _lists(seq: Sequence, newline: str, floats: _Floats) -> list[str]:
    """The text of each list in seq: their items are written as one sequence."""
    inner = newline + "  "
    sep = "," + inner
    items = _texts(list(chain.from_iterable(seq)), inner, floats)
    return ["[" + inner + sep.join(islice(items, n)) + newline + "]" if n else "[]" for n in map(len, seq)]


def _dicts(seq: Sequence, newline: str, floats: _Floats) -> list[str]:
    """The text of each dict in seq: their values are written as one sequence,
    or, for records, as one sequence per column."""
    inner = newline + "  "
    sep = "," + inner
    keys = seq[0].keys()
    # records: more dicts than keys, all with the same string keys in the same
    # order, go through one %-template with each column written at once
    if (
        0 < len(keys) < len(seq)
        and len(set(map(tuple, seq))) == 1
        and set(map(type, chain.from_iterable(seq))) == {str}
    ):
        fields = sep.join([_quote(key).replace("%", "%%") + ": %s" for key in keys])
        template = "{" + inner + fields + newline + "}"
        try:
            columns = [_texts(column, inner, floats) for column in zip(*map(dict.values, seq))]
            return list(map(template.__mod__, zip(*columns)))
        except ValidationError:  # columns meet the values out of document order
            return [_encode(record, newline, floats) for record in seq]
    values = _texts(list(chain.from_iterable(map(dict.values, seq))), inner, floats)
    names = map(_quote, map(str, chain.from_iterable(seq)))
    items = map(str.__add__, map(str.__add__, names, repeat(": ")), values)
    return ["{" + inner + sep.join(islice(items, n)) + newline + "}" if n else "{}" for n in map(len, seq)]


def _encode(doc: Any, newline: str, floats: _Floats) -> str:
    """The text of `doc`; `newline` is a line break and the indent of its line."""
    kind = type(doc)
    if kind is float:
        return _format_number(doc)
    if kind is str:
        return _quote(doc)
    if kind is dict:
        return _dicts((doc,), newline, floats)[0]
    if kind is list or kind is tuple:
        return _lists((doc,), newline, floats)[0]
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
        return _encode(list(doc), newline, floats)
    if isinstance(doc, dict):
        return _encode(dict(doc.items()), newline, floats)
    raise ValidationError(f"cannot serialize {type(doc).__name__}")


def dumps(doc: Any) -> str:
    """Serialize a report or scenario document with stable bytes."""
    return _encode(doc, "\n", _Floats()) + "\n"


# --- document <-> object ------------------------------------------------------

def space_to_doc(space: Space) -> dict:
    return {
        "p": space.p,
        "cells": [{"id": cid, "weight": w} for cid, w in space.cells],
    }


def _number(value: Any, path: str, key: Any = None) -> float:
    """A document number as a finite float; any other value, a boolean too,
    is a ValidationError naming its path, path.key when a key is given (built
    only then: objects of numbers hold thousands of values)."""
    try:
        if type(value) is bool:  # float(True) is 1.0
            raise TypeError
        x = float(value)
        if math.isfinite(x):
            return x
        problem = "number past the float range"  # json reads 1e400 as inf
    except OverflowError:  # an integer past the float range
        problem = "number past the float range"
    except (TypeError, ValueError):
        problem = f"{value!r} is not a number"
    where = path if key is None else f"{path}.{key}"
    raise ValidationError(f"{where}: {problem}")


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


@contextmanager
def _naming(where: str) -> Iterator[None]:
    """A LatticeError raised inside is raised again as the same class, its
    message prefixed with `where: `."""
    try:
        yield
    except LatticeError as exc:
        raise type(exc)(f"{where}: {exc}") from None


def space_from_doc(doc: Any) -> Space:
    _require(doc, "space", ("p", "cells"))
    cells = []
    for j, c in enumerate(_of_kind(doc["cells"], "space.cells", _LIST)):
        _require(c, f"space.cells[{j}]", ("id", "weight"))
        cells.append((str(c["id"]), _number(c["weight"], f"space.cells[{j}].weight")))
    p = _number(doc["p"], "space.p")
    with _naming("space"):
        return Space(tuple(cells), p)


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
        cid: [{"id": kid, "weight": r.child.weight(kid)} for kid in kids]
        for cid, kids in ((cid, r.splitting[cid]) for cid in r.parent.ids())
        if len(kids) > 1 or kids[0] != cid
    }
    return {
        "splitting": splitting,
        "fresh": [
            {"id": cid, "weight": r.child.weight(cid)} for cid in r.fresh_cells
        ],
    }


# --- execution ----------------------------------------------------------------

# the kinds of value a document field can hold: (description, test); a command
# field's kind adds how its value becomes the op's argument, (runner, value, path) -> argument
_FN = ("a name", lambda v: isinstance(v, str), lambda run, v, at: run.named("function", v, at))
_SUB = _FN[:2] + (lambda run, v, at: run.named("sublattice", v, at),)
_FNS = (
    "a list of names",
    lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v),
    lambda run, v, at: [run.named("function", n, at) for n in v],
)
_SIDE = (
    "a name or a list of names",
    lambda v: _FN[1](v) or _FNS[1](v),
    lambda run, v, at: (_SUB if isinstance(v, str) else _FNS)[2](run, v, at),
)
_NUM = (
    "a number",
    lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    lambda run, v, at: _number(v, at),
)
_CELLS = ("a list of cells", lambda v: isinstance(v, list), lambda run, v, at: [str(c) for c in v])
# a sublattice's name, read as the types over it: f -> type_datum(f, C, tol), from the runner's memo
_TYPES = _FN[:2] + (lambda run, v, at: partial(run.type_over, run.named("sublattice", v, at)),)
_LIST = ("a list", lambda v: isinstance(v, list))
_OBJECT = ("an object", lambda v: isinstance(v, dict))

# One entry per op: the function it calls, the fields it reads in that
# function's argument order (tol follows them), the writer of its result into
# the report (None: written as it is), and the kind of name that "as" binds the
# result to (None: the op takes no "as").  Functions and writers are named, and
# looked up in this module's globals at each call, so that a wrapper installed
# there sees the call.
_OPS = {
    "condexp": ("_cond_exp", {"f": _FN, "c": _SUB}, "function_to_doc", _FN),
    "slice": ("conditional_slice", {"f": _FN, "c": _SUB, "r": _NUM}, "function_to_doc", _FN),
    "profile": ("slice_profile", {"f": _FN, "c": _SUB}, "profile_to_doc", None),
    "dist": ("_distance", {"f": _FN, "g": _FN, "c": _TYPES}, None, None),
    "typeeq": ("tuple_type_equal", {"fs": _FNS, "gs": _FNS, "c": _SUB}, None, None),
    "indep": ("star_independent", {"a": _SIDE, "b": _SIDE, "c": _SIDE}, "verdict_to_doc", None),
    "productcheck": ("product_check", {"a": _SUB, "b": _SUB, "c": _SUB}, None, None),
    "cb": ("canonical_base", {"fs": _FNS, "a": _SUB}, "sublattice_to_doc", _SUB),
    "realize": ("_realize", {"f": _FN, "c": _TYPES}, "function_to_doc", _FN),
    "extend": ("nonforking_extension", {"fs": _FNS, "c": _SUB, "b": _SUB}, "_functions_to_doc", _FNS),
    "maharam": ("maharam_select", {"cells": _CELLS, "c": _SUB, "target": _FN}, "_selection_to_doc", None),
}
# the ops that refine the space: their function returns (refinement, result)
_REFINING = ("realize", "extend", "maharam")


def _cond_exp(f: StepFunction, C: Sublattice, tol: float) -> StepFunction:
    return cond_exp(f, C)


def _distance(
    f: StepFunction, g: StepFunction, types: Callable[[StepFunction], TypeDatum], tol: float
) -> float:
    return distance(types(f), types(g), tol)


def _realize(f: StepFunction, types: Callable[[StepFunction], TypeDatum], tol: float) -> tuple:
    return canonical_realization(types(f))


def _functions_to_doc(fs: Iterable[StepFunction]) -> list:
    return [function_to_doc(f) for f in fs]


def _selection_to_doc(selected: Iterable[str]) -> dict:
    return {"selected": sorted(selected)}


def _of_kind(value: Any, path: str, kind: tuple) -> Any:
    """value, if it is of the kind; else a ValidationError naming path."""
    if not kind[1](value):
        raise ValidationError(f"{path}: must be {kind[0]}")
    return value


def _check_fields(i: int, cmd: Any) -> tuple:
    """The op's entry; a missing or ill-typed field is named as commands[i].field."""
    if not isinstance(cmd, dict) or "op" not in cmd:
        raise ValidationError(f"commands[{i}]: command records need an 'op'")
    op = cmd["op"]
    if not isinstance(op, str) or op not in _OPS:
        raise ValidationError(f"commands[{i}].op: unknown op {op!r}")
    entry = _OPS[op]
    fields, binds = entry[1], entry[3]
    if binds is not None and "as" in cmd:  # "as" is optional
        fields = {**fields, "as": binds}
    for field, (kind, test, _) in fields.items():
        if field not in cmd:
            raise ValidationError(f"commands[{i}].{field}: {op} needs '{field}', {kind}")
        if not test(cmd[field]):
            raise ValidationError(f"commands[{i}].{field}: {op}: '{field}' must be {kind}")
    # a list of names binds one function per entry of 'fs' (extend's result)
    if binds is _FNS and "as" in cmd and len(cmd["as"]) != len(cmd["fs"]):
        raise ValidationError(
            f"commands[{i}].as: {op}: 'as' must hold one name per 'fs' entry: "
            f"{len(cmd['fs'])}, got {len(cmd['as'])}"
        )
    return entry


class _Runner:
    def __init__(self, doc: dict, tol: float):
        self.tol = tol
        self.space = space_from_doc(doc.get("space"))
        self.functions: dict[str, StepFunction] = {}
        self.sublattices: dict[str, Sublattice] = {}
        self.refinements: list[dict] = []
        # (id(f), id(C)) -> (f, C, type datum); holding both objects keeps their ids unused
        self.types: dict[tuple[int, int], tuple[StepFunction, Sublattice, TypeDatum]] = {}
        for name, fdoc in _of_kind(doc.get("functions", {}), "functions", _OBJECT).items():
            _require(fdoc, f"functions.{name}", ("values",))
            where = f"functions.{name}.values"
            values = _numbers(fdoc["values"], where)
            with _naming(where):
                self.functions[name] = step_function(self.space, values)
        for name, sdoc in _of_kind(doc.get("sublattices", {}), "sublattices", _OBJECT).items():
            self.sublattices[name] = self._sublattice_from_doc(name, sdoc)

    def _sublattice_from_doc(self, name: str, doc: Any) -> Sublattice:
        path = f"sublattices.{name}"
        _of_kind(doc, path, _OBJECT)
        if "generators" in doc:
            where = f"{path}.generators"
            generators = _FNS[2](self, _of_kind(doc["generators"], where, _FNS), where)
            with _naming(path):
                return dcl(self.space, generators, self.tol)
        if "blocks" in doc:
            blocks = []
            for j, b in enumerate(_of_kind(doc["blocks"], f"{path}.blocks", _LIST)):
                _require(b, f"{path}.blocks[{j}]", ("cells", "profile"))
                cells = [str(c) for c in _of_kind(b["cells"], f"{path}.blocks[{j}].cells", _CELLS)]
                prof = _numbers(b["profile"], f"{path}.blocks[{j}].profile")
                _require(prof, f"{path}.blocks[{j}].profile", cells)
                blocks.append((cells, prof))
            with _naming(path):
                return Sublattice.make(self.space, blocks)
        raise ValidationError(f"{path}: sublattice document needs 'blocks' or 'generators'")

    def named(self, kind: str, name: str, where: str) -> Any:
        """The function or sublattice named; else an UnknownReference naming where."""
        registry = self.functions if kind == "function" else self.sublattices
        try:
            return registry[name]
        except KeyError:
            raise UnknownReference(f"{where}: no {kind} named {name!r}") from None

    def type_over(self, C: Sublattice, f: StepFunction) -> TypeDatum:
        """type_datum(f, C, tol), computed once per (f, C) pair per run."""
        key = (id(f), id(C))
        if key not in self.types:
            self.types[key] = (f, C, type_datum(f, C, self.tol))
        return self.types[key][2]

    def _apply_refinement(self, refinement: Refinement) -> None:
        self.space = refinement.child
        self.types = {}  # every function and sublattice is replaced by its lift
        self.functions = {
            name: lift(f, refinement) for name, f in self.functions.items()
        }
        self.sublattices = {
            name: C.lift(refinement) for name, C in self.sublattices.items()
        }
        self.refinements.append(refinement_to_doc(refinement))

    def run(self, i: int, cmd: Any) -> dict:
        function, fields, writer, binds = _check_fields(i, cmd)
        at = f"commands[{i}]."
        args = [arg(self, cmd[field], at + field) for field, (_, _, arg) in fields.items()]
        with _naming(f"commands[{i}]"):  # an error raised deep inside the command
            result = globals()[function](*args, self.tol)
            if cmd["op"] in _REFINING:
                refinement, result = result
                self._apply_refinement(refinement)
        if binds is not None and "as" in cmd:
            registry = self.sublattices if binds is _SUB else self.functions
            name = cmd["as"]
            registry.update(zip(name, result) if isinstance(name, list) else [(name, result)])
        return {**cmd, "result": result if writer is None else globals()[writer](result)}


def execute_scenario_doc(doc: Any, tol: float = DEFAULT_TOL) -> dict:
    """Run a parsed scenario document and return the report document.

    Report documents are accepted too: the scenario they embed is run.
    """
    check_tol(tol)
    if isinstance(doc, dict) and "scenario" in doc and ("results" in doc or "space" not in doc):
        doc = doc["scenario"]
    if not isinstance(doc, dict):
        raise ValidationError("scenario must be a JSON object")
    runner = _Runner(doc, tol)
    commands = _of_kind(doc.get("commands", []), "commands", _LIST)
    results = [runner.run(i, cmd) for i, cmd in enumerate(commands)]
    # the types serve the commands only: kept while the report's space is
    # written, they would raise the peak memory of a scenario of dists
    runner.types = {}
    return {
        "tol": tol,
        "scenario": doc,
        "results": results,
        "refinements": runner.refinements,
        "space": space_to_doc(runner.space),
    }


def execute_scenario(path: str, tol: float = DEFAULT_TOL) -> dict:
    """Load, validate, and run a scenario file."""
    check_tol(tol)
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
