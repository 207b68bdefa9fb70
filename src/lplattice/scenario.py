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
string keys (space cells, blocks, profile segments, refinement children), are
each joined once from the quoted key names and their columns, each column
written at once.  The bytes are those of the item-by-item writer, and an
unwritable value is named in document order: a record list that meets one
re-writes itself record by record.

The reader settles a document in bulk too, as `core.StepFunction` settles
its values (`core.Space` checks its cells in one pass).  A space's cells
become two columns (ids, weights), an object of numbers is taken as it is, and all the
blocks of one sublattice are checked at once over flat lists of every cell,
every profile key and every profile value: str cells and keys, finite float
values, then what `Sublattice.make` checks (no empty block, no cell twice,
every cell in the space and keyed in its own block's profile); the blocks,
sorted into space order, go to `Sublattice._canonical`.  Input that does not
settle (an integer, a numeric string, a bad field) goes through the per-item
reader, the one place that converts it or names its first bad field, so the
objects and the errors are those of the per-item reader.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from functools import partial
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .core import _FLOAT, DEFAULT_TOL, Refinement, Space, StepFunction, check_tol, lift, step_function
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
    # order, are joined once each from the glue before every value (the quoted
    # key names) and the values, each column written at once
    if (
        0 < len(keys) < len(seq)
        and len(set(map(tuple, seq))) == 1
        and set(map(type, chain.from_iterable(seq))) == {str}
    ):
        glues = ["{" + inner] + [sep] * (len(keys) - 1)
        parts = []
        try:
            for glue, key, column in zip(glues, keys, zip(*map(dict.values, seq))):
                parts += (repeat(glue + _quote(key) + ": "), _texts(column, inner, floats))
            return list(map("".join, zip(*parts, repeat(newline + "}"))))
        except ValidationError:  # columns meet the values out of document order
            return [_encode(record, newline, floats) for record in seq]
    values = _texts(list(chain.from_iterable(map(dict.values, seq))), inner, floats)
    names = map(_quote, map(str, chain.from_iterable(seq)))
    items = map("".join, zip(names, repeat(": "), values))
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
    try:
        return _encode(doc, "\n", _Floats()) + "\n"
    except RecursionError:  # each level of nesting takes a few frames
        raise ValidationError("cannot serialize: the document nests too deeply") from None


# --- document <-> object ------------------------------------------------------

def space_to_doc(space: Space) -> dict:
    return {
        "p": space.p,
        "cells": [{"id": cid, "weight": w} for cid, w in space.cells],
    }


_DICT = {dict}
_LIST_TYPE = {list}
_STR = {str}


def _settled(keys: Iterable, values: Sequence) -> bool:
    """True when every key is a str and every value a finite float: then the
    per-item reader would hand them back as they are."""
    return (
        set(map(type, keys)) <= _STR
        and set(map(type, values)) <= _FLOAT
        and all(map(math.isfinite, values))
    )


def _columns(records: list, fields: tuple[str, ...]) -> Optional[list[list]]:
    """One list per field of its value in every record; None unless every
    record is a dict holding every field."""
    if not set(map(type, records)) <= _DICT:
        return None
    try:
        return [list(map(itemgetter(field), records)) for field in fields]
    except KeyError:
        return None


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
    """An object of numbers keyed by cell id, as floats: the object itself
    when it settles, else read item by item, naming the first bad value."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: must be an object of numbers")
    if type(doc) is dict and _settled(doc, doc.values()):
        return doc
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
    records = _of_kind(doc["cells"], "space.cells", _LIST)
    columns = _columns(records, ("id", "weight"))
    if columns is not None and _settled(*columns):
        cells = tuple(zip(*columns))
    else:
        cells = tuple(_space_cells(records))
    p = _number(doc["p"], "space.p")
    with _naming("space"):
        return Space(cells, p)


def _space_cells(records: list) -> Iterator[tuple[str, float]]:
    """The per-cell reader of space.cells: names the first bad field."""
    for j, c in enumerate(records):
        _require(c, f"space.cells[{j}]", ("id", "weight"))
        yield str(c["id"]), _number(c["weight"], f"space.cells[{j}].weight")


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
# a list of names becomes, unless it is empty, the closing of its functions
# through the runner's memo, left to the op to call (see `_star_independent`)
_SIDE = (
    "a name or a list of names",
    lambda v: _FN[1](v) or _FNS[1](v),
    lambda run, v, at: _SUB[2](run, v, at) if isinstance(v, str) else run.closing(_FNS[2](run, v, at)),
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
    "indep": ("_star_independent", {"a": _SIDE, "b": _SIDE, "c": _SIDE}, "verdict_to_doc", None),
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


def _star_independent(A: Any, B: Any, C: Any, tol: float) -> IndependenceVerdict:
    """star_independent of the sides, a side given as a closing called here,
    inside the command, in the order star_independent closes its sides (C,
    A, B): a side whose dcl fails is named as star_independent names it.
    A's join with C comes after B is closed: where both fail, B's error is
    the one named."""
    C, A, B = (side() if callable(side) else side for side in (C, A, B))
    return star_independent(A, B, C, tol)


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


def _blocks_with_profiles(path: str, records: list) -> list[tuple[list[str], dict[str, float]]]:
    """The per-block reader of a sublattice's blocks: names the first bad field."""
    blocks = []
    for j, b in enumerate(records):
        _require(b, f"{path}.blocks[{j}]", ("cells", "profile"))
        cells = [str(c) for c in _of_kind(b["cells"], f"{path}.blocks[{j}].cells", _CELLS)]
        prof = _numbers(b["profile"], f"{path}.blocks[{j}].profile")
        _require(prof, f"{path}.blocks[{j}].profile", cells)
        blocks.append((cells, prof))
    return blocks


class _Runner:
    def __init__(self, doc: dict, tol: float):
        self.tol = tol
        self.space = space_from_doc(doc.get("space"))
        self.functions: dict[str, StepFunction] = {}
        self.sublattices: dict[str, Sublattice] = {}
        self.refinements: list[dict] = []
        # (id(f), id(C)) -> (f, C, type datum); holding both objects keeps their ids unused
        self.types: dict[tuple[int, int], tuple[StepFunction, Sublattice, TypeDatum]] = {}
        # (id(f), ...) in the order given -> (the functions, their dcl)
        self.generated: dict[tuple[int, ...], tuple[tuple[StepFunction, ...], Sublattice]] = {}
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
                return self.generated_by(generators)
        if "blocks" in doc:
            records = _of_kind(doc["blocks"], f"{path}.blocks", _LIST)
            settled = self._settled_blocks(records)
            if settled is None:
                blocks = _blocks_with_profiles(path, records)
                with _naming(path):
                    return Sublattice.make(self.space, blocks)
            with _naming(path):
                return Sublattice._canonical(self.space, *settled)
        raise ValidationError(f"{path}: sublattice document needs 'blocks' or 'generators'")

    def _settled_blocks(self, records: list) -> Optional[tuple[list, dict]]:
        """The blocks, each sorted into space order, and the profile on their
        cells, when flat passes over every cell, profile key and profile value
        settle what the per-block reader and `Sublattice.make` check: each
        block a record of a list of str cells and an object of finite floats
        keyed by str, no block empty, no cell twice, every cell a cell of the
        space and keyed in its own block's profile.  Else None."""
        columns = _columns(records, ("cells", "profile"))
        if columns is None:
            return None
        blocks, profiles = columns
        if not (set(map(type, blocks)) <= _LIST_TYPE and set(map(type, profiles)) <= _DICT):
            return None
        cells = list(chain.from_iterable(blocks))
        values = list(chain.from_iterable(map(dict.values, profiles)))
        settled = (
            set(map(type, cells)) <= _STR
            and _settled(chain.from_iterable(profiles), values)
            and all(blocks)
        )
        del values  # freed before the blocks are built
        if not settled:
            return None
        try:
            profile = {cid: prof[cid] for block, prof in zip(blocks, profiles) for cid in block}
        except KeyError:  # a cell its own block's profile does not key
            return None
        if len(profile) != len(cells) or not profile.keys() <= self.space._weights.keys():
            return None
        order = self.space._index.__getitem__
        return [sorted(block, key=order) for block in blocks], profile

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

    def generated_by(self, fs: Sequence[StepFunction]) -> Sublattice:
        """dcl(space, fs, tol), computed once per ordered list of function
        objects per run (and space)."""
        key = tuple(map(id, fs))
        if key not in self.generated:
            self.generated[key] = (tuple(fs), dcl(self.space, fs, self.tol))
        return self.generated[key][1]

    def closing(self, fs: list[StepFunction]) -> Any:
        """What an op is given for a list side: a call that closes fs through
        the memo, or the empty list itself, which holds no space to close in."""
        return partial(self.generated_by, fs) if fs else fs

    def _apply_refinement(self, refinement: Refinement) -> None:
        self.space = refinement.child
        # every function and sublattice is replaced by its lift
        self.types, self.generated = {}, {}
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
    # the memos serve the commands only: kept while the report's space is
    # written, they would raise the peak memory of a scenario of dists
    runner.types, runner.generated = {}, {}
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc

    def reject(token: str) -> float:
        raise ParseError(f"{path}: {token} is not a finite number")

    try:
        doc = json.loads(raw, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal longer than int() accepts
        raise ParseError(f"{path}: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{path}: the document nests too deeply") from None
    return execute_scenario_doc(doc, tol)
