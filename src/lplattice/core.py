"""Finite weighted measure algebras and the step functions living on them.

A Space is an ordered list of cells with positive weights plus the norm
exponent p.  A StepFunction keeps one real value per cell (absent cells read
as 0).  Refinements split cells exactly; anything living on the parent space
can be lifted to the child space without changing norms, expectations or any
other invariant computed downstream.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property, reduce
from itertools import chain
from operator import add, attrgetter
from typing import Iterable, Mapping, Sequence

from .errors import (
    BadExponent,
    BadFractions,
    DuplicateId,
    NonFiniteValue,
    NonPositiveDensity,
    NonPositiveWeight,
    SpaceMismatch,
    UnknownCell,
    ValidationError,
)

DEFAULT_TOL = 1e-9

_FLOAT = {float}


def check_tol(tol: float) -> float:
    """tol itself when it is a finite number >= 0; else a ValidationError
    naming tol.  A negative or nan tol fails every comparison and an infinite
    one passes every comparison, so neither reaches a computation."""
    number = isinstance(tol, (int, float)) and not isinstance(tol, bool)
    if number and 0.0 <= tol <= sys.float_info.max:  # false for nan
        return tol
    raise ValidationError(f"tol: must be a finite number >= 0, got {tol!r}")


def close(a: float, b: float, tol: float = DEFAULT_TOL) -> bool:
    """Tolerance comparison; relative once magnitudes exceed 1.  Never true
    when a - b is not finite: an infinite bound would pass any gap."""
    gap = abs(a - b)
    return gap <= tol * max(1.0, abs(a), abs(b)) and gap < math.inf


def tolerance_groups(
    size: int, columns: Iterable[Sequence[float]], tol: float = DEFAULT_TOL
) -> list[list[int]]:
    """Partition of range(size) into groups of keys equal within tol.

    The keys arrive one coordinate at a time: each item of columns holds
    that coordinate of all size keys, and columns is read only while some
    group has two members.  Each group is stably sorted on the coordinate
    and split into runs whose values are close to the run's first, smallest
    value.  The partition depends only on the keys, not on their order;
    groups come out in increasing key order.
    """
    groups = [list(range(size))] if size else []
    for column in columns:
        refined = []
        for group in groups:
            if len(group) == 1:
                refined.append(group)
                continue
            group = sorted(group, key=column.__getitem__)
            first = column[group[0]]
            run = [group[0]]
            for i in group[1:]:
                if not close(first, column[i], tol):
                    refined.append(run)
                    first = column[i]
                    run = []
                run.append(i)
            refined.append(run)
        groups = refined
        if len(groups) == size:
            break
    return groups


def left_sum(xs: Iterable[float]) -> float:
    """The floats added one by one from the left, from 0.0: the same last
    digits on every Python, where sum() compensates from Python 3.12 on."""
    return reduce(add, xs, 0.0)


class _Value:
    """Base of the package's value classes.

    A subclass's fields are its own annotations, in order.  Its `__init__`
    sets them with `object.__setattr__`, as package code sets any field
    (writing the instance `__dict__` instead would slow every later read of
    a field on 3.11 and 3.12), and then, if it has one, calls
    `__post_init__`.  Values of one class are equal when their tuples of
    field values are, hash as that tuple (a dict field makes it unhashable),
    print as `Name(field=value, ...)` and refuse assignment and deletion.
    """

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)
        # the tuple of field values (every value class has two fields or more);
        # an attrgetter is no descriptor, so it is called as self._field_values(self)
        cls._field_values = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._field_values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._field_values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        what = f"a {type(self).__name__} is immutable"
        raise AttributeError(f"cannot set {name!r} to a {type(value).__name__}: {what}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: a {type(self).__name__} is immutable")


def _finite(x: float, what: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise NonFiniteValue(f"{what} is not finite: {x!r}")
    return x


class Space(_Value):
    """Ordered cells with strictly positive weights plus the exponent p >= 1."""

    cells: tuple[tuple[str, float], ...]
    p: float

    def __init__(self, cells: tuple[tuple[str, float], ...], p: float) -> None:
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "p", p)
        self.__post_init__()

    def __post_init__(self) -> None:
        # one pass over the cells builds the weight table and names the
        # first bad cell; a float weight inside (0, inf) settles in one test
        weights: dict[str, float] = {}
        for cid, w in self.cells:
            if cid in weights:
                raise DuplicateId(f"duplicate cell id {cid!r}")
            if not (type(w) is float and 0.0 < w < math.inf):
                _finite(w, f"weight of cell {cid!r}")
                if w <= 0.0:
                    raise NonPositiveWeight(f"cell {cid!r} has weight {w!r}")
            weights[cid] = w
        _finite(self.p, "exponent p")
        if self.p < 1.0:
            raise BadExponent(f"p must be >= 1, got {self.p!r}")
        object.__setattr__(self, "_weights", weights)  # id -> weight, in cell order

    @cached_property
    def _index(self) -> dict[str, int]:
        return {cid: i for i, (cid, _) in enumerate(self.cells)}

    @cached_property
    def _ids(self) -> tuple[str, ...]:
        return tuple(self._weights)

    def ids(self) -> tuple[str, ...]:
        return self._ids

    def __contains__(self, cid: str) -> bool:
        return cid in self._weights

    def weight(self, cid: str) -> float:
        try:
            return self._weights[cid]
        except KeyError:
            raise UnknownCell(f"no cell {cid!r}") from None

    def sort_cells(self, cids: Iterable[str]) -> tuple[str, ...]:
        """Cells sorted into this space's cell order."""
        try:
            return tuple(sorted(cids, key=self._index.__getitem__))
        except KeyError as exc:
            raise UnknownCell(f"no cell {exc.args[0]!r}") from None


def make_space(cells: Iterable[tuple[str, float]], p: float) -> Space:
    """Validated Space from (id, weight) pairs."""
    return Space(tuple((str(cid), float(w)) for cid, w in cells), float(p))


class StepFunction(_Value):
    """An element of L_p(space): one value per cell, exact zeros pruned."""

    space: Space
    values: dict[str, float]

    def __init__(self, space: Space, values: dict[str, float]) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", values)
        self.__post_init__()

    def __post_init__(self) -> None:
        values = self.values
        if (
            type(values) is dict
            and set(map(type, values.values())) <= _FLOAT
            and all(map(math.isfinite, values.values()))
            and values.keys() <= self.space._weights.keys()
        ):
            if 0.0 in values.values():  # -0.0 too
                values = {cid: v for cid, v in values.items() if v != 0.0}
            else:
                values = dict(values)
        else:
            values = self._checked_values()
        object.__setattr__(self, "values", values)

    def _checked_values(self) -> dict[str, float]:
        """The per-cell check: raises on the first bad cell, else the values
        as floats with exact zeros pruned."""
        pruned = {}
        for cid, v in self.values.items():
            if cid not in self.space:
                raise UnknownCell(f"no cell {cid!r}")
            v = _finite(v, f"value on cell {cid!r}")
            if v != 0.0:
                pruned[cid] = v
        return pruned

    def _require_same(self, other: "StepFunction") -> None:
        if self.space != other.space:
            raise SpaceMismatch("functions live on different spaces")

    def __getitem__(self, cid: str) -> float:
        return self.values.get(cid, 0.0)

    @property
    def support(self) -> frozenset[str]:
        return frozenset(self.values)

    def __add__(self, other: "StepFunction") -> "StepFunction":
        self._require_same(other)
        out = dict(self.values)
        for cid, v in other.values.items():
            out[cid] = out.get(cid, 0.0) + v
        return StepFunction(self.space, out)

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        return self + (-other)

    def __neg__(self) -> "StepFunction":
        return StepFunction(self.space, {c: -v for c, v in self.values.items()})

    def __mul__(self, scalar: float) -> "StepFunction":
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return StepFunction(self.space, {c: v * scalar for c, v in self.values.items()})

    __rmul__ = __mul__

    def meet(self, other: "StepFunction") -> "StepFunction":
        self._require_same(other)
        keys = set(self.values) | set(other.values)
        return StepFunction(
            self.space, {c: min(self[c], other[c]) for c in keys}
        )

    def join(self, other: "StepFunction") -> "StepFunction":
        self._require_same(other)
        keys = set(self.values) | set(other.values)
        return StepFunction(
            self.space, {c: max(self[c], other[c]) for c in keys}
        )

    def pos(self) -> "StepFunction":
        """Positive part f v 0."""
        return StepFunction(self.space, {c: v for c, v in self.values.items() if v > 0.0})

    def neg(self) -> "StepFunction":
        """Negative part (-f) v 0."""
        return StepFunction(self.space, {c: -v for c, v in self.values.items() if v < 0.0})

    def __abs__(self) -> "StepFunction":
        return StepFunction(self.space, {c: abs(v) for c, v in self.values.items()})

    def restrict(self, cells: Iterable[str]) -> "StepFunction":
        keep = set(cells)
        return StepFunction(self.space, {c: v for c, v in self.values.items() if c in keep})


def _finite_values(values: dict[str, float]) -> dict[str, float]:
    """values, after StepFunction's check: NonFiniteValue on the first value
    that is not finite."""
    if not all(map(math.isfinite, values.values())):
        cid, v = next((cid, v) for cid, v in values.items() if not math.isfinite(v))
        raise NonFiniteValue(f"value on cell {cid!r} is not finite: {v!r}")
    return values


def step_function(space: Space, values: Mapping[str, float]) -> StepFunction:
    """Validated StepFunction; absent cells mean value 0."""
    return StepFunction(space, dict(values))


def zero(space: Space) -> StepFunction:
    return StepFunction(space, {})


def indicator(space: Space, cells: Iterable[str]) -> StepFunction:
    return StepFunction(space, {cid: 1.0 for cid in cells})


def function_close(f: StepFunction, g: StepFunction, tol: float = DEFAULT_TOL) -> bool:
    """Cellwise equality within tol (requires one common space)."""
    if f.space != g.space:
        raise SpaceMismatch("functions live on different spaces")
    for cid in set(f.values) | set(g.values):
        if not close(f[cid], g[cid], tol):
            return False
    return True


def norm(f: StepFunction) -> float:
    """The L_p norm (sum_i mu_i |f_i|^p)^(1/p); where that sum overflows, max|f_i|
    times the norm of f/max|f_i| (Blue, ACM TOMS 1978).  Raises NonFiniteValue
    when the norm itself is past the float range."""
    return _norm(f.space, f.values)


def _norm(space: Space, values: Mapping[str, float]) -> float:
    """norm of the step function with these (finite) values on space's cells,
    summed in the mapping's order."""
    p = space.p
    weight = space._weights
    total = 0.0
    try:
        for cid, v in values.items():
            total += weight[cid] * abs(v) ** p
    except OverflowError:  # a finite float ** p past the float range
        total = math.inf
    if total < math.inf:
        return total ** (1.0 / p)
    top = max(map(abs, values.values()))
    scaled = left_sum(weight[cid] * (abs(v) / top) ** p for cid, v in values.items())
    result = top * scaled ** (1.0 / p)
    if result == math.inf:
        raise NonFiniteValue(f"norm overflows: it is past the float range (max |f| = {top!r})")
    return result


class Refinement(_Value):
    """Exact replacement of parent cells by children of the same total weight.

    Every parent cell maps to its children's ids, at least one.  Cells of the
    child space appearing under no parent are fresh; lifted objects are zero there.
    """

    parent: Space
    child: Space
    splitting: dict[str, tuple[str, ...]]

    def __init__(self, parent: Space, child: Space, splitting: dict[str, tuple[str, ...]]) -> None:
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "splitting", splitting)
        self.__post_init__()

    def __post_init__(self) -> None:
        # one pass in the parent's cell order; raises on the first bad cell
        splitting = self.splitting
        parent, child = self.parent._weights, self.child._weights
        stray = set(splitting).difference(parent)
        if stray:
            raise UnknownCell(f"splitting mentions unknown cell {sorted(stray)[0]!r}")
        seen: set[str] = set()
        for cid, w in parent.items():
            kids = splitting.get(cid)
            if not kids:
                raise BadFractions(f"parent cell {cid!r} has no children")
            total = 0.0
            for kid in kids:
                if kid in seen:
                    raise DuplicateId(f"child cell {kid!r} appears twice")
                seen.add(kid)
                if kid not in child:
                    raise SpaceMismatch(f"child cell {kid!r} disagrees with the child space")
                total += child[kid]
            # a split is exact (its fractions sum to 1), so its children sum
            # to w up to rounding relative to w: this bounds that rounding,
            # and is not the caller's data tol
            if total != w and not close(total / w, 1.0):
                raise BadFractions(f"children of {cid!r} sum to {total!r}, expected {w!r}")

    @classmethod
    def identity(cls, space: Space) -> "Refinement":
        return cls(space, space, {cid: (cid,) for cid in space.ids()})

    def children_of(self, cid: str) -> tuple[str, ...]:
        return self.splitting[cid]

    @cached_property
    def fresh_cells(self) -> tuple[str, ...]:
        under = set(chain.from_iterable(self.splitting.values()))
        return tuple(cid for cid in self.child.ids() if cid not in under)

    def then(self, other: "Refinement") -> "Refinement":
        """Composite refinement: self followed by other."""
        if self.child != other.parent:
            raise SpaceMismatch("refinements do not chain")
        splitting = {
            cid: tuple(chain.from_iterable(map(other.splitting.__getitem__, kids)))
            for cid, kids in self.splitting.items()
        }
        return Refinement(self.parent, other.child, splitting)


def refine_space(
    space: Space,
    plan: Mapping[str, Sequence[float]],
    fresh: Iterable[tuple[str, float]] = (),
) -> Refinement:
    """Split several cells at once; children are named parent#k.

    plan maps cell id -> positive fractions summing to 1; the Refinement
    checks the sum.  Cells listed in fresh are appended to the child space
    without a parent; lifted functions are zero there.
    """
    unknown = set(plan) - set(space.ids())
    if unknown:
        raise UnknownCell(f"no cell {sorted(unknown)[0]!r}")
    splitting = {}
    cells: list[tuple[str, float]] = []
    for cid, w in space.cells:
        if cid in plan:
            try:
                fr = tuple(map(float, plan[cid]))
            except (TypeError, ValueError):  # not a sequence, or not of numbers
                raise BadFractions(
                    f"fractions for {cid!r} must be a sequence of numbers, got {plan[cid]!r}"
                ) from None
            if not (fr and all(map(math.isfinite, fr)) and min(fr) > 0.0):
                raise BadFractions(f"fractions for {cid!r} must be positive")
            kids = tuple([f"{cid}#{k}" for k in range(len(fr))])
            cells.extend(zip(kids, [w * x for x in fr]))
        else:
            kids = (cid,)
            cells.append((cid, w))
        splitting[cid] = kids
    cells.extend(map(_fresh_cell, fresh))
    return Refinement(space, Space(tuple(cells), space.p), splitting)


def _fresh_cell(entry: tuple[str, float]) -> tuple[str, float]:
    """A fresh (id, weight) pair as (str, float); else a ValidationError naming it."""
    try:
        cid, w = entry
    except (TypeError, ValueError):
        raise ValidationError(f"fresh cell {entry!r} must be an (id, weight) pair") from None
    try:
        return str(cid), float(w)
    except (TypeError, ValueError):
        raise ValidationError(f"fresh cell {cid!r} has weight {w!r}, not a number") from None


def lift(f: StepFunction, r: Refinement) -> StepFunction:
    """Transport a step function to the refined space (constant on children)."""
    if f.space != r.parent:
        raise SpaceMismatch("function does not live on the refinement's parent space")
    out = {kid: v for cid, v in f.values.items() for kid in r.splitting[cid]}
    return StepFunction(r.child, out)


def fresh_ids(space: Space, count: int) -> tuple[str, ...]:
    """Deterministic ids not colliding with the space's cells."""
    out: list[str] = []
    k = 0
    while len(out) < count:
        cid = f"fresh{k}"
        if cid not in space:
            out.append(cid)
        k += 1
    return tuple(out)


class DensityChange(_Value):
    """Isometric re-presentation: weights mu*d^p, functions f -> f/d."""

    source: Space
    target: Space
    density: StepFunction

    def __init__(self, source: Space, target: Space, density: StepFunction) -> None:
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "density", density)

    def push(self, f: StepFunction) -> StepFunction:
        if f.space != self.source:
            raise SpaceMismatch("function does not live on the source space")
        return StepFunction(self.target, {c: v / self.density[c] for c, v in f.values.items()})

    def pull(self, g: StepFunction) -> StepFunction:
        if g.space != self.target:
            raise SpaceMismatch("function does not live on the target space")
        return StepFunction(self.source, {c: v * self.density[c] for c, v in g.values.items()})


def density_change(space: Space, d: StepFunction) -> DensityChange:
    """Re-present the space with weights mu_i * d_i^p; norms are preserved."""
    if d.space != space:
        raise SpaceMismatch("density does not live on the given space")
    for cid in space.ids():
        if d[cid] <= 0.0:
            raise NonPositiveDensity(f"density vanishes on cell {cid!r}")
    cells = []
    for cid, w in space.cells:
        try:
            cells.append((cid, w * d[cid] ** space.p))
        except OverflowError:  # a finite float ** p past the float range
            raise NonFiniteValue(f"density change overflows: d**p on cell {cid!r}") from None
    return DensityChange(space, Space(tuple(cells), space.p), d)
