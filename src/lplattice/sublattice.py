"""Closed sublattices in block/profile form, generated sublattices, bands,
and the conditional expectation projection."""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain, repeat
from operator import truediv
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .core import (
    DEFAULT_TOL,
    DensityChange,
    Refinement,
    Space,
    StepFunction,
    _Value,
    _finite_values,
    close,
    tolerance_groups,
)
from .errors import SpaceMismatch, UnknownCell, ValidationError


class NuTable(NamedTuple):
    """Per cell mu * w**(p-1) and nu = mu * w**p; per block its nu-mass."""

    factor: dict[str, float]
    nu: dict[str, float]
    mass: tuple[float, ...]


class Sublattice(_Value):
    """A closed sublattice: disjoint blocks of cells with a positive profile.

    Members are exactly the combinations sum_k c_k * (profile restricted to
    block k) with arbitrary real coefficients.  Canonical form: the profile
    peaks at 1 on every block and blocks are listed by least cell id.
    Construct through `make`; the package's own builders use `_canonical`.
    """

    space: Space
    blocks: tuple[tuple[str, ...], ...]
    profile: dict[str, float]

    def __init__(
        self,
        space: Space,
        blocks: tuple[tuple[str, ...], ...],
        profile: dict[str, float],
    ) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "profile", profile)

    @classmethod
    def make(
        cls,
        space: Space,
        blocks_with_profiles: Iterable[tuple[Sequence[str], dict[str, float]]],
    ) -> "Sublattice":
        seen: set[str] = set()
        blocks, profile = [], {}
        for cells, prof in blocks_with_profiles:
            cells = tuple(cells)
            if not cells:
                raise ValidationError("empty block")
            for cid in cells:
                if cid not in space:
                    raise UnknownCell(f"no cell {cid!r}")
                if cid in seen:
                    raise ValidationError(f"cell {cid!r} lies in two blocks")
                seen.add(cid)
                if cid not in prof:
                    raise ValidationError(f"cell {cid!r} has no profile value")
                try:
                    profile[cid] = float(prof[cid])
                except (TypeError, ValueError):
                    raise ValidationError(
                        f"profile on {cid!r} must be a number, got {prof[cid]!r}"
                    ) from None
            blocks.append(space.sort_cells(cells))
        return cls._canonical(space, blocks, profile)

    @classmethod
    def _canonical(
        cls, space: Space, blocks: Iterable[Sequence[str]], profile: Mapping[str, float]
    ) -> "Sublattice":
        """The canonical form of disjoint non-empty blocks, their cells in space
        order: each profile value checked positive and finite, and nonzero once
        its block is scaled to peak 1, the blocks listed by least cell id."""
        canon = []
        for cells in blocks:
            for cid in cells:
                v = profile[cid]
                if not 0.0 < v < math.inf:
                    raise ValidationError(f"profile on {cid!r} must be positive, got {v!r}")
            canon.append((min(cells), tuple(cells), max(profile[cid] for cid in cells)))
        canon.sort()  # by least cell id alone: the blocks are disjoint
        scaled = {cid: profile[cid] / top for _, cells, top in canon for cid in cells}
        if 0.0 in scaled.values():  # below the float range of its block's peak
            cid = next(cid for cid, v in scaled.items() if v == 0.0)
            raise ValidationError(
                f"profile on {cid!r} scales to 0.0 against its block's peak, got {profile[cid]!r}"
            )
        return cls(space, tuple(cells for _, cells, _ in canon), scaled)

    @classmethod
    def trivial(cls, space: Space) -> "Sublattice":
        """The sublattice {0}."""
        return cls(space, (), {})

    @property
    def dim(self) -> int:
        return len(self.blocks)

    @cached_property
    def support(self) -> frozenset[str]:
        return frozenset(cid for block in self.blocks for cid in block)

    @cached_property
    def _block_of(self) -> dict[str, int]:
        return {cid: k for k, block in enumerate(self.blocks) for cid in block}

    def block_of(self, cid: str) -> Optional[int]:
        return self._block_of.get(cid)

    @cached_property
    def nu_table(self) -> NuTable:
        """Made in one pass over the blocks; a mass adds its block's nu in block order."""
        p, weight = self.space.p, self.space._weights
        factor, nu, mass = {}, {}, []
        for block in self.blocks:
            total = 0.0
            for cid in block:
                mu, w = weight[cid], self.profile[cid]
                factor[cid] = mu * w ** (p - 1.0)
                nu[cid] = v = mu * w ** p
                total += v
            mass.append(total)
        return NuTable(factor, nu, tuple(mass))

    def nu(self, cid: str) -> float:
        """Cell weight in the nu-presentation: mu * w^p."""
        if cid not in self.space:
            raise UnknownCell(f"no cell {cid!r}")
        return self.nu_table.nu[cid]

    def nu_block(self, k: int) -> float:
        return self.nu_table.mass[k]

    def generator(self, k: int) -> StepFunction:
        """The profile of block k as a step function."""
        return StepFunction(self.space, {cid: self.profile[cid] for cid in self.blocks[k]})

    def generators(self) -> tuple[StepFunction, ...]:
        """The block profiles as step functions, one per block."""
        return tuple(self.generator(k) for k in range(len(self.blocks)))

    def member(self, coeffs: Sequence[float]) -> StepFunction:
        """The member with the given per-block coefficients."""
        if len(coeffs) != len(self.blocks):
            raise ValidationError("one coefficient per block required")
        return StepFunction(self.space, self._member_values(enumerate(coeffs)))

    def _member_values(self, coefficients: Iterable[tuple[int, float]]) -> dict[str, float]:
        """The values of the member with coefficient c on block k, for the
        (k, c) pairs given in block order, as a StepFunction keeps them:
        exact zeros dropped, NonFiniteValue on the first value not finite."""
        profile, blocks = self.profile, self.blocks
        out = {}
        for k, c in coefficients:
            if c != 0.0:
                for cid in blocks[k]:
                    v = c * profile[cid]
                    if v != 0.0:
                        out[cid] = v
        return _finite_values(out)

    def equals(self, other: "Sublattice", tol: float = DEFAULT_TOL) -> bool:
        """Equality of canonical forms within tol."""
        if self is other and tol >= 0.0:
            return True
        if self.space != other.space or self.blocks != other.blocks:
            return False
        return all(close(self.profile[c], other.profile[c], tol) for c in self.profile)

    def subset(self, block_indices: Iterable[int]) -> "Sublattice":
        """The sublattice spanned by a subset of the blocks."""
        keep = {range(len(self.blocks))[k] for k in block_indices}  # k < 0 counts from the end
        return Sublattice._canonical(self.space, [self.blocks[k] for k in keep], self.profile)

    def lift(self, r: Refinement) -> "Sublattice":
        """Image of the sublattice on the refined space."""
        if self.space != r.parent:
            raise SpaceMismatch("sublattice does not live on the refinement's parent space")
        blocks = [
            r.child.sort_cells(kid for cid in block for kid in r.splitting[cid])
            for block in self.blocks
        ]
        profile = {kid: w for cid, w in self.profile.items() for kid in r.splitting[cid]}
        return Sublattice._canonical(r.child, blocks, profile)

    def density_push(self, dc: DensityChange) -> "Sublattice":
        """Transport across a density change: profiles become w/d."""
        if self.space != dc.source:
            raise SpaceMismatch("sublattice does not live on the density change's source")
        profile = {cid: w / dc.density[cid] for cid, w in self.profile.items()}
        return Sublattice._canonical(
            dc.target, [dc.target.sort_cells(block) for block in self.blocks], profile
        )


def dcl(
    space: Space, generators: Iterable[StepFunction], tol: float = DEFAULT_TOL
) -> Sublattice:
    """The sublattice generated by the given functions: `_proportional_blocks`
    of their supports (cells with different nonzero generators never merge),
    in O(sum of supports + n log n).  Gated against the closure oracle in tests."""
    gens = list(generators)
    for g in gens:
        if g.space != space:
            raise SpaceMismatch("generator lives on a different space")
    return _proportional_blocks(space, [(g.values, g.values) for g in gens], tol)


def _proportional_blocks(
    space: Space, generators: Sequence[tuple[Iterable[str], Mapping[str, float]]], tol: float
) -> Sublattice:
    """The sublattice generated by functions given as (support, values) pairs,
    nonzero on the support.

    Cells are bucketed by their key, the exact tuple of generators nonzero on
    them, by partition refinement over the supports: cells whose supports
    differ never share a block, even where a scaled value is within tol of 0.
    Each bucket is handed to `_group_buckets` with the values of its key's
    generators, in generator order.  Cost: O(sum of supports + n log n).
    """
    # partition refinement: generator j moves its cells from bucket b (0: none) to child[b, j]
    bucket_of: dict[str, int] = {}
    child: dict[tuple[int, int], int] = {}
    for j, (support, _) in enumerate(generators):
        for cid in support:
            bucket_of[cid] = child.setdefault((bucket_of.get(cid, 0), j), len(child) + 1)
    keys: list[tuple[Mapping[str, float], ...]] = [()]
    for b, j in child:  # parents first
        keys.append(keys[b] + (generators[j][1],))
    buckets: dict[int, list[str]] = {}
    for cid in space.ids():
        if cid in bucket_of:
            buckets.setdefault(bucket_of[cid], []).append(cid)
    return _group_buckets(space, [(cells, keys[b]) for b, cells in buckets.items()], tol)


def _group_buckets(
    space: Space, buckets: Iterable[tuple[list[str], Sequence[Mapping[str, float]]]], tol: float
) -> Sublattice:
    """The one routine that groups cells into blocks.  Each bucket is its
    cells in space order with the values of its coordinates there; blocks
    never cross buckets.

    A one-cell bucket is the block {cell: 1.0}; in a larger one, cells share
    a block when their vectors are positive multiples: scaled to a max-abs
    of 1, within tol.  A profile is the ratio to the group's first cell on
    the coordinate of largest |value| there (the earliest of equal ones).

    A bucket of one coordinate scales to a column of exactly +-1, so
    `tolerance_groups` would split it by sign: when 0.0 <= tol, one group if
    every value has one sign, else a negative and a positive group when
    tol < 2.0 and no value is 0 (`_canonical` rejects a profile that scales
    to 0, but one built past it can hold one).  Any other bucket whose every
    scaled column spans at most tol (max - min <= tol) is one group, found
    without a sort.
    This is what `tolerance_groups` finds: the columns lie in [-1, 1],
    where `close(lo, x, tol)` is `x - lo <= tol`, so the run that starts at
    a column's least value takes every value exactly when it takes the
    largest.  Every other bucket, a negative or nan tol included, goes
    through `tolerance_groups` from its first column that spans more; the
    columns before it keep the bucket whole, and the partition it returns
    depends only on the keys.  The shortcuts hold for scaled columns only:
    beyond +-1 `close` is relative.
    """
    blocks: list[Sequence[str]] = []
    profile: dict[str, float] = {}
    for cells, values in buckets:
        if len(cells) == 1:
            blocks.append(cells)
            profile[cells[0]] = 1.0
            continue
        coords = [[vals[cid] for cid in cells] for vals in values]
        if len(coords) == 1 and 0.0 <= tol:
            (vec,) = coords
            if min(vec) > 0.0 or max(vec) < 0.0:
                _settle(cells, vec, blocks, profile)
                continue
            if tol < 2.0 and 0.0 not in vec:  # negatives first, as tolerance_groups orders them
                for negative in (True, False):
                    group = [i for i, x in enumerate(vec) if (x < 0.0) is negative]
                    _settle([cells[i] for i in group], [vec[i] for i in group], blocks, profile)
                continue
        tops = [max(map(abs, vec)) for vec in zip(*coords)]
        columns = ([x / top for x, top in zip(coord, tops)] for coord in coords)
        for column in columns:
            if not max(column) - min(column) <= tol:  # a nan tol splits too
                groups = tolerance_groups(len(cells), chain((column,), columns), tol)
                break
        else:  # one group: every cell, in space order
            _settle(cells, max(coords, key=lambda coord: abs(coord[0])), blocks, profile)
            continue
        for group in groups:
            group.sort()  # into space order
            anchor = max(coords, key=lambda coord: abs(coord[group[0]]))
            _settle([cells[i] for i in group], [anchor[i] for i in group], blocks, profile)
    return Sublattice._canonical(space, blocks, profile)


def _settle(
    cells: list[str], anchor: list[float], blocks: list[Sequence[str]], profile: dict[str, float]
) -> None:
    """Add one group to blocks and profile: its cells in space order, each
    at the ratio of its anchor value to the first cell's.  A cell whose ratio
    is not positive is a block of its own: a ratio that underflows to 0.0,
    or, at a tol of 1 or more, a vector of opposite sign."""
    ratios = list(map(truediv, anchor, repeat(anchor[0])))
    if min(ratios) > 0.0:
        blocks.append(cells)
        profile.update(zip(cells, ratios))
        return
    members = []
    for cid, lam in zip(cells, ratios):
        if lam > 0.0:
            members.append(cid)
            profile[cid] = lam
        else:
            blocks.append((cid,))
            profile[cid] = 1.0
    blocks.append(members)


def contains(
    C: Sublattice, f: StepFunction, tol: float = DEFAULT_TOL
) -> Optional[dict[int, float]]:
    """Per-block coefficients expressing f in C, or None if f is no member."""
    if C.space != f.space:
        raise SpaceMismatch("function lives on a different space")
    touched = _coefficients(C, f.values, tol)
    # a block f does not touch has coefficient 0 and passes every check
    return None if touched is None else {**dict.fromkeys(range(len(C.blocks)), 0.0), **touched}


def _coefficients(C: Sublattice, values: Mapping[str, float], tol: float) -> Optional[dict]:
    """For the function with these values (0 elsewhere), its coefficients on
    the blocks of C it touches, or None if it is no member; visits those only."""
    profile, block_of = C.profile, C._block_of
    coeffs = {}
    for k in {block_of[cid] for cid in values if cid in block_of}:
        block = C.blocks[k]
        anchor = max(block, key=profile.__getitem__)
        c = values.get(anchor, 0.0) / profile[anchor]
        for cid in block:
            if not close(values.get(cid, 0.0), c * profile[cid], tol):
                return None
        coeffs[k] = c
    for cid, v in values.items():
        if cid not in block_of and not close(v, 0.0, tol):
            return None
    return coeffs


def is_sublattice_of(C: Sublattice, B: Sublattice, tol: float = DEFAULT_TOL) -> bool:
    """True when every block profile of C is a member of B: each C-block is
    checked against the B-blocks its cells touch (O(n) when C <= B)."""
    if C.space != B.space:
        raise SpaceMismatch("sublattices live on different spaces")
    return all(
        _coefficients(B, {cid: C.profile[cid] for cid in block}, tol) is not None
        for block in C.blocks
    )


def band_decompose(f: StepFunction, C: Sublattice) -> tuple[StepFunction, StepFunction]:
    """Split f into its components inside and orthogonal to the band of C."""
    if f.space != C.space:
        raise SpaceMismatch("function lives on a different space")
    supp = C.support
    inside = {c: v for c, v in f.values.items() if c in supp}
    outside = {c: v for c, v in f.values.items() if c not in supp}
    return StepFunction(f.space, inside), StepFunction(f.space, outside)


def cond_exp(f: StepFunction, C: Sublattice) -> StepFunction:
    """Conditional expectation of f onto C.

    Per block the coefficient is the nu-weighted average of f/w, the unique
    choice satisfying sum_B nu * (E f)/w = sum_B nu * f/w; the result
    vanishes on the band orthogonal to C.  The cost is f's support (and its
    sort) plus the blocks it touches, not the size of C.
    """
    if f.space != C.space:
        raise SpaceMismatch("function lives on a different space")
    return StepFunction(C.space, _expectation(C, C.space.sort_cells(f.values), f.values))


def _expectation(
    C: Sublattice, cells: Sequence[str], values: Mapping[str, float]
) -> dict[str, float]:
    """The values of cond_exp(f, C) for the f with these values on these
    cells (in space order) and 0 elsewhere: per block, mu * w**(p-1) * f
    summed over its given cells, over its nu-mass (a cell where f is 0 would
    add +0.0, which changes no sum), written by `Sublattice._member_values`."""
    factor, _, mass = C.nu_table
    block_of = C._block_of
    num: dict[int, float] = {}
    for cid in cells:
        k = block_of.get(cid)
        if k is not None:
            num[k] = num.get(k, 0.0) + factor[cid] * values[cid]
    return C._member_values((k, num[k] / mass[k]) for k in sorted(num))


def lattice_intersection(
    A: Sublattice, C: Sublattice, tol: float = DEFAULT_TOL
) -> Sublattice:
    """Members common to A and C.

    Cells of the common support are joined by profile-ratio edges coming
    from either lattice's blocks; a connected component survives only if the
    ratios are cycle-consistent and no block touching it leaks outside the
    other lattice's support.  Everything else is forced to zero.
    """
    if A.space != C.space:
        raise SpaceMismatch("sublattices live on different spaces")
    space = A.space
    common = A.support & C.support
    adj: dict[str, list[tuple[str, float]]] = {cid: [] for cid in common}
    for lat in (A, C):
        for block in lat.blocks:
            inside = [cid for cid in block if cid in common]
            if len(inside) < 2:
                continue
            base = inside[0]
            for cid in inside[1:]:
                ratio = lat.profile[cid] / lat.profile[base]
                adj[base].append((cid, ratio))
                adj[cid].append((base, 1.0 / ratio))
    x: dict[str, float] = {}
    components: list[tuple[list[str], bool]] = []
    for start in space.ids():
        if start not in common or start in x:
            continue
        comp = [start]
        x[start] = 1.0
        consistent = True
        stack = [start]
        while stack:
            cur = stack.pop()
            for nxt, ratio in adj[cur]:
                want = x[cur] * ratio
                if nxt in x:
                    if not close(x[nxt], want, tol):
                        consistent = False
                else:
                    x[nxt] = want
                    comp.append(nxt)
                    stack.append(nxt)
        components.append((comp, consistent))
    # cells of a block that reaches outside the common support
    leaky = {
        cid
        for lat in (A, C)
        for block in lat.blocks
        if not common.issuperset(block)
        for cid in block
    }
    kept = [comp for comp, consistent in components if consistent and leaky.isdisjoint(comp)]
    return Sublattice._canonical(space, [space.sort_cells(comp) for comp in kept], x)


def lattice_join(A: Sublattice, C: Sublattice, tol: float = DEFAULT_TOL) -> Sublattice:
    """The sublattice generated by the members of A and C together, which is
    dcl(A.generators() + C.generators()) by construction.  A cell's vector of
    generator values is nonzero on its A-block's and its C-block's alone, so
    the cells are bucketed in one pass over the space by the key (A-block or
    None, C-block or None), and `_group_buckets` groups each bucket on the
    coordinates (w_A, w_C), or on the one of them its cells have.  O(n) to
    bucket, plus the grouping."""
    if A.space != C.space:
        raise SpaceMismatch("sublattices live on different spaces")
    a_of, c_of = A._block_of, C._block_of
    buckets: dict[tuple[Optional[int], Optional[int]], list[str]] = {}
    for cid in A.space.ids():
        buckets.setdefault((a_of.get(cid), c_of.get(cid)), []).append(cid)
    buckets.pop((None, None), None)
    coordinates = {
        (True, True): (A.profile, C.profile),
        (True, False): (A.profile,),
        (False, True): (C.profile,),
    }
    return _group_buckets(
        A.space,
        [(cells, coordinates[a is not None, c is not None]) for (a, c), cells in buckets.items()],
        tol,
    )


def intersects_well(A: Sublattice, C: Sublattice, tol: float = DEFAULT_TOL) -> bool:
    """True when the band of A meet the band of C is the band of A ∩ C."""
    return lattice_intersection(A, C, tol).support == (A.support & C.support)
