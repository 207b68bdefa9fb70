"""Shared helpers for the test suite."""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_right
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import truediv
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from lplattice import (
    DEFAULT_TOL,
    BadExponent,
    BadFractions,
    CertificationFailed,
    ConditionalDistribution,
    DuplicateId,
    InvalidDistribution,
    NonFiniteValue,
    NonPositiveWeight,
    NonTermination,
    PreconditionFailed,
    Refinement,
    SliceProfile,
    Space,
    SpaceMismatch,
    StepFunction,
    Sublattice,
    SublatticeMismatch,
    UnknownCell,
    ValidationError,
    close,
    dcl,
    intersects_well,
    is_sublattice_of,
    lattice_join,
    norm,
    refine_space,
    slice_profile,
    star_independent,
)
from lplattice.core import _finite, fresh_ids, left_sum, tolerance_groups
from lplattice.independence import (
    IndependenceVerdict,
    SideInput,
    Witness,
    _as_sublattice,
    _expectation_gaps,
    _gap,
    _require_sublattice,
    _space_of,
)
from lplattice.oracles import CLOSURE_ROUNDS, _guard, proportionality_classes
from lplattice.scenario import _CELLS, _FNS, _LIST, _OBJECT, _naming, _number, _of_kind, _require
from lplattice.typespace import (
    Atom,
    Layout,
    Segment,
    TypeDatum,
    _block_laws,
    _lay_out as _typespace_lay_out,
    _layout,
    _merge_atoms,
    _orth_cells,
)


# --- reference constructor and sublattice test -----------------------------------
# `Sublattice.make` from before the canonical form moved into
# `Sublattice._canonical`, when every builder checked its own output through
# it, and `is_sublattice_of` from before it checked each block against the
# blocks it touches (with the dense `contains` it called), kept verbatim as
# the references their differential tests compare against.  The references
# below build through `reference_make`, so none of them reaches
# `Sublattice._canonical`.

def reference_make(
    space: Space,
    blocks_with_profiles: Iterable[tuple[Sequence[str], dict[str, float]]],
) -> Sublattice:
    seen: set[str] = set()
    canon = []
    for cells, prof in blocks_with_profiles:
        cells = tuple(cells)
        if not cells:
            raise ValidationError("empty block")
        vals = {}
        for cid in cells:
            if cid not in space:
                raise UnknownCell(f"no cell {cid!r}")
            if cid in seen:
                raise ValidationError(f"cell {cid!r} lies in two blocks")
            seen.add(cid)
            v = float(prof[cid])
            if not math.isfinite(v) or v <= 0.0:
                raise ValidationError(f"profile on {cid!r} must be positive, got {v!r}")
            vals[cid] = v
        top = max(vals.values())
        ordered = space.sort_cells(cells)
        canon.append((ordered, {cid: vals[cid] / top for cid in ordered}))
    canon.sort(key=lambda item: min(item[0]))
    profile: dict[str, float] = {}
    for _, prof in canon:
        profile.update(prof)
    return Sublattice(space, tuple(item[0] for item in canon), profile)


def _reference_contains(
    C: Sublattice, f: StepFunction, tol: float = DEFAULT_TOL
) -> Optional[dict[int, float]]:
    """Per-block coefficients expressing f in C, or None if f is no member."""
    if C.space != f.space:
        raise SpaceMismatch("function lives on a different space")
    # a block f does not touch has coefficient 0 and passes every check
    coeffs = dict.fromkeys(range(len(C.blocks)), 0.0)
    block_of = C._block_of
    for k in sorted({block_of[cid] for cid in f.values if cid in block_of}):
        block = C.blocks[k]
        anchor = max(block, key=lambda cid: C.profile[cid])
        c = f[anchor] / C.profile[anchor]
        for cid in block:
            if not close(f[cid], c * C.profile[cid], tol):
                return None
        coeffs[k] = c
    for cid, v in f.values.items():
        if cid not in C.support and not close(v, 0.0, tol):
            return None
    return coeffs


def reference_is_sublattice_of(C: Sublattice, B: Sublattice, tol: float = DEFAULT_TOL) -> bool:
    """True when every block profile of C is a member of B."""
    if C.space != B.space:
        raise SpaceMismatch("sublattices live on different spaces")
    return all(_reference_contains(B, g, tol) is not None for g in C.generators())


def brute_intersection(A: Sublattice, C: Sublattice) -> Sublattice:
    """Intersection of two sublattices by solving the linear constraint system
    exactly, each float read as its binary fraction.

    A member of both lattices is h = x . GA = y . GC for generator matrices
    GA, GC; the solution subspace is itself a sublattice, so its block form
    is read off the positive-proportionality classes of the basis columns.
    """
    space = A.space
    ids = space.ids()
    ga = [[Fraction(g[c]) for c in ids] for g in A.generators()]
    gc = [[Fraction(g[c]) for c in ids] for g in C.generators()]
    if not ga or not gc:
        return Sublattice.trivial(space)
    # [GA^T | -GC^T] [x; y] = 0
    m = [[row[i] for row in ga] + [-row[i] for row in gc] for i in range(len(ids))]
    # GA's rows are independent, so a nonzero x gives a nonzero h
    h_basis = [
        [sum(xk * row[i] for xk, row in zip(null, ga)) for i in range(len(ids))]
        for null in _nullspace(m)
    ]
    if not h_basis:
        return Sublattice.trivial(space)
    return reference_make(space, proportionality_classes(ids, h_basis))


def _nullspace(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """A basis of {x : rows . x = 0}, by reduction to row echelon form over Q:
    one vector per free column."""
    rows = [list(row) for row in rows]
    width = len(rows[0]) if rows else 0
    pivots: list[int] = []
    for col in range(width):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        lead = rows[r][col]
        rows[r] = [x / lead for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                rows[i] = [x - row[col] * y for x, y in zip(row, rows[r])]
        pivots.append(col)
    basis = []
    for free in (col for col in range(width) if col not in pivots):
        x = [Fraction(0)] * width
        x[free] = Fraction(1)
        for row, col in zip(rows, pivots):
            x[col] = -row[free]
        basis.append(x)
    return basis


# --- reference closure ---------------------------------------------------------
# `oracles.brute_dcl_closure` from before it ran in exact integers, kept
# verbatim with the helpers it called, as the reference its differential test
# compares against: ranks by SVD at CLOSURE_TOL, vectors deduplicated after
# rounding to 10 places, and proportionality tested within CLOSURE_TOL.

CLOSURE_TOL = 1e-7


def _reference_row_basis(rows: np.ndarray, tol: float) -> np.ndarray:
    if rows.size == 0:
        return rows.reshape(0, rows.shape[-1] if rows.ndim == 2 else 0)
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    cutoff = tol * max(1.0, float(s[0])) if s.size else tol
    rank = int(np.sum(s > cutoff))
    return vt[:rank]


def _reference_proportionality_classes(
    ids: Sequence[str], basis: np.ndarray, tol: float
) -> list[tuple[tuple[str, ...], dict[str, float]]]:
    """Block form of the span of the basis rows, scanning cells in order: a
    column v joins the first class whose first column u has v = lam * u with
    lam > 0 within tol * max(1, |v|, |lam u|); columns within tol of 0 join none.
    """
    classes: list[tuple[np.ndarray, list[tuple[str, float]]]] = []
    for i, cid in enumerate(ids):
        v = basis[:, i]
        if float(np.max(np.abs(v))) <= tol:
            continue
        for u, members in classes:
            k = int(np.argmax(np.abs(u)))
            lam = float(v[k] / u[k])
            scale = max(1.0, float(np.max(np.abs(v))), float(np.max(np.abs(lam * u))))
            if lam > 0.0 and float(np.max(np.abs(v - lam * u))) <= tol * scale:
                members.append((cid, lam))
                break
        else:
            classes.append((v, [(cid, 1.0)]))
    return [(tuple(c for c, _ in members), dict(members)) for _, members in classes]


def reference_brute_dcl_closure(space: Space, generators: Iterable[StepFunction]) -> Sublattice:
    """Literal closure reading of the generated sublattice.

    Iteratively closes the linear span of a vector set (seeded with 0) under
    pairwise meets, joins and positive parts of differences, stopping once
    the span's dimension equals the number of positive-proportionality
    classes among its per-cell coordinate vectors; at that point the span is
    itself a block/profile sublattice and is returned as such.
    """
    gens = list(generators)
    _guard(space, len(gens))
    ids = space.ids()
    n = len(ids)
    vectors: dict[tuple, np.ndarray] = {}

    def _add(v: np.ndarray) -> bool:
        key = tuple(np.round(v, 10))
        if key in vectors:
            return False
        vectors[key] = v.copy()
        return True

    _add(np.zeros(n))
    for g in gens:
        _add(np.array([g[cid] for cid in ids], dtype=float))

    for _ in range(CLOSURE_ROUNDS):
        stack = np.array(list(vectors.values()))
        basis = _reference_row_basis(stack, CLOSURE_TOL)
        rank = basis.shape[0]
        if rank == 0:
            return Sublattice.trivial(space)
        classes = _reference_proportionality_classes(ids, basis, CLOSURE_TOL)
        if len(classes) == rank:
            return Sublattice.make(space, classes)
        current = list(vectors.values())
        grew = False
        for i in range(len(current)):
            for j in range(i, len(current)):
                u, v = current[i], current[j]
                grew |= _add(np.minimum(u, v))
                grew |= _add(np.maximum(u, v))
                grew |= _add(np.maximum(u - v, 0.0))
                grew |= _add(np.maximum(v - u, 0.0))
        if not grew:
            raise NonTermination("closure stalled before reaching a sublattice")
    raise NonTermination("closure did not stabilize within the round guard")


# --- reference dcl and joins ---------------------------------------------------
# The dense `dcl` that the support-keyed grouping in `lplattice.sublattice`
# replaced, kept verbatim with the grouping it called, as the reference its
# differential test compares against: one dense column per generator over
# every cell where some generator is nonzero.

def reference_dcl(
    space: Space, generators: Iterable[StepFunction], tol: float = DEFAULT_TOL
) -> Sublattice:
    """The sublattice generated by the given functions: the proportional
    blocks of the cells where some generator is nonzero.  Gated against the
    brute-force closure oracle in tests."""
    gens = list(generators)
    for g in gens:
        if g.space != space:
            raise SpaceMismatch("generator lives on a different space")
    cells = [cid for cid in space.ids() if any(cid in g.values for g in gens)]
    return reference_make(
        space, _reference_proportional_blocks(cells, [[g[cid] for cid in cells] for g in gens], tol)
    )


def _reference_proportional_blocks(
    cells: Sequence[str], coords: Sequence[Sequence[float]], tol: float
) -> list[tuple[tuple[str, ...], dict[str, float]]]:
    """Blocks and profiles of cells with nonzero vectors, coords[j][i] being
    coordinate j of cell i.

    Two cells share a block exactly when their vectors are positive scalar
    multiples of one another: the vectors, scaled to a max-abs of 1, are
    grouped within tol.  A member's profile is its ratio to the group's first
    cell, taken on the coordinate of largest |value| there (the earliest of
    equal ones).
    """
    tops = [max(map(abs, vec)) for vec in zip(*coords)]
    columns = ([x / top for x, top in zip(coord, tops)] for coord in coords)
    blocks = []
    for group in tolerance_groups(len(cells), columns, tol):
        first = min(group)
        anchor = max(coords, key=lambda coord: abs(coord[first]))
        members = {cells[first]: 1.0}
        for i in group:
            lam = anchor[i] / anchor[first]
            if lam > 0.0:
                members[cells[i]] = lam
            else:
                # only a tol of 1 or more groups vectors of opposite sign
                blocks.append(((cells[i],), {cells[i]: 1.0}))
        blocks.append((tuple(members), members))
    return blocks


# The dcl-based `lattice_join` that the keyed join replaced, kept verbatim
# (on the dense dcl above) as the reference its differential test compares
# against: one dense generator column per block of A and of C.

def reference_join(A: Sublattice, C: Sublattice, tol: float = DEFAULT_TOL) -> Sublattice:
    """The sublattice generated by the members of A and C together."""
    if A.space != C.space:
        raise SpaceMismatch("sublattices live on different spaces")
    return reference_dcl(A.space, A.generators() + C.generators(), tol)


# The keyed join with its own bucket loop that the shared grouping replaced,
# kept verbatim (on the dense grouping above) as the reference its
# differential test compares against.

def reference_keyed_join(A: Sublattice, C: Sublattice, tol: float = DEFAULT_TOL) -> Sublattice:
    """The sublattice generated by the members of A and C together.

    A cell's generator vector is nonzero only on its A-block and its
    C-block, so cells share a block only if they share the key (A-block or
    None, C-block or None).  The cells are bucketed by that exact key in one
    pass, and each bucket gets dcl's proportional blocks on the columns
    (w_A, w_C).  Cost: O(n log n) in the cells, not one dense column per
    block.
    """
    if A.space != C.space:
        raise SpaceMismatch("sublattices live on different spaces")
    buckets: dict[tuple[Optional[int], Optional[int]], list[str]] = {}
    for cid in A.space.ids():
        key = (A.block_of(cid), C.block_of(cid))
        if key != (None, None):
            buckets.setdefault(key, []).append(cid)
    blocks = []
    for cells in buckets.values():
        coords = [[lat.profile.get(cid, 0.0) for cid in cells] for lat in (A, C)]
        blocks += _reference_proportional_blocks(cells, coords, tol)
    return reference_make(A.space, blocks)


# The bucket grouping `sublattice._proportional_blocks` used before buckets
# that form one group skipped the sort, kept verbatim as the reference its
# differential test compares against: every bucket of several cells goes
# through `tolerance_groups`.

def reference_proportional_blocks(
    space: Space, generators: Sequence[tuple[Iterable[str], Mapping[str, float]]], tol: float
) -> Sublattice:
    """The sublattice generated by functions given as (support, values) pairs,
    nonzero on the support: the one routine that groups cells into blocks.

    Cells are bucketed by their key, the exact tuple of generators nonzero on
    them: cells whose supports differ never share a block, even where a
    scaled value is within tol of 0.  A one-cell bucket is the block
    {cell: 1.0}; in a larger one, cells share a block when their vectors are
    positive multiples: scaled to a max-abs of 1, within tol.  A profile is
    the ratio to the group's first cell on the coordinate of largest |value|
    there (the earliest of equal ones).  Cost: O(sum of supports + n log n).
    """
    # partition refinement: generator j moves its cells from bucket b (0: none) to child[b, j]
    bucket_of: dict[str, int] = {}
    child: dict[tuple[int, int], int] = {}
    for j, (support, _) in enumerate(generators):
        for cid in support:
            bucket_of[cid] = child.setdefault((bucket_of.get(cid, 0), j), len(child) + 1)
    keys: list[tuple[int, ...]] = [()]
    for b, j in child:  # parents first
        keys.append(keys[b] + (j,))
    buckets: dict[int, list[str]] = {}
    for cid in space.ids():
        if cid in bucket_of:
            buckets.setdefault(bucket_of[cid], []).append(cid)
    blocks, profile = [], {}
    for b, cells in buckets.items():
        if len(cells) == 1:
            blocks.append(cells)
            profile[cells[0]] = 1.0
            continue
        coords = [[generators[j][1][cid] for cid in cells] for j in keys[b]]
        tops = [max(map(abs, vec)) for vec in zip(*coords)]
        columns = ([x / top for x, top in zip(coord, tops)] for coord in coords)
        for group in tolerance_groups(len(cells), columns, tol):
            group.sort()  # into space order
            first = group[0]
            anchor = max(coords, key=lambda coord: abs(coord[first]))
            members = []
            for i in group:
                lam = anchor[i] / anchor[first]
                if lam > 0.0:
                    members.append(cells[i])
                    profile[cells[i]] = lam
                else:  # only a tol of 1 or more groups vectors of opposite sign
                    blocks.append((cells[i],))
                    profile[cells[i]] = 1.0
            blocks.append(members)
    return Sublattice._canonical(space, blocks, profile)


# The bucket grouping and the join from before the join bucketed its cells by
# (A-block, C-block) itself, kept verbatim as the references their
# differential tests compare against: `_proportional_blocks` with the pass
# that takes a bucket as one group without a sort, and `lattice_join`
# handing every block of A and of C to it as a generator.

def reference_one_group_blocks(
    space: Space, generators: Sequence[tuple[Iterable[str], Mapping[str, float]]], tol: float
) -> Sublattice:
    """The sublattice generated by functions given as (support, values) pairs,
    nonzero on the support: the one routine that groups cells into blocks.

    Cells are bucketed by their key, the exact tuple of generators nonzero on
    them: cells whose supports differ never share a block, even where a
    scaled value is within tol of 0.  A one-cell bucket is the block
    {cell: 1.0}; in a larger one, cells share a block when their vectors are
    positive multiples: scaled to a max-abs of 1, within tol.  A profile is
    the ratio to the group's first cell on the coordinate of largest |value|
    there (the earliest of equal ones).  Cost: O(sum of supports + n log n).

    A bucket whose every scaled column spans at most tol (max - min <= tol)
    is one group, found without a sort, and when every ratio is positive its
    profile is written in one pass.  This is what `tolerance_groups` finds:
    the columns lie in [-1, 1], where `close(lo, x, tol)` is `x - lo <= tol`,
    so the run that starts at a column's least value takes every value
    exactly when it takes the largest.  Every other bucket goes through
    `tolerance_groups` from its first column that spans more; the columns
    before it keep the bucket whole, and the partition it returns depends
    only on the keys.  The shortcut holds for scaled columns only: beyond
    +-1 `close` is relative.
    """
    # partition refinement: generator j moves its cells from bucket b (0: none) to child[b, j]
    bucket_of: dict[str, int] = {}
    child: dict[tuple[int, int], int] = {}
    for j, (support, _) in enumerate(generators):
        for cid in support:
            bucket_of[cid] = child.setdefault((bucket_of.get(cid, 0), j), len(child) + 1)
    keys: list[tuple[int, ...]] = [()]
    for b, j in child:  # parents first
        keys.append(keys[b] + (j,))
    buckets: dict[int, list[str]] = {}
    for cid in space.ids():
        if cid in bucket_of:
            buckets.setdefault(bucket_of[cid], []).append(cid)
    blocks, profile = [], {}
    for b, cells in buckets.items():
        if len(cells) == 1:
            blocks.append(cells)
            profile[cells[0]] = 1.0
            continue
        coords = [[generators[j][1][cid] for cid in cells] for j in keys[b]]
        tops = [max(map(abs, vec)) for vec in zip(*coords)]
        columns = ([x / top for x, top in zip(coord, tops)] for coord in coords)
        for column in columns:
            if not max(column) - min(column) <= tol:  # a nan tol splits too
                groups = tolerance_groups(len(cells), chain((column,), columns), tol)
                break
        else:  # one group: every cell, in space order
            anchor = max(coords, key=lambda coord: abs(coord[0]))
            ratios = list(map(truediv, anchor, repeat(anchor[0])))
            if min(ratios) > 0.0:
                blocks.append(cells)
                profile.update(zip(cells, ratios))
                continue
            groups = [list(range(len(cells)))]
        for group in groups:
            group.sort()  # into space order
            first = group[0]
            anchor = max(coords, key=lambda coord: abs(coord[first]))
            members = []
            for i in group:
                lam = anchor[i] / anchor[first]
                if lam > 0.0:
                    members.append(cells[i])
                    profile[cells[i]] = lam
                else:  # only a tol of 1 or more groups vectors of opposite sign
                    blocks.append((cells[i],))
                    profile[cells[i]] = 1.0
            blocks.append(members)
    return Sublattice._canonical(space, blocks, profile)


def reference_generator_join(A: Sublattice, C: Sublattice, tol: float = DEFAULT_TOL) -> Sublattice:
    """The sublattice generated by the members of A and C together, which is
    dcl(A.generators() + C.generators()) by construction: `_proportional_blocks`
    of A's then C's block profiles, keyed exactly by (A-block, C-block).  O(n log n)."""
    if A.space != C.space:
        raise SpaceMismatch("sublattices live on different spaces")
    blocks = [(block, lat.profile) for lat in (A, C) for block in lat.blocks]
    return reference_one_group_blocks(A.space, blocks, tol)


# The gaps from before `sublattice._expectation` served a sequence of cell
# lists, kept verbatim with the one-list expectation they called, as the
# reference their differential test compares against: two expectation calls,
# each building its member through `Sublattice._member_values`, per block of A.

def _reference_expectation(
    C: Sublattice, cells: Sequence[str], values: Mapping[str, float]
) -> dict[str, float]:
    """The values of cond_exp(f, C) for the f with these values on these
    cells (in space order) and 0 elsewhere: per block, mu * w**(p-1) * f
    summed over its given cells, over its nu-mass (a cell where f is 0 would
    add +0.0, which changes no sum)."""
    factor, _, mass = C.nu_table
    block_of = C._block_of
    num: dict[int, float] = {}
    for cid in cells:
        k = block_of.get(cid)
        if k is not None:
            num[k] = num.get(k, 0.0) + factor[cid] * values[cid]
    return C._member_values((k, num[k] / mass[k]) for k in sorted(num))


def reference_expectation_gaps(A: Sublattice, B: Sublattice, C: Sublattice) -> Iterator[float]:
    """Lazily, per block of A in order, norm(cond_exp(e, B) - cond_exp(e, C))
    for the block's generator e, bit-equal to that expression: one
    expectation over the block's own cells onto each of B and C."""
    for block in A.blocks:
        yield _gap(
            A.space, _reference_expectation(B, block, A.profile), _reference_expectation(C, block, A.profile)
        )


# --- reference canonical base ---------------------------------------------------
# The join-and-reslice fixpoint that the closed-form `canonical_base` in
# `lplattice.independence` replaced, kept verbatim as the reference its
# differential test compares against: dcl over the conditional slices, and
# for tuples rounds of joins with the slices of every joined generator.

def _slice_members(f: StepFunction, A: Sublattice, tol: float) -> list[StepFunction]:
    # the conditional slices of f over A, one per interval; dcl absorbs repeats
    prof = slice_profile(f, A, tol)
    return [prof.function_at(r) for r in reference_merged_midpoints(prof)]


# join-and-reslice rounds the tuple canonical base may take before NonTermination
MAX_ROUNDS = 32


def reference_canonical_base(
    fs: Sequence[StepFunction],
    A: Sublattice,
    tol: float = DEFAULT_TOL,
) -> Sublattice:
    """The canonical base of tp(fs / A).

    For one function this is the sublattice generated by its distinct
    conditional slices over A.  For tuples, a join-and-reslice fixpoint runs
    until the block structure stabilizes; the output is always certified by
    an independence check and never silently accepted.
    """
    fs = tuple(fs)
    space = A.space
    for f in fs:
        if f.space != space:
            raise SpaceMismatch("function lives on a different space")
    seeds = [s for f in fs for s in _slice_members(f, A, tol)]
    cb = dcl(space, seeds, tol)
    if len(fs) > 1:
        for _ in range(MAX_ROUNDS):
            joined = lattice_join(dcl(space, fs, tol), cb, tol)
            extra = [s for e in joined.generators() for s in _slice_members(e, A, tol)]
            nxt = lattice_join(cb, dcl(space, extra, tol), tol)
            if nxt.equals(cb, tol):
                break
            cb = nxt
        else:
            raise NonTermination("canonical base iteration did not stabilize")
    verdict = star_independent(fs, A, cb, tol)
    if not verdict.independent:
        raise CertificationFailed(
            "canonical base candidate failed the independence certificate"
        )
    return cb


# --- reference nu-presentation ---------------------------------------------------
# mu * w**p and the block masses as the references compute them, apart from
# Sublattice.nu_table; the mass is summed from the left, as on the fast path.

def _nu(C: Sublattice, cid: str) -> float:
    return C.space.weight(cid) * C.profile[cid] ** C.space.p


def _nu_block(C: Sublattice, k: int) -> float:
    total = 0.0
    for cid in C.blocks[k]:
        total += _nu(C, cid)
    return total


# --- reference block-law layouts ------------------------------------------------
# The per-job copies that `typespace._layout` replaced, kept verbatim as the
# references their differential tests compare against: `slice_profile` over
# `_rearrange`, and `realize_cond_distribution` over the (fractions, vectors)
# form of `_lay_out`.

def _rearrange(pairs: Sequence[tuple[float, float]], tol: float) -> tuple[Segment, ...]:
    # pairs: (value, mass) -> merged decreasing segments with normalized lengths
    total = sum(mass for _, mass in pairs)
    atoms = _merge_atoms([((value,), mass) for value, mass in pairs], tol)
    return tuple((mass / total, vec[0]) for vec, mass in reversed(atoms))


def reference_slice_profile(f: StepFunction, C: Sublattice, tol: float = DEFAULT_TOL) -> SliceProfile:
    """The full conditional slice map of f over C, block by block."""
    if f.space != C.space:
        raise SpaceMismatch("function lives on a different space")
    per_block = []
    for block in C.blocks:
        pairs = [(f[cid] / C.profile[cid], _nu(C, cid)) for cid in block]
        per_block.append(_rearrange(pairs, tol))
    return SliceProfile(C, tuple(per_block))


def _lay_out(
    C: Sublattice,
    per_block: Sequence[tuple[Sequence[float], Sequence[tuple[float, ...]]]],
    fresh: Sequence[tuple[str, float, tuple[float, ...]]],
    arity: int,
) -> tuple[Space, Refinement, tuple[StepFunction, ...]]:
    """Lay out `arity` functions on one refinement of C's space.

    per_block[k] is (fractions, value vectors): every cell of block k splits
    by the fractions, and child j takes vector j scaled by the cell's
    profile.  fresh lists (id, weight, value vector) cells appended outside
    C's support.
    """
    plan = {}
    for block, (fractions, _) in zip(C.blocks, per_block):
        if len(fractions) > 1:
            for cid in block:
                plan[cid] = fractions
    refinement = refine_space(
        C.space, plan, [(fid, weight) for fid, weight, _ in fresh]
    )
    child = refinement.child
    value_maps: list[dict[str, float]] = [{} for _ in range(arity)]
    for block, (_, vectors) in zip(C.blocks, per_block):
        for cid in block:
            scale = C.profile[cid]
            for kid, vec in zip(refinement.splitting[cid], vectors):
                for i in range(arity):
                    value_maps[i][kid] = vec[i] * scale
    for fid, _, vec in fresh:
        for i in range(arity):
            value_maps[i][fid] = vec[i]
    return child, refinement, tuple(StepFunction(child, vals) for vals in value_maps)


def reference_realize_cond_distribution(
    d: ConditionalDistribution, C: Sublattice, tol: float = DEFAULT_TOL
) -> tuple[Space, Refinement, tuple[StepFunction, ...]]:
    """Realize a prescribed conditional law by proportional cell splitting.

    Each support cell splits by the block's normalized atom masses, so every
    atom occupies the same r-interval across the whole block; orthogonal
    atoms land on fresh cells whose weight equals the atom's mass.
    """
    if not d.sublattice.equals(C, tol):
        raise InvalidDistribution("distribution is over a different sublattice")
    per_block = []
    for k, block_atoms in enumerate(d.per_block):
        atoms = sorted(block_atoms, key=lambda a: tuple(-x for x in a[0]))
        if not atoms:
            raise InvalidDistribution(f"block {k} carries no mass")
        total = _nu_block(C, k)
        per_block.append(
            (tuple(mass / total for _, mass in atoms), [vec for vec, _ in atoms])
        )
    fresh = [
        (fid, mass, vec)
        for fid, (vec, mass) in zip(fresh_ids(C.space, len(d.orth)), d.orth)
    ]
    return _lay_out(C, per_block, fresh, d.arity)


# --- reference conditional expectation -------------------------------------------
# The per-block loop that `lplattice.sublattice.cond_exp` replaced, kept
# verbatim (but for the touched blocks, found here through `block_of`) as the
# reference its differential test and `reference_star_independent` use: all
# of a touched block's cells, both powers of w computed per cell.

def reference_cond_exp(f: StepFunction, C: Sublattice) -> StepFunction:
    """Conditional expectation of f onto C.

    Per block the coefficient is the nu-weighted average of f/w, the unique
    choice satisfying sum_B nu * (E f)/w = sum_B nu * f/w; the result
    vanishes on the band orthogonal to C.  Only the blocks f's support
    touches are visited, in block order (the others have coefficient 0), so
    the cost is the total size of those blocks, not the size of C.
    """
    if f.space != C.space:
        raise SpaceMismatch("function lives on a different space")
    p = C.space.p
    out = {}
    touched = sorted({C.block_of(cid) for cid in f.values} - {None})
    for k in touched:
        block = C.blocks[k]
        num = 0.0
        den = 0.0
        for cid in block:
            mu = C.space.weight(cid)
            w = C.profile[cid]
            num += mu * w ** (p - 1.0) * f[cid]
            den += mu * w ** p
        c = num / den
        if c != 0.0:
            for cid in block:
                out[cid] = c * C.profile[cid]
    return StepFunction(C.space, out)


# --- reference independence tests ----------------------------------------------
# The per-generator loops that the one-pass gaps in `lplattice.independence`
# replaced, kept verbatim as the references their differential tests compare
# against: one cond_exp pair, one subtraction and one norm per generator of A'
# (per midpoint r for the slice test).

def reference_star_independent(
    A: SideInput, B: SideInput, C: SideInput, tol: float = DEFAULT_TOL
) -> IndependenceVerdict:
    """Test whether A is *-independent from B over C.

    Joins everything with dcl(C) and compares the conditional expectations
    onto B' and onto C on the block generators of A' (enough, by linearity).
    The witness is the failing generator with the largest norm gap; ties go
    to the earliest block in canonical order.
    """
    space = _space_of(A, B, C)
    Cbar = _as_sublattice(C, space, tol)
    Aprime = lattice_join(_as_sublattice(A, space, tol), Cbar, tol)
    Bprime = lattice_join(_as_sublattice(B, space, tol), Cbar, tol)
    worst: Optional[Witness] = None
    for e in Aprime.generators():
        over_b = reference_cond_exp(e, Bprime)
        over_c = reference_cond_exp(e, Cbar)
        gap = norm(over_b - over_c)
        if gap > tol and (worst is None or gap > worst.gap):
            worst = Witness("expectation", e, None, over_b, over_c, gap)
    return IndependenceVerdict(worst is None, worst)


def reference_slice_independent(
    f: StepFunction, B: Sublattice, C: Sublattice, tol: float = DEFAULT_TOL
) -> IndependenceVerdict:
    """Slice characterization: f is independent from B over C exactly when
    the conditional slices of f over B and over C agree at every r."""
    if not is_sublattice_of(C, B, tol):
        raise PreconditionFailed("C is not a sublattice of B")
    prof_b = slice_profile(f, B, tol)
    prof_c = slice_profile(f, C, tol)
    worst: Optional[Witness] = None
    for r in reference_merged_midpoints(prof_b, prof_c):
        over_b = prof_b.function_at(r)
        over_c = prof_c.function_at(r)
        gap = norm(over_b - over_c)
        if gap > tol and (worst is None or gap > worst.gap):
            worst = Witness("slice", f, r, over_b, over_c, gap)
    return IndependenceVerdict(worst is None, worst)


# The exact loop over every block of A that `restricted_star_check` ran
# before it went through `_worst_block`'s screen, kept verbatim as the
# reference its differential test compares against.

def reference_restricted_star_check(
    A: Sublattice, B: Sublattice, C: Sublattice, tol: float = DEFAULT_TOL
) -> bool:
    """Expectation test on the generators of A alone (no join with C).

    Valid only when C <= B and A intersects C well; under those
    preconditions the verdict agrees with star_independent.
    """
    _require_sublattice(C, B, "B", tol)
    if not intersects_well(A, C, tol):
        raise PreconditionFailed("A and C do not intersect well")
    return all(gap <= tol for gap in _expectation_gaps(A, B, C))


def lattice_terms(fs: list[StepFunction]) -> list[StepFunction]:
    """A sample of lattice-polynomial images of a tuple: the functions, all
    pairwise meets/joins, positive parts of differences, and a couple of
    linear combinations."""
    out = list(fs)
    for f, g in itertools.combinations(fs, 2):
        out.append(f.meet(g))
        out.append(f.join(g))
        out.append((f - g).pos())
        out.append(f + g)
    if len(fs) >= 2:
        out.append(fs[0] - 2.0 * fs[1])
    out.append(sum(fs[1:], fs[0]).pos())
    return [f for f in out if f.values]


# --- reference serializer ------------------------------------------------------
# The token-appending writer that `lplattice.scenario.dumps` replaced, kept
# verbatim as the reference the serializer's differential test compares against.

def _format_number(x: float) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if not math.isfinite(x):
        raise ValidationError(f"cannot serialize non-finite number {x!r}")
    s = format(float(x), ".17g")
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def _write(doc: Any, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if doc is None:
        out.append("null")
    elif isinstance(doc, bool):
        out.append("true" if doc else "false")
    elif isinstance(doc, (int, float)):
        out.append(_format_number(doc))
    elif isinstance(doc, str):
        out.append(json.dumps(doc))
    elif isinstance(doc, (list, tuple)):
        if not doc:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(doc):
            out.append(inner)
            _write(item, indent + 1, out)
            out.append(",\n" if i + 1 < len(doc) else "\n")
        out.append(pad + "]")
    elif isinstance(doc, dict):
        if not doc:
            out.append("{}")
            return
        out.append("{\n")
        items = list(doc.items())
        for i, (key, value) in enumerate(items):
            out.append(inner + json.dumps(str(key)) + ": ")
            _write(value, indent + 1, out)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    else:
        raise ValidationError(f"cannot serialize {type(doc).__name__}")


def reference_dumps(doc: Any) -> str:
    """Serialize a report or scenario document with stable bytes."""
    out: list[str] = []
    _write(doc, 0, out)
    out.append("\n")
    return "".join(out)



# --- reference joined serializer -----------------------------------------------
# `lplattice.scenario._encode` from before it wrote containers column by column:
# one joined string per value, written item by item.  Kept verbatim, with its
# number formatter, as the second reference the serializer's differential tests
# compare against.

def _joined_number(x: float) -> str:
    if not math.isfinite(x):
        raise ValidationError(f"cannot serialize non-finite number {x!r}")
    s = format(float(x), ".17g")
    return s if "." in s or "e" in s else s + ".0"


def _joined_encode(doc: Any, newline: str) -> str:
    """The text of `doc`; `newline` is a line break and the indent of its line."""
    kind = type(doc)
    if kind is float:
        return _joined_number(doc)
    if kind is str:
        return encode_basestring_ascii(doc)
    if kind is dict:
        if not doc:
            return "{}"
        inner = newline + "  "
        items = [encode_basestring_ascii(str(key)) + ": " + _joined_encode(value, inner) for key, value in doc.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not doc:
            return "[]"
        inner = newline + "  "
        items = [_joined_encode(item, inner) for item in doc]
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
        return _joined_number(doc)
    if isinstance(doc, str):
        return encode_basestring_ascii(doc)
    if isinstance(doc, (list, tuple)):
        return _joined_encode(list(doc), newline)
    if isinstance(doc, dict):
        return _joined_encode(dict(doc.items()), newline)
    raise ValidationError(f"cannot serialize {type(doc).__name__}")


def joined_dumps(doc: Any) -> str:
    """Serialize a report or scenario document with stable bytes."""
    return _joined_encode(doc, "\n") + "\n"

# --- reference constructor checks and block laws ---------------------------------
# The per-cell checks `Space`, `StepFunction` and `Refinement` ran on every
# construction before they settled their invariants in bulk (`Space` and
# `Refinement` now check in one pass of their own, `StepFunction` in bulk with
# this loop behind it), and `typespace._block_laws` with `_merge_atoms` from
# before one function got its own loop, kept verbatim (the checks as functions
# of the constructor's fields) as the references their differential tests
# compare against.  `reference_merge_atoms` divides a run's mass-weighted sum
# by its total before it drops a zero total, so runs whose masses all
# underflow to 0.0 are tested apart (test_typespace.py::TestZeroMassRuns).

def reference_space_check(cells: tuple, p: float) -> None:
    seen = set()
    for cid, w in cells:
        if cid in seen:
            raise DuplicateId(f"duplicate cell id {cid!r}")
        seen.add(cid)
        _finite(w, f"weight of cell {cid!r}")
        if w <= 0.0:
            raise NonPositiveWeight(f"cell {cid!r} has weight {w!r}")
    _finite(p, "exponent p")
    if p < 1.0:
        raise BadExponent(f"p must be >= 1, got {p!r}")


def reference_step_values(space: Space, values: Mapping[str, Any]) -> dict[str, float]:
    """The values StepFunction keeps: floats, exact zeros pruned."""
    pruned = {}
    for cid, v in values.items():
        if cid not in space:
            raise UnknownCell(f"no cell {cid!r}")
        v = _finite(v, f"value on cell {cid!r}")
        if v != 0.0:
            pruned[cid] = v
    return pruned


def reference_refinement_check(parent: Space, child: Space, splitting: dict) -> None:
    stray = set(splitting) - set(parent.ids())
    if stray:
        raise UnknownCell(f"splitting mentions unknown cell {sorted(stray)[0]!r}")
    seen: set[str] = set()
    for cid, w in parent.cells:
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
            total += child.weight(kid)
        # a split is exact (its fractions sum to 1), so its children sum
        # to w up to rounding relative to w: this bounds that rounding,
        # and is not the caller's data tol
        if not close(total / w, 1.0):
            raise BadFractions(f"children of {cid!r} sum to {total!r}, expected {w!r}")


def reference_merge_atoms(atoms: Iterable[Atom], tol: float) -> tuple[Atom, ...]:
    """Atoms with equal vectors summed, then each tolerance group replaced by
    its mass-weighted mean; increasing order, zero masses dropped."""
    acc: dict[tuple[float, ...], float] = {}
    for vec, mass in atoms:
        acc[vec] = acc.get(vec, 0.0) + mass
    vecs = sorted(acc)
    merged = []
    for group in tolerance_groups(len(vecs), zip(*vecs), tol):
        if len(group) == 1:
            vec = vecs[group[0]]
            total = acc[vec]
        else:
            total = left_sum(acc[vecs[i]] for i in group)
            vec = tuple(
                left_sum(vecs[i][d] * acc[vecs[i]] for i in group) / total
                for d in range(len(vecs[group[0]]))
            )
        if total > 0.0:
            merged.append((vec, total))
    return tuple(merged)


def reference_block_laws(
    fs: tuple[StepFunction, ...], C: Sublattice, tol: float
) -> Iterator[tuple[tuple[Atom, ...], float]]:
    """Per block of C, the merged law of the profile-normalized value vectors
    and its nu-mass.  Lazy, so only the block in hand is alive; the space
    check runs at the first step."""
    for f in fs:
        if f.space != C.space:
            raise SpaceMismatch("function lives on a different space")
    _, nu, mass = C.nu_table
    for block, total in zip(C.blocks, mass):
        # one column per function, paired up per cell; an empty tuple is () on every cell
        columns = [[f[cid] / C.profile[cid] for cid in block] for f in fs]
        vecs = zip(*columns) if fs else [()] * len(block)
        yield reference_merge_atoms(zip(vecs, [nu[cid] for cid in block]), tol), total


# --- reference r-axis readers ------------------------------------------------------
# The two readers of (0,1) that `typespace._sweep` replaced, kept verbatim as
# the references their differential tests compare against.  One merged cuts
# at 1e-12, keeping the cut seen first and ending at 1, and read each layout
# by bisect at the midpoints: realizations, canonical bases, merged midpoints
# and the slice test used it.  The other, a two-pointer walk stepping past
# cuts within 1e-15 and ending at the smaller last cut, served `distance` and
# `TypeDatum.equals`.

def _cumulative(segs: Sequence[Segment]) -> list[float]:
    cuts = []
    cum = 0.0
    for length, _ in segs:
        cum += length
        cuts.append(cum)
    return cuts


# Two r-cuts closer than this are one point of (0,1).  Cuts are running sums
# of segment lengths, so near-equal ones differ by rounding, not by data.
_CUT_TOL = 1e-12

# a rounding bound, not a data tolerance: _piecewise_pth_power steps past a cut this close
_STEP_TOL = 1e-15


def _merge_cuts(cuts: Iterable[float]) -> list[float]:
    """0, the distinct interior cuts in increasing order, then 1.

    Cuts within _CUT_TOL of 0 or 1 are absorbed by them.  Cuts within
    _CUT_TOL of the smallest cut of their run count as one, represented by
    the one seen first.
    """
    interior = [c for c in cuts if c > _CUT_TOL and 1.0 - c > _CUT_TOL]
    groups = tolerance_groups(len(interior), [interior], _CUT_TOL)
    return [0.0] + [interior[min(group)] for group in groups] + [1.0]


def _intervals(cuts: Iterable[float]) -> list[tuple[float, float]]:
    """(length, midpoint) of each interval the merged cuts cut out of (0,1)."""
    merged = _merge_cuts(cuts)
    return [(b - a, (a + b) / 2.0) for a, b in zip(merged, merged[1:])]


def _read(layouts: Sequence[Sequence[tuple]], cuts: Sequence[list[float]], r: float) -> list:
    """Every layout's value at r, right-continuous: one bisect on its cuts
    (_cumulative), and past its last cut, its last segment's value."""
    return [segs[bisect_right(c, r, 0, len(segs) - 1)][1] for segs, c in zip(layouts, cuts)]


def _read_intervals(layouts: Sequence[Layout]) -> Iterator[tuple[float, list]]:
    """Lazily, per interval of all the layouts' merged cuts: (length, values at its midpoint)."""
    cuts = [_cumulative(segs) for segs in layouts]
    for length, r in _intervals(c for cs in cuts for c in cs[:-1]):
        yield length, _read(layouts, cuts, r)


def reference_piecewise_pth_power(
    segs1: Sequence[Segment], segs2: Sequence[Segment], p: float
) -> float:
    # integral over (0,1) of |v1(r) - v2(r)|^p, exact on the merged breakpoints
    cuts1 = _cumulative(segs1)
    cuts2 = _cumulative(segs2)
    total = 0.0
    i = j = 0
    pos = 0.0
    while True:
        end = min(cuts1[i], cuts2[j])
        total += (end - pos) * abs(segs1[i][1] - segs2[j][1]) ** p
        pos = end
        at_last1 = i == len(segs1) - 1
        at_last2 = j == len(segs2) - 1
        if at_last1 and at_last2:
            return total
        if cuts1[i] <= end + _STEP_TOL and not at_last1:
            i += 1
        if cuts2[j] <= end + _STEP_TOL and not at_last2:
            j += 1


def reference_breakpoints(prof: SliceProfile) -> tuple[float, ...]:
    """Interior segment boundaries, merged across all blocks; boundaries
    within _CUT_TOL of 0 or 1 are not interior."""
    return tuple(_merge_cuts(c for cuts in map(_cumulative, prof.per_block) for c in cuts[:-1])[1:-1])


def reference_merged_midpoints(*profiles: SliceProfile) -> tuple[float, ...]:
    """Midpoints of the intervals cut out of (0,1) by all breakpoints."""
    return tuple(mid for _, mid in _intervals(c for prof in profiles for c in reference_breakpoints(prof)))


def documented_cuts(layouts: Sequence[Layout]) -> list[float]:
    """0, the merged interior cuts and the smallest last cut, by the rules
    `typespace._sweep` documents, built from the old `_merge_cuts`: in
    sorted order the first cut seen in a run is its smallest."""
    cuts = [_cumulative(segs) for segs in layouts]
    merged = _merge_cuts(sorted(c for cs in cuts for c in cs[:-1]))
    merged[-1] = min(cs[-1] for cs in cuts)
    return merged


def reference_type_equals(t1: TypeDatum, t2: TypeDatum, tol: float = DEFAULT_TOL) -> bool:
    """`TypeDatum.equals` as it was, comparing the profiles block by block on the walk."""
    if not t1.sublattice.equals(t2.sublattice, tol):
        return False
    if not close(t1.orth_pos, t2.orth_pos, tol):
        return False
    if not close(t1.orth_neg, t2.orth_neg, tol):
        return False
    a, b = t1.profile, t2.profile
    if len(a.per_block) != len(b.per_block):
        return False
    for segs_a, segs_b in zip(a.per_block, b.per_block):
        if reference_piecewise_pth_power(segs_a, segs_b, 1.0) > tol:
            return False
    return True


def reference_distance(t1: TypeDatum, t2: TypeDatum, tol: float = DEFAULT_TOL) -> float:
    """Distance between two 1-types over one sublattice.

    d^p integrates the p-th power gap of the slice profiles block by block
    (nu-weighted) and adds the gaps of the orthogonal part norms.  Raises
    NonFiniteValue when that sum overflows.
    """
    C = t1.sublattice
    if not C.equals(t2.sublattice, tol):
        raise SublatticeMismatch("types live over different sublattices")
    p = C.space.p
    total = 0.0
    try:
        for k in range(len(C.blocks)):
            total += C.nu_block(k) * reference_piecewise_pth_power(
                t1.profile.per_block[k], t2.profile.per_block[k], p
            )
        total += abs(t1.orth_pos - t2.orth_pos) ** p
        total += abs(t1.orth_neg - t2.orth_neg) ** p
    except OverflowError:
        # a finite float ** p past the float range raises instead of giving inf
        total = math.inf
    if not math.isfinite(total):
        raise NonFiniteValue(f"distance overflows: its p-th power sum is {total!r}")
    return total ** (1.0 / p)


def reference_realize_common(
    t1: TypeDatum, t2: TypeDatum, tol: float = DEFAULT_TOL
) -> tuple[StepFunction, StepFunction]:
    """Realize two types over one C on a common refinement, sharing the fresh
    cells that carry the orthogonal parts; the norm of the difference then
    attains the type distance."""
    C = t1.sublattice
    if not C.equals(t2.sublattice, tol):
        raise SublatticeMismatch("types live over different sublattices")
    per_block = [
        tuple((length, tuple(values)) for length, values in _read_intervals(layouts))
        for layouts in zip(t1.profile.per_block, t2.profile.per_block)
    ]
    fresh = _orth_cells(C.space, (t1.orth_pos, t2.orth_pos), (t1.orth_neg, t2.orth_neg))
    return _typespace_lay_out(C, per_block, fresh, 2)[1]


def reference_closed_canonical_base(
    fs: Sequence[StepFunction],
    A: Sublattice,
    tol: float = DEFAULT_TOL,
) -> Sublattice:
    """The canonical base of tp(fs / A): A's blocks grouped by the law of
    fs/w up to a positive scale.

    Block k's law is laid out on (0,1) in decreasing order, lengths
    m/nu(B_k), divided by s_k, its largest |value| (dropped if s_k = 0).
    The layouts are read at the midpoints of all blocks' merged cuts and
    grouped within tol; a group is one block of the base, with profile
    s_k * w on block k.  The base is certified by star_independent(fs, A,
    base) and never silently accepted.
    """
    fs = tuple(fs)
    kept = []  # (A-block, s_k, layout of the law divided by s_k)
    for block, (atoms, nu) in zip(A.blocks, _block_laws(fs, A, tol)):
        scale = max((abs(x) for vec, _ in atoms for x in vec), default=0.0)
        if scale > 0.0:
            scaled = [(tuple(x / scale for x in vec), mass) for vec, mass in atoms]
            kept.append((block, scale, _layout(scaled, nu)))
    # column (r, d): coordinate d of every kept layout at the merged midpoint r
    columns = (
        [vec[d] for vec in values]
        for _, values in _read_intervals([layout for _, _, layout in kept])
        for d in range(len(fs))
    )
    blocks, profile = [], {}
    for group in tolerance_groups(len(kept), columns, tol):
        profile.update((cid, kept[i][1] * A.profile[cid]) for i in group for cid in kept[i][0])
        blocks.append(A.space.sort_cells(cid for i in group for cid in kept[i][0]))
    cb = Sublattice._canonical(A.space, blocks, profile)
    verdict = star_independent(fs, A, cb, tol)
    if not verdict.independent:
        raise CertificationFailed(
            "canonical base candidate failed the independence certificate"
        )
    return cb


# --- reference scenario readers ------------------------------------------------
# `scenario.space_from_doc`, `scenario._numbers` and
# `scenario._Runner._sublattice_from_doc` from before they settled a document
# in bulk, when every number went through `_number` and every block through
# `Sublattice.make`, kept verbatim (the method as a function of the runner) as
# the references their differential test compares against.  They share only
# the field helpers (`_number`, `_require`, `_of_kind`, `_naming` and the field
# kinds) with the readers they check.

def reference_numbers(doc: Any, path: str) -> dict[str, float]:
    """An object of numbers keyed by cell id, as floats."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: must be an object of numbers")
    return {str(k): _number(v, path, k) for k, v in doc.items()}


def reference_space_from_doc(doc: Any) -> Space:
    _require(doc, "space", ("p", "cells"))
    cells = []
    for j, c in enumerate(_of_kind(doc["cells"], "space.cells", _LIST)):
        _require(c, f"space.cells[{j}]", ("id", "weight"))
        cells.append((str(c["id"]), _number(c["weight"], f"space.cells[{j}].weight")))
    p = _number(doc["p"], "space.p")
    with _naming("space"):
        return Space(tuple(cells), p)


def reference_sublattice_from_doc(runner: Any, name: str, doc: Any) -> Sublattice:
    path = f"sublattices.{name}"
    _of_kind(doc, path, _OBJECT)
    if "generators" in doc:
        where = f"{path}.generators"
        generators = _FNS[2](runner, _of_kind(doc["generators"], where, _FNS), where)
        with _naming(path):
            return dcl(runner.space, generators, runner.tol)
    if "blocks" in doc:
        blocks = []
        for j, b in enumerate(_of_kind(doc["blocks"], f"{path}.blocks", _LIST)):
            _require(b, f"{path}.blocks[{j}]", ("cells", "profile"))
            cells = [str(c) for c in _of_kind(b["cells"], f"{path}.blocks[{j}].cells", _CELLS)]
            prof = reference_numbers(b["profile"], f"{path}.blocks[{j}].profile")
            _require(prof, f"{path}.blocks[{j}].profile", cells)
            blocks.append((cells, prof))
        with _naming(path):
            return Sublattice.make(runner.space, blocks)
    raise ValidationError(f"{path}: sublattice document needs 'blocks' or 'generators'")
