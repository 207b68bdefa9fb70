"""Shared helpers for the test suite."""

from __future__ import annotations

import itertools
import json
import math
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from lplattice import (
    DEFAULT_TOL,
    CertificationFailed,
    ConditionalDistribution,
    InvalidDistribution,
    NonTermination,
    PreconditionFailed,
    Refinement,
    SliceProfile,
    Space,
    SpaceMismatch,
    StepFunction,
    Sublattice,
    ValidationError,
    dcl,
    is_sublattice_of,
    lattice_join,
    merged_midpoints,
    norm,
    refine_space,
    slice_profile,
    star_independent,
)
from lplattice.core import fresh_ids, tolerance_groups
from lplattice.independence import (
    IndependenceVerdict,
    SideInput,
    Witness,
    _as_sublattice,
    _space_of,
)
from lplattice.oracles import proportionality_classes
from lplattice.typespace import Segment, _merge_atoms


def brute_intersection(A: Sublattice, C: Sublattice, tol: float = 1e-9) -> Sublattice:
    """Intersection of two sublattices by solving the linear constraint system.

    A member of both lattices is h = x . GA = y . GC for generator matrices
    GA, GC; the solution subspace is itself a sublattice, so its block form
    is read off the positive-proportionality classes of the basis columns.
    """
    space = A.space
    ids = space.ids()
    ga = np.array([[g[c] for c in ids] for g in A.generators()], dtype=float)
    gc = np.array([[g[c] for c in ids] for g in C.generators()], dtype=float)
    if ga.size == 0 or gc.size == 0:
        return Sublattice.trivial(space)
    # [GA^T | -GC^T] [x; y] = 0
    m = np.hstack([ga.T, -gc.T])
    _, s, vt = np.linalg.svd(m)
    rank = int(np.sum(s > tol * max(1.0, float(s[0]))))
    null = vt[rank:]
    if null.shape[0] == 0:
        return Sublattice.trivial(space)
    h_basis = null[:, : ga.shape[0]] @ ga
    keep = [row for row in h_basis if float(np.max(np.abs(row))) > 1e-8]
    if not keep:
        return Sublattice.trivial(space)
    # 1e-7 for a zero column and, relative, for proportional columns
    return Sublattice.make(space, proportionality_classes(ids, np.array(keep), 1e-7))


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
    return Sublattice.make(
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
    return Sublattice.make(A.space, blocks)


# --- reference canonical base ---------------------------------------------------
# The join-and-reslice fixpoint that the closed-form `canonical_base` in
# `lplattice.independence` replaced, kept verbatim as the reference its
# differential test compares against: dcl over the conditional slices, and
# for tuples rounds of joins with the slices of every joined generator.

def _slice_members(f: StepFunction, A: Sublattice, tol: float) -> list[StepFunction]:
    # the conditional slices of f over A, one per interval; dcl absorbs repeats
    prof = slice_profile(f, A, tol)
    return [prof.function_at(r) for r in merged_midpoints(prof)]


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
    tol: float,
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
    child, refinement = refine_space(
        C.space, plan, [(fid, weight) for fid, weight, _ in fresh], tol
    )
    value_maps: list[dict[str, float]] = [{} for _ in range(arity)]
    for block, (_, vectors) in zip(C.blocks, per_block):
        for cid in block:
            scale = C.profile[cid]
            for (kid, _), vec in zip(refinement.splitting[cid], vectors):
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
    return _lay_out(C, per_block, fresh, d.arity, tol)


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
    for r in merged_midpoints(prof_b, prof_c):
        over_b = prof_b.function_at(r)
        over_c = prof_c.function_at(r)
        gap = norm(over_b - over_c)
        if gap > tol and (worst is None or gap > worst.gap):
            worst = Witness("slice", f, r, over_b, over_c, gap)
    return IndependenceVerdict(worst is None, worst)


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
