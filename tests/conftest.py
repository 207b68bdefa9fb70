"""Shared helpers for the test suite."""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_right
from json.encoder import encode_basestring_ascii
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
    _space_of,
)
from lplattice.oracles import proportionality_classes
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
    return reference_make(space, proportionality_classes(ids, np.array(keep), 1e-7))


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
# construction before they settled their invariants in bulk, and
# `typespace._block_laws` with `_merge_atoms` from before one function got
# its own loop, kept verbatim (the checks as functions of the constructor's
# fields) as the references their differential tests compare against.

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
