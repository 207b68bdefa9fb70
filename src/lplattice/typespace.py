"""Conditional distributions, conditional slices, 1-type invariants, the type
metric, and realization constructions by exact cell refinement."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import Iterable, Iterator, Sequence

from .core import (
    DEFAULT_TOL,
    Refinement,
    Space,
    StepFunction,
    close,
    fresh_ids,
    left_sum,
    norm,
    refine_space,
    tolerance_groups,
)
from .errors import (
    ArityMismatch,
    BadR,
    InvalidDistribution,
    NonFiniteValue,
    SpaceMismatch,
    SublatticeMismatch,
    TargetOutOfRange,
    UnknownCell,
    ValidationError,
)
from .sublattice import Sublattice, contains

Segment = tuple[float, float]  # (length, value)
Atom = tuple[tuple[float, ...], float]  # (value vector, mass)
Layout = tuple[tuple[float, tuple[float, ...]], ...]  # (length, value vector) segments


@dataclass(frozen=True)
class SliceProfile:
    """Per block of C, the decreasing rearrangement of f/w over (0,1).

    Stored as merged (length, value) segments: lengths sum to 1 per block
    and values strictly decrease, so a.e.-equal profiles canonicalize to the
    same object.  Evaluation at r returns the right-limit value.
    """

    sublattice: Sublattice
    per_block: tuple[tuple[Segment, ...], ...]

    def __post_init__(self) -> None:
        if len(self.per_block) != len(self.sublattice.blocks):
            raise ValidationError("one segment list per block required")
        for k, segments in enumerate(self.per_block):
            if not segments:
                raise ValidationError("empty segment list")
            if not all(map(math.isfinite, chain.from_iterable(segments))):
                j = next(j for j, seg in enumerate(segments) if not all(map(math.isfinite, seg)))
                raise NonFiniteValue(f"block {k} segment {j} is not finite: {segments[j]!r}")
            total = 0.0
            last = math.inf
            for length, value in segments:
                if length <= 0.0:
                    raise ValidationError("segment lengths must be positive")
                if value >= last:
                    raise ValidationError("segment values must strictly decrease")
                last = value
                total += length
            if not close(total, 1.0):
                raise ValidationError(f"segment lengths sum to {total!r}")

    @cached_property
    def _cuts(self) -> tuple[list[float], ...]:  # per block, the running sums of its lengths
        return tuple(list(accumulate(length for length, _ in segs)) for segs in self.per_block)

    def coefficient(self, block_index: int, r: float) -> float:
        """Right-continuous value of the rearrangement at r in (0,1)."""
        return _read([self.per_block[block_index]], [self._cuts[block_index]], r)[0]

    def breakpoints(self) -> tuple[float, ...]:
        """Interior segment boundaries, merged across all blocks by _sweep."""
        return tuple(start for start, _, _ in _sweep(self.per_block))[1:]

    def coefficients_at(self, r: float) -> list[float]:
        """Per block, the right-continuous value of the rearrangement at r."""
        return _read(self.per_block, self._cuts, r)

    def function_at(self, r: float) -> StepFunction:
        """The slice at r as a member of the sublattice."""
        return self.sublattice.member(self.coefficients_at(r))

    def integral_coefficients(self) -> tuple[float, ...]:
        """Per block, the exact value of the r-integral of the rearrangement."""
        return tuple(
            left_sum(length * value for length, value in segments)
            for segments in self.per_block
        )


@dataclass(frozen=True)
class TypeDatum:
    """Complete invariant of a 1-type over C: slice profile plus the norms of
    the positive and negative parts orthogonal to C."""

    profile: SliceProfile
    orth_pos: float
    orth_neg: float

    def __post_init__(self) -> None:
        for name, norm_ in (("orth_pos", self.orth_pos), ("orth_neg", self.orth_neg)):
            if not math.isfinite(norm_):
                raise NonFiniteValue(f"{name} is not finite: {norm_!r}")
        if self.orth_pos < 0.0 or self.orth_neg < 0.0:
            raise ValidationError("orthogonal part norms must be nonnegative")

    @property
    def sublattice(self) -> Sublattice:
        return self.profile.sublattice

    def equals(self, other: "TypeDatum", tol: float = DEFAULT_TOL) -> bool:
        if not self.sublattice.equals(other.sublattice, tol):
            return False
        if not close(self.orth_pos, other.orth_pos, tol):
            return False
        if not close(self.orth_neg, other.orth_neg, tol):
            return False
        pairs = zip(self.profile.per_block, other.profile.per_block)
        return all(_piecewise_pth_power(a, b, 1.0) <= tol for a, b in pairs)


@dataclass(frozen=True)
class ConditionalDistribution:
    """Per block of C, the nu-weighted law of the profile-normalized value
    vectors; plus the mu-weighted off-origin joint law of the orthogonal
    components."""

    sublattice: Sublattice
    arity: int
    per_block: tuple[tuple[Atom, ...], ...]
    orth: tuple[Atom, ...]

    def __post_init__(self) -> None:
        if len(self.per_block) != len(self.sublattice.blocks):
            raise InvalidDistribution("one atom list per block required")
        object.__setattr__(
            self,
            "per_block",
            tuple(tuple(sorted(atoms, key=lambda a: a[0])) for atoms in self.per_block),
        )
        object.__setattr__(self, "orth", tuple(sorted(self.orth, key=lambda a: a[0])))
        for k, atoms in enumerate(self.per_block):
            total = 0.0
            for vec, mass in atoms:
                if not (math.isfinite(mass) and all(map(math.isfinite, vec))):
                    raise NonFiniteValue(f"block {k} atom ({vec!r}, {mass!r}) is not finite")
                if len(vec) != self.arity:
                    raise InvalidDistribution("atom arity mismatch")
                if mass < 0.0:
                    raise InvalidDistribution("negative mass")
                total += mass
            if not close(total, self.sublattice.nu_block(k)):
                raise InvalidDistribution(
                    f"block {k} mass {total!r} differs from nu(block)"
                )
        for vec, mass in self.orth:
            if not (math.isfinite(mass) and all(map(math.isfinite, vec))):
                raise NonFiniteValue(f"orthogonal atom ({vec!r}, {mass!r}) is not finite")
            if len(vec) != self.arity:
                raise InvalidDistribution("atom arity mismatch")
            if mass < 0.0:
                raise InvalidDistribution("negative mass")
            if all(x == 0.0 for x in vec):
                raise InvalidDistribution("orthogonal part carries mass at the origin")


# Two r-cuts closer than this are one point of (0,1).  Cuts are running sums
# of segment lengths, so near-equal ones differ by rounding, not by data.
_CUT_TOL = 1e-12


def _layout(atoms: Sequence[Atom], total: float) -> Layout:
    """A block law laid out on (0,1) in decreasing order: its atoms (given
    increasing) as (mass/total, vector) segments."""
    return tuple([(mass / total, vec) for vec, mass in reversed(atoms)])


def _check_r(r: float) -> None:
    """BadR unless r lies in (0,1); nan does not."""
    if not 0.0 < r < 1.0:
        raise BadR(f"r must lie in (0,1), got {r!r}")


def _read(layouts: Sequence[Sequence[tuple]], cuts: Sequence[list[float]], r: float) -> list:
    """Every layout's value at a given r in (0,1), right-continuous: one bisect
    on its cuts (the running sums of its lengths), and past its last cut, its
    last segment's value.  BadR for any other r."""
    _check_r(r)
    return [segs[bisect_right(c, r, 0, len(segs) - 1)][1] for segs, c in zip(layouts, cuts)]


def _sweep(layouts: Sequence[Sequence[tuple]]) -> Iterator[tuple[float, float, tuple]]:
    """Lazily, per interval that the layouts' merged cuts cut out of (0,1):
    (start, end, every layout's value on it), in increasing order.

    A run of cuts within _CUT_TOL of the run's smallest cut counts as one
    cut, at that smallest value, so the merge does not depend on the order
    of the layouts.  Cuts within _CUT_TOL of 0, of 1 or of the end are not
    interior.  The last interval ends at the smallest last cut.
    """
    cuts, ends = [], []  # (cut, layout) of every cut but the last; every last cut
    for k, segs in enumerate(layouts):
        total = 0.0
        for length, _ in segs:
            total += length
            cuts.append((total, k))
        ends.append(cuts.pop()[0])
    cuts.sort()
    end = min(ends, default=1.0)
    stop = min(end, 1.0)  # absorbs the cuts near it, and every later one
    segments = [iter(segs) for segs in layouts]
    values = [next(it)[1] for it in segments]
    start = 0.0  # the smallest cut of the current run; 0 absorbs the cuts near it
    for cut, k in cuts:
        if stop - cut <= _CUT_TOL:
            break
        if cut - start > _CUT_TOL:
            yield start, cut, tuple(values)
            start = cut
        values[k] = next(segments[k])[1]
    yield start, end, tuple(values)


def _piecewise_pth_power(
    segs1: Sequence[Segment], segs2: Sequence[Segment], p: float
) -> float:
    # integral over (0,1) of |v1(r) - v2(r)|^p, exact on the merged cuts
    total = 0.0
    for start, end, (v1, v2) in _sweep([segs1, segs2]):
        total += (end - start) * abs(v1 - v2) ** p
    return total


def cond_probability(event: Iterable[str], C: Sublattice) -> StepFunction:
    """The conditional probability of a cell event, as a member of C."""
    cells = set(event)
    for cid in cells:
        if cid not in C.space:
            raise UnknownCell(f"no cell {cid!r}")
    _, nu, mass = C.nu_table
    return C.member([
        left_sum(nu[cid] for cid in block if cid in cells) / total
        for block, total in zip(C.blocks, mass)
    ])


def slice_profile(f: StepFunction, C: Sublattice, tol: float = DEFAULT_TOL) -> SliceProfile:
    """The full conditional slice map of f over C, block by block."""
    per_block = tuple([
        tuple([(length, value) for length, (value,) in _layout(atoms, nu)])
        for atoms, nu in _block_laws((f,), C, tol)
    ])
    return SliceProfile(C, per_block)


def conditional_slice(
    f: StepFunction, C: Sublattice, r: float, tol: float = DEFAULT_TOL
) -> StepFunction:
    """The conditional r-slice of f over C (right-continuous in r)."""
    _check_r(r)  # before the profile is computed
    return slice_profile(f, C, tol).function_at(r)


def type_datum(f: StepFunction, C: Sublattice, tol: float = DEFAULT_TOL) -> TypeDatum:
    """The complete invariant of tp(f/C)."""
    # the positive and negative parts of f orthogonal to C, in one pass
    supp = C.support
    pos: dict[str, float] = {}
    neg: dict[str, float] = {}
    for cid, v in f.values.items():
        if cid not in supp:
            (pos if v > 0.0 else neg)[cid] = abs(v)
    orth = norm(StepFunction(f.space, pos)), norm(StepFunction(f.space, neg))
    return TypeDatum(slice_profile(f, C, tol), *orth)


def _merge_atoms(atoms: Iterable[Atom], tol: float) -> tuple[Atom, ...]:
    """Atoms with equal vectors summed, then each tolerance group replaced by
    its mass-weighted mean; increasing order, zero masses dropped."""
    acc: dict[tuple[float, ...], float] = {}
    for vec, mass in atoms:
        acc[vec] = acc.get(vec, 0.0) + mass
    vecs = sorted(acc)
    merged = []
    for group in tolerance_groups(len(vecs), zip(*vecs), tol):
        if len(group) == 1:
            total = acc[vecs[group[0]]]
            if total > 0.0:
                merged.append((vecs[group[0]], total))
            continue
        total = left_sum(acc[vecs[i]] for i in group)
        # tested before the mean divides by it: every mass of a run can underflow to 0.0
        if total > 0.0:
            vec = tuple(
                left_sum(vecs[i][d] * acc[vecs[i]] for i in group) / total
                for d in range(len(vecs[group[0]]))
            )
            merged.append((vec, total))
    return tuple(merged)


def cond_distribution(
    fs: Sequence[StepFunction], C: Sublattice, tol: float = DEFAULT_TOL
) -> ConditionalDistribution:
    """The joint conditional distribution of a tuple over C."""
    fs = tuple(fs)
    per_block = tuple(atoms for atoms, _ in _block_laws(fs, C, tol))
    # opposite atoms can merge to a mean at the origin, which is off the law
    orth = [(vec, m) for vec, m in _merge_atoms(_orth_atoms(fs, C), tol) if any(vec)]
    return ConditionalDistribution(C, len(fs), per_block, tuple(orth))


def _orth_atoms(fs: tuple[StepFunction, ...], C: Sublattice) -> Iterator[Atom]:
    """(value vector, mu) of each cell off C's support where some f is nonzero, in space order."""
    for cid, mu in C.space.cells:
        if cid not in C.support:
            vec = tuple(f[cid] for f in fs)
            if any(vec):
                yield vec, mu


def _block_laws(
    fs: tuple[StepFunction, ...], C: Sublattice, tol: float
) -> Iterator[tuple[tuple[Atom, ...], float]]:
    """Per block of C, the merged law of the profile-normalized value vectors
    and its nu-mass.  Lazy, so only the block in hand is alive; the space
    check runs at the first step.  One function keys the masses by the float
    value itself and merges them with _merge_values, with no 1-tuples and no
    tolerance_groups round trip; its laws are bit-equal to the general path."""
    for f in fs:
        if f.space != C.space:
            raise SpaceMismatch("function lives on a different space")
    _, nu, mass = C.nu_table
    if len(fs) == 1:
        values = fs[0].values
        profile = C.profile
        for block, total in zip(C.blocks, mass):
            acc: dict[float, float] = {}
            for cid in block:
                v = values.get(cid, 0.0) / profile[cid]
                acc[v] = acc.get(v, 0.0) + nu[cid]
            yield _merge_values(acc, tol), total
        return
    for block, total in zip(C.blocks, mass):
        # one column per function, paired up per cell; an empty tuple is () on every cell
        columns = [[f[cid] / C.profile[cid] for cid in block] for f in fs]
        vecs = zip(*columns) if fs else [()] * len(block)
        yield _merge_atoms(zip(vecs, [nu[cid] for cid in block]), tol), total


def _merge_values(acc: dict[float, float], tol: float) -> tuple[Atom, ...]:
    """_merge_atoms on 1-tuples, given the masses already summed per value:
    one pass over the sorted values, each run ending before the first value
    not close to the run's first."""
    runs: list[list[float]] = []
    for v in sorted(acc):
        if runs and close(runs[-1][0], v, tol):
            runs[-1].append(v)
        else:
            runs.append([v])
    merged = []
    for run in runs:
        if len(run) == 1:
            total = acc[run[0]]
            if total > 0.0:
                merged.append(((run[0],), total))
            continue
        total = left_sum([acc[v] for v in run])
        # tested before the mean divides by it, as in _merge_atoms
        if total > 0.0:
            merged.append(((left_sum([v * acc[v] for v in run]) / total,), total))
    return tuple(merged)


def _atoms_equal(a: tuple[Atom, ...], b: tuple[Atom, ...], tol: float) -> bool:
    # one grouping of both laws' atoms; each group carries equal mass from each
    pooled = a + b
    for group in tolerance_groups(len(pooled), zip(*(vec for vec, _ in pooled)), tol):
        mass_a = left_sum(pooled[i][1] for i in group if i < len(a))
        mass_b = left_sum(pooled[i][1] for i in group if i >= len(a))
        if not close(mass_a, mass_b, tol):
            return False
    return True


def tuple_type_equal(
    fs: Sequence[StepFunction],
    gs: Sequence[StepFunction],
    C: Sublattice,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Type equality over C: equal band conditional distributions and equal
    off-origin laws of the orthogonal parts up to density change, which moves
    mass along rays (for one function, the orthogonal norms of TypeDatum)."""
    fs = tuple(fs)
    gs = tuple(gs)
    if len(fs) != len(gs):
        raise ArityMismatch(f"tuples of arity {len(fs)} and {len(gs)}")
    # strict=True steps the gs side even when C has no blocks, so its space check runs
    laws = zip(_block_laws(fs, C, tol), _block_laws(gs, C, tol), strict=True)
    for (atoms1, _), (atoms2, _) in laws:
        if not _atoms_equal(atoms1, atoms2, tol):
            return False
    return _atoms_equal(_orth_rays(fs, C, tol), _orth_rays(gs, C, tol), tol)


def _orth_rays(fs: tuple[StepFunction, ...], C: Sublattice, tol: float) -> tuple[Atom, ...]:
    """The orthogonal law with each cell's atom (v, m) taken to its direction
    v/s with mass m*s^p, s = max|v_i| > 0, before merging, so that a merged
    mean is a mean of directions and never the origin; NonFiniteValue if a mass overflows."""
    rays = []
    for vec, m in _orth_atoms(fs, C):
        s = max(map(abs, vec))
        try:
            mass = m * s**C.space.p
        except OverflowError:  # a finite float ** p past the float range
            mass = math.inf
        if mass == math.inf:
            raise NonFiniteValue("type equality overflows: an orthogonal ray mass m*s**p is inf")
        rays.append((tuple(x / s for x in vec), mass))
    return _merge_atoms(rays, tol)


def distance(t1: TypeDatum, t2: TypeDatum, tol: float = DEFAULT_TOL) -> float:
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
            total += C.nu_block(k) * _piecewise_pth_power(
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


def _lay_out(
    C: Sublattice,
    per_block: Sequence[Layout],
    fresh: Sequence[tuple[str, float, tuple[float, ...]]],
    arity: int,
) -> tuple[Refinement, tuple[StepFunction, ...]]:
    """Lay out `arity` functions on one refinement of C's space.

    per_block[k] is block k's layout: every cell of block k splits by its
    segment lengths, and child j takes segment j's vector scaled by the
    cell's profile.  fresh lists (id, weight, value vector) cells appended
    outside C's support.
    """
    plan = {}
    for block, segs in zip(C.blocks, per_block):
        if len(segs) > 1:
            plan.update(dict.fromkeys(block, tuple(length for length, _ in segs)))
    refinement = refine_space(C.space, plan, [(fid, weight) for fid, weight, _ in fresh])
    value_maps: list[dict[str, float]] = [{} for _ in range(arity)]
    for block, segs in zip(C.blocks, per_block):
        for cid in block:
            scale = C.profile[cid]
            for kid, (_, vec) in zip(refinement.splitting[cid], segs):
                for i in range(arity):
                    value_maps[i][kid] = vec[i] * scale
    for fid, _, vec in fresh:
        for i in range(arity):
            value_maps[i][fid] = vec[i]
    return refinement, tuple(StepFunction(refinement.child, vals) for vals in value_maps)


def _orth_cells(
    space: Space, pos: tuple[float, ...], neg: tuple[float, ...]
) -> list[tuple[str, float, tuple[float, ...]]]:
    """Two unit-weight fresh cells carrying the orthogonal parts' norms: pos
    on the first and -neg on the second, each only when some entry is
    nonzero."""
    pos_id, neg_id = fresh_ids(space, 2)
    cells = []
    if any(x > 0.0 for x in pos):
        cells.append((pos_id, 1.0, pos))
    if any(x > 0.0 for x in neg):
        cells.append((neg_id, 1.0, tuple(-x for x in neg)))
    return cells


def canonical_realization(t: TypeDatum) -> tuple[Refinement, StepFunction]:
    """The unique decreasing realization of a 1-type.

    Every support cell is split along the profile's r-breakpoints with the
    slice values laid out in decreasing order; the orthogonal part goes onto
    fresh unit-weight cells.
    """
    C = t.sublattice
    per_block = [
        tuple((length, (value,)) for length, value in segs) for segs in t.profile.per_block
    ]
    fresh = _orth_cells(C.space, (t.orth_pos,), (t.orth_neg,))
    refinement, (g,) = _lay_out(C, per_block, fresh, 1)
    return refinement, g


def realize_cond_distribution(d: ConditionalDistribution) -> tuple[Refinement, tuple[StepFunction, ...]]:
    """Realize a prescribed conditional law by proportional cell splitting.

    Each support cell splits by the block's normalized atom masses, so every
    atom occupies the same r-interval across the whole block; orthogonal
    atoms land on fresh cells whose weight equals the atom's mass.
    """
    C = d.sublattice
    per_block = []
    for k, atoms in enumerate(d.per_block):
        if not atoms:
            raise InvalidDistribution(f"block {k} carries no mass")
        per_block.append(_layout(atoms, C.nu_block(k)))
    fresh = [
        (fid, mass, vec)
        for fid, (vec, mass) in zip(fresh_ids(C.space, len(d.orth)), d.orth)
    ]
    return _lay_out(C, per_block, fresh, d.arity)


def realize_common(
    t1: TypeDatum, t2: TypeDatum, tol: float = DEFAULT_TOL
) -> tuple[StepFunction, StepFunction]:
    """Realize two types over one C on a common refinement, sharing the fresh
    cells that carry the orthogonal parts; the norm of the difference then
    attains the type distance."""
    C = t1.sublattice
    if not C.equals(t2.sublattice, tol):
        raise SublatticeMismatch("types live over different sublattices")
    per_block = []
    for layouts in zip(t1.profile.per_block, t2.profile.per_block):
        starts, _, values = zip(*_sweep(layouts))
        ends = starts[1:] + (1.0,)  # the last child runs to 1: a cell's fractions sum to 1
        per_block.append(tuple((b - a, v) for a, b, v in zip(starts, ends, values)))
    fresh = _orth_cells(C.space, (t1.orth_pos, t2.orth_pos), (t1.orth_neg, t2.orth_neg))
    return _lay_out(C, per_block, fresh, 2)[1]


def maharam_select(
    cells: Iterable[str],
    C: Sublattice,
    target: StepFunction,
    tol: float = DEFAULT_TOL,
) -> tuple[Refinement, frozenset[str]]:
    """Select B inside the given cell set with E(chi_B | C) equal to target.

    Works per block by a greedy scan in cell order, splitting at most one
    cell per block; cells outside the support of C contribute nothing to the
    expectation and are never selected.
    """
    space = C.space
    A = set(cells)
    for cid in A:
        if cid not in space:
            raise UnknownCell(f"no cell {cid!r}")
    coeffs = contains(C, target, tol)
    if coeffs is None:
        raise TargetOutOfRange("target is not a member of C")
    factor, _, mass = C.nu_table
    plan = {}
    selected: list[str] = []
    for k, (block, nu_b) in enumerate(zip(C.blocks, mass)):
        bound = left_sum(factor[cid] for cid in block if cid in A)
        need = coeffs[k] * nu_b
        slack = tol * max(1.0, nu_b)
        if need < -slack or need > bound + slack:
            raise TargetOutOfRange(
                f"block {k}: target needs {need!r}, available {bound!r}"
            )
        need = min(max(need, 0.0), bound)
        for cid in block:
            if cid not in A or need <= slack:
                continue
            a = factor[cid]
            if a <= need + slack:
                selected.append(cid)
                need = max(need - a, 0.0)
            else:
                phi = need / a
                plan[cid] = (phi, 1.0 - phi)
                selected.append(cid)
                need = 0.0
    refinement = refine_space(space, plan)
    return refinement, frozenset(refinement.children_of(cid)[0] for cid in selected)


def lift_profile(profile: SliceProfile, r: Refinement) -> SliceProfile:
    """Transport a slice profile across a refinement (segments unchanged)."""
    return SliceProfile(profile.sublattice.lift(r), profile.per_block)


def lift_type_datum(t: TypeDatum, r: Refinement) -> TypeDatum:
    """Covariant transport of a 1-type invariant across a refinement."""
    return TypeDatum(lift_profile(t.profile, r), t.orth_pos, t.orth_neg)


def merged_midpoints(*profiles: SliceProfile) -> tuple[float, ...]:
    """Midpoints of the intervals that _sweep cuts out of (0,1) for all the
    profiles' blocks together."""
    layouts = [segs for prof in profiles for segs in prof.per_block]
    return tuple((start + end) / 2.0 for start, end, _ in _sweep(layouts))
