"""*-independence, its alternative characterizations, non-forking extensions,
and canonical bases."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from .core import (
    DEFAULT_TOL,
    Refinement,
    Space,
    StepFunction,
    _finite_values,
    _norm,
    close,
    function_close,
    tolerance_groups,
)
from .errors import (
    CertificationFailed,
    PreconditionFailed,
    SpaceMismatch,
)
from .sublattice import (
    Sublattice,
    _expectation,
    cond_exp,
    dcl,
    intersects_well,
    is_sublattice_of,
    lattice_join,
)
from .typespace import (
    _block_laws,
    _layout,
    _sweep,
    cond_distribution,
    realize_cond_distribution,
    slice_profile,
    tuple_type_equal,
)

SideInput = Union[Sublattice, Iterable[StepFunction]]


@dataclass(frozen=True)
class Witness:
    """A concrete failure of an independence test.

    kind is "expectation" (element with differing expectations over B' and
    C) or "slice" (an r where the slices over B and C differ).
    """

    kind: str
    element: Optional[StepFunction]
    r: Optional[float]
    over_b: StepFunction
    over_c: StepFunction
    gap: float


@dataclass(frozen=True)
class IndependenceVerdict:
    independent: bool
    witness: Optional[Witness]


def _space_of(*sides: SideInput) -> Space:
    for side in sides:
        if isinstance(side, Sublattice):
            return side.space
        for f in side:
            return f.space
    raise SpaceMismatch("no space among the inputs")


def _as_sublattice(side: SideInput, space: Space, tol: float) -> Sublattice:
    if isinstance(side, Sublattice):
        if side.space != space:
            raise SpaceMismatch("inputs live on different spaces")
        return side
    return dcl(space, side, tol)


def star_independent(
    A: SideInput, B: SideInput, C: SideInput, tol: float = DEFAULT_TOL
) -> IndependenceVerdict:
    """Test whether A is *-independent from B over C.

    Joins everything with dcl(C) and compares the conditional expectations
    onto B' and onto C on the block generators of A' (enough, by linearity).
    Each side is read once; when B is A's very sublattice, B' is A'.  The
    witness is the failing generator with the largest norm gap; ties go to
    the earliest block in canonical order.
    """
    A, B, C = (side if isinstance(side, Sublattice) else tuple(side) for side in (A, B, C))
    space = _space_of(A, B, C)
    Cbar = _as_sublattice(C, space, tol)
    Abar = _as_sublattice(A, space, tol)
    Aprime = lattice_join(Abar, Cbar, tol)
    Bbar = _as_sublattice(B, space, tol)
    Bprime = Aprime if Bbar is Abar else lattice_join(Bbar, Cbar, tol)
    worst, worst_gap = None, tol
    for k, gap in enumerate(_expectation_gaps(Aprime, Bprime, Cbar)):
        if gap > worst_gap:
            worst, worst_gap = k, gap
    if worst is None:
        return IndependenceVerdict(True, None)
    e = Aprime.generator(worst)
    witness = Witness("expectation", e, None, cond_exp(e, Bprime), cond_exp(e, Cbar), worst_gap)
    return IndependenceVerdict(False, witness)


def _expectation_gaps(A: Sublattice, B: Sublattice, C: Sublattice) -> Iterator[float]:
    """Lazily, per block of A in order, norm(cond_exp(e, B) - cond_exp(e, C))
    for the block's generator e, bit-equal to that expression: the
    expectations over each block's own cells onto B and onto C, each read
    from one `_expectation` pass over A's blocks."""
    over_b = _expectation(B, A.blocks, A.profile)
    over_c = _expectation(C, A.blocks, A.profile)
    for b, c in zip(over_b, over_c):
        yield _gap(A.space, b, c)


def _gap(space: Space, over_b: dict[str, float], over_c: dict[str, float]) -> float:
    """norm(over_b - over_c) for the values of two step functions on space,
    the difference built and checked as StepFunction.__sub__ does it.  Its
    exact zeros, which __sub__ drops, add nothing to the norm."""
    diff = dict(over_b)
    for cid, v in over_c.items():
        diff[cid] = diff.get(cid, 0.0) - v
    return _norm(space, _finite_values(diff))


def _require_sublattice(C: Sublattice, B: Sublattice, name: str, tol: float) -> None:
    """The precondition C <= B; PreconditionFailed names B as `name`."""
    if not is_sublattice_of(C, B, tol):
        raise PreconditionFailed(f"C is not a sublattice of {name}")


def restricted_star_check(
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


def product_check(
    A: Sublattice, B: Sublattice, C: Sublattice, tol: float = DEFAULT_TOL
) -> bool:
    """Conditional product criterion for indicator-profile lattices.

    Requires C <= A, C <= B, supp(A) & supp(B) == supp(C) and indicator
    profiles throughout; then A and B are independent over C exactly when
    E_C(chi_{P0 & P1}) = E_C(chi_P0) * E_C(chi_P1) for all blocks P0 of A
    and P1 of B.
    """
    for name, lat in (("A", A), ("B", B), ("C", C)):
        if any(not close(v, 1.0, tol) for v in lat.profile.values()):
            raise PreconditionFailed(f"{name} does not have an indicator profile")
    _require_sublattice(C, A, "A", tol)
    _require_sublattice(C, B, "B", tol)
    if (A.support & B.support) != C.support:
        raise PreconditionFailed("supp(A) & supp(B) differs from supp(C)")
    space = A.space
    for p0 in A.blocks:
        for p1 in B.blocks:
            both = set(p0) & set(p1)
            left = cond_exp(StepFunction(space, {c: 1.0 for c in both}), C)
            ea = cond_exp(StepFunction(space, {c: 1.0 for c in p0}), C)
            eb = cond_exp(StepFunction(space, {c: 1.0 for c in p1}), C)
            prod = StepFunction(
                space, {c: ea[c] * eb[c] for c in set(ea.values) & set(eb.values)}
            )
            if not function_close(left, prod, tol):
                return False
    return True


def slice_independent(
    f: StepFunction, B: Sublattice, C: Sublattice, tol: float = DEFAULT_TOL
) -> IndependenceVerdict:
    """Slice characterization: f is independent from B over C exactly when
    the conditional slices of f over B and over C agree at every r."""
    _require_sublattice(C, B, "B", tol)
    prof_b = slice_profile(f, B, tol)
    prof_c = slice_profile(f, C, tol)
    nb = len(B.blocks)
    worst, worst_gap = None, tol
    for start, end, values in _sweep(prof_b.per_block + prof_c.per_block):
        gap = _gap(
            B.space,
            B._member_values(enumerate(values[:nb])),
            C._member_values(enumerate(values[nb:])),
        )
        if gap > worst_gap:
            worst, worst_gap = ((start + end) / 2.0, values), gap
    if worst is None:
        return IndependenceVerdict(True, None)
    r, values = worst
    over_b, over_c = B.member(values[:nb]), C.member(values[nb:])
    return IndependenceVerdict(False, Witness("slice", f, r, over_b, over_c, worst_gap))


def nonforking_extension(
    fs: Sequence[StepFunction],
    C: Sublattice,
    B: Sublattice,
    tol: float = DEFAULT_TOL,
) -> tuple[Refinement, tuple[StepFunction, ...]]:
    """A tuple with the type of fs over C that is independent from B over C.

    Realizes the conditional law of fs given C by splitting every cell of
    each C-block proportionally (so the law given B collapses to the law
    given C) and moves the orthogonal parts onto fresh cells disjoint from
    B.  Both postconditions are asserted by the callers' tests.
    """
    _require_sublattice(C, B, "B", tol)
    return realize_cond_distribution(cond_distribution(fs, C, tol))


@dataclass(frozen=True)
class StationarityResult:
    holds: bool
    hypotheses_met: bool


def stationarity_check(
    f1s: Sequence[StepFunction],
    f2s: Sequence[StepFunction],
    C: Sublattice,
    B: Sublattice,
    tol: float = DEFAULT_TOL,
) -> StationarityResult:
    """If both tuples share a type over C and are independent from B over C,
    they must share a type over B; vacuously true when hypotheses fail."""
    _require_sublattice(C, B, "B", tol)
    hypotheses = (
        tuple_type_equal(f1s, f2s, C, tol)
        and star_independent(f1s, B, C, tol).independent
        and star_independent(f2s, B, C, tol).independent
    )
    if not hypotheses:
        return StationarityResult(True, False)
    return StationarityResult(tuple_type_equal(f1s, f2s, B, tol), True)


def canonical_base(
    fs: Sequence[StepFunction],
    A: Sublattice,
    tol: float = DEFAULT_TOL,
) -> Sublattice:
    """The canonical base of tp(fs / A): A's blocks grouped by the law of
    fs/w up to a positive scale.

    Block k's law is laid out on (0,1) in decreasing order, lengths
    m/nu(B_k), divided by s_k, its largest |value| (dropped if s_k = 0).
    The layouts are read on every interval of one _sweep over them all and
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
    # column (r, d): coordinate d of every kept layout on the merged interval r
    columns = (
        [vec[d] for vec in values]
        for _, _, values in _sweep([layout for _, _, layout in kept])
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
