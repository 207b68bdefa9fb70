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
    left_sum,
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
    worst = _worst_block(Aprime, Bprime, Cbar, tol)
    if worst is None:
        return IndependenceVerdict(True, None)
    k, gap = worst
    e = Aprime.generator(k)
    witness = Witness("expectation", e, None, cond_exp(e, Bprime), cond_exp(e, Cbar), gap)
    return IndependenceVerdict(False, witness)


def _worst_block(
    A: Sublattice, B: Sublattice, C: Sublattice, tol: float
) -> Optional[tuple[int, float]]:
    """(k, gap) for the block k of A whose gap from `_expectation_gaps` is the
    largest above tol, the earliest of equal ones; None when no gap exceeds tol.

    Exact gaps are computed only where `_screened_gaps` cannot decide.  With
    |gap_k - g_k| <= b_k for every block k, a block with g_k + b_k <= tol has
    gap_k <= tol, and a block with g_k + b_k below g_j - b_j for some other
    block j has gap_k < gap_j, so it can neither win nor tie.  Every other
    block is recomputed, a whole class of tied gaps included, so the verdict,
    the block and its gap are those of the exact loop over all blocks, which
    runs instead when the screen cannot.
    """
    try:
        screened = _screened_gaps(A, B, C)
    except (OverflowError, ZeroDivisionError):
        screened = None
    blocks: Sequence[int] = range(len(A.blocks))
    if screened is not None:
        upper = [g + b for g, b in screened]
        candidates = [k for k in blocks if upper[k] > tol]
        if not candidates:
            return None
        floor = max(screened[k][0] - screened[k][1] for k in candidates)
        blocks = [k for k in candidates if upper[k] >= floor]
    worst, worst_gap = None, tol
    for k, gap in zip(blocks, _expectation_gaps(A, B, C, blocks)):
        if gap > worst_gap:
            worst, worst_gap = k, gap
    return None if worst is None else (worst, worst_gap)


def _expectation_gaps(
    A: Sublattice, B: Sublattice, C: Sublattice, blocks: Optional[Sequence[int]] = None
) -> Iterator[float]:
    """Lazily, per block of A in order (of the given block indices, if any),
    norm(cond_exp(e, B) - cond_exp(e, C)) for the block's generator e,
    bit-equal to that expression: the expectations over each block's own
    cells onto B and onto C, each read from one `_expectation` pass."""
    cells = A.blocks if blocks is None else [A.blocks[k] for k in blocks]
    over_b = _expectation(B, cells, A.profile)
    over_c = _expectation(C, cells, A.profile)
    for b, c in zip(over_b, over_c):
        yield _gap(A.space, b, c)


_EPS = 2.0**-53  # the unit roundoff of a float
_ETA = 2.0**-1074  # the least subnormal: an absolute bound on a rounding below 2**-1022
_HUGE = 2.0**1000  # a coefficient or gap past this goes to the exact loop


def _screened_gaps(
    A: Sublattice, B: Sublattice, C: Sublattice
) -> Optional[list[tuple[float, float]]]:
    """Per block of A in order, (g, b): a gap g computed from block
    coefficients and a bound b with |g - gap| <= b for the gap
    `_expectation_gaps` computes.  None when B does not contain C block by
    block, when an A-block lies neither in one C-block nor off supp C (A
    itself need not contain C), or when a value is not finite or past
    _HUGE; then, as when it raises OverflowError or ZeroDivisionError, the
    caller runs the exact loop.

    The kernel.  Each B-block L lies in one C-block K (or off supp C), and
    every cell of K lies in a B-block; each A-block S lies in one K (or off
    supp C).  For the generator e of S let c_L and c_K be the coefficients
    of E_B e and E_C e, summed over S's cells exactly as `_expectation` sums
    them, so they are the same floats.  With lam_x = w_C / w_B on L, lam_L
    the midpoint of lam_x over L and s_L half their spread,
        gap^p = sum over the L met by S of nu_B(L) |c_L - lam_L c_K|^p
                + |c_K|^p nu_C(K minus the met L).
    When the met L are all of K's B-blocks (counted), the last mass is
    exactly 0; it is never formed as nu_C(K) - sum nu_C(L), whose rounding
    the p-th root would magnify near a gap of 0.  Otherwise it is that
    difference, clamped at 0.  One pass over B's blocks finds K, lam_L, s_L
    and nu_C(L); then block S costs O(|S| + blocks met).

    The bound, with n the cells of the space and eps the unit roundoff:
    - Rounding.  The exact path forms c_L w_B - c_K w_C per cell, at most n
      terms mu |d|^p and a p-th root; the kernel forms at most n terms from
      masses of at most n cells.  By Minkowski's inequality a per-cell error
      of a few eps (|c_L| w_B + |c_K| w_C) moves a norm by a few eps M, where
          M^p = sum_L nu_B(L) (|c_L| + lam_L |c_K|)^p + |c_K|^p nu_C(K)
      bounds both norms; each sum of at most n non-negative terms errs by n
      eps relative, and the rounded exponent 1/p by at most 1500 eps/p
      relative over the float range.  Together under (64 n + 4096) eps M.
    - Spread.  Replacing lam_x by lam_L moves the norm, again by
      Minkowski, by at most T = (sum_L nu_B(L) (|c_K| s_L)^p)^(1/p); s_L
      carries the rounding of lam_x and of the midpoint (4 eps lam + 4 eta).
      The join allows a spread up to about tol.
    - Uncovered mass.  nu_C(K) and sum nu_C(L) are sums of at most n
      positive terms, so their difference errs by at most 4 (n + 2) eps
      nu_C(K): |c_K| (4 (n + 2) eps nu_C(K))^(1/p) on the gap, by the
      subadditivity of t -> t^(1/p).
    - Underflow.  A rounding below 2**-1022 errs by at most eta = 2**-1074
      absolute, and a power of w that underflows errs by mu eta once
      multiplied by its cell's weight mu.  Over the masses, the terms and
      the values of both paths that is at most 16 (sum mu + n) eta (1 + Y)^p
      in the p-th powers, Y the largest of |c_K| and |c_L| + lam_L |c_K|:
      (16 (sum mu + n) eta)^(1/p) (1 + Y) on the gap.
    b is the sum of the four, times 1 + (64 n + 4096) eps for its own
    rounding.  No term of it is fitted.  Every profile is at most 1 (else
    None), so coefficients below _HUGE give finite member values, as a gap
    bound below _HUGE gives a finite norm: no block that is not recomputed
    could have raised NonFiniteValue in the exact loop.
    """
    space = A.space
    p = space.p
    n = len(space.cells)
    b_prof, c_prof = B.profile, C.profile
    if max(b_prof.values(), default=0.0) > 1.0 or max(c_prof.values(), default=0.0) > 1.0:
        return None
    b_of, c_of = B._block_of, C._block_of
    b_factor, _, b_mass = B.nu_table
    c_factor, c_nu, c_mass = C.nu_table
    # per B-block: lam_L, s_L and nu_C(L) (all 0 off supp C)
    lam: list[float] = []
    spread: list[float] = []
    nu_c: list[float] = []
    parts = [0] * len(C.blocks)  # B-blocks per C-block
    covered = [0] * len(C.blocks)  # their cells
    for L in B.blocks:
        k = c_of.get(L[0])
        lo = hi = mass = 0.0
        if k is None:
            if any(cid in c_of for cid in L):
                return None
        else:
            lo = hi = c_prof[L[0]] / b_prof[L[0]]
            for cid in L:
                if c_of.get(cid) != k:
                    return None
                r = c_prof[cid] / b_prof[cid]
                if r < lo:
                    lo = r
                elif r > hi:
                    hi = r
                mass += c_nu[cid]
            parts[k] += 1
            covered[k] += len(L)
        lam.append((lo + hi) / 2.0)
        spread.append((hi - lo) / 2.0 + 4.0 * _EPS * hi + 4.0 * _ETA)
        nu_c.append(mass)
    if any(m != len(K) for m, K in zip(covered, C.blocks)):
        return None  # a cell of supp C outside supp B
    inv_p = 1.0 / p
    slack = (64.0 * n + 4096.0) * _EPS
    tiny = (16.0 * (left_sum(space._weights.values()) + n) * _ETA) ** inv_p
    a_prof = A.profile
    out = []
    for S in A.blocks:
        k = c_of.get(S[0])
        num_c = 0.0
        num_b: dict[int, float] = {}
        for cid in S:
            if c_of.get(cid) != k:
                return None
            a = a_prof[cid]
            j = b_of.get(cid)
            if j is not None:
                num_b[j] = num_b.get(j, 0.0) + b_factor[cid] * a
            if k is not None:
                num_c += c_factor[cid] * a
        c_k = num_c / c_mass[k] if k is not None else 0.0
        top = size = abs(c_k)
        total = bound = sig = met = 0.0
        for j, num in num_b.items():
            t, c_l = b_mass[j], num / b_mass[j]
            if not abs(c_l) < _HUGE:
                return None
            total += t * abs(c_l - lam[j] * c_k) ** p
            y = abs(c_l) + lam[j] * size
            bound += t * y**p
            sig += t * (size * spread[j]) ** p
            met += nu_c[j]
            if y > top:
                top = y
        uncovered = 0.0
        if k is not None:
            whole = c_mass[k]
            if len(num_b) < parts[k]:
                total += size**p * max(whole - met, 0.0)
                uncovered = (size**p * 4.0 * (n + 2) * _EPS * whole) ** inv_p
            bound += size**p * whole
        g = total**inv_p
        b = (slack * bound**inv_p + sig**inv_p + uncovered) * (1.0 + slack)
        b += tiny * (1.0 + top)
        if not (g + b < _HUGE and size < _HUGE):
            return None
        out.append((g, b))
    return out


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
    return _worst_block(A, B, C, tol) is None


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
    base) and never silently accepted; its joined sides are dcl(fs) v base
    and A, since A v base is A (the base lies in A by construction).
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
    if _worst_block(lattice_join(dcl(A.space, fs, tol), cb, tol), A, cb, tol) is not None:
        raise CertificationFailed(
            "canonical base candidate failed the independence certificate"
        )
    return cb
