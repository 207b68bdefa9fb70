"""Brute-force reference implementations and the seeded instance generator.

Everything here is exponential or enumerative by design and guarded to small
instances; nothing on the fast path imports this module.  The closure oracle
reads each float as its exact binary fraction and computes in integers, so it
uses no tolerance.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .core import DEFAULT_TOL, Space, StepFunction, _Value
from .errors import (
    BadR,
    GuardExceeded,
    MassMismatch,
    NonTermination,
    SublatticeMismatch,
)
from .sublattice import Sublattice, band_decompose
from .typespace import TypeDatum

GUARD_CELLS = 8
GUARD_GENERATORS = 4
# brute_dcl_closure: closure round guard
CLOSURE_ROUNDS = 50
# a coupling's mass left this small after subtracting `take` is rounding residue
COUPLING_RESIDUE = 1e-15
# two totals of one block's nu-mass differ by at most this, relative to their
# size, through rounding alone (derived in wasserstein_block)
MASS_ROUNDING = 1e-12

# draw pools of random_instance; part of the generator's replay contract
WEIGHT_POOL = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
PROFILE_POOL = (0.5, 1.0, 1.5, 2.0)
COEFF_POOL = (0.5, 1.0, 2.0)
VALUE_POOL = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 3.0)
P_POOL = (1.0, 1.5, 2.0, 3.0)


def _guard(space: Space, n_generators: int = 0) -> None:
    if len(space.cells) > GUARD_CELLS:
        raise GuardExceeded(f"{len(space.cells)} cells exceed the oracle guard")
    if n_generators > GUARD_GENERATORS:
        raise GuardExceeded(f"{n_generators} generators exceed the oracle guard")


def proportionality_classes(
    ids: Sequence[str], basis: Sequence[Sequence[int | Fraction]]
) -> list[tuple[tuple[str, ...], dict[str, Fraction]]]:
    """Block form of the span of the basis rows, scanning cells in order: a
    nonzero column v joins the first class whose first column u has v = lam * u
    with lam > 0, tested exactly by cross-multiplication.  Any basis of the
    span gives the same classes and ratios.
    """
    classes: list[tuple[tuple[int | Fraction, ...], int, list[tuple[str, Fraction]]]] = []
    for i, cid in enumerate(ids):
        v = tuple(row[i] for row in basis)
        if not any(v):
            continue
        for u, k, members in classes:
            if v[k] * u[k] > 0 and all(x * u[k] == y * v[k] for x, y in zip(v, u)):
                members.append((cid, Fraction(v[k], u[k])))
                break
        else:
            k = next(j for j, x in enumerate(v) if x)
            classes.append((v, k, [(cid, Fraction(1))]))
    return [(tuple(c for c, _ in members), dict(members)) for _, _, members in classes]


def brute_dcl_closure(space: Space, generators: Iterable[StepFunction]) -> Sublattice:
    """Literal closure reading of the generated sublattice.

    Iteratively closes the linear span of a vector set (seeded with 0) under
    pairwise meets, joins and positive parts of differences, stopping once
    the span's dimension equals the number of positive-proportionality
    classes among its per-cell coordinate vectors; at that point the span is
    itself a block/profile sublattice and is returned as such.

    The arithmetic is exact and uses no tolerance: each generator value is
    read as its exact binary fraction, and all of them are scaled by the lcm
    of their denominators into integer vectors, which the meets, joins and
    differences keep integer.  Ranks come from fraction-free elimination.
    """
    gens = list(generators)
    _guard(space, len(gens))
    ids = space.ids()
    exact = [[Fraction(g[cid]) for cid in ids] for g in gens]
    scale = math.lcm(*(x.denominator for row in exact for x in row))
    vectors = {(0,) * len(ids)} | {tuple(int(x * scale) for x in row) for row in exact}
    fresh = set(vectors)
    basis: list[tuple[int, list[int]]] = []  # (pivot, row), each row 0 at the pivots before it

    for _ in range(CLOSURE_ROUNDS):
        for vec in fresh:
            row = list(vec)
            for pivot, b in basis:
                if row[pivot]:
                    a, c = b[pivot], row[pivot]
                    row = [a * x - c * y for x, y in zip(row, b)]
            if any(row):
                g = math.gcd(*row)
                basis.append((next(j for j, x in enumerate(row) if x), [x // g for x in row]))
        if not basis:
            return Sublattice.trivial(space)
        classes = proportionality_classes(ids, [row for _, row in basis])
        if len(classes) == len(basis):
            return Sublattice.make(space, classes)
        current = list(vectors)
        for i, u in enumerate(current):
            for v in current[i:]:
                vectors.add(tuple(map(min, u, v)))
                vectors.add(tuple(map(max, u, v)))
                vectors.add(tuple(max(x - y, 0) for x, y in zip(u, v)))
                vectors.add(tuple(max(y - x, 0) for x, y in zip(u, v)))
        fresh = vectors.difference(current)
        if not fresh:
            raise NonTermination("closure stalled before reaching a sublattice")
    raise NonTermination("closure did not stabilize within the round guard")


def slice_by_definition(f: StepFunction, C: Sublattice, r: float) -> StepFunction:
    """Conditional slice by candidate-coefficient maximization.

    Per block, scans c over {0} and the values of f/w, maximizing subject to
    the conditional-measure threshold; positive and negative parts are
    handled separately and combined with the signed formula, taking the
    right-limit convention at breakpoints (strict threshold for the positive
    part, non-strict for the negative part).
    """
    _guard(space=f.space)
    if not 0.0 < r < 1.0:
        raise BadR(f"r must lie in (0,1), got {r!r}")
    if f.space != C.space:
        raise SublatticeMismatch("function and sublattice live on different spaces")
    f1, _ = band_decompose(f, C)
    coeffs = []
    for block in C.blocks:
        nus = [C.space.weight(cid) * C.profile[cid] ** C.space.p for cid in block]
        total = sum(nus)
        hs = [(f1[cid] / C.profile[cid], nu) for cid, nu in zip(block, nus)]

        def best(values_masses, threshold, strict):
            candidates = {0.0} | {v for v, _ in values_masses if v > 0.0}
            top = 0.0
            for c in candidates:
                mass = sum(m for v, m in values_masses if v >= c) / total
                ok = mass > threshold if strict else mass >= threshold
                if ok and c > top:
                    top = c
            return top

        pos = [(max(v, 0.0), m) for v, m in hs]
        neg = [(max(-v, 0.0), m) for v, m in hs]
        coeffs.append(best(pos, r, True) - best(neg, 1.0 - r, False))
    return C.member(coeffs)


def wasserstein_block(
    d1: Sequence[tuple[float, float]],
    d2: Sequence[tuple[float, float]],
    p: float,
    tol: float = DEFAULT_TOL,
) -> float:
    """Optimal transport cost between two weighted 1-D distributions.

    Computed by the sorted (comonotone) coupling, which is optimal in one
    dimension; equals the L_p distance of the quantile functions.

    The total masses must agree.  The callers pass two laws of one block B,
    each total being nu(B) in exact arithmetic: a law's masses are its
    segment lengths m_j/M times nu(B), and the lengths sum to 1.  In floats
    each total carries rounding of about (c + 2s)u relative to its size, for
    c cells in B (the sums behind M and nu(B)), s segments (one quotient and
    one product each, then the sum here) and u = 2**-53.  MASS_ROUNDING
    covers both totals up to c + 2s of about 4,500, far below DEFAULT_TOL.
    So the totals are compared at the larger of tol and MASS_ROUNDING
    relative to their size: tol = 0 asks for exact data, not for exact
    arithmetic.
    """
    m1 = sum(m for _, m in d1)
    m2 = sum(m for _, m in d2)
    bound = max(tol * max(1.0, abs(m1), abs(m2)), MASS_ROUNDING * max(abs(m1), abs(m2)))
    if not abs(m1 - m2) <= bound:
        raise MassMismatch(f"total masses {m1!r} and {m2!r} differ")
    a = sorted(((v, m) for v, m in d1 if m > 0.0), key=lambda t: -t[0])
    b = sorted(((v, m) for v, m in d2 if m > 0.0), key=lambda t: -t[0])
    cost = 0.0
    i = j = 0
    ra = a[0][1] if a else 0.0
    rb = b[0][1] if b else 0.0
    while i < len(a) and j < len(b):
        take = min(ra, rb)
        cost += take * abs(a[i][0] - b[j][0]) ** p
        ra -= take
        rb -= take
        if ra <= COUPLING_RESIDUE:
            i += 1
            ra = a[i][1] if i < len(a) else 0.0
        if rb <= COUPLING_RESIDUE:
            j += 1
            rb = b[j][1] if j < len(b) else 0.0
    return cost ** (1.0 / p)


def _block_law(t: TypeDatum, k: int) -> list[tuple[float, float]]:
    C = t.sublattice
    nu = sum(C.space.weight(cid) * C.profile[cid] ** C.space.p for cid in C.blocks[k])
    return [(value, length * nu) for length, value in t.profile.per_block[k]]


def coupling_upper_bounds(
    t1: TypeDatum,
    t2: TypeDatum,
    trials: int,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> float:
    """Least realization distance observed over sampled couplings.

    Every coupling of the per-block laws is realizable by a pair of
    realizations on a common refinement, so each trial yields a valid upper
    bound for the type distance; trial 0 is the sorted coupling, which
    attains it.
    """
    C = t1.sublattice
    if not C.equals(t2.sublattice, tol):
        raise SublatticeMismatch("types live over different sublattices")
    p = C.space.p
    rng = random.Random(seed)
    best = float("inf")
    for trial in range(trials + 1):
        total = 0.0
        for k in range(len(C.blocks)):
            a = _block_law(t1, k)
            b = _block_law(t2, k)
            if trial == 0:
                total += wasserstein_block(a, b, p, tol) ** p
                continue
            alive_a = [[v, m] for v, m in a]
            alive_b = [[v, m] for v, m in b]
            while alive_a and alive_b:
                ia = rng.randrange(len(alive_a))
                ib = rng.randrange(len(alive_b))
                take = min(alive_a[ia][1], alive_b[ib][1])
                total += take * abs(alive_a[ia][0] - alive_b[ib][0]) ** p
                alive_a[ia][1] -= take
                alive_b[ib][1] -= take
                if alive_a[ia][1] <= COUPLING_RESIDUE:
                    alive_a.pop(ia)
                if alive_b[ib][1] <= COUPLING_RESIDUE:
                    alive_b.pop(ib)
        if trial == 0 or rng.random() < 0.5:
            # orthogonal parts on shared fresh cells
            total += abs(t1.orth_pos - t2.orth_pos) ** p
            total += abs(t1.orth_neg - t2.orth_neg) ** p
        else:
            # disjoint supports: every part on its own cell
            total += t1.orth_pos ** p + t2.orth_pos ** p
            total += t1.orth_neg ** p + t2.orth_neg ** p
        best = min(best, total ** (1.0 / p))
    return best


class RandomInstance(_Value):
    space: Space
    chain: tuple[Sublattice, Sublattice, Sublattice]  # C <= B <= D
    functions: tuple[StepFunction, ...]

    def __init__(
        self,
        space: Space,
        chain: tuple[Sublattice, Sublattice, Sublattice],
        functions: tuple[StepFunction, ...],
    ) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "functions", functions)


def _coarsen(rng: random.Random, lat: Sublattice, indicator_mode: bool) -> Sublattice:
    if lat.dim == 0:
        return lat
    kept = [k for k in range(lat.dim) if rng.random() < 0.85]
    if not kept:
        kept = [0]
    m = rng.randint(max(1, len(kept) - 1), len(kept))
    groups = defaultdict(list)
    for k in kept:
        groups[rng.randrange(m)].append(k)
    out = []
    for members in groups.values():
        cells: list[str] = []
        prof: dict[str, float] = {}
        for k in members:
            coeff = 1.0 if indicator_mode else rng.choice(COEFF_POOL)
            for cid in lat.blocks[k]:
                cells.append(cid)
                prof[cid] = coeff * lat.profile[cid]
        out.append((cells, prof))
    return Sublattice.make(lat.space, out)


def random_instance(
    seed: int,
    size_budget: int,
    p: Optional[float] = None,
    n_functions: int = 3,
) -> RandomInstance:
    """Deterministic pseudo-random fixture for the verification suites.

    Draw order (all from random.Random(seed), pools above): cell count in
    [2, size_budget], one weight per cell, p from P_POOL unless given, the
    indicator/density mode coin, the support and partition of the finest
    lattice D with its profile, two coarsening passes producing B and C
    with C <= B <= D, then the functions.  Functions cycle through the
    kinds general / band-of-C / orthogonal-to-C.
    """
    rng = random.Random(seed)
    n = rng.randint(2, max(2, size_budget))
    cells = tuple((f"c{i}", rng.choice(WEIGHT_POOL)) for i in range(n))
    exponent = rng.choice(P_POOL) if p is None else float(p)
    space = Space(cells, exponent)
    indicator_mode = rng.random() < 0.5
    support = [cid for cid in space.ids() if rng.random() < 0.85]
    if not support:
        support = [space.ids()[0]]
    k = rng.randint(1, len(support))
    assign = defaultdict(list)
    for cid in support:
        assign[rng.randrange(k)].append(cid)
    blocks = []
    for members in assign.values():
        prof = {
            cid: 1.0 if indicator_mode else rng.choice(PROFILE_POOL)
            for cid in members
        }
        blocks.append((members, prof))
    D = Sublattice.make(space, blocks)
    B = _coarsen(rng, D, indicator_mode)
    C = _coarsen(rng, B, indicator_mode)
    functions = []
    for i in range(n_functions):
        raw = {
            cid: rng.choice(VALUE_POOL)
            for cid in space.ids()
            if rng.random() < 0.7
        }
        f = StepFunction(space, raw)
        kind = ("general", "band", "orth")[i % 3]
        if kind == "band":
            f = f.restrict(C.support)
        elif kind == "orth":
            f = f.restrict(set(space.ids()) - C.support)
        functions.append(f)
    return RandomInstance(space, (C, B, D), tuple(functions))
