"""Brute-force reference implementations and the seeded instance generator.

Everything here is exponential or enumerative by design and guarded to small
instances; nothing on the fast path imports this module.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import DEFAULT_TOL, Space, StepFunction
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
# brute_dcl_closure: rank and proportionality tolerance, and closure round guard
CLOSURE_TOL = 1e-7
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


def _row_basis(rows: np.ndarray, tol: float) -> np.ndarray:
    if rows.size == 0:
        return rows.reshape(0, rows.shape[-1] if rows.ndim == 2 else 0)
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    cutoff = tol * max(1.0, float(s[0])) if s.size else tol
    rank = int(np.sum(s > cutoff))
    return vt[:rank]


def proportionality_classes(
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


def brute_dcl_closure(space: Space, generators: Iterable[StepFunction]) -> Sublattice:
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
        basis = _row_basis(stack, CLOSURE_TOL)
        rank = basis.shape[0]
        if rank == 0:
            return Sublattice.trivial(space)
        classes = proportionality_classes(ids, basis, CLOSURE_TOL)
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


@dataclass(frozen=True)
class RandomInstance:
    space: Space
    chain: tuple[Sublattice, Sublattice, Sublattice]  # C <= B <= D
    functions: tuple[StepFunction, ...]


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
