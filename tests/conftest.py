"""Shared helpers for the test suite."""

from __future__ import annotations

import itertools

import numpy as np

from lplattice import StepFunction, Sublattice
from lplattice.oracles import proportionality_classes


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
