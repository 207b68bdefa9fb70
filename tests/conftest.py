"""Shared helpers for the test suite."""

from __future__ import annotations

import itertools
import json
import math
from typing import Any

import numpy as np

from lplattice import StepFunction, Sublattice, ValidationError
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
