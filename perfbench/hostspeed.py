"""Host-speed references: fixed work that times how fast the host runs Python
code, and imports, right now.

On a shared host, the CPU speed a process gets wanders by up to 2x over
seconds to minutes, in phases longer than a request.  The benchmark times a
fixed pure-Python loop next to every request, and scales the request's wall
time by REFERENCE_MS / (the loop's time there): the request's time on a host
that runs the loop in REFERENCE_MS.  Imports slow down differently (they read
files and load shared libraries), so each import probe is scaled the same way
by fresh interpreters importing REFERENCE_IMPORTS just before and just after
it.  Neither reference touches lplattice, so a change to lplattice cannot move
them.

Stdlib only.
"""

from __future__ import annotations

import time

# the scale of adjusted times: about the loop's median time on the machine in
# mapping.json, so that adjusted figures read close to raw ones there
REFERENCE_MS = 5.0
# modules lplattice does not own, about as heavy to import as lplattice.cli,
# which pulls in numpy; and about their import time on that machine
REFERENCE_IMPORTS = "numpy, json, fractions, argparse, dataclasses"
REFERENCE_IMPORT_S = 0.10
_ENTRIES = 4000


def _loop() -> float:
    # the kinds of work lplattice does per cell: string-keyed dicts, float
    # arithmetic, sorting with a key function and generator sums
    d = {}
    for i in range(_ENTRIES):
        d["c%d" % i] = (i % 97) * 0.125
    items = sorted(d.items(), key=lambda kv: (kv[1], kv[0]))
    acc: dict[float, float] = {}
    for _, v in items:
        acc[v] = acc.get(v, 0.0) + v * v
    return sum(abs(x) ** 1.5 for x in acc.values()) + len([k for k in d if k.endswith("7")])


def reference_ns() -> int:
    """Wall time of one pass of the reference loop, in ns."""
    start = time.perf_counter_ns()
    _loop()
    return time.perf_counter_ns() - start


def scale(elapsed: float, before: float, after: float, reference: float) -> float:
    """`elapsed` adjusted to the reference speed, from the reference's times
    just before and just after it (all in one unit), and the reference's time
    at that speed."""
    return elapsed * reference / ((before + after) / 2)
