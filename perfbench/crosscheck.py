"""Cross-check of the tracer's attribution against cProfile.

    python3 perfbench/crosscheck.py WORKLOAD

Sends the first REQUESTS requests of seed SEED twice, once under the tracer
and once under cProfile.  cProfile's own time of every function that the
tracer gives no span (private helpers, builtins, ``close``, ``StepFunction``
construction) is handed up its call edges, in proportion to each edge's
share, until it reaches a traced function; that is the traced function's self
time as the tracer defines it.
Prints both shares side by side for the largest owners and checks the claims
the benchmark relies on:

- compose: ``sublattice.dcl`` owns most of the self time below
  ``star_independent`` and ``canonical_base``;
- slices, refine: ``scenario.dumps`` is the largest single owner.

Exits 1 when the two attributions disagree on the workload's claim.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from tracer import Tracer  # noqa: E402
from worker import Runner  # noqa: E402

SEED = 0
REQUESTS = 8
SHOWN = 8


def traced_self_times(workload: str, seed: int, count: int) -> dict[str, float]:
    runner = Runner(workload, seed)
    runner.send(0)
    tracer = Tracer()
    tracer.install()
    try:
        for index in range(count):
            runner.send(index, before=tracer.begin_request)
    finally:
        tracer.uninstall()
    stats = tracer.stats({})
    return {k[: -len(".self_s")]: v for k, v in stats.items() if k.endswith(".self_s") and k.count(".") > 1}


def _traced_code() -> dict[tuple, str]:
    """(file, first line, name) of every function the tracer spans -> span name."""
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    return {
        (fn.__code__.co_filename, fn.__code__.co_firstlineno, fn.__code__.co_name): name
        for name, fn in tracer.spanned.items()
    }


def profiled_self_times(workload: str, seed: int, count: int) -> dict[str, float]:
    owners = _traced_code()
    runner = Runner(workload, seed)
    runner.send(0)
    profile = cProfile.Profile()
    profile.enable()
    for index in range(count):
        runner.send(index)
    profile.disable()
    raw = pstats.Stats(profile).stats
    shares: dict[tuple, dict[str, float]] = {}

    def owner_shares(func, seen=()) -> dict[str, float]:
        # where a function's own time ends up: itself if it is traced, else
        # its callers' owners, split by each call edge's share of its time
        if func in owners:
            return {owners[func]: 1.0}
        if func in shares:
            return shares[func]
        callers = {c: edge[2] for c, edge in raw[func][4].items() if c != func and c not in seen}
        total = sum(callers.values())
        out: dict[str, float] = {}
        if total <= 0.0:
            out = {"(benchmark)": 1.0}
        else:
            for caller, t in callers.items():
                for name, frac in owner_shares(caller, seen + (func,)).items():
                    out[name] = out.get(name, 0.0) + frac * t / total
        shares[func] = out
        return out

    result: dict[str, float] = {}
    for func, (_, _, tottime, _, _) in raw.items():
        for name, frac in owner_shares(func).items():
            result[name] = result.get(name, 0.0) + tottime * frac
    return result


def main(argv: list[str]) -> int:
    workload = argv[0]
    traced = traced_self_times(workload, SEED, REQUESTS)
    profiled = profiled_self_times(workload, SEED, REQUESTS)
    profiled.pop("(benchmark)", None)
    t_total = sum(traced.values())
    p_total = sum(profiled.values())
    print(f"{workload}, seed {SEED}, {REQUESTS} requests: self-time share, tracer vs cProfile")
    for name in sorted(traced, key=traced.get, reverse=True)[:SHOWN]:
        print(f"  {name:45s} {traced[name] / t_total:6.1%} {profiled.get(name, 0.0) / p_total:6.1%}")
    top_traced = max(traced, key=traced.get)
    top_profiled = max(profiled, key=profiled.get)
    if workload == "compose":
        below = ("sublattice.", "independence.", "core.", "typespace.")
        t_share = traced["sublattice.dcl"] / sum(v for k, v in traced.items() if k.startswith(below))
        p_share = profiled["sublattice.dcl"] / sum(v for k, v in profiled.items() if k.startswith(below))
        print(f"sublattice.dcl share of lattice self time: tracer {t_share:.1%}, cProfile {p_share:.1%}")
        ok = t_share > 0.5 and p_share > 0.5
    elif workload in ("slices", "refine"):
        ok = top_traced == top_profiled == "scenario.dumps"
    else:
        ok = top_traced == top_profiled
    print(f"largest owner: tracer {top_traced}, cProfile {top_profiled}: {'agree' if ok else 'DISAGREE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
