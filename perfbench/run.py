"""The lplattice benchmark: seeded scenario workloads through the public API.

    python3 perfbench/run.py --workload compose --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; lplattice is imported from ./src, not from an
installed copy.  A request is what `lplattice run` does after import:
execute_scenario_doc(doc) and then dumps(report); a verify request is one
run_suites call.  One client sends requests back to back in one child process.

--trace 0 prints the end-to-end metrics: set-up time (importing lplattice.cli
in fresh interpreters), throughput, median and 90th-percentile latency and the
child's peak RSS.  Times are scaled to a fixed host speed, measured next to
each request and each import by a reference (hostspeed.py); the raw figures
are printed too.  --trace 1 runs a fixed set of requests again under the
tracer and prints the per-layer metrics.  Every answer is checked against the
answers planted by the generator; the last line of output is one JSON object.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
CHILD_TIMEOUT_S = 170


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _child(args: list[str], timeout: float) -> str:
    """Run a Python child from the checkout root; its stdout, or exit 1."""
    try:
        proc = subprocess.run(
            [sys.executable] + args,
            cwd=ROOT,
            env=_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"child {args[:2]} exceeded {timeout} s\n")
        sys.exit(1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.stderr.write(f"child {args[:2]} exited with {proc.returncode}\n")
        sys.exit(1)
    return proc.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "lplattice", "__init__.py")):
        sys.stderr.write(f"no lplattice sources under {SRC}\n")
        return 2

    print(f"machine: Python {platform.python_version()}, {os.cpu_count()} CPUs, {platform.machine()}")
    worker = [os.path.join(HERE, "worker.py"), args.workload, str(args.seed), str(args.seconds)]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}.tsv.gz")
        res = json.loads(_child(worker + ["1", spans], CHILD_TIMEOUT_S).splitlines()[-1])
        if res["plain_digest"] != res["digest"]:
            res["failed"] += 1
            res["errors"].append("reports differ with the tracer installed")
        layers = res["layers"]
        declared = _declared("per_layer")
        metrics = {
            m["name"]: {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared
        }
        for name in _vanished([m["name"] for m in declared], set(res["wrapped"])):
            print(f"WARNING {name} reads 0: its function no longer exists in lplattice")
        print(f"spans written to {os.path.relpath(spans, ROOT)}")
        print(f"largest traced request: {layers['trace.largest_cells']} cells")
    else:
        res = json.loads(_child(worker + ["0"], CHILD_TIMEOUT_S).splitlines()[-1])
        metrics = {
            m["name"]: {"value": float(res[m["name"]]), "unit": m["unit"]}
            for m in _declared("end_to_end")
        }
        raw = res["raw"]
        print(f"{res['requests']} requests in {raw['busy_s']:.3f} s of request time")
        print("raw, not scaled to the reference speed: " + ", ".join(
            f"{name} {raw[name]:.6g}" for name in ("throughput_rps", "latency_p50_ms", "latency_p90_ms", "setup_s")))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {res['failed'] / res['attempted']:.6g} failed/attempted ({res['failed']}/{res['attempted']})")
    print(f"report_digest sha256:{res['digest']} over the first {res['digest_requests']} requests")
    for err in res["errors"]:
        print(f"FAILED {err}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def _vanished(names: list[str], wrapped: set[str]) -> list[str]:
    """Metrics `<function>.<stat>` whose function the tracer did not find.
    Two-part names (layer totals, `scenario.report_bytes`,
    `trace.overhead_ratio`) belong to no function."""
    out = []
    for name in names:
        function = name.rsplit(".", 1)[0]
        if "." in function and function not in wrapped:
            out.append(name)
    return out


def _declared(kind: str) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)[kind]


if __name__ == "__main__":
    sys.exit(main())
