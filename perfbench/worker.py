"""One workload in one process: the closed loop, or the traced pass.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [SPANS_PATH]

Needs lplattice on sys.path.  Prints one JSON object on its last line.

TRACE 0: one client sends requests back to back until the requests' own time,
scaled to the reference speed, adds up to SECONDS and at least MIN_REQUESTS
were sent; so a run sends about the same requests whatever the host's speed.  Each request is
generated, then timed, then checked against its planted answers; generation
and checking stay outside the clock.  The host-speed reference loop
(hostspeed.py) runs between requests, and each request's wall time is scaled
by the reference speed measured just before and just after it.
Between requests, fresh interpreters time the import of lplattice.cli, scaled
by the import of reference modules just before and just after it.

TRACE 1: the first TRACE_REQUESTS requests run once without the tracer and
once with it; the per-layer figures come from the traced pass, and the ratio
of the two passes' wall times is the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time

import hostspeed
import workloads

# requests in the traced pass, and in the report digest of every run
TRACE_REQUESTS = {"compose": 32, "slices": 32, "refine": 48, "verify": 12}
SETUP_RUNS = 9
# the time a fresh interpreter takes to import the modules in {modules}
IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import {modules}\n"
    "print(repr(time.perf_counter() - t))\n"
)
# a run sends at least this many requests, so that ten lie beyond the 90th
# percentile even when a slow host stretches them past SECONDS
MIN_REQUESTS = 100
# a run stops starting requests after this much wall time, whatever SECONDS says
WALL_CAP_S = 150.0
MAX_ERRORS_SHOWN = 3


class Runner:
    """Sends requests of one workload and checks the answers."""

    def __init__(self, workload: str, seed: int, corrupt=None):
        self.workload = workload
        self.seed = seed
        # corrupt(index, answer) may replace an answer before it is checked
        self.corrupt = corrupt
        if workload == "verify":
            import lplattice.verify as verify

            self._verify = verify
        else:
            import lplattice.scenario as scenario

            self._scenario = scenario
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.report_bytes: list[int] = []
        self._outputs: dict[int, str] = {}
        self._digest = hashlib.sha256()
        self.digest_count = 0

    def send(self, index: int, before=None) -> int:
        """Generate, time and check request `index`; its wall time in ns."""
        doc, planted = workloads.make_request(self.workload, self.seed, index)
        gc.collect()
        if before is not None:
            before(index)
        start = time.perf_counter_ns()
        try:
            if self.workload == "verify":
                answer = self._verify.run_suites(doc["seed"], trials=doc["trials"])
                text = None
            else:
                # attribute lookups at call time, so that traced wrappers are used
                answer = self._scenario.execute_scenario_doc(doc)
                text = self._scenario.dumps(answer)
            error = None
        except Exception as exc:  # a request that raises is a failed request
            answer = text = None
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
        self.attempted += 1
        if error is None:
            if self.workload == "verify":
                text = "".join(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}\n" for r in answer)
            if self.corrupt is not None:
                answer = self.corrupt(index, answer)
            error = workloads.check(self.workload, doc, planted, answer)
            self.report_bytes.append(len(text.encode()))
        text = text if error is None else f"error {error}\n"
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self._outputs.setdefault(index, digest) != digest and error is None:
            error = "a repeated request gave different output"
        if error is not None:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_SHOWN:
                self.errors.append(f"request {index}: {error}")
        if index == self.digest_count < TRACE_REQUESTS[self.workload]:
            self._digest.update(text.encode())
            self.digest_count += 1
        return elapsed

    def summary(self, latencies_ns: list[float]) -> dict:
        lat = sorted(x / 1e6 for x in latencies_ns)
        busy = sum(latencies_ns) / 1e9
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "requests": len(lat),
            "busy_s": busy,
            "throughput_rps": len(lat) / busy,
            "latency_p50_ms": hd_quantile(lat, 0.5),
            "latency_p90_ms": hd_quantile(lat, 0.9),
            "digest": self._digest.hexdigest(),
            "digest_requests": self.digest_count,
        }


def hd_quantile(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of quantile q: the mean of the sorted values
    weighted by the Beta((n+1)q, (n+1)(1-q)) mass over each one's share of
    [0, 1].  It moves less from run to run than the single value at rank qn,
    which jumps when the requests near that rank change."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    steps = 32  # midpoint rule within each value's share
    top = (a - 1) * math.log(q) + (b - 1) * math.log(1 - q)  # the log density's peak
    weights = []
    for i in range(n):
        mass = 0.0
        for j in range(steps):
            t = (i + (j + 0.5) / steps) / n
            mass += math.exp((a - 1) * math.log(t) + (b - 1) * math.log(1 - t) - top)
        weights.append(mass)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def import_seconds(modules: str) -> float:
    """Time to import `modules` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE.format(modules=modules)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(proc.stdout)


def setup_probe() -> tuple[float, float]:
    """The import of lplattice.cli, scaled to the reference import speed, and raw."""
    before = import_seconds(hostspeed.REFERENCE_IMPORTS)
    raw = import_seconds("lplattice.cli")
    after = import_seconds(hostspeed.REFERENCE_IMPORTS)
    return hostspeed.scale(raw, before, after, hostspeed.REFERENCE_IMPORT_S), raw


def closed_loop(workload: str, seed: int, seconds: float) -> dict:
    """The request loop; set-up time is probed SETUP_RUNS times across it (at
    every SETUP_RUNS-th share of the request time), so that its median sees
    the host in the same states as the requests do.  Every request and every
    probe is scaled to the reference speed (hostspeed.py) measured next to it.
    The raw figures are reported beside the metrics."""
    setup_probe()  # writes the bytecode caches; not counted
    runner = Runner(workload, seed)
    Runner(workload, seed).send(0)  # first-call costs stay out of the measurement
    wall_end = time.monotonic() + WALL_CAP_S
    latencies: list[int] = []
    adjusted: list[float] = []
    setups: list[tuple[float, float]] = []
    peak_rss_kb = 0
    before = hostspeed.reference_ns()
    while (sum(adjusted) < seconds * 1e9 or len(latencies) < MIN_REQUESTS) and time.monotonic() < wall_end:
        if len(setups) < SETUP_RUNS and len(setups) * seconds * 1e9 <= sum(adjusted) * SETUP_RUNS:
            setups.append(setup_probe())
            before = hostspeed.reference_ns()
        latencies.append(runner.send(len(latencies)))
        after = hostspeed.reference_ns()
        adjusted.append(hostspeed.scale(latencies[-1], before, after, hostspeed.REFERENCE_MS * 1e6))
        before = after
        if len(latencies) <= MIN_REQUESTS:
            # the peak over the first MIN_REQUESTS requests, which every run
            # sends; a run that gets further on a fast host would otherwise
            # also count later, hungrier requests (slices request 173 of seed
            # 71 lifts the peak from 38 to 44 MB)
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = runner.summary(adjusted)
    raw = runner.summary(latencies)
    out["raw"] = {k: raw[k] for k in ("busy_s", "throughput_rps", "latency_p50_ms", "latency_p90_ms")}
    out["setup_s"] = hd_quantile([s[0] for s in setups], 0.5)
    out["raw"]["setup_s"] = hd_quantile([s[1] for s in setups], 0.5)
    out["peak_rss_mb"] = peak_rss_kb / 1024.0
    return out


def traced_pass(workload: str, seed: int, spans_path: str | None) -> dict:
    from tracer import Tracer

    count = TRACE_REQUESTS[workload]
    plain = Runner(workload, seed)
    plain.send(0)
    plain_ns = [plain.send(index) for index in range(count)]
    tracer = Tracer()
    traced = Runner(workload, seed)
    tracer.install()
    try:
        traced_ns = [traced.send(index, before=tracer.begin_request) for index in range(count)]
    finally:
        tracer.uninstall()
    cells = {i: workloads.request_cells(workload, i) for i in range(count)}
    out = traced.summary(traced_ns)
    out["layers"] = tracer.stats(cells)
    out["layers"]["scenario.report_bytes"] = statistics.mean(traced.report_bytes) if traced.report_bytes else 0.0
    out["layers"]["trace.overhead_ratio"] = sum(traced_ns) / sum(plain_ns)
    out["plain_digest"] = plain.summary(plain_ns)["digest"]
    # names the tracer found; a declared metric of any other name has lost its function
    out["wrapped"] = sorted(set(tracer.spanned) | set(tracer.counts))
    if spans_path:
        tracer.write(spans_path)
    return out


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    if workload not in workloads.WORKLOADS:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    if trace:
        out = traced_pass(workload, seed, argv[4] if len(argv) > 4 else None)
    else:
        out = closed_loop(workload, seed, seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
