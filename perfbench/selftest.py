"""Self-test of the benchmark's answer checks.

    python3 perfbench/selftest.py

For every workload and every kind of wrong answer below, picks the first
request whose planted answer that kind of error would contradict, and sends
the requests up to it twice: once as they are, where every answer must pass,
and once with that request's answer corrupted after the program returned it,
which must be counted as exactly one failed request.  Exits 0 when both hold
for every case.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402
from worker import Runner  # noqa: E402

SEED = 0
SEARCH = 40


def _results(answer, op: str):
    return [r for r in answer["results"] if r["op"] == op]


def _flip_indep(answer):
    res = _results(answer, "indep")[0]["result"]
    res["independent"] = not res["independent"]


def _shift_condexp(answer):
    # the conditional expectation, off by one on one cell
    values = _results(answer, "condexp")[0]["result"]["values"]
    values[next(iter(values))] += 1.0


def _typeeq_true(answer):
    for r in _results(answer, "typeeq"):
        r["result"] = True


def _dist_zero(answer):
    for r in _results(answer, "dist"):
        r["result"] = 0.0


def _fail_suite(answer):
    answer[0] = dataclasses.replace(answer[0], passed=False)


def _has(op: str):
    return lambda doc, planted: any(cmd["op"] == op for cmd in doc.get("commands", ()))


# workload -> (what the wrong answer imitates, which requests it contradicts, the corruption)
CASES = {
    "compose": [("indep verdict flipped", _has("indep"), _flip_indep)],
    "slices": [
        ("condexp off by one", _has("condexp"), _shift_condexp),
        ("typeeq always true", lambda doc, planted: planted.get("typeeq") is False, _typeeq_true),
        ("dist always 0", lambda doc, planted: "dist_floor" in planted, _dist_zero),
    ],
    "refine": [
        ("condexp off by one", _has("condexp"), _shift_condexp),
        ("typeeq always true", lambda doc, planted: planted.get("typeeq") is False, _typeeq_true),
    ],
    "verify": [("one suite failed", lambda doc, planted: True, _fail_suite)],
}


def _target(workload: str, applies) -> int:
    for index in range(SEARCH):
        if applies(*workloads.make_request(workload, SEED, index)):
            return index
    raise RuntimeError(f"no {workload} request among the first {SEARCH} to corrupt")


def _corrupted(target: int, corrupt):
    def apply(index: int, answer):
        if index != target:
            return answer
        answer = copy.deepcopy(answer)
        corrupt(answer)
        return answer

    return apply


def main() -> int:
    ok = True
    for workload, cases in CASES.items():
        for label, applies, corrupt in cases:
            target = _target(workload, applies)
            clean = Runner(workload, SEED)
            bad = Runner(workload, SEED, corrupt=_corrupted(target, corrupt))
            for index in range(target + 1):
                clean.send(index)
                bad.send(index)
            passed = clean.failed == 0 and bad.failed == 1
            ok = ok and passed
            print(
                f"{'ok' if passed else 'FAILED'} {workload}, {label} in request {target}:"
                f" clean {clean.failed}/{clean.attempted} failed,"
                f" corrupted {bad.failed}/{bad.attempted} failed ({'; '.join(bad.errors)})"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
