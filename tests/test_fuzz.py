"""Whole scenario documents, drawn at fixed seeds, through every op.

Each document ends in a report or a LatticeError, never in another exception;
through `lplattice run` that is exit 0 with nothing on stderr, or exit 2.
The pool of numbers holds the floats where arithmetic goes wrong: the ends of
the float range, a subnormal, signed zeros, and 1e+-154, whose squares leave
the range.
"""

import json
import random
import sys

import pytest

from lplattice import LatticeError
from lplattice.cli import main
from lplattice.scenario import _OPS, dumps, execute_scenario_doc

NUMBERS = [
    1, 2, -1, 0.5, 3.0, 1e300, -1e300, 1e-300, 5e-324, 0.0, -0.0,
    1e154, 1e-154, sys.float_info.max, 0.1, 1 / 3,
]
POSITIVE = [x for x in NUMBERS if x > 0]
EXPONENTS = [1, 1.0000001, 1.5, 2, 3, 7, 50]
TOLS = [0.0, 1e-9, 1e-6]
FUNCTIONS = ["f", "g", "h"]
SUBLATTICES = ["K", "G", "H"]  # K given by blocks, G and H by generators


def _command(rng, op, cells):
    def fn():
        return rng.choice(FUNCTIONS)

    def fns():
        return rng.sample(FUNCTIONS, rng.randint(1, 2))

    def sub():
        return rng.choice(SUBLATTICES)

    def side():
        return sub() if rng.random() < 0.5 else fns()

    fields = {
        "condexp": lambda: {"f": fn(), "c": sub()},
        "slice": lambda: {"f": fn(), "c": sub(), "r": rng.choice([0.25, 0.5, 0.9] + NUMBERS)},
        "profile": lambda: {"f": fn(), "c": sub()},
        "dist": lambda: {"f": fn(), "g": fn(), "c": sub()},
        "typeeq": lambda: {"fs": fns(), "gs": fns(), "c": sub()},
        "indep": lambda: {"a": side(), "b": side(), "c": side()},
        "productcheck": lambda: {"a": sub(), "b": sub(), "c": sub()},
        "cb": lambda: {"fs": fns(), "a": sub()},
        "realize": lambda: {"f": fn(), "c": sub()},
        "extend": lambda: {"fs": fns(), "c": sub(), "b": sub()},
        "maharam": lambda: {
            "cells": rng.sample(cells, rng.randint(1, len(cells))), "c": sub(), "target": fn(),
        },
    }
    return {"op": op, **fields[op]()}


def document(rng):
    """(scenario, tol): 1-7 cells, three functions, a sublattice given by
    blocks and two given by generators, and 1-4 commands over them."""
    cells = [f"x{i}" for i in sorted(rng.sample(range(7), rng.randint(1, 7)))]

    def number(pool):  # now and then one from all NUMBERS, to reach the checks
        return rng.choice(NUMBERS if rng.random() < 0.05 else pool)

    def values(keys, pool=NUMBERS):
        return {c: number(pool) for c in keys}

    blocked = rng.sample(cells, rng.randint(1, len(cells)))
    cuts = sorted(rng.sample(range(1, len(blocked)), rng.randint(0, len(blocked) - 1)))
    blocks = [blocked[i:j] for i, j in zip([0] + cuts, cuts + [len(blocked)])]
    doc = {
        "space": {
            "p": rng.choice(EXPONENTS),
            "cells": [{"id": c, "weight": number(POSITIVE)} for c in cells],
        },
        "functions": {
            name: {"values": values(c for c in cells if rng.random() < 0.6)} for name in FUNCTIONS
        },
        "sublattices": {
            "K": {"blocks": [{"cells": block, "profile": values(block, POSITIVE)} for block in blocks]},
            "G": {"generators": rng.sample(FUNCTIONS, rng.randint(1, 3))},
            "H": {"generators": rng.sample(FUNCTIONS, rng.randint(1, 3))},
        },
        "commands": [
            _command(rng, rng.choice(sorted(_OPS)), cells) for _ in range(rng.randint(1, 4))
        ],
    }
    return doc, rng.choice(TOLS)


def _outcome(doc, tol):
    """'report' or 'error'; any exception but a LatticeError propagates."""
    try:
        dumps(execute_scenario_doc(doc, tol))
    except LatticeError:
        return "error"
    return "report"


# documents 647 of seed 1 and 437 of seed 7 each hold a run of values whose
# masses all underflow to 0.0, which _merge_atoms and _merge_values once divided by
@pytest.mark.parametrize("seed", [1, 7])
def test_every_document_ends_in_a_report_or_a_lattice_error(seed):
    rng = random.Random(seed)
    count = 2000
    outcomes = {"report": 0, "error": 0}
    ops = set()
    for _ in range(count):
        doc, tol = document(rng)
        ops.update(cmd["op"] for cmd in doc["commands"])
        try:
            outcomes[_outcome(doc, tol)] += 1
        except Exception as exc:
            raise AssertionError(f"{type(exc).__name__} at tol {tol!r} on {json.dumps(doc)}") from exc
    # every op is drawn, and documents reach past the readers: both outcomes are common
    assert ops == set(_OPS)
    assert min(outcomes.values()) > count // 10, outcomes


def test_documents_run_from_the_command_line(tmp_path, capsys):
    rng = random.Random(0)
    exits = set()
    for k in range(20):
        doc, tol = document(rng)
        path = tmp_path / f"doc{k}.json"
        path.write_text(json.dumps(doc))
        code = main(["run", str(path), "--tol", repr(tol)])
        out, err = capsys.readouterr()
        assert code in (0, 2), path.read_text()
        if code == 0:
            assert err == "" and json.loads(out)["tol"] == tol
        else:
            assert err.startswith("error: ") and out == ""
        exits.add(code)
    assert exits == {0, 2}

