"""Whole scenario documents, drawn at fixed seeds, through every op.

Each document ends in a report or a LatticeError, never in another exception;
through `lplattice run` that is exit 0 with nothing on stderr, or exit 2.
The pool of numbers holds the floats where arithmetic goes wrong: the ends of
the float range, a subnormal, signed zeros, and 1e+-154, whose squares leave
the range.

Re-presentations of a document then give the same answers: renamed cells the
same report up to the renaming, and reversed or halved cells the same
verdicts and distances wherever both documents end in a report.  Whether a
document ends in a report can itself change under reversal or halving (see
`test_reversing_the_cells_keeps_verdicts_and_distances`).
"""

import functools
import json
import random
import re
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


def _run(doc, tol):
    """The report, or the class and message of the LatticeError raised; any
    other exception propagates."""
    try:
        report = execute_scenario_doc(doc, tol)
        dumps(report)
    except LatticeError as exc:
        return (type(exc), str(exc))
    return report


@functools.lru_cache(maxsize=None)
def _drawn(seed):
    """The 2,000 documents drawn at seed, each with its tol and `_run` outcome."""
    rng = random.Random(seed)
    out = []
    for _ in range(2000):
        doc, tol = document(rng)
        try:
            out.append((doc, tol, _run(doc, tol)))
        except Exception as exc:
            raise AssertionError(f"{type(exc).__name__} at tol {tol!r} on {json.dumps(doc)}") from exc
    return out


# documents 647 of seed 1 and 437 of seed 7 each hold a run of values whose
# masses all underflow to 0.0, which _merge_atoms and _merge_values once divided by
@pytest.mark.parametrize("seed", [1, 7])
def test_every_document_ends_in_a_report_or_a_lattice_error(seed):
    drawn = _drawn(seed)
    reports = sum(isinstance(outcome, dict) for _, _, outcome in drawn)
    ops = {cmd["op"] for doc, _, _ in drawn for cmd in doc["commands"]}
    # every op is drawn, and documents reach past the readers: both outcomes are common
    assert ops == set(_OPS)
    assert min(reports, len(drawn) - reports) > len(drawn) // 10, reports


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


# --- re-presentations -----------------------------------------------------------


def _recast(doc, new_ids, weight=lambda w: w):
    """doc with each cell c replaced by the cells new_ids[c], each of weight
    weight(c's weight); c's values and profiles go to each of them, and so
    does a maharam command's c."""

    def cells(ids):
        return [n for c in ids for n in new_ids[c]]

    def values(vals):
        return {n: v for c, v in vals.items() for n in new_ids[c]}

    space, subs = doc["space"], doc["sublattices"]
    blocks = [{"cells": cells(b["cells"]), "profile": values(b["profile"])} for b in subs["K"]["blocks"]]
    return {
        "space": {
            "p": space["p"],
            "cells": [
                {"id": n, "weight": weight(rec["weight"])}
                for rec in space["cells"]
                for n in new_ids[rec["id"]]
            ],
        },
        "functions": {name: {"values": values(f["values"])} for name, f in doc["functions"].items()},
        "sublattices": {**subs, "K": {"blocks": blocks}},
        "commands": [
            {**cmd, "cells": cells(cmd["cells"])} if cmd["op"] == "maharam" else cmd
            for cmd in doc["commands"]
        ],
    }


def _answers(report):
    """Per command, what no re-presentation may change: an indep's, typeeq's
    or productcheck's verdict, and a dist (None for every other op)."""
    out = []
    for res in report["results"]:
        op, result = res["op"], res["result"]
        out.append(
            result["independent"] if op == "indep"
            else result if op in ("typeeq", "productcheck", "dist")
            else None
        )
    return out


def _agree(want, got):
    """The answers of two reports agree: verdicts equal, distances within
    1e-15 relative; returns the number of answers compared."""
    assert len(want) == len(got)
    for a, b in zip(want, got):
        if isinstance(a, float):
            assert abs(a - b) <= 1e-15 * max(abs(a), abs(b)), (a, b)
        else:
            assert a == b
    return sum(a is not None for a in want)


@pytest.mark.parametrize("seed", [1, 7])
def test_renaming_the_cells_keeps_the_report(seed):
    # a prefix keeps the lexicographic order of the ids, children id#k
    # included, so the block order and every sum order stay the same
    for doc, tol, want in _drawn(seed):
        renamed = _recast(doc, {rec["id"]: ["z" + rec["id"]] for rec in doc["space"]["cells"]})
        got = _run(renamed, tol)
        if isinstance(want, dict):
            assert re.sub(r"\bzx(?=\d)", "x", dumps(got)) == dumps(want)
        else:
            assert (got[0], re.sub(r"\bzx(?=\d)", "x", got[1])) == want


# The outcome of a document can change under reversal or halving, and these
# tests leave such documents in the pool: every one holds a value from the
# ends of the float range.  Reversed, a profile is taken as the ratio to
# another cell first in space order (`sublattice._settle`), which can leave
# the float range: the second document drawn at seed 1, at tol 0, ends in a
# report, and reversed in "profile on 'x4' must be positive, got inf".
# Halved, a weight of 5e-324 becomes 0.0.


@pytest.mark.parametrize("seed", [1, 7])
def test_reversing_the_cells_keeps_verdicts_and_distances(seed):
    compared = 0
    for doc, tol, want in _drawn(seed):
        space = doc["space"]
        got = _run({**doc, "space": {**space, "cells": space["cells"][::-1]}}, tol)
        if isinstance(want, dict) and isinstance(got, dict):
            compared += _agree(_answers(want), _answers(got))
    assert compared > 200


@pytest.mark.parametrize("seed", [1, 7])
def test_halving_every_cell_keeps_verdicts_and_distances(seed):
    compared = 0
    for doc, tol, want in _drawn(seed):
        halves = {rec["id"]: [rec["id"] + "a", rec["id"] + "b"] for rec in doc["space"]["cells"]}
        got = _run(_recast(doc, halves, lambda w: w / 2), tol)
        if isinstance(want, dict) and isinstance(got, dict):
            compared += _agree(_answers(want), _answers(got))
    assert compared > 200
