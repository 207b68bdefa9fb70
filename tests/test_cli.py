import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    joined_dumps,
    reference_dumps,
    reference_numbers,
    reference_space_from_doc,
    reference_sublattice_from_doc,
)
from hypothesis import example, given, settings, strategies as st

from lplattice import (
    DEFAULT_TOL,
    MassMismatch,
    Refinement,
    Space,
    Sublattice,
    UnknownReference,
    ValidationError,
    make_space,
    refine_space,
)
from lplattice.cli import main
from lplattice.scenario import (
    _numbers,
    _Runner,
    dumps,
    execute_scenario,
    execute_scenario_doc,
    refinement_to_doc,
    space_from_doc,
)
from lplattice.verify import run_suites


def masked_dependence_scenario() -> dict:
    return {
        "space": {
            "p": 2.0,
            "cells": [
                {"id": "[0,1]", "weight": 1.0},
                {"id": "(1,2]", "weight": 1.0},
                {"id": "(2,3]", "weight": 1.0},
            ],
        },
        "functions": {
            "f": {"values": {"[0,1]": 2.0, "(2,3]": 1.0}},
            "chi": {"values": {"[0,1]": 1.0, "(1,2]": 1.0, "(2,3]": 1.0}},
            "chi_top": {"values": {"(2,3]": 1.0}},
        },
        "sublattices": {
            "A": {"generators": ["f"]},
            "B": {
                "blocks": [
                    {"cells": ["[0,1]", "(1,2]"], "profile": {"[0,1]": 1.0, "(1,2]": 1.0}},
                    {"cells": ["(2,3]"], "profile": {"(2,3]": 1.0}},
                ]
            },
            "C": {"generators": ["chi"]},
        },
        "commands": [
            {"op": "condexp", "f": "chi_top", "c": "B"},
            {"op": "condexp", "f": "chi_top", "c": "C"},
            {"op": "indep", "a": "A", "b": "B", "c": "C"},
        ],
    }


DATA = Path(__file__).resolve().parent / "data"

# written into a scenario's text as the literal 1e400, which json reads as inf
# (json.dumps(inf) would write Infinity, which fails to parse instead)
PAST_FLOAT_RANGE = "<1e400>"

# documents of every kind the serializer writes, nested
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
)
DOCUMENTS = st.recursive(
    LEAVES,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text() | st.integers() | st.booleans(), children),
    max_leaves=40,
)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# containers whose items are all containers: whole levels are written as one
# sequence and regrouped
NESTED = st.recursive(
    st.lists(FINITE, max_size=4) | st.lists(st.text(max_size=2), max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=2), children, max_size=4),
    max_leaves=30,
)


class FloatSub(float):
    pass


def _twin(key):
    """A key equal to `key` that is written differently (1 and True), else key."""
    if type(key) is bool:
        return int(key)
    if type(key) is int and key in (0, 1):
        return bool(key)
    return key


RECORD_KEYS = st.sampled_from(["%", "%s", "%%d", "é", "ключ", "x"]) | st.integers(-2, 2) | st.booleans() | st.text(max_size=3)
RECORD_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e16, 2.0**53, 1e17, 123456789012345678.0]),
    st.integers(10**16, 10**20).map(float),
    FINITE,
    FINITE.map(FloatSub),
    FINITE.map(np.float64),
    st.lists(st.sampled_from([0.0, -0.0, 1e16, 0.5]) | FINITE, max_size=6),
    st.lists(st.fixed_dictionaries({"length": FINITE, "value": FINITE}), max_size=6),
    st.text(max_size=3),
    st.none() | st.booleans() | st.integers(),
)


@st.composite
def records(draw):
    """A list of >= 2 dicts whose key tuples are equal; some records may use
    an equal key of another type (True for 1)."""
    keys = draw(st.lists(RECORD_KEYS, min_size=1, max_size=3, unique=True))
    rows = []
    for _ in range(draw(st.integers(2, 9))):
        twin = draw(st.booleans())
        values = draw(st.lists(RECORD_VALUES, min_size=len(keys), max_size=len(keys)))
        rows.append(dict(zip([_twin(k) if twin else k for k in keys], values)))
    return rows


def large_scenario(n: int = 3000) -> dict:
    """A space of n cells, C with n/10 blocks, and a condexp, a profile and an
    extend over C, drawn from one seeded generator."""
    rng = random.Random(0)
    ids = [f"c{i}" for i in range(n)]
    shuffled = rng.sample(ids, n)
    blocks = [shuffled[k :: n // 10] for k in range(n // 10)]

    def function():
        return {"values": {c: rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0]) for c in ids if rng.random() < 0.7}}

    return {
        "space": {"p": 2.0, "cells": [{"id": c, "weight": rng.choice([0.25, 0.5, 1.0, 2.0])} for c in ids]},
        "functions": {"f": function(), "g": function()},
        "sublattices": {
            "C": {"blocks": [{"cells": b, "profile": {c: rng.choice([0.5, 1.0, 2.0]) for c in b}} for b in blocks]}
        },
        "commands": [
            {"op": "condexp", "f": "f", "c": "C"},
            {"op": "profile", "f": "f", "c": "C"},
            {"op": "extend", "fs": ["f", "g"], "c": "C", "b": "C"},
        ],
    }


def run_with_src(argv: list[str]) -> str:
    """Stdout of the command argv with this checkout's src on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return out.stdout


def run_python(code: str) -> str:
    """Stdout of `python -c code` under this interpreter."""
    return run_with_src([sys.executable, "-c", code])


class TestExecuteScenario:
    def test_masked_dependence_report(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(masked_dependence_scenario()))
        report = execute_scenario(str(path))
        r0, r1, r2 = report["results"]
        assert r0["result"]["values"] == {"(2,3]": 1.0}
        assert r1["result"]["values"] == {
            "[0,1]": 1.0 / 3.0,
            "(1,2]": 1.0 / 3.0,
            "(2,3]": 1.0 / 3.0,
        }
        assert r2["result"]["independent"] is False
        assert r2["result"]["witness"]["element"]["values"] == {"(2,3]": 1.0}

    def test_empty_commands(self):
        doc = masked_dependence_scenario()
        doc["commands"] = []
        report = execute_scenario_doc(doc)
        assert report["results"] == []
        assert report["refinements"] == []

    def test_dangling_reference(self):
        doc = masked_dependence_scenario()
        doc["commands"] = [{"op": "condexp", "f": "nope", "c": "C"}]
        with pytest.raises(UnknownReference):
            execute_scenario_doc(doc)

    def test_refining_ops_thread_the_space(self):
        doc = masked_dependence_scenario()
        doc["commands"] = [
            {"op": "extend", "fs": ["f"], "c": "C", "b": "B", "as": ["g"]},
            {"op": "condexp", "f": "g", "c": "B"},
            {"op": "typeeq", "fs": ["g"], "gs": ["f"], "c": "C"},
        ]
        report = execute_scenario_doc(doc)
        assert len(report["refinements"]) == 1
        assert report["results"][2]["result"] is True
        assert len(report["space"]["cells"]) == 9

    def test_maharam_command(self):
        doc = masked_dependence_scenario()
        doc["functions"]["t"] = {
            "values": {"[0,1]": 0.25, "(1,2]": 0.25, "(2,3]": 0.25}
        }
        doc["commands"] = [
            {"op": "maharam", "cells": ["[0,1]"], "c": "C", "target": "t"}
        ]
        report = execute_scenario_doc(doc)
        assert report["results"][0]["result"]["selected"] == ["[0,1]#0"]

    def test_realize_and_dist_and_cb(self):
        doc = masked_dependence_scenario()
        doc["commands"] = [
            {"op": "dist", "f": "f", "g": "chi", "c": "C"},
            {"op": "profile", "f": "f", "c": "C"},
            {"op": "cb", "fs": ["f"], "a": "B"},
            {"op": "realize", "f": "f", "c": "C", "as": "r"},
            {"op": "productcheck", "a": "C", "b": "C", "c": "C"},
            {"op": "slice", "f": "r", "c": "C", "r": 0.5},
        ]
        report = execute_scenario_doc(doc)
        assert report["results"][0]["result"] > 0
        assert report["results"][4]["result"] is True

    def test_dist_reads_each_type_once(self, monkeypatch):
        # the runner computes tp(f/C) once per (function object, sublattice object) pair
        import lplattice.scenario as scenario

        pairs = []

        def counting(f, C, tol, original=scenario.type_datum):
            pairs.append((f, C))
            return original(f, C, tol)

        monkeypatch.setattr(scenario, "type_datum", counting)
        execute_scenario(str(DATA / "distmatrix_scenario.json"))
        # nine dists over C and three over B read f, g and h over each: 6 pairs;
        # the slice rebinds g, so dist f g C reads (g', C): 7; realize f C reads
        # (f, C) again; the refinement lifts every object, so dist f fr C and
        # dist f g C read (f, C), (fr, C) and (g', C) anew: 10
        assert len(pairs) == 10
        assert len({(id(f), id(C)) for f, C in pairs}) == 10

    @staticmethod
    def count_closures(monkeypatch):
        """The dcl and lattice_join calls a run makes, counted where the runner,
        star_independent and canonical_base call them."""
        import lplattice.independence as independence
        import lplattice.scenario as scenario

        calls = {"dcl": 0, "lattice_join": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counting(scenario, "dcl")
        counting(independence, "dcl")
        counting(independence, "lattice_join")
        return calls

    @pytest.mark.parametrize(
        "name, closures",
        [
            # C = dcl[u, v]: 1.  indep [x] [x] C: [x] once, and B' is A': 1 dcl,
            # 1 join.  indep [m] [x, y] [u, v]: [u, v] is C, [m] and [x, y] are
            # new: 2 dcls, 2 joins.  cb [x, y] C: canonical_base closes [x, y]
            # again for its certificate, outside the run's memo, and B' is C:
            # 1 dcl, 1 join.
            ("compose", {"dcl": 5, "lattice_join": 4}),
            # G = dcl[u, v, w, t, s], H = dcl[u, w]: 2.  indep [x] [y] [u..s]:
            # the side is G, [x] and [y] are new: 2 dcls, 2 joins.  indep [x] [x]
            # [v, w, s]: [v, w, s] is new, [x] is known and B' is A': 1 dcl, 1
            # join.  indep [x, y] H [u, w, t]: 2 dcls, 2 joins.  cb [x, y] G
            # closes [x, y] again and cb [x] H closes [x] again: 1 dcl and 1
            # join each.  condexp and profile: none.
            ("dcl", {"dcl": 9, "lattice_join": 7}),
        ],
    )
    def test_each_generated_sublattice_is_built_once(self, monkeypatch, name, closures):
        calls = self.count_closures(monkeypatch)
        report = execute_scenario(str(DATA / f"{name}_scenario.json"))
        assert calls == closures
        assert dumps(report) == (DATA / f"{name}_report.json").read_text()

    @pytest.mark.parametrize("name, bases", [("compose", 1), ("dcl", 2)])
    def test_each_cb_calls_canonical_base(self, monkeypatch, name, bases):
        # the cb op calls the public canonical_base, where a tracer sees it
        import lplattice.scenario as scenario

        calls = []

        def counting(*args, original=scenario.canonical_base):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(scenario, "canonical_base", counting)
        report = execute_scenario(str(DATA / f"{name}_scenario.json"))
        assert len(calls) == bases
        assert dumps(report) == (DATA / f"{name}_report.json").read_text()

    @pytest.mark.parametrize(
        "name, most",
        [
            # before lattice_join bucketed its cells itself and one-function
            # buckets split by sign: 6 and 15
            ("compose", 4),
            ("dcl", 9),
        ],
    )
    def test_few_buckets_are_sorted(self, monkeypatch, name, most):
        import lplattice.sublattice as sublattice

        calls = []

        def counting(*args, original=sublattice.tolerance_groups):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(sublattice, "tolerance_groups", counting)
        report = execute_scenario(str(DATA / f"{name}_scenario.json"))
        assert len(calls) <= most
        assert dumps(report) == (DATA / f"{name}_report.json").read_text()

    def test_generators_in_another_order_are_closed_again(self, monkeypatch):
        # the memo is keyed by the ordered list: [v, u] is a new key, though
        # it closes to the sublattice [u, v] does
        doc = json.loads((DATA / "compose_scenario.json").read_text())
        doc["commands"] = [
            {"op": "indep", "a": ["x"], "b": ["y"], "c": ["u", "v"]},
            {"op": "indep", "a": ["x"], "b": ["y"], "c": ["v", "u"]},
        ]
        calls = self.count_closures(monkeypatch)
        report = execute_scenario_doc(doc)
        # C, then [x] and [y]; then [v, u] alone
        assert calls == {"dcl": 4, "lattice_join": 4}
        assert report["results"][0]["result"] == report["results"][1]["result"]

    def test_b_side_is_closed_before_a_joins(self):
        # two faults: A's join with C overflows on b (1.0 / 1e-310), B's dcl on
        # c (1e300 / 1e-300); B's side is closed first, so c is named
        doc = {
            "space": {"p": 2.0, "cells": [{"id": cid, "weight": 1.0} for cid in "abc"]},
            "functions": {"spike": {"values": {"b": 1e-300, "c": 1e300}}},
            "sublattices": {
                "C": {"blocks": [{"cells": ["a", "b"], "profile": {"a": 1e-310, "b": 1.0}}]}
            },
            "commands": [{"op": "indep", "a": [], "b": ["spike"], "c": "C"}],
        }
        message = "commands[0]: profile on 'c' must be positive, got inf"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            execute_scenario_doc(doc)

    def test_memos_are_empty_once_the_run_returns(self, monkeypatch):
        import lplattice.scenario as scenario

        runners = []

        class Recorded(scenario._Runner):
            def __init__(self, *args):
                super().__init__(*args)
                runners.append(self)

        monkeypatch.setattr(scenario, "_Runner", Recorded)
        execute_scenario(str(DATA / "dcl_scenario.json"))
        (runner,) = runners
        assert runner.generated == {} and runner.types == {}

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")], ids=["negative", "nan", "inf"])
    def test_tol_is_checked_at_entry(self, tol):
        # a negative or nan tol fails every comparison and an infinite one passes
        # every comparison; either would run commands to a misleading end
        path = DATA / "readme_scenario.json"
        message = "^" + re.escape(f"tol: must be a finite number >= 0, got {tol!r}") + "$"
        with pytest.raises(ValidationError, match=message):
            execute_scenario(str(path), tol)
        with pytest.raises(ValidationError, match=message):
            execute_scenario_doc(json.loads(path.read_text()), tol)

    def test_report_round_trip(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(masked_dependence_scenario()))
        report = execute_scenario(str(path))
        path2 = tmp_path / "report.json"
        path2.write_text(dumps(report))
        report2 = execute_scenario(str(path2))
        assert dumps(report) == dumps(report2)

    def test_determinism(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(masked_dependence_scenario()))
        a = dumps(execute_scenario(str(path)))
        b = dumps(execute_scenario(str(path)))
        assert a == b


class TestOpTable:
    def test_ops_name_callables_of_the_module(self):
        import lplattice.scenario as scenario

        for op, (function, _, writer, _) in scenario._OPS.items():
            assert callable(getattr(scenario, function, None)), (op, function)
            assert writer is None or callable(getattr(scenario, writer, None)), (op, writer)

    def test_refining_ops_are_ops(self):
        import lplattice.scenario as scenario

        assert set(scenario._REFINING) <= scenario._OPS.keys()

    def test_readme_lists_the_ops(self):
        import lplattice.scenario as scenario

        readme = (DATA.parents[1] / "README.md").read_text(encoding="utf-8")
        listed = readme.split("Ops: `", 1)[1].split("`", 1)[0]
        assert [op.strip() for op in listed.split("|")] == list(scenario._OPS)


class TestDocumentSchemas:
    def test_cond_distribution_doc(self):
        from lplattice import cond_distribution, dcl, indicator, make_space, step_function

        space = make_space([("u", 1.0), ("v", 1.0), ("x", 1.0)], 2.0)
        C = dcl(space, [indicator(space, ["u", "v"])])
        f = step_function(space, {"u": 2.0, "x": -1.0})
        d = cond_distribution([f], C)
        assert d.arity == 1
        assert d.sublattice.blocks == (("u", "v"),)
        assert d.per_block == ((((0.0,), 1.0), ((2.0,), 1.0)),)
        assert d.orth == (((-1.0,), 1.0),)


# document numbers of every kind a reader may meet: mostly plain positive
# floats, so that many documents settle, else ints, bools, numeric and other
# strings, numpy floats, other floats, inf and nan (json reads 1e400 as inf)
# and ints past the float range
ODD_NUMBERS = st.one_of(
    st.floats(),
    st.integers(-3, 3),
    st.booleans(),
    st.sampled_from(["1.5", "x", "nan", "1e400"]),
    st.floats(0.1, 4.0).map(np.float64),
    st.sampled_from([1e400, -math.inf, math.nan, 10**400, -(10**309)]),
)
DOC_NUMBERS = st.integers(0, 7).flatmap(
    lambda k: ODD_NUMBERS if k == 0 else st.sampled_from([0.25, 0.5, 1.0, 2.0])
)


class StrSub(str):
    pass


# cell ids: mostly cells of the space a..f, else a cell it lacks, a non-string
# id or a str subclass
ODD_CELLS = st.sampled_from(["g", StrSub("a")]) | st.integers(0, 2)
DOC_CELLS = st.integers(0, 7).flatmap(
    lambda k: ODD_CELLS if k == 0 else st.sampled_from(["a", "b", "c", "d", "e", "f"])
)


@st.composite
def space_docs(draw):
    """A space document whose cells and p may be of any kind, some of them
    lacking a field."""
    cells = []
    for cid in draw(st.lists(DOC_CELLS, max_size=6)):
        cell = {"id": cid, "weight": draw(DOC_NUMBERS)}
        if draw(st.integers(0, 19)) == 0:
            del cell[draw(st.sampled_from(["id", "weight"]))]
        cells.append(cell)
    return {"p": draw(st.sampled_from([2.0, 1.0]) | DOC_NUMBERS), "cells": cells}


@st.composite
def profile_docs(draw, cells):
    """A profile over these cells: each keyed as a str, now and then by the
    cell itself or not at all, perhaps with an extra key, whose value may be
    bad."""
    prof = {}
    for cid in cells:
        how = draw(st.integers(0, 19))
        if how < 18:
            prof[str(cid)] = draw(DOC_NUMBERS)
        elif how == 18:
            prof[cid] = draw(DOC_NUMBERS)
    if draw(st.integers(0, 4)) == 0:
        prof[draw(st.sampled_from(["zz", "a", "f"]))] = draw(DOC_NUMBERS)
    return prof


@st.composite
def block_docs(draw):
    """Blocks over the cells a..f, listed in any order: mostly disjoint and
    non-empty, else with a cell twice in one block or across blocks, an empty
    block, or a cell the space lacks or that is not a str."""
    cells = draw(st.permutations(["a", "b", "c", "d", "e", "f"]))[: draw(st.integers(0, 6))]
    cuts = sorted({cut for cut in draw(st.lists(st.integers(1, 5), max_size=3)) if cut < len(cells)})
    blocks = [cells[i:j] for i, j in zip([0] + cuts, cuts + [len(cells)]) if i < j]
    defect = draw(st.integers(0, 9))
    if defect == 1:
        blocks.append([])
    elif blocks and defect == 2:
        blocks[-1].append(blocks[0][0])
    elif blocks and defect == 3:
        blocks[0].append(draw(DOC_CELLS))
    elif blocks and defect == 4:
        blocks[0][0] = draw(ODD_CELLS)
    return {"blocks": [{"cells": block, "profile": draw(profile_docs(block))} for block in blocks]}


def _outcome(read, *args):
    """What read(*args) gives: its value, or its exception's class and message."""
    try:
        return read(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestBulkReader:
    """The readers settle a document in bulk and fall back to the per-item
    reader; either way they give what the per-item reader gave."""

    SPACE = {"p": 2.0, "cells": [{"id": c, "weight": w} for c, w in zip("abcdef", [1.0, 0.5, 2.0, 1.0, 0.25, 1.0])]}

    @settings(max_examples=300, deadline=None)
    @given(space_docs())
    def test_space_matches_reference(self, doc):
        got, want = _outcome(space_from_doc, doc), _outcome(reference_space_from_doc, doc)
        if isinstance(want, Space):
            assert [(type(c), c, repr(w)) for c, w in got.cells] == [(type(c), c, repr(w)) for c, w in want.cells]
            assert repr(got.p) == repr(want.p)
        else:
            assert got == want

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(DOC_CELLS, DOC_NUMBERS, max_size=5) | st.lists(DOC_NUMBERS, max_size=2))
    def test_numbers_match_reference(self, doc):
        got, want = _outcome(_numbers, doc, "v"), _outcome(reference_numbers, doc, "v")
        if isinstance(want, dict):
            assert [(type(k), k, repr(v)) for k, v in got.items()] == [(type(k), k, repr(v)) for k, v in want.items()]
        else:
            assert got == want

    @settings(max_examples=500, deadline=None)
    @given(block_docs())
    # a str subclass is keyed by its str, but only the per-block reader makes it a str
    @example({"blocks": [{"cells": [StrSub("b")], "profile": {"b": 1.0}}]})
    def test_sublattice_matches_reference(self, doc):
        runner = _Runner({"space": self.SPACE}, DEFAULT_TOL)
        got = _outcome(runner._sublattice_from_doc, "C", doc)
        want = _outcome(reference_sublattice_from_doc, runner, "C", doc)
        if isinstance(want, Sublattice):
            assert [[(type(c), c) for c in block] for block in got.blocks] == [
                [(type(c), c) for c in block] for block in want.blocks
            ]
            assert [(type(c), c, repr(v)) for c, v in got.profile.items()] == [
                (type(c), c, repr(v)) for c, v in want.profile.items()
            ]
        else:
            assert got == want

    def test_documents_of_floats_settle_in_bulk(self, monkeypatch):
        # the per-item readers see only what does not settle: an int here
        import lplattice.scenario as scenario

        entries = []
        for name in ("_space_cells", "_blocks_with_profiles"):
            def counting(*args, original=getattr(scenario, name), name=name):
                entries.append(name)
                return original(*args)

            monkeypatch.setattr(scenario, name, counting)
        dumps(execute_scenario_doc(large_scenario(300)))
        assert entries == []
        doc = large_scenario(300)
        doc["space"]["cells"][5]["weight"] = 1
        block = doc["sublattices"]["C"]["blocks"][3]
        block["profile"][block["cells"][0]] = 2
        dumps(execute_scenario_doc(doc))
        assert entries == ["_space_cells", "_blocks_with_profiles"]


class TestSerializer:
    def test_number_formats(self):
        text = dumps({"a": 1.0, "b": 1.0 / 3.0, "c": 7, "d": True, "e": None})
        assert '"a": 1.0' in text
        assert '"b": 0.33333333333333331' in text
        assert '"c": 7' in text
        assert '"d": true' in text
        assert '"e": null' in text
        assert json.loads(text) == {
            "a": 1.0,
            "b": 1.0 / 3.0,
            "c": 7,
            "d": True,
            "e": None,
        }

    def test_round_trips_17_digits(self):
        x = 0.1 + 0.2
        assert json.loads(dumps({"x": x}))["x"] == x

    @settings(max_examples=200, deadline=None)
    @given(DOCUMENTS)
    def test_matches_reference_writer(self, doc):
        assert dumps(doc) == reference_dumps(doc) == joined_dumps(doc)

    @settings(max_examples=300, deadline=None)
    @given(NESTED)
    def test_nested_containers_match_reference_writers(self, doc):
        assert dumps(doc) == reference_dumps(doc) == joined_dumps(doc)

    @settings(max_examples=300, deadline=None)
    @given(records())
    def test_records_match_reference_writers(self, rows):
        for doc in (rows, {"rows": rows, "nested": [rows, rows[:1]]}):
            assert dumps(doc) == reference_dumps(doc) == joined_dumps(doc)

    def test_large_report_matches_reference_writers(self):
        report = execute_scenario_doc(large_scenario())
        assert len(report["scenario"]["space"]["cells"]) == 3000
        assert report["refinements"][0]["splitting"]
        assert dumps(report) == reference_dumps(report) == joined_dumps(report)

    @pytest.mark.parametrize(
        "doc",
        [
            float("nan"),
            float("inf"),
            float("-inf"),
            {"a": [1.0, {"b": float("nan")}]},
            [0.5, (float("-inf"),)],
            {1, 2},
            b"bytes",
            {"a": [{"b": frozenset()}]},
            # records are written column by column; the value named is still
            # the first in document order (inf, not the nan of column "a")
            [{"a": 1.0, "b": float("inf")}, {"a": float("nan"), "b": 2.0}] + [{"a": 3.0, "b": 4.0}] * 3,
            [{"a": [0.5] * 5, "b": {1}}, {"a": [float("nan")] * 5, "b": 2.0}] + [{"a": [], "b": 4.0}] * 3,
        ],
        ids=[
            "nan",
            "inf",
            "-inf",
            "nested-nan",
            "nested-inf",
            "set",
            "bytes",
            "nested-frozenset",
            "records-inf-before-nan",
            "records-set-before-nan",
        ],
    )
    def test_unserializable_raises_like_reference(self, doc):
        with pytest.raises(ValidationError) as ours:
            dumps(doc)
        for reference in (reference_dumps, joined_dumps):
            with pytest.raises(ValidationError) as theirs:
                reference(doc)
            assert str(ours.value) == str(theirs.value)

    def test_subclasses_format_like_their_base(self):
        class Real(float):
            pass

        class Items(list):
            pass

        doc = {"x": Real(0.1), "y": np.float64(2.0), "z": Items([Real(3.0)]), "w": OrderedDict(a=1)}
        plain = {"x": 0.1, "y": 2.0, "z": [3.0], "w": {"a": 1}}
        assert dumps(doc) == reference_dumps(doc) == joined_dumps(doc) == dumps(plain)
        with pytest.raises(ValidationError, match="non-finite number"):
            dumps(np.float64("nan"))


class TestRefinementToDoc:
    """The refinement log reads every child's weight from the child space."""

    def test_refine_space_then_and_identity(self):
        space = make_space([("a", 1.0), ("b", 3.0), ("c", 2.0)], 2.0)
        first = refine_space(space, {"b": (0.25, 0.75)}, [("fresh0", 5.0)])
        second = refine_space(first.child, {"a": (0.5, 0.5), "b#1": (0.5, 0.5)})
        assert refinement_to_doc(first) == {
            "splitting": {"b": [{"id": "b#0", "weight": 0.75}, {"id": "b#1", "weight": 2.25}]},
            "fresh": [{"id": "fresh0", "weight": 5.0}],
        }
        # the composite keeps its parent's order; fresh0 lies under none of its parents
        assert refinement_to_doc(first.then(second)) == {
            "splitting": {
                "a": [{"id": "a#0", "weight": 0.5}, {"id": "a#1", "weight": 0.5}],
                "b": [
                    {"id": "b#0", "weight": 0.75},
                    {"id": "b#1#0", "weight": 1.125},
                    {"id": "b#1#1", "weight": 1.125},
                ],
            },
            "fresh": [{"id": "fresh0", "weight": 5.0}],
        }
        assert refinement_to_doc(Refinement.identity(space)) == {"splitting": {}, "fresh": []}


class TestCliMain:
    def test_run_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(masked_dependence_scenario()))
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert '"independent": false' in out

    # merge_sum: ten masses of 0.1 merged into one atom, where sum() would round
    # differently from 3.12 on; dcl: sublattices and indep sides given by generators
    # with partly overlapping supports
    @pytest.mark.parametrize(
        "scenario",
        sorted(DATA.glob("*_scenario.json")),
        ids=lambda path: path.name[: -len("_scenario.json")],
    )
    def test_report_is_golden(self, capsys, scenario):
        report = scenario.with_name(scenario.name.replace("_scenario.json", "_report.json"))
        assert main(["run", str(scenario)]) == 0
        assert capsys.readouterr().out.encode("utf-8") == report.read_bytes()

    @pytest.mark.parametrize(
        "scenario",
        sorted(DATA.glob("*_scenario.json")),
        ids=lambda path: path.name[: -len("_scenario.json")],
    )
    def test_report_replays_itself(self, capsys, scenario):
        # a report is accepted as a scenario: running it runs the scenario it embeds
        report = scenario.with_name(scenario.name.replace("_scenario.json", "_report.json"))
        assert main(["run", str(report)]) == 0
        assert capsys.readouterr().out.encode("utf-8") == report.read_bytes()

    @pytest.mark.parametrize(
        "scenario",
        sorted(DATA.glob("*_scenario.json")),
        ids=lambda path: path.name[: -len("_scenario.json")],
    )
    def test_golden_scenario_runs_at_tol_zero(self, capsys, scenario):
        # tol compares data only; the package's own splits never depend on it
        assert main(["run", str(scenario), "--tol", "0"]) == 0
        capsys.readouterr()

    def test_golden_scenarios_stay_off_the_per_cell_checks(self, monkeypatch):
        # valid values are settled in bulk: the per-cell loop only names a bad cell
        import lplattice.core as core

        entries = []

        def counting(self, original=core.StepFunction._checked_values):
            entries.append("_checked_values")
            return original(self)

        monkeypatch.setattr(core.StepFunction, "_checked_values", counting)
        for scenario in sorted(DATA.glob("*_scenario.json")):
            dumps(execute_scenario(str(scenario)))
        assert entries == []
        # the count sees the loop entered: an int value is not settled in bulk
        core.StepFunction(core.Space((("a", 1.0),), 2.0), {"a": 1})
        assert entries == ["_checked_values"]

    def test_exact_splits_run_at_tol_zero(self, capsys):
        # realize and extend split cells by fractions whose float sum is not 1;
        # tol compares data, so tol 0 changes nothing in this report but its own line
        scenario = DATA / "exact_split_scenario.json"
        assert main(["run", str(scenario), "--tol", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        golden = (DATA / "exact_split_report.json").read_text().splitlines()
        assert out[1] == '  "tol": 0.0,'
        assert out[:1] + out[2:] == golden[:1] + golden[2:]

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_exit_two(self, tmp_path, capsys, token):
        text = json.dumps(masked_dependence_scenario())
        path = tmp_path / "s.json"
        path.write_text(text.replace('"op": "indep"', f'"note": {token}, "op": "indep"'))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError: ")
        assert str(path) in err and token in err

    def test_integer_literal_too_long_exit_two(self, tmp_path, capsys):
        # json refuses integer literals of more than 4,300 digits with a ValueError
        text = json.dumps(masked_dependence_scenario())
        path = tmp_path / "s.json"
        path.write_text(text.replace('"weight": 1.0', '"weight": ' + "1" * 5000, 1))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: ParseError: {path}: ")

    def test_unserializable_report_exit_two(self, tmp_path, capsys):
        # finite inputs whose distance overflows to inf at p = 1
        doc = {
            "space": {"p": 1.0, "cells": [{"id": "u", "weight": 1.0}, {"id": "v", "weight": 1.0}]},
            "functions": {
                "f": {"values": {"u": 1e308, "v": 1e308}},
                "g": {"values": {"u": -1e308, "v": -1e308}},
                "chi": {"values": {"u": 1.0}},
            },
            "sublattices": {"C": {"generators": ["chi"]}},
            "commands": [{"op": "dist", "f": "f", "g": "g", "c": "C"}],
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: NonFiniteValue: commands[0]: distance overflows"
        )

    def test_non_finite_expectation_exit_two(self, tmp_path, capsys):
        # E_C(chi_y) has coefficient 1e300 / 1e-10 = inf at p = 1: its first cell is x
        doc = {
            "space": {"p": 1.0, "cells": [{"id": "x", "weight": 1e-300}, {"id": "y", "weight": 1e300}]},
            "functions": {"chi_y": {"values": {"y": 1.0}}},
            "sublattices": {
                "C": {"blocks": [{"cells": ["x", "y"], "profile": {"x": 1.0, "y": 1e-310}}]}
            },
            "commands": [{"op": "indep", "a": ["chi_y"], "b": ["chi_y"], "c": "C"}],
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: NonFiniteValue: commands[0]: value on cell 'x' is not finite: inf\n"
        )
        assert captured.out == ""

    def test_norm_overflow_exit_two(self, tmp_path, capsys):
        # the orthogonal norm of f is 1e200 (its square overflows at p = 2);
        # the distance's p-th power sum then overflows
        doc = {
            "space": {"p": 2.0, "cells": [{"id": "u", "weight": 1.0}, {"id": "v", "weight": 1.0}]},
            "functions": {
                "f": {"values": {"v": 1e200}},
                "g": {"values": {"u": -1e200}},
                "chi": {"values": {"u": 1.0}},
            },
            "sublattices": {"C": {"generators": ["chi"]}},
            "commands": [{"op": "dist", "f": "f", "g": "g", "c": "C"}],
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: NonFiniteValue: commands[0]: distance overflows"
        )

    def test_orthogonal_ray_overflow_exit_two(self, tmp_path, capsys):
        # the ray mass of f on v is 1e200**2, past the float range at p = 2
        doc = {
            "space": {"p": 2.0, "cells": [{"id": "u", "weight": 1.0}, {"id": "v", "weight": 1.0}]},
            "functions": {"f": {"values": {"v": 1e200}}, "chi": {"values": {"u": 1.0}}},
            "sublattices": {"C": {"generators": ["chi"]}},
            "commands": [{"op": "typeeq", "fs": ["f"], "gs": ["f"], "c": "C"}],
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: NonFiniteValue: commands[0]: "
            "type equality overflows: an orthogonal ray mass m*s**p is inf\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda doc: doc["commands"].append({"op": "condexp", "f": "f"}),
                "error: ValidationError: commands[3].c: condexp needs 'c'",
            ),
            (
                lambda doc: doc["sublattices"]["B"]["blocks"][1].pop("profile"),
                "error: ValidationError: sublattices.B.blocks[1].profile: missing",
            ),
            (
                lambda doc: doc["commands"].append({"op": "slice", "f": "f", "c": "C", "r": "x"}),
                "error: ValidationError: commands[3].r: slice: 'r' must be a number",
            ),
            (
                lambda doc: doc["functions"]["f"]["values"].update({"(2,3]": "x"}),
                "error: ValidationError: functions.f.values.(2,3]: 'x' is not a number",
            ),
            (
                lambda doc: doc["functions"]["f"]["values"].update({"(2,3]": 10**400}),
                "error: ValidationError: functions.f.values.(2,3]: number past the float range",
            ),
            (
                lambda doc: doc["sublattices"]["B"]["blocks"][0]["profile"].update({"[0,1]": "x"}),
                "error: ValidationError: sublattices.B.blocks[0].profile.[0,1]: 'x' is not a number",
            ),
            (
                lambda doc: doc["space"]["cells"][0].update({"weight": "x"}),
                "error: ValidationError: space.cells[0].weight: 'x' is not a number",
            ),
            (
                lambda doc: doc["space"]["cells"][0].update({"weight": 10**400}),
                "error: ValidationError: space.cells[0].weight: number past the float range",
            ),
            (
                lambda doc: doc["space"].update({"p": "x"}),
                "error: ValidationError: space.p: 'x' is not a number",
            ),
            (
                lambda doc: doc["functions"]["f"].update({"values": [1, 2]}),
                "error: ValidationError: functions.f.values: must be an object of numbers",
            ),
            (
                lambda doc: doc.update({"functions": 5}),
                "error: ValidationError: functions: must be an object",
            ),
            (
                lambda doc: doc.update({"sublattices": [1]}),
                "error: ValidationError: sublattices: must be an object",
            ),
            (
                lambda doc: doc["sublattices"].update({"C": 5}),
                "error: ValidationError: sublattices.C: must be an object",
            ),
            (
                lambda doc: doc.update({"commands": 5}),
                "error: ValidationError: commands: must be a list",
            ),
            (
                lambda doc: doc["sublattices"]["B"].update({"blocks": 5}),
                "error: ValidationError: sublattices.B.blocks: must be a list",
            ),
            (
                lambda doc: doc["sublattices"]["B"]["blocks"][0].update({"cells": 5}),
                "error: ValidationError: sublattices.B.blocks[0].cells: must be a list of cells",
            ),
            (
                lambda doc: doc["sublattices"]["C"].update({"generators": 5}),
                "error: ValidationError: sublattices.C.generators: must be a list of names",
            ),
            (
                lambda doc: doc["sublattices"]["C"].update({"generators": "f"}),
                "error: ValidationError: sublattices.C.generators: must be a list of names",
            ),
            (
                lambda doc: doc["sublattices"].update(
                    {"C": {"blocks": [{"cells": ["[0,1]"], "profile": {"(1,2]": 1}}]}}
                ),
                "error: ValidationError: sublattices.C.blocks[0].profile.[0,1]: missing",
            ),
            (
                lambda doc: doc["sublattices"].update({"C": {}}),
                "error: ValidationError: sublattices.C: sublattice document needs 'blocks' or "
                "'generators'",
            ),
            (
                lambda doc: doc["space"]["cells"][0].pop("weight"),
                "error: ValidationError: space.cells[0].weight: missing",
            ),
            (
                lambda doc: (
                    doc["space"].update({"p": 1.0}),
                    doc["functions"].update(
                        {
                            "big": {"values": {"[0,1]": 1e308, "(1,2]": 1e308}},
                            "low": {"values": {"[0,1]": -1e308, "(1,2]": -1e308}},
                        }
                    ),
                    doc["commands"].append({"op": "dist", "f": "big", "g": "low", "c": "A"}),
                ),
                "error: NonFiniteValue: commands[3]: distance overflows",
            ),
            (
                lambda doc: doc["space"].update({"p": PAST_FLOAT_RANGE}),
                "error: ValidationError: space.p: number past the float range",
            ),
            (
                lambda doc: doc["space"]["cells"][0].update({"weight": PAST_FLOAT_RANGE}),
                "error: ValidationError: space.cells[0].weight: number past the float range",
            ),
            (
                lambda doc: doc["functions"]["f"]["values"].update({"(2,3]": PAST_FLOAT_RANGE}),
                "error: ValidationError: functions.f.values.(2,3]: number past the float range",
            ),
            (
                lambda doc: doc["sublattices"]["B"]["blocks"][0]["profile"].update(
                    {"[0,1]": PAST_FLOAT_RANGE}
                ),
                "error: ValidationError: sublattices.B.blocks[0].profile.[0,1]: number past the "
                "float range",
            ),
            (
                lambda doc: doc["commands"].append(
                    {"op": "slice", "f": "f", "c": "C", "r": PAST_FLOAT_RANGE}
                ),
                "error: ValidationError: commands[3].r: number past the float range",
            ),
            (
                lambda doc: doc["functions"]["f"]["values"].update({"zz": 1.0}),
                "error: UnknownCell: functions.f.values: no cell 'zz'",
            ),
            (
                lambda doc: doc["sublattices"]["B"]["blocks"][0]["profile"].update({"[0,1]": -1}),
                "error: ValidationError: sublattices.B: profile on '[0,1]' must be positive, "
                "got -1.0",
            ),
            (
                lambda doc: doc["space"]["cells"][0].update({"weight": -1}),
                "error: NonPositiveWeight: space: cell '[0,1]' has weight -1.0",
            ),
            (
                lambda doc: (
                    doc["sublattices"]["B"]["blocks"][0]["cells"].append("(2,3]"),
                    doc["sublattices"]["B"]["blocks"][0]["profile"].update({"(2,3]": 1.0}),
                ),
                "error: ValidationError: sublattices.B: cell '(2,3]' lies in two blocks",
            ),
            (
                lambda doc: doc["commands"].append(
                    {"op": "extend", "fs": ["f"], "c": "C", "b": "B", "as": ["g", "h"]}
                ),
                "error: ValidationError: commands[3].as: extend: 'as' must hold one name per "
                "'fs' entry: 1, got 2",
            ),
            # a JSON boolean is no number, though float(True) is 1.0
            (
                lambda doc: doc["space"].update({"p": True}),
                "error: ValidationError: space.p: True is not a number",
            ),
            (
                lambda doc: doc["space"]["cells"][0].update({"weight": True}),
                "error: ValidationError: space.cells[0].weight: True is not a number",
            ),
            (
                lambda doc: doc["functions"]["f"]["values"].update({"(2,3]": False}),
                "error: ValidationError: functions.f.values.(2,3]: False is not a number",
            ),
            (
                lambda doc: doc["sublattices"]["B"]["blocks"][0]["profile"].update({"[0,1]": True}),
                "error: ValidationError: sublattices.B.blocks[0].profile.[0,1]: True is not a number",
            ),
            # what the bulk block reader does not settle goes to the per-block reader
            (
                lambda doc: doc["sublattices"]["B"]["blocks"][0]["cells"].append("[0,1]"),
                "error: ValidationError: sublattices.B: cell '[0,1]' lies in two blocks",
            ),
            (
                lambda doc: doc["sublattices"]["B"]["blocks"].append({"cells": [], "profile": {}}),
                "error: ValidationError: sublattices.B: empty block",
            ),
            (
                lambda doc: doc["sublattices"]["B"]["blocks"][0]["profile"].update({"zz": "x"}),
                "error: ValidationError: sublattices.B.blocks[0].profile.zz: 'x' is not a number",
            ),
            # positive, but 0.0 once its block is scaled to peak 1
            (
                lambda doc: doc["sublattices"]["B"]["blocks"][0]["profile"].update(
                    {"[0,1]": 1e300, "(1,2]": 1e-300}
                ),
                "error: ValidationError: sublattices.B: profile on '(1,2]' scales to 0.0 against "
                "its block's peak, got 1e-300",
            ),
        ],
        ids=[
            "condexp-without-c",
            "block-without-profile",
            "slice-r-not-a-number",
            "value-not-a-number",
            "value-past-float-range",
            "profile-not-a-number",
            "weight-not-a-number",
            "weight-past-float-range",
            "p-not-a-number",
            "values-not-an-object",
            "functions-not-an-object",
            "sublattices-not-an-object",
            "sublattice-not-an-object",
            "commands-not-a-list",
            "blocks-not-a-list",
            "block-cells-not-a-list",
            "generators-not-a-list",
            "generators-a-string",
            "profile-lacks-a-cell",
            "sublattice-without-blocks-or-generators",
            "cell-without-weight",
            "dist-overflow-names-its-command",
            "p-literal-past-float-range",
            "weight-literal-past-float-range",
            "value-literal-past-float-range",
            "profile-literal-past-float-range",
            "slice-r-literal-past-float-range",
            "value-on-unknown-cell",
            "negative-profile",
            "negative-weight",
            "cell-in-two-blocks",
            "extend-as-of-wrong-length",
            "p-a-boolean",
            "weight-a-boolean",
            "value-a-boolean",
            "profile-a-boolean",
            "cell-twice-in-one-block",
            "empty-block",
            "extra-profile-key-not-a-number",
            "profile-scales-to-zero",
        ],
    )
    def test_malformed_field_exit_two(self, tmp_path, capsys, edit, message):
        doc = masked_dependence_scenario()
        edit(doc)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc).replace(json.dumps(PAST_FLOAT_RANGE), "1e400"))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert captured.out == ""

    def test_parse_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2
        assert "ParseError" in capsys.readouterr().err

    def test_dangling_reference_exit_two(self, tmp_path, capsys):
        doc = masked_dependence_scenario()
        doc["commands"] = [{"op": "condexp", "f": "nope", "c": "C"}]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 2

    @pytest.mark.parametrize(
        "cmd, message",
        [
            (
                {"op": "condexp", "f": "h", "c": "C"},
                "UnknownReference: commands[0].f: no function named 'h'",
            ),
            (
                {"op": "condexp", "f": "f", "c": "D"},
                "UnknownReference: commands[0].c: no sublattice named 'D'",
            ),
            (
                {"op": "indep", "a": ["chi", "h"], "b": "B", "c": "C"},
                "UnknownReference: commands[0].a: no function named 'h'",
            ),
            # two dangling names: the first in the op's field order is named
            (
                {"op": "dist", "f": "h", "g": "chi", "c": "D"},
                "UnknownReference: commands[0].f: no function named 'h'",
            ),
            (
                {"op": "realize", "f": "h", "c": "D"},
                "UnknownReference: commands[0].f: no function named 'h'",
            ),
            (
                {"op": "maharam", "cells": ["[0,1]"], "c": "D", "target": "h"},
                "UnknownReference: commands[0].c: no sublattice named 'D'",
            ),
            (
                {"op": "extend", "fs": ["f"], "c": "B", "b": "C"},
                "PreconditionFailed: commands[0]: C is not a sublattice of B",
            ),
            (
                {"op": "slice", "f": "f", "c": "C", "r": 1.5},
                "BadR: commands[0]: r must lie in (0,1), got 1.5",
            ),
            # a list side is closed inside the command: its error names the command
            (
                {"op": "indep", "a": ["spike"], "b": "B", "c": "C"},
                "ValidationError: commands[0]: profile on '(1,2]' must be positive, got inf",
            ),
            (
                {"op": "indep", "a": ["f"], "b": "B", "c": ["spike"]},
                "ValidationError: commands[0]: profile on '(1,2]' must be positive, got inf",
            ),
            (
                {"op": "indep", "a": [], "b": [], "c": []},
                "SpaceMismatch: commands[0]: no space among the inputs",
            ),
        ],
        ids=[
            "dangling-function",
            "dangling-sublattice",
            "dangling-name-in-a-list-side",
            "dist-names-f-before-c",
            "realize-names-f-before-c",
            "maharam-names-c-before-target",
            "extend-over-c-not-below-b",
            "slice-r-outside-0-1",
            "indep-side-whose-dcl-overflows",
            "indep-c-side-whose-dcl-overflows",
            "indep-all-sides-empty",
        ],
    )
    def test_error_inside_a_command_names_it(self, tmp_path, capsys, cmd, message):
        doc = masked_dependence_scenario()
        # the ratio of its (1,2] value to its [0,1] value, 1e300 / 1e-300, overflows
        doc["functions"]["spike"] = {"values": {"[0,1]": 1e-300, "(1,2]": 1e300}}
        doc["commands"] = [cmd]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_ops_look_up_their_functions_at_each_call(self, monkeypatch):
        # wrappers installed in the module's globals (as a tracer does) see every call
        import lplattice.scenario as scenario

        calls = []

        def counting(name):
            original = getattr(scenario, name)

            def wrapper(*args):
                calls.append(name)
                return original(*args)

            return wrapper

        monkeypatch.setattr(scenario, "star_independent", counting("star_independent"))
        monkeypatch.setattr(scenario, "verdict_to_doc", counting("verdict_to_doc"))
        doc = masked_dependence_scenario()
        doc["commands"] = [{"op": "indep", "a": "A", "b": "B", "c": "C"}]
        execute_scenario_doc(doc)
        assert calls == ["star_independent", "verdict_to_doc"]

    @pytest.mark.parametrize(
        "cmd, message",
        [
            (
                {"op": "extend", "fs": ["f"], "c": "C", "b": "B", "as": "gh"},
                "extend: 'as' must be a list of names",
            ),
            ({"op": "condexp", "f": "f", "c": "C", "as": ["g"]}, "condexp: 'as' must be a name"),
            ({"op": "slice", "f": "f", "c": "C", "r": 0.5, "as": ["g"]}, "slice: 'as' must be a name"),
            ({"op": "realize", "f": "f", "c": "C", "as": ["g"]}, "realize: 'as' must be a name"),
            ({"op": "cb", "fs": ["f"], "a": "B", "as": ["g"]}, "cb: 'as' must be a name"),
        ],
        ids=["extend", "condexp", "slice", "realize", "cb"],
    )
    def test_extend_as_string_exit_two(self, tmp_path, capsys, cmd, message):
        doc = masked_dependence_scenario()
        doc["commands"] = [cmd, {"op": "condexp", "f": "g", "c": "C"}]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_exit_two(self, capsys, trials):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--trials", trials])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert "argument --trials" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_malformed_tol_exit_two(self, tmp_path, capsys, command, tol):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(masked_dependence_scenario()))
        argv = ["run", str(path)] if command == "run" else ["verify", "--trials", "1"]
        with pytest.raises(SystemExit) as err:
            main(argv + ["--tol", tol])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert "argument --tol" in captured.err
        assert captured.out == ""

    def test_typeeq_on_opposite_orthogonal_atoms(self, tmp_path, capsys):
        # under tol 0.5 the atoms +0.2 and -0.2 outside T's support merge at 0
        doc = masked_dependence_scenario()
        doc["functions"]["o"] = {"values": {"[0,1]": 0.2, "(1,2]": -0.2}}
        doc["sublattices"]["T"] = {"generators": ["chi_top"]}
        doc["commands"] = [{"op": "typeeq", "fs": ["o"], "gs": ["o"], "c": "T"}]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--tol", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["results"][0]["result"] is True

    def test_run_path_does_not_load_oracles(self):
        probe = (
            "import sys, lplattice.cli; "
            "print(sorted({'numpy', 'lplattice.oracles'} & set(sys.modules)))"
        )
        assert run_python(probe).strip() == "[]"

    def test_verify_path_does_not_load_numpy(self):
        # the oracles compute in exact integers, so verify runs on the standard library
        probe = "import sys, lplattice.verify; print('numpy' in sys.modules)"
        assert run_python(probe).strip() == "False"

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_verify_small_run(self, capsys):
        assert main(["verify", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS masked-dependence-fixture" in out
        assert "FAIL" not in out

    def test_verify_output_is_golden(self, capsys):
        assert main(["verify", "--seed", "0", "--trials", "60"]) == 0
        golden = (DATA / "verify_report.txt").read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == golden

    def test_verify_output_at_tol_0_is_golden(self, capsys):
        # one known FAIL: independence-axioms at seed 40000, where tol 0
        # compares an extension's realized float laws with their source exactly
        assert main(["verify", "--seed", "0", "--trials", "60", "--tol", "0"]) == 1
        golden = (DATA / "verify_report_tol0.txt").read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == golden

    def test_verify_reports_a_raising_checker(self, monkeypatch, capsys):
        import lplattice.verify as verify

        def raising(seed, tol):
            raise MassMismatch(f"raised on {seed}")

        monkeypatch.setattr(verify, "check_distance", raising)
        assert main(["verify", "--seed", "0", "--trials", "3"]) == 1
        lines = capsys.readouterr().out.splitlines()
        i = lines.index("FAIL type-distance: 20000: MassMismatch: raised on 20000")
        assert lines[i + 1] == (
            "replay: python3 -c 'from lplattice.verify import check_distance as c; "
            "print(c(20000, 1e-09))'"
        )
        # the other suites still run
        assert len([line for line in lines if line.startswith("PASS ")]) == len(lines) - 2

    def test_verify_fault_injection(self, capsys):
        assert main(["verify", "--trials", "2", "--tol", "1e302"]) == 1
        lines = capsys.readouterr().out.splitlines()
        fails = [i for i, line in enumerate(lines) if line.startswith("FAIL ")]
        assert fails
        assert len([line for line in lines if line.startswith("replay: ")]) == len(fails)
        for i in fails:
            assert lines[i + 1].startswith("replay: ")
            argv = shlex.split(lines[i + 1][len("replay: "):])
            assert argv[:2] == ["python3", "-c"] and len(argv) == 3
            # the replay, run as printed, re-runs its own check and prints that FAIL's detail
            assert run_with_src(argv) == lines[i].split(": ", 1)[1] + "\n"


class TestVerifySuites:
    def test_deterministic_summaries(self):
        a = run_suites(seed=1, trials=4)
        b = run_suites(seed=1, trials=4)
        assert [(r.name, r.passed, r.detail) for r in a] == [
            (r.name, r.passed, r.detail) for r in b
        ]
        assert all(r.passed for r in a)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")], ids=["nan", "negative", "inf"])
    def test_tol_is_checked_at_entry(self, tol):
        # such a tol would FAIL suites as if the code were wrong
        message = "^" + re.escape(f"tol: must be a finite number >= 0, got {tol!r}") + "$"
        with pytest.raises(ValidationError, match=message):
            run_suites(seed=0, trials=1, tol=tol)
