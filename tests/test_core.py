from types import MappingProxyType

import numpy as np
import pytest
from conftest import reference_refinement_check, reference_space_check, reference_step_values
from hypothesis import given, strategies as st

from lplattice import (
    BadExponent,
    BadFractions,
    DuplicateId,
    NonFiniteValue,
    NonPositiveDensity,
    NonPositiveWeight,
    Refinement,
    Space,
    SpaceMismatch,
    StepFunction,
    UnknownCell,
    ValidationError,
    close,
    density_change,
    dcl,
    function_close,
    indicator,
    lift,
    make_space,
    norm,
    refine_space,
    step_function,
    zero,
)
from lplattice.oracles import random_instance

values = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
triples = st.tuples(values, values, values)


def unit_space(n=3, p=2.0):
    return make_space([(f"c{i}", 1.0) for i in range(n)], p)


INF = float("inf")


class TestClose:
    @pytest.mark.parametrize(
        "a, b, tol, expected",
        [
            (1.0, 1.0 + 1e-10, 1e-9, True),
            (1e300, 1e300 * (1.0 + 1e-12), 1e-9, True),
            (0.0, -0.0, 0.0, True),
            (1.0, 1.0 + 1e-8, 1e-9, False),
            (INF, 2.0, 1e-9, False),
            (2.0, INF, 1e-9, False),
            (-INF, 0.0, 1e-9, False),
            (1e308, -INF, 1e300, False),
            (INF, INF, 1e-9, False),
            (INF, -INF, 1e-9, False),
            (float("nan"), 1.0, 1e-9, False),
            # finite sides whose difference overflows, under a bound that does too
            (1e308, -1e308, 1e300, False),
        ],
    )
    def test_verdicts(self, a, b, tol, expected):
        assert close(a, b, tol) is expected
        assert close(b, a, tol) is expected


class TestMakeSpace:
    def test_three_unit_cells(self):
        space = unit_space(3, 2.0)
        assert space.ids() == ("c0", "c1", "c2")
        assert space.weight("c1") == 1.0

    def test_zero_weight_rejected(self):
        with pytest.raises(NonPositiveWeight):
            make_space([("a", 1.0), ("b", 0.0)], 2.0)

    def test_small_exponent_rejected(self):
        with pytest.raises(BadExponent):
            make_space([("a", 1.0)], 0.5)

    def test_duplicate_id_rejected(self):
        with pytest.raises(DuplicateId):
            make_space([("a", 1.0), ("a", 2.0)], 1.0)

    def test_nan_weight_rejected(self):
        with pytest.raises(NonFiniteValue):
            make_space([("a", float("nan"))], 2.0)


class TestPointwise:
    def test_parts_of_signed_function(self):
        space = unit_space(2)
        f = step_function(space, {"c0": 2.0, "c1": -3.0})
        assert f.pos().values == {"c0": 2.0}
        assert f.neg().values == {"c1": 3.0}
        assert abs(f).values == {"c0": 2.0, "c1": 3.0}

    def test_meet_join(self):
        space = unit_space(3)
        f = step_function(space, {"c0": 2.0, "c2": 1.0})
        g = indicator(space, space.ids())
        assert f.meet(g).values == {"c0": 1.0, "c2": 1.0}
        assert f.join(g).values == {"c0": 2.0, "c1": 1.0, "c2": 1.0}

    def test_space_mismatch(self):
        f = indicator(unit_space(2), ["c0"])
        g = indicator(unit_space(3), ["c0"])
        with pytest.raises(SpaceMismatch):
            f + g

    def test_nan_value_rejected(self):
        with pytest.raises(NonFiniteValue):
            step_function(unit_space(2), {"c0": float("inf")})

    def test_unknown_cell_rejected(self):
        with pytest.raises(UnknownCell):
            step_function(unit_space(2), {"zz": 1.0})

    @given(triples)
    def test_negation_swaps_parts(self, vals):
        space = unit_space(3)
        f = step_function(space, dict(zip(space.ids(), vals)))
        assert function_close((-f).pos(), f.neg(), 1e-12)

    @given(triples)
    def test_part_identities(self, vals):
        space = unit_space(3)
        f = step_function(space, dict(zip(space.ids(), vals)))
        assert function_close(f.pos() - f.neg(), f, 1e-12)
        assert norm(f.pos().meet(f.neg())) == 0.0
        assert function_close(abs(f), f.pos() + f.neg(), 1e-12)

    @given(triples, triples, triples)
    def test_lattice_axioms(self, a, b, c):
        space = unit_space(3)
        f = step_function(space, dict(zip(space.ids(), a)))
        g = step_function(space, dict(zip(space.ids(), b)))
        h = step_function(space, dict(zip(space.ids(), c)))
        assert function_close(f.meet(g), g.meet(f), 0.0)
        assert function_close(f.join(g), g.join(f), 0.0)
        assert function_close(f.meet(g.meet(h)), f.meet(g).meet(h), 0.0)
        assert function_close(f.join(g.join(h)), f.join(g).join(h), 0.0)
        assert function_close(f.meet(f.join(g)), f, 0.0)
        assert function_close(f.join(f.meet(g)), f, 0.0)


class TestNorm:
    def test_zero(self):
        assert norm(zero(unit_space(3))) == 0.0

    def test_p1_sum(self):
        space = unit_space(3, 1.0)
        f = step_function(space, {"c0": 2.0, "c2": 1.0})
        assert norm(f) == 3.0

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_overflowing_sum_is_scaled(self, p):
        # |1e200|^p overflows, the norm itself does not
        space = make_space([("c0", 4.0), ("c1", 1.0)], p)
        f = step_function(space, {"c0": 1e200, "c1": -1e200})
        assert close(norm(f), 1e200 * 5.0 ** (1.0 / p), 1e-15)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_norm_past_float_range_raises(self, p):
        space = make_space([("c0", 4.0), ("c1", 1.0)], p)
        f = step_function(space, {"c0": 1e308, "c1": 1e308})
        with pytest.raises(NonFiniteValue, match="norm overflows"):
            norm(f)

    def test_in_range_is_the_direct_sum(self):
        space = make_space([("c0", 0.5), ("c1", 2.0)], 3.0)
        f = step_function(space, {"c0": 1e100, "c1": -3.0})
        assert norm(f) == (0.5 * 1e300 + 2.0 * 27.0) ** (1.0 / 3.0)

    @given(triples, triples, st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    def test_disjoint_additivity(self, a, b, p):
        # x and y disjoint: x on the first three cells, y on the rest
        space = make_space([(f"c{i}", 0.5 + 0.25 * i) for i in range(6)], p)
        x = step_function(space, {f"c{i}": a[i] for i in range(3)})
        y = step_function(space, {f"c{i+3}": b[i] for i in range(3)})
        assert norm(x.meet(y).pos()) == 0.0
        lhs = norm(x + y) ** p
        rhs = norm(x) ** p + norm(y) ** p
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + rhs)


class TestSplitCell:
    def test_halves(self):
        space = unit_space(2)
        r = refine_space(space, {"c0": (0.5, 0.5)})
        assert r.child.ids() == ("c0#0", "c0#1", "c1")
        assert r.child.weight("c0#0") == 0.5
        assert r.children_of("c1") == ("c1",)

    def test_thirds(self):
        space = unit_space(1)
        child = refine_space(space, {"c0": (2.0 / 3.0, 1.0 / 3.0)}).child
        assert close(child.weight("c0#0"), 2.0 / 3.0)
        assert close(child.weight("c0#1"), 1.0 / 3.0)

    def test_bad_fractions(self):
        with pytest.raises(BadFractions):
            refine_space(unit_space(1), {"c0": (0.5, 0.4)})

    # the split's sum is checked once, by the Refinement, relative to the
    # parent's weight: a cell far below weight 1 loses no mass unnoticed
    @pytest.mark.parametrize("fractions", [(0.5, 0.4), (0.5, 0.5000001)])
    @pytest.mark.parametrize("weight", [1.0, 1e-10])
    def test_fractions_must_sum_to_one(self, fractions, weight):
        with pytest.raises(BadFractions):
            refine_space(make_space([("c0", weight)], 2.0), {"c0": fractions})

    def test_zero_fraction(self):
        with pytest.raises(BadFractions) as err:
            refine_space(unit_space(1), {"c0": (1.0, 0.0)})
        assert str(err.value) == "fractions for 'c0' must be positive"

    def test_unknown_cell(self):
        with pytest.raises(UnknownCell) as err:
            refine_space(unit_space(1), {"zz": (0.5, 0.5)})
        assert str(err.value) == "no cell 'zz'"

    # malformed Python input is a LatticeError naming the cell, not a raw
    # TypeError or ValueError from float() or from unpacking
    @pytest.mark.parametrize(
        "plan, fresh, error, message",
        [
            ({"c0": 0.5}, (), BadFractions, "fractions for 'c0' must be a sequence of numbers, got 0.5"),
            (
                {"c0": ("h",)},
                (),
                BadFractions,
                "fractions for 'c0' must be a sequence of numbers, got ('h',)",
            ),
            ({}, [("x", "w")], ValidationError, "fresh cell 'x' has weight 'w', not a number"),
            ({}, [("x",)], ValidationError, "fresh cell ('x',) must be an (id, weight) pair"),
        ],
        ids=["fractions-not-a-sequence", "fraction-not-a-number", "fresh-weight-not-a-number", "fresh-not-a-pair"],
    )
    def test_malformed_input_names_the_cell(self, plan, fresh, error, message):
        with pytest.raises(error) as err:
            refine_space(unit_space(2), plan, fresh)
        assert str(err.value) == message


class TestLift:
    def test_constant_copy(self):
        space = unit_space(1)
        f = step_function(space, {"c0": 3.0})
        r = refine_space(space, {"c0": (0.5, 0.5)})
        lifted = lift(f, r)
        assert lifted.values == {"c0#0": 3.0, "c0#1": 3.0}
        assert close(norm(lifted), norm(f))

    @pytest.mark.parametrize("seed", range(25))
    def test_norm_preserved(self, seed):
        inst = random_instance(seed, 6)
        f = inst.functions[0]
        r = refine_space(inst.space, {inst.space.ids()[0]: (0.25, 0.25, 0.5)})
        assert abs(norm(lift(f, r)) - norm(f)) <= 1e-12 * (1.0 + norm(f))

    def test_one_block_sublattice_stays_one_block(self):
        space = unit_space(2)
        C = dcl(space, [indicator(space, space.ids())])
        r = refine_space(space, {"c0": (0.5, 0.5)})
        assert C.lift(r).dim == 1

    def test_composition(self):
        inst = random_instance(3, 5)
        space = inst.space
        f = inst.functions[0]
        r1 = refine_space(space, {space.ids()[0]: (0.5, 0.5)})
        r2 = refine_space(r1.child, {r1.child.ids()[-1]: (0.25, 0.75)})
        assert function_close(lift(lift(f, r1), r2), lift(f, r1.then(r2)), 0.0)

    def test_wrong_space(self):
        space = unit_space(2)
        r = refine_space(space, {"c0": (0.5, 0.5)})
        with pytest.raises(SpaceMismatch):
            lift(indicator(unit_space(3), ["c0"]), r)


class TestFreshCells:
    """Fresh cells come from refine_space's fresh argument: they lie under no
    parent, and lifted functions are zero there."""

    def test_enlargement(self):
        r = refine_space(unit_space(3), {}, [("x", 1.0), ("y", 1.0)])
        assert len(r.child.cells) == 5
        assert r.fresh_cells == ("x", "y")

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateId):
            refine_space(unit_space(3), {}, [("c0", 1.0)])

    def test_embedding_preserves_norm(self):
        space = unit_space(3)
        f = step_function(space, {"c0": 2.0, "c1": -1.0})
        lifted = lift(f, refine_space(space, {}, [("x", 2.0)]))
        assert lifted.values == f.values
        assert norm(lifted) == norm(f)


class TestDensityChange:
    def test_identity_density(self):
        space = unit_space(2)
        dc = density_change(space, indicator(space, space.ids()))
        assert dc.target == space

    def test_worked_example(self):
        space = unit_space(2, 1.0)
        d = step_function(space, {"c0": 2.0, "c1": 1.0})
        dc = density_change(space, d)
        assert dc.target.weight("c0") == 2.0
        f = step_function(space, {"c0": 2.0})
        pushed = dc.push(f)
        assert pushed.values == {"c0": 1.0}
        assert norm(f) == 2.0 == norm(pushed)

    @pytest.mark.parametrize("seed", range(25))
    def test_norm_preserved(self, seed):
        import random

        inst = random_instance(seed, 6)
        rng = random.Random(seed)
        d = step_function(
            inst.space, {c: rng.choice((0.5, 1.0, 2.0)) for c in inst.space.ids()}
        )
        dc = density_change(inst.space, d)
        for f in inst.functions:
            assert abs(norm(dc.push(f)) - norm(f)) <= 1e-9 * (1.0 + norm(f))
            assert function_close(dc.pull(dc.push(f)), f, 1e-12)

    def test_overflowing_density_raises(self):
        # 1e200 ** 2 raises OverflowError in float arithmetic
        space = unit_space(2)
        d = step_function(space, {"c0": 1e200, "c1": 1.0})
        with pytest.raises(NonFiniteValue, match="density change overflows"):
            density_change(space, d)

    def test_nonpositive_rejected(self):
        space = unit_space(2)
        with pytest.raises(NonPositiveDensity):
            density_change(space, indicator(space, ["c0"]))


class TestCommutingSquares:
    @pytest.mark.parametrize("seed", range(20))
    def test_lift_commutes_with_pointwise_ops(self, seed):
        inst = random_instance(seed, 6)
        f, g = inst.functions[0], inst.functions[1]
        r = refine_space(inst.space, {inst.space.ids()[-1]: (0.5, 0.25, 0.25)})
        assert function_close(lift(f.meet(g), r), lift(f, r).meet(lift(g, r)), 0.0)
        assert function_close(lift(f.join(g), r), lift(f, r).join(lift(g, r)), 0.0)
        assert function_close(lift(f + g, r), lift(f, r) + lift(g, r), 0.0)
        assert function_close(lift(f.pos(), r), lift(f, r).pos(), 0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_density_change_commutes_with_pointwise_ops(self, seed):
        import random

        inst = random_instance(seed, 6)
        rng = random.Random(seed)
        d = step_function(
            inst.space, {c: rng.choice((0.5, 1.0, 2.0)) for c in inst.space.ids()}
        )
        dc = density_change(inst.space, d)
        f, g = inst.functions[0], inst.functions[1]
        assert function_close(dc.push(f.meet(g)), dc.push(f).meet(dc.push(g)), 1e-12)
        assert function_close(dc.push(f + g), dc.push(f) + dc.push(g), 1e-12)
        assert function_close(dc.push(abs(f)), abs(dc.push(f)), 1e-12)


class TestRefinementValidation:
    def test_identity(self):
        space = unit_space(2)
        r = Refinement.identity(space)
        assert r.fresh_cells == ()

    def test_child_weights_must_sum(self):
        space = unit_space(1)
        bad_child = make_space([("c0#0", 0.4), ("c0#1", 0.4)], 2.0)
        with pytest.raises((BadFractions, SpaceMismatch)):
            Refinement(space, bad_child, {"c0": ("c0#0", "c0#1")})

    @pytest.mark.parametrize(
        "child, splitting, error, message",
        [
            (
                [("c0", 1.0), ("c1", 1.0)],
                {"c0": ("c0",), "c1": ("c1",), "zz": ("c0",)},
                UnknownCell,
                "splitting mentions unknown cell 'zz'",
            ),
            (
                [("c0", 1.0), ("c1", 1.0)],
                {"c0": ("c0",), "c1": ()},
                BadFractions,
                "parent cell 'c1' has no children",
            ),
            (
                [("c0", 1.0), ("c1", 1.0)],
                {"c0": ("c0",), "c1": ("c0",)},
                DuplicateId,
                "child cell 'c0' appears twice",
            ),
            (
                [("c0#0", 0.4), ("c0#1", 0.4), ("c1", 1.0)],
                {"c0": ("c0#0", "c0#1"), "c1": ("c1",)},
                BadFractions,
                "children of 'c0' sum to 0.8, expected 1.0",
            ),
        ],
        ids=["unknown-key", "no-children", "child-twice", "wrong-sum"],
    )
    def test_hand_built_errors(self, child, splitting, error, message):
        with pytest.raises(error) as err:
            Refinement(unit_space(2), make_space(child, 2.0), splitting)
        assert str(err.value) == message


def _outcome(build):
    """What a construction gives: its result, or its error's class and text."""
    try:
        return "accepted", build()
    except Exception as exc:  # every error the checks raise, whatever its class
        return type(exc), str(exc)


class TestBulkChecks:
    """The constructors' checks against the per-cell checks they ran before
    (tests/conftest.py): the same error class and text, or the same object.
    Space and Refinement check in one pass, StepFunction in bulk."""

    @pytest.mark.parametrize(
        "cells, p",
        [
            ((("a", 1.0), ("b", 2.0)), 2.0),
            ((), 1.0),
            ((("a", 1.0), ("a", 2.0)), 2.0),
            ((("a", -1.0), ("a", 2.0)), 2.0),
            ((("a", 1.0), ("b", float("inf"))), 2.0),
            ((("a", 1.0), ("b", float("nan"))), 2.0),
            ((("a", 1.0), ("b", 0.0)), 2.0),
            ((("a", 1.0), ("b", -0.0)), 2.0),
            ((("a", 1.0), ("b", -3.5)), 2.0),
            ((("a", 1), ("b", 2)), 2.0),
            ((("a", 1.0), ("b", 0)), 2.0),
            ((("a", np.float64(1.5)), ("b", 2.0)), 2.0),
            ((("a", 1.0), ("b", np.float64(-1.5))), 2.0),
            ((("a", 1.0), ("b", "x")), 2.0),
            ((("a", 1.0), ("b", 2.0, 3.0)), 2.0),
            ((("a", 1.0),), 0.5),
            ((("a", 1.0),), float("nan")),
            ((("a", 1.0),), float("inf")),
            ((("a", 0.0),), 0.5),
            ((("a", 1.0), ("a", float("nan"))), 2.0),
            ((("a", 1.0), (["b"], 2.0)), 2.0),
            ((("a", 1.0), (["a"], float("nan"))), 2.0),
        ],
        ids=[
            "valid", "empty", "duplicate-id", "bad-weight-before-duplicate", "inf-weight",
            "nan-weight", "zero-weight", "negative-zero-weight", "negative-weight",
            "int-weights", "int-zero-weight", "numpy-weight", "negative-numpy-weight",
            "string-weight", "triple", "small-p", "nan-p", "inf-p", "bad-weight-and-p",
            "duplicate-id-with-nan-weight", "unhashable-id", "unhashable-id-with-nan-weight",
        ],
    )
    def test_space(self, cells, p):
        want = _outcome(lambda: reference_space_check(cells, p))
        got = _outcome(lambda: Space(cells, p))
        if want[0] != "accepted":
            assert got == want
            return
        space = got[1]
        assert space.ids() == tuple(cid for cid, _ in cells)
        weights = [(cid, w, type(w)) for cid, w in cells]
        assert [(cid, w, type(w)) for cid, w in space._weights.items()] == weights

    @pytest.mark.parametrize(
        "values",
        [
            {"c1": 2.5, "c0": -1.0},
            {},
            {"c0": 1.0, "zz": 2.0},
            {"c0": float("inf")},
            {"c0": 1.0, "c1": float("nan")},
            {"c0": float("nan"), "zz": 1.0},
            {"c0": 3, "c1": 0},
            {"c0": -0.0, "c1": 0.0, "c2": 1.0},
            {"c0": np.float64(2.0), "c1": np.float64(0.0)},
            {"c0": True},
            {"c0": "x"},
        ],
        ids=[
            "valid", "empty", "unknown-cell", "inf-value", "nan-value",
            "nan-before-unknown-cell", "int-values", "signed-zeros", "numpy-values",
            "bool-value", "string-value",
        ],
    )
    def test_step_function(self, values):
        space = unit_space(3)
        want = _outcome(lambda: reference_step_values(space, values))
        got = _outcome(lambda: StepFunction(space, dict(values)).values)
        assert got == want
        if want[0] == "accepted":
            assert [type(v) for v in got[1].values()] == [float] * len(want[1])

    def test_step_function_keeps_no_alias(self):
        values = {"c0": 1.0}
        f = StepFunction(unit_space(1), values)
        values["c0"] = 2.0
        assert f.values == {"c0": 1.0}

    @pytest.mark.parametrize(
        "child, splitting",
        [
            ([("c0#0", 0.5), ("c0#1", 0.5), ("c1", 1.0)], {"c0": ("c0#0", "c0#1"), "c1": ("c1",)}),
            ([("c0", 1.0), ("c1", 1.0), ("fresh0", 3.0)], {"c0": ("c0",), "c1": ("c1",)}),
            ([("c0", 1.0), ("c1", 1.0)], {"c0": ("c0",), "c1": ("c1",), "zz": ("c0",)}),
            ([("c0", 1.0), ("c1", 1.0)], {"c0": ("c0",)}),
            ([("c0", 1.0), ("c1", 1.0)], {"c0": ("c0",), "c1": ()}),
            ([("c0", 1.0), ("c1", 1.0)], {"c0": ("c0",), "c1": ("c0",)}),
            ([("c0#0", 0.5), ("c0#1", 0.5), ("c1", 1.0)], {"c0": ("c0#0", "c0#0"), "c1": ("c1",)}),
            ([("c0", 1.0), ("c1", 1.0)], {"c0": ("c0",), "c1": ("c9",)}),
            ([("c0#0", 0.4), ("c0#1", 0.4), ("c1", 1.0)], {"c0": ("c0#0", "c0#1"), "c1": ("c1",)}),
            ([("c0", 0.5), ("c1", 1.0)], {"c0": ("c0",), "c1": ("c1",)}),
            ([("c0#0", 0.1), ("c0#1", 0.2), ("c0#2", 0.7), ("c1", 1.0)],
             {"c0": ("c0#0", "c0#1", "c0#2"), "c1": ("c1",)}),
            ([("c0", 1.0), ("c1", 1.0)], {"c0": ["c0"], "c1": ("c1",)}),
            ([("c0", 1.0), ("c1", 1.0)], {"c0": (["c0"],), "c1": ("c1",)}),
            ([("c0", 1.0), ("c1#0", 0.5), ("c1#1", 0.5)], {"c1": ("c1#0", "c1#1"), "c0": ("c0",)}),
            ([("c0", 1.0), ("c1#0", 0.5), ("c1#1", 0.4)], {"c1": ("c1#0", "c1#1"), "c0": ("c0",)}),
            ([("c0#0", 0.5), ("c0#1", 0.5), ("c1", 1.0)],
             MappingProxyType({"c0": ("c0#0", "c0#1"), "c1": ("c1",)})),
            ([("c0", 1.0), ("c1", 1.0)], MappingProxyType({"c0": ("c0",), "zz": ("c1",)})),
            ([("c0", 1.0), ("c1", 1.0)], MappingProxyType({"c0": ("c0",), "c1": ("c0",)})),
        ],
        ids=[
            "valid", "fresh-cell", "stray-parent", "parent-missing", "parent-without-children",
            "child-under-two-parents", "child-twice-in-one-split", "child-not-in-child-space",
            "wrong-split-sum", "one-child-wrong-weight", "split-sum-off-by-rounding",
            "list-of-children", "unhashable-child", "parents-out-of-order",
            "wrong-sum-out-of-order", "mapping-proxy", "mapping-proxy-stray-parent",
            "mapping-proxy-child-twice",
        ],
    )
    def test_refinement(self, child, splitting):
        parent, child = unit_space(2), make_space(child, 2.0)
        want = _outcome(lambda: reference_refinement_check(parent, child, splitting))
        got = _outcome(lambda: Refinement(parent, child, splitting))
        if want[0] == "accepted":
            assert got[0] == "accepted" and got[1].splitting == splitting
        else:
            assert got == want

    def test_refinements_of_random_instances(self):
        # refine_space's own splits: fractions whose float sums are not 1
        for seed in range(50):
            space = random_instance(seed, 8).space
            plan = {cid: (0.1, 0.2, 0.3, 0.4) for cid in space.ids()[::2]}
            r = refine_space(space, plan)
            assert _outcome(lambda: reference_refinement_check(space, r.child, r.splitting)) == (
                "accepted", None
            )

    @pytest.mark.parametrize(
        "first, second",
        [
            ({"c0": (0.3, 0.7)}, {"c0#1": (0.1, 0.2, 0.7), "c1": (0.5, 0.5)}),
            ({}, {"c1": (1 / 3, 1 / 3, 1 / 3)}),
            ({"c0": (0.1, 0.9), "c1": (0.25, 0.75)}, {}),
        ],
        ids=["split-twice", "identity-then-split", "split-then-identity"],
    )
    def test_composite_refinement(self, first, second):
        space = unit_space(2)
        r1 = refine_space(space, first)
        r2 = refine_space(r1.child, second, [("fresh0", 2.0)])
        r = r1.then(r2)
        assert _outcome(lambda: reference_refinement_check(space, r2.child, r.splitting)) == (
            "accepted", None
        )
        assert (r.parent, r.child, r.fresh_cells) == (space, r2.child, ("fresh0",))

    def test_sort_cells_names_the_unknown_cell(self):
        space = unit_space(3)
        assert space.sort_cells(["c2", "c0"]) == ("c0", "c2")
        with pytest.raises(UnknownCell) as err:
            space.sort_cells(["c2", "zz", "yy"])
        assert str(err.value) == "no cell 'zz'"
