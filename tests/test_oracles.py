from fractions import Fraction

import pytest
from conftest import reference_brute_dcl_closure

import lplattice.oracles as oracles
from lplattice import (
    BadR,
    GuardExceeded,
    MassMismatch,
    NonTermination,
    Sublattice,
    close,
    dcl,
    function_close,
    indicator,
    is_sublattice_of,
    make_space,
    step_function,
    type_datum,
)
from lplattice.core import DEFAULT_TOL
from lplattice.oracles import (
    brute_dcl_closure,
    coupling_upper_bounds,
    proportionality_classes,
    random_instance,
    slice_by_definition,
    wasserstein_block,
)


def unit_space(n=3, p=2.0):
    return make_space([(f"c{i}", 1.0) for i in range(n)], p)


class TestBruteDcl:
    def test_single_generator(self):
        space = unit_space(3)
        f = step_function(space, {"c0": 2.0, "c2": 1.0})
        got = brute_dcl_closure(space, [f])
        assert got.blocks == (("c0", "c2"),)
        assert close(got.profile["c2"], 0.5, 1e-9)

    def test_closure_splits_blocks(self):
        space = unit_space(3)
        f = step_function(space, {"c0": 2.0, "c2": 1.0})
        got = brute_dcl_closure(space, [f, indicator(space, space.ids())])
        assert got.blocks == (("c0",), ("c1",), ("c2",))

    def test_empty(self):
        assert brute_dcl_closure(unit_space(3), []).dim == 0

    def test_zero_generator(self):
        space = unit_space(3)
        assert brute_dcl_closure(space, [step_function(space, {})]).dim == 0

    def test_guard(self):
        space = unit_space(9)
        with pytest.raises(GuardExceeded):
            brute_dcl_closure(space, [indicator(space, ["c0"])])

    def test_generator_guard(self):
        space = unit_space(3)
        with pytest.raises(GuardExceeded):
            brute_dcl_closure(space, [indicator(space, ["c0"])] * 5)

    def test_round_guard(self, monkeypatch):
        # the split needs a second round to read the blocks off
        space = unit_space(3)
        gens = [step_function(space, {"c0": 2.0, "c2": 1.0}), indicator(space, space.ids())]
        monkeypatch.setattr(oracles, "CLOSURE_ROUNDS", 1)
        with pytest.raises(NonTermination, match="round guard"):
            brute_dcl_closure(space, gens)
        monkeypatch.setattr(oracles, "CLOSURE_ROUNDS", 2)
        assert brute_dcl_closure(space, gens).dim == 3

    def test_stalled_closure(self, monkeypatch):
        # a class scan that finds no class never matches the rank, and the
        # ray of a positive generator is already closed
        space = unit_space(3)
        monkeypatch.setattr(oracles, "proportionality_classes", lambda ids, basis: [])
        with pytest.raises(NonTermination, match="stalled"):
            brute_dcl_closure(space, [step_function(space, {"c0": 2.0, "c2": 1.0})])

    def test_decimal_values_are_read_exactly(self):
        # 0.3 is not 3 * 0.1 in binary; one generator still makes one block
        space = unit_space(3)
        gens = [step_function(space, {"c0": 0.1, "c1": 0.2, "c2": 0.3})]
        got = brute_dcl_closure(space, gens)
        assert got.blocks == (("c0", "c1", "c2"),)
        assert got.profile["c2"] == 1.0
        assert close(got.profile["c0"], 1.0 / 3.0, 1e-15)
        assert got.equals(dcl(space, gens), 1e-12)

    def test_thirds(self):
        # the float 2/3 is exactly twice the float 1/3
        space = unit_space(3)
        f = step_function(space, {"c0": 1.0 / 3.0, "c1": 2.0 / 3.0, "c2": 1.0})
        got = brute_dcl_closure(space, [f])
        assert got.blocks == (("c0", "c1", "c2"),)
        assert got.profile["c0"] * 2.0 == got.profile["c1"]
        assert got.equals(dcl(space, [f]), 1e-12)
        split = brute_dcl_closure(space, [f, indicator(space, space.ids())])
        assert split.blocks == (("c0",), ("c1",), ("c2",))

    @pytest.mark.parametrize(
        "values",
        [
            ({"c0": 0.1, "c1": 0.3}, {"c0": 1.0, "c1": 3.0}),
            ({"c0": 0.1 + 0.2, "c1": 0.3}, {"c0": 1.0, "c1": 1.0}),
        ],
        ids=["tenth-and-three-tenths", "sum-of-tenths"],
    )
    def test_nearly_proportional_cells_stay_apart(self, values):
        # exactly, c0 and c1 are no positive multiples of each other; the
        # float reference merges them within its CLOSURE_TOL, and dcl at tol 0
        # keeps them apart too
        space = unit_space(3)
        gens = [step_function(space, v) for v in values]
        got = brute_dcl_closure(space, gens)
        assert got.blocks == (("c0",), ("c1",))
        assert reference_brute_dcl_closure(space, gens).blocks == (("c0", "c1"),)
        assert got.equals(dcl(space, gens, 0.0), 1e-12)

    @pytest.mark.parametrize("start", range(60_000, 62_000, 250))
    def test_agrees_with_float_reference_and_dcl(self, start):
        # the instances of verify's dcl-oracle suite
        for seed in range(start, start + 250):
            inst = random_instance(seed, 6)
            gens = list(inst.functions[:3])
            got = brute_dcl_closure(inst.space, gens)
            assert got.equals(reference_brute_dcl_closure(inst.space, gens), 1e-6), seed
            assert got.equals(dcl(inst.space, gens), 1e-12), seed


class TestProportionalityClasses:
    def test_classes_and_ratios(self):
        # columns (1, 0), (0, 1), (2, 0) and (-1, 0): a negative multiple joins no class
        got = proportionality_classes(["a", "b", "c", "d", "e"], [[1, 0, 2, -1, 0], [0, 1, 0, 0, 0]])
        assert got == [
            (("a", "c"), {"a": 1, "c": 2}),
            (("b",), {"b": 1}),
            (("d",), {"d": 1}),
        ]

    def test_any_basis_of_the_span_gives_the_same_classes(self):
        ids = ["a", "b", "c"]
        rows = [[1, 0, 2], [0, 1, 0]]
        # a third of row 1 + row 2, and 2 row 1 - row 2
        other = [[Fraction(1, 3), Fraction(1, 3), Fraction(2, 3)], [2, -1, 4]]
        assert proportionality_classes(ids, other) == proportionality_classes(ids, rows)


class TestSliceByDefinition:
    def test_matches_fast_path_on_staircase(self):
        from lplattice import conditional_slice

        space = unit_space(4, 1.0)
        C = dcl(space, [indicator(space, space.ids())])
        f = step_function(space, {"c0": 4.0, "c1": 3.0, "c2": 2.0, "c3": 1.0})
        for r in (0.1, 0.3, 0.5, 0.9):
            assert function_close(
                slice_by_definition(f, C, r), conditional_slice(f, C, r), 1e-12
            )

    def test_member_is_fixed(self):
        space = unit_space(2)
        C = Sublattice.make(space, [(("c0", "c1"), {"c0": 1.0, "c1": 0.5})])
        member = -1.5 * C.generators()[0]
        for r in (0.2, 0.8):
            assert function_close(slice_by_definition(member, C, r), member, 1e-12)

    def test_signed_fixture(self):
        space = make_space([("u", 0.5), ("v", 0.5)], 1.0)
        C = dcl(space, [indicator(space, ["u", "v"])])
        f = step_function(space, {"u": 2.0, "v": -3.0})
        got = slice_by_definition(f, C, 0.75)
        assert function_close(got, -3.0 * indicator(space, ["u", "v"]), 1e-12)

    def test_bad_r(self):
        space = unit_space(2)
        C = dcl(space, [indicator(space, space.ids())])
        with pytest.raises(BadR):
            slice_by_definition(indicator(space, ["c0"]), C, 0.0)


class TestWasserstein:
    def test_identical(self):
        d = [(4.0, 0.25), (1.0, 0.75)]
        assert wasserstein_block(d, d, 2.0) == 0.0

    def test_staircase_to_point(self):
        d1 = [(4.0, 0.25), (3.0, 0.25), (2.0, 0.25), (1.0, 0.25)]
        d2 = [(1.0, 1.0)]
        assert close(wasserstein_block(d1, d2, 1.0), 1.5, 1e-12)

    def test_symmetry(self):
        d1 = [(4.0, 0.5), (0.0, 0.5)]
        d2 = [(2.0, 0.25), (1.0, 0.75)]
        assert close(
            wasserstein_block(d1, d2, 2.0), wasserstein_block(d2, d1, 2.0), 1e-12
        )

    def test_mass_mismatch(self):
        with pytest.raises(MassMismatch):
            wasserstein_block([(1.0, 1.0)], [(1.0, 0.5)], 1.0)

    @pytest.mark.parametrize("tol", [0.0, DEFAULT_TOL])
    def test_masses_apart_by_rounding_agree(self, tol):
        # one block's nu-mass summed in two orders (verify --seed 0 --tol 0, type-distance)
        d1 = [(1.0, 1.0), (0.5, 0.9082482904638627)]
        d2 = [(1.0, 1.0), (0.5, 0.9082482904638631)]
        assert wasserstein_block(d1, d2, 2.0, tol) < 1e-8

    @pytest.mark.parametrize("masses", [(1.0, 0.5), (1e-20, 2e-20), (1.0, 1.0 + 1e-11)])
    def test_masses_apart_by_data_differ_at_tol_zero(self, masses):
        with pytest.raises(MassMismatch):
            wasserstein_block([(1.0, masses[0])], [(1.0, masses[1])], 1.0, 0.0)


class TestCouplingUpperBounds:
    def test_equal_types_attain_zero(self):
        space = unit_space(4, 1.0)
        C = dcl(space, [indicator(space, space.ids())])
        t = type_datum(step_function(space, {"c0": 4.0, "c1": 3.0}), C)
        assert coupling_upper_bounds(t, t, trials=10) <= 1e-12

    def test_staircase_fixture_attains_six(self):
        from lplattice import distance

        space = unit_space(4, 1.0)
        C = dcl(space, [indicator(space, space.ids())])
        t1 = type_datum(
            step_function(space, {"c0": 4.0, "c1": 3.0, "c2": 2.0, "c3": 1.0}), C
        )
        t2 = type_datum(indicator(space, space.ids()), C)
        best = coupling_upper_bounds(t1, t2, trials=200)
        assert close(best, 6.0, 1e-12)
        assert best >= distance(t1, t2) - 1e-12

    def test_orthogonal_only(self):
        from lplattice import distance

        space = make_space([("x", 1.0), ("y", 1.0)], 2.0)
        C = Sublattice.trivial(space)
        t1 = type_datum(step_function(space, {"x": 2.0, "y": -1.0}), C)
        t2 = type_datum(step_function(space, {"x": 5.0, "y": -3.0}), C)
        assert close(coupling_upper_bounds(t1, t2, trials=20), distance(t1, t2), 1e-12)


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance(7, 6)
        b = random_instance(7, 6)
        assert a.space == b.space
        assert [f.values for f in a.functions] == [f.values for f in b.functions]
        assert all(x.equals(y, 0.0) for x, y in zip(a.chain, b.chain))

    def test_size_budget(self):
        for seed in range(20):
            inst = random_instance(seed, 4)
            assert 2 <= len(inst.space.cells) <= 4

    @pytest.mark.parametrize("seed", range(30))
    def test_chain_is_nested(self, seed):
        inst = random_instance(seed, 7)
        C, B, D = inst.chain
        assert is_sublattice_of(C, B)
        assert is_sublattice_of(B, D)

    def test_fixed_p_keeps_structure(self):
        a = random_instance(11, 6, p=1.0)
        b = random_instance(11, 6, p=3.0)
        assert [c for c, _ in a.space.cells] == [c for c, _ in b.space.cells]
        assert a.chain[0].blocks == b.chain[0].blocks
        assert a.space.p == 1.0 and b.space.p == 3.0
