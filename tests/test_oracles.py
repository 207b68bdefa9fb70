import pytest

from lplattice import (
    BadR,
    GuardExceeded,
    MassMismatch,
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

    def test_guard(self):
        space = unit_space(9)
        with pytest.raises(GuardExceeded):
            brute_dcl_closure(space, [indicator(space, ["c0"])])


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
