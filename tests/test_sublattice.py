import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    brute_intersection,
    reference_cond_exp,
    reference_dcl,
    reference_generator_join,
    reference_is_sublattice_of,
    reference_join,
    reference_keyed_join,
    reference_make,
    reference_one_group_blocks,
    reference_proportional_blocks,
)
from lplattice import (
    DensityChange,
    NonFiniteValue,
    Refinement,
    Space,
    SpaceMismatch,
    StepFunction,
    Sublattice,
    UnknownCell,
    ValidationError,
    band_decompose,
    canonical_base,
    close,
    cond_distribution,
    cond_exp,
    contains,
    dcl,
    density_change,
    function_close,
    indicator,
    intersects_well,
    is_sublattice_of,
    lattice_intersection,
    lattice_join,
    make_space,
    norm,
    refine_space,
    star_independent,
    step_function,
    type_datum,
)
from lplattice.oracles import brute_dcl_closure, random_instance
from lplattice.sublattice import _proportional_blocks
from lplattice.verify import _nontrivial_sublattice, masked_dependence_example


def unit_space(n=3, p=2.0):
    return make_space([(f"c{i}", 1.0) for i in range(n)], p)


class TestDcl:
    def test_single_generator_rays(self):
        # (2, 0, 1): the first and last cell are positively proportional
        space = unit_space(3)
        f = step_function(space, {"c0": 2.0, "c2": 1.0})
        C = dcl(space, [f])
        assert C.blocks == (("c0", "c2"),)
        assert C.profile["c0"] == 1.0
        assert close(C.profile["c2"], 0.5)

    def test_adding_constants_splits_everything(self):
        space = unit_space(3)
        f = step_function(space, {"c0": 2.0, "c2": 1.0})
        C = dcl(space, [f, indicator(space, space.ids())])
        assert C.blocks == (("c0",), ("c1",), ("c2",))

    def test_empty_generators(self):
        C = dcl(unit_space(3), [])
        assert C.dim == 0
        assert C.support == frozenset()

    def test_negative_scalar_is_not_a_ray(self):
        space = unit_space(2)
        f = step_function(space, {"c0": 1.0, "c1": -2.0})
        assert dcl(space, [f]).dim == 2

    @pytest.mark.parametrize("seed", range(60))
    def test_agrees_with_closure_oracle(self, seed):
        inst = random_instance(seed, 6)
        gens = list(inst.functions[:3])
        assert dcl(inst.space, gens).equals(
            brute_dcl_closure(inst.space, gens), 1e-6
        )


class TestContains:
    def test_block_profile_is_member(self):
        space = unit_space(3)
        C = dcl(space, [step_function(space, {"c0": 2.0, "c2": 1.0})])
        gen = C.generators()[0]
        assert contains(C, gen) == {0: 1.0}

    def test_off_support_function_is_not(self):
        space = unit_space(3)
        C = dcl(space, [step_function(space, {"c0": 2.0, "c2": 1.0})])
        assert contains(C, indicator(space, ["c1"])) is None

    def test_top_indicator_not_constant(self):
        fx = masked_dependence_example()
        assert contains(fx.C, fx.chi_top) is None

    def test_zero_is_member(self):
        space = unit_space(2)
        C = dcl(space, [indicator(space, space.ids())])
        assert contains(C, step_function(space, {})) == {0: 0.0}


class TestIsSublatticeOf:
    def test_constants_inside_halves(self):
        space = unit_space(4)
        constants = dcl(space, [indicator(space, space.ids())])
        halves = Sublattice.make(
            space,
            [
                (("c0", "c1"), {"c0": 1.0, "c1": 1.0}),
                (("c2", "c3"), {"c2": 1.0, "c3": 1.0}),
            ],
        )
        assert is_sublattice_of(constants, halves)
        assert not is_sublattice_of(halves, constants)
        assert is_sublattice_of(halves, halves)

    def test_trivial_in_everything(self):
        space = unit_space(2)
        assert is_sublattice_of(Sublattice.trivial(space), dcl(space, [indicator(space, ["c0"])]))

    def test_block_outside_the_support(self):
        # c1's block touches no block of the other lattice: no coefficient
        # can make it a member
        space = unit_space(2)
        one = dcl(space, [indicator(space, ["c0"])])
        assert not is_sublattice_of(dcl(space, [indicator(space, ["c1"])]), one)
        assert not is_sublattice_of(dcl(space, [indicator(space, space.ids())]), one)
        cells = Sublattice.make(space, [(["c0"], {"c0": 1.0}), (["c1"], {"c1": 1.0})])
        assert is_sublattice_of(one, cells)


class TestBandDecompose:
    def test_off_support(self):
        space = unit_space(3)
        C = dcl(space, [indicator(space, ["c0", "c2"])])
        f = step_function(space, {"c1": 5.0})
        f1, f2 = band_decompose(f, C)
        assert f1.values == {}
        assert f2.values == {"c1": 5.0}

    def test_inside_support(self):
        space = unit_space(3)
        C = dcl(space, [indicator(space, ["c0", "c2"])])
        f = step_function(space, {"c0": 1.0, "c2": -2.0})
        f1, f2 = band_decompose(f, C)
        assert f2.values == {}
        assert f1.values == f.values

    @pytest.mark.parametrize("seed", range(20))
    def test_sum_and_disjointness(self, seed):
        inst = random_instance(seed, 7)
        C = inst.chain[1]
        f = inst.functions[0]
        f1, f2 = band_decompose(f, C)
        assert function_close(f1 + f2, f, 0.0)
        assert norm(abs(f1).meet(abs(f2))) == 0.0


class TestCondExp:
    def test_masked_dependence_values(self):
        for p in (1.0, 2.0, 1.5, 3.0):
            fx = masked_dependence_example(p)
            assert function_close(cond_exp(fx.f, fx.C), fx.chi, 1e-12)
            assert function_close(cond_exp(fx.f, fx.B), fx.chi, 1e-12)
            assert function_close(cond_exp(fx.chi_top, fx.B), fx.chi_top, 1e-12)
            assert function_close(
                cond_exp(fx.chi_top, fx.C), (1.0 / 3.0) * fx.chi, 1e-12
            )

    def test_member_is_fixed(self):
        space = unit_space(3)
        C = dcl(space, [step_function(space, {"c0": 2.0, "c2": 1.0})])
        member = 3.0 * C.generators()[0]
        assert function_close(cond_exp(member, C), member, 1e-12)

    def test_density_profile_p1(self):
        # one block, profile (2, 1), unit weights, p=1: nu = (2, 1)
        # E(f) coefficient solves 3c = sum nu * f/w = 1, so E = (2/3, 1/3)
        space = unit_space(2, 1.0)
        C = Sublattice.make(space, [(("c0", "c1"), {"c0": 2.0, "c1": 1.0})])
        got = cond_exp(step_function(space, {"c0": 1.0}), C)
        assert function_close(
            got, step_function(space, {"c0": 2.0 / 3.0, "c1": 1.0 / 3.0}), 1e-12
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_defining_property_per_block(self, seed):
        inst = random_instance(seed, 7)
        C = inst.chain[seed % 3]
        f = inst.functions[0]
        e = cond_exp(f, C)
        for k, block in enumerate(C.blocks):
            lhs = sum(C.nu(c) * e[c] / C.profile[c] for c in block)
            rhs = sum(C.nu(c) * f[c] / C.profile[c] for c in block)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))

    @pytest.mark.parametrize("seed", range(40))
    def test_characterization(self, seed):
        inst = random_instance(seed, 7)
        C = inst.chain[seed % 3]
        f, g = inst.functions[0], inst.functions[1]
        ef = cond_exp(f, C)
        assert function_close(cond_exp(ef, C), ef, 1e-9)
        assert all(v >= -1e-12 for v in cond_exp(abs(f), C).values.values())
        assert norm(ef) <= norm(f) + 1e-9
        assert function_close(
            cond_exp(f - 0.5 * g, C), ef - 0.5 * cond_exp(g, C), 1e-9
        )
        _, f2 = band_decompose(f, C)
        assert norm(cond_exp(f2, C)) == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_p2_orthogonality(self, seed):
        inst = random_instance(seed, 7, p=2.0)
        C = inst.chain[seed % 3]
        f = inst.functions[0]
        resid = f - cond_exp(f, C)
        for e in C.generators():
            inner = sum(inst.space.weight(c) * resid[c] * e[c] for c in e.values)
            assert abs(inner) <= 1e-9


def _cond_exp_outcome(expect, f, C):
    """cond_exp's values in order, or the class and message it raised."""
    try:
        return list(expect(f, C).values.items())
    except Exception as exc:  # compared with the reference's exception
        return ("raised", type(exc), str(exc))


class TestOneExpectation:
    """cond_exp over the nu-table against the per-block loop it replaced."""

    @pytest.mark.parametrize("seed", range(300))
    def test_matches_reference(self, seed):
        rng = random.Random(seed)
        for p in (1.0, 1.5, 2.0, 3.0):
            inst = random_instance(seed, 12, p=p)
            cells = list(inst.space.ids())
            noisy = {c: rng.uniform(-3.0, 3.0) for c in cells if rng.random() < 0.6}
            fs = list(inst.functions) + [StepFunction(inst.space, noisy)]
            for f in fs:
                # the same function with its values in another order than the space's
                items = list(f.values.items())
                rng.shuffle(items)
                f = StepFunction(inst.space, dict(items))
                for C in list(inst.chain) + [_nontrivial_sublattice(inst, seed)]:
                    assert _cond_exp_outcome(cond_exp, f, C) == _cond_exp_outcome(
                        reference_cond_exp, f, C
                    )

    def test_non_finite_value_names_the_first_cell(self):
        # coefficient 1e300 / 1e-10 = inf: its first cell is x
        space = make_space([("x", 1e-300), ("y", 1e300)], 1.0)
        C = Sublattice.make(space, [(("x", "y"), {"x": 1.0, "y": 1e-310})])
        chi_y = indicator(space, ["y"])
        with pytest.raises(NonFiniteValue, match="^value on cell 'x' is not finite: inf$"):
            cond_exp(chi_y, C)
        assert _cond_exp_outcome(cond_exp, chi_y, C) == _cond_exp_outcome(
            reference_cond_exp, chi_y, C
        )


class TestNuTable:
    @pytest.mark.parametrize("seed", range(60))
    def test_equals_explicit_loop(self, seed):
        inst = random_instance(seed, 12)
        space = inst.space
        for C in inst.chain:
            factor, nu, mass = {}, {}, []
            for block in C.blocks:
                total = 0.0
                for cid in block:
                    mu, w = space.weight(cid), C.profile[cid]
                    factor[cid] = mu * w ** (space.p - 1.0)
                    nu[cid] = mu * w ** space.p
                    total += nu[cid]
                mass.append(total)
            table = C.nu_table
            assert (table.factor, table.nu, table.mass) == (factor, nu, tuple(mass))
            assert [C.nu(cid) for cid in nu] == list(nu.values())
            assert [C.nu_block(k) for k in range(C.dim)] == mass

    def test_nu_errors(self):
        space = unit_space(3)
        C = Sublattice.make(space, [(("c0",), {"c0": 1.0})])
        with pytest.raises(UnknownCell):
            C.nu("nope")
        with pytest.raises(KeyError):
            C.nu("c1")


class TestIntersection:
    def test_masked_dependence_intersection_trivial(self):
        fx = masked_dependence_example()
        got = lattice_intersection(fx.A, fx.C)
        assert got.dim == 0
        assert brute_intersection(fx.A, fx.C).dim == 0

    def test_self_intersection(self):
        space = unit_space(3)
        A = dcl(space, [step_function(space, {"c0": 2.0, "c2": 1.0})])
        assert lattice_intersection(A, A).equals(A)

    def test_disjoint_supports(self):
        space = unit_space(4)
        A = dcl(space, [indicator(space, ["c0", "c1"])])
        C = dcl(space, [indicator(space, ["c2", "c3"])])
        assert lattice_intersection(A, C).dim == 0

    def test_cycle_inconsistency_forces_zero(self):
        space = unit_space(2)
        A = Sublattice.make(space, [(("c0", "c1"), {"c0": 1.0, "c1": 1.0})])
        C = Sublattice.make(space, [(("c0", "c1"), {"c0": 1.0, "c1": 2.0})])
        assert lattice_intersection(A, C).dim == 0

    def test_contained_lattice(self):
        space = unit_space(3)
        A = Sublattice.make(
            space,
            [(("c0", "c1"), {"c0": 1.0, "c1": 2.0}), (("c2",), {"c2": 1.0})],
        )
        C = Sublattice.make(space, [(("c0", "c1", "c2"), {"c0": 1.0, "c1": 2.0, "c2": 3.0})])
        assert is_sublattice_of(C, A)
        assert lattice_intersection(A, C).equals(C)

    @pytest.mark.parametrize("seed", range(60))
    def test_agrees_with_linear_oracle(self, seed):
        inst = random_instance(seed, 6)
        A = dcl(inst.space, [inst.functions[0], inst.functions[1]])
        C = inst.chain[seed % 3]
        got = lattice_intersection(A, C)
        want = brute_intersection(A, C)
        assert got.equals(want, 1e-6), (seed, got, want)


class TestJoin:
    def test_masked_dependence_join_splits(self):
        fx = masked_dependence_example()
        joined = lattice_join(fx.A, fx.C)
        assert joined.dim == 3

    def test_join_self(self):
        space = unit_space(3)
        C = dcl(space, [step_function(space, {"c0": 2.0, "c2": 1.0})])
        assert lattice_join(C, C).equals(C)

    def test_join_with_trivial(self):
        space = unit_space(3)
        C = dcl(space, [step_function(space, {"c0": 2.0, "c2": 1.0})])
        assert lattice_join(C, Sublattice.trivial(space)).equals(C)


def scaled_blocks(rng, space, scale):
    """Up to four random blocks over about 80% of the cells, with profile
    scale times a factor from {1, 3, 7}."""
    assign = {}
    for cid in space.ids():
        if rng.random() < 0.8:
            assign.setdefault(rng.randrange(4), []).append(cid)
    return Sublattice.make(
        space,
        [
            (cells, {cid: scale[cid] * rng.choice((1.0, 3.0, 7.0)) for cid in cells})
            for cells in assign.values()
        ],
    )


def join_pairs(seed):
    """The (A, C) pairs of a random instance that the join tests run on."""
    inst = random_instance(seed, 12)
    C, B, D = inst.chain
    f0, f1 = inst.functions[0], inst.functions[1]
    space = inst.space
    return [
        (C, B),
        (B, D),
        (C, dcl(space, [f0, f1])),
        (dcl(space, [f0]), dcl(space, [f1])),
    ]


def scaled_pairs():
    """3,000 pairs of scaled_blocks lattices on 2 to 10 unit cells."""
    for seed in range(3000):
        rng = random.Random(seed)
        space = make_space([(f"c{i}", 1.0) for i in range(rng.randint(2, 10))], 2.0)
        scale = {cid: rng.choice((0.1, 0.3, 0.7, 1.1, 1.3)) for cid in space.ids()}
        yield scaled_blocks(rng, space, scale), scaled_blocks(rng, space, scale)


def assert_keyed_join(A, C):
    """The join is the shared grouping over A's and then C's block profiles:
    to the bit dcl of A.generators() + C.generators(), and the keyed join
    with its own bucket loop that it replaced."""
    joined = lattice_join(A, C)
    for ref in (dcl(A.space, A.generators() + C.generators()), reference_keyed_join(A, C)):
        assert joined.blocks == ref.blocks
        assert joined.profile == ref.profile


class TestKeyedJoin:
    @pytest.mark.parametrize("seed", range(300))
    def test_agrees_with_reference_join(self, seed):
        for A, E in join_pairs(seed):
            joined, ref = lattice_join(A, E), reference_join(A, E)
            assert joined.blocks == ref.blocks
            assert joined.equals(ref)

    def test_profiles_bitwise_as_reference(self):
        # non-dyadic profiles, shared across the two lattices up to the
        # factors 1, 3, 7, so that cells group: the keyed join keeps dcl's
        # arithmetic (earliest cell, the larger profile there as anchor,
        # ties to A) to the last bit
        for A, C in scaled_pairs():
            joined, ref = lattice_join(A, C), reference_join(A, C)
            assert joined.blocks == ref.blocks
            assert joined.profile == ref.profile

    def test_near_zero_profile_stays_apart(self):
        # x lies in A and C with w_A = 1e-12 against w_C = 1, y in C only.
        # dcl reads A's scaled column on x as within tol of 0 and merges x
        # with y; the keyed join keeps them apart, which is exact: the meet
        # of A's and C's generators is 1e-12 on x alone.
        space = make_space([("x", 1.0), ("y", 1.0), ("z", 1.0)], 2.0)
        A = Sublattice.make(space, [(("x", "z"), {"x": 1e-12, "z": 1.0})])
        C = Sublattice.make(space, [(("x", "y"), {"x": 1.0, "y": 1.0})])
        assert reference_join(A, C).blocks == (("x", "y"), ("z",))
        assert lattice_join(A, C).blocks == (("x",), ("y",), ("z",))
        assert_keyed_join(A, C)

    def test_tolerance_runs_stay_within_a_key(self):
        # x, y, z share A's block; x and z share a C-block, y has its own.
        # Scaled A values: y 0.5, x 0.5 + 0.6e-9, z 0.5 + 1.2e-9.  dcl runs
        # tolerance over the whole A-block, so a run starts at y and ends
        # before z, which splits x from z; the keyed join compares x with z
        # alone, and they are within tol.
        space = make_space([(cid, 1.0) for cid in "qxyz"], 2.0)
        A = Sublattice.make(
            space,
            [("qxyz", {"q": 1.0, "x": 0.5 + 0.6e-9, "y": 0.5, "z": 0.5 + 1.2e-9})],
        )
        C = Sublattice.make(
            space, [("xz", {"x": 1.0, "z": 1.0}), ("y", {"y": 1.0})]
        )
        assert reference_join(A, C).blocks == (("q",), ("x",), ("y",), ("z",))
        joined = lattice_join(A, C)
        assert joined.blocks == (("q",), ("x", "z"), ("y",))
        assert joined.profile["x"] == joined.profile["z"] == 1.0
        assert_keyed_join(A, C)

    @pytest.mark.parametrize("seed", range(300))
    def test_is_dcl_of_the_generators(self, seed):
        for A, E in join_pairs(seed):
            assert_keyed_join(A, E)

    def test_scaled_pairs_are_dcl_of_the_generators(self):
        for A, C in scaled_pairs():
            assert_keyed_join(A, C)


class TestKeyedDcl:
    @staticmethod
    def generator_lists(seed):
        """The four generator lists: the four functions; the first two; C's
        generators plus f0; B's generators plus D's."""
        inst = random_instance(seed, 12, n_functions=4)
        C, B, D = inst.chain
        fs = list(inst.functions)
        return inst.space, [
            fs,
            fs[:2],
            [*C.generators(), fs[0]],
            [*B.generators(), *D.generators()],
        ]

    @pytest.mark.parametrize("seed", range(300))
    def test_agrees_with_reference_dcl(self, seed):
        space, lists = self.generator_lists(seed)
        for gens in lists:
            keyed, dense = dcl(space, gens), reference_dcl(space, gens)
            assert keyed.blocks == dense.blocks
            assert keyed.profile == dense.profile

    def test_near_zero_generator_stays_apart(self):
        # a is 1e-12 on x and 1 on z, c is 1 on x and y.  The dense dcl reads
        # a's scaled value on x as within tol of 0 and merges x with y; the
        # keyed dcl keeps them apart, since a is nonzero on x and not on y.
        space = make_space([("x", 1.0), ("y", 1.0), ("z", 1.0)], 2.0)
        a = StepFunction(space, {"x": 1e-12, "z": 1.0})
        c = StepFunction(space, {"x": 1.0, "y": 1.0})
        assert reference_dcl(space, [a, c]).blocks == (("x", "y"), ("z",))
        assert dcl(space, [a, c]).blocks == (("x",), ("y",), ("z",))

    def test_tolerance_runs_stay_within_a_support(self):
        # a is nonzero on q, x, y, z; c1 on x and z, c2 on y.  Scaled a values:
        # y 0.5, x 0.5 + 0.6e-9, z 0.5 + 1.2e-9.  The dense dcl runs tolerance
        # over all four cells, so a run starts at y and ends before z, which
        # splits x from z; the keyed dcl compares x with z alone, and they are
        # within tol.
        space = make_space([(cid, 1.0) for cid in "qxyz"], 2.0)
        a = StepFunction(space, {"q": 1.0, "x": 0.5 + 0.6e-9, "y": 0.5, "z": 0.5 + 1.2e-9})
        c1 = StepFunction(space, {"x": 1.0, "z": 1.0})
        c2 = StepFunction(space, {"y": 1.0})
        assert reference_dcl(space, [a, c1, c2]).blocks == (("q",), ("x",), ("y",), ("z",))
        keyed = dcl(space, [a, c1, c2])
        assert keyed.blocks == (("q",), ("x", "z"), ("y",))
        assert keyed.profile["x"] == keyed.profile["z"] == 1.0


def _grouping(build, space, generators, tol):
    """Blocks and profile (in order) of a grouping, or the class and message it raised."""
    try:
        L = build(space, generators, tol)
    except ValidationError as exc:
        return ("raised", type(exc), str(exc))
    return (L.blocks, list(L.profile.items()))


# generator values: exact ties, near ties at the default tol, opposite signs,
# and magnitudes whose ratios underflow or overflow
GROUP_VALUES = st.sampled_from(
    [1.0, 2.0, 0.5, -1.0, -2.0, 3.0, 1.0 + 1e-10, 1.0 - 1e-10, 2.0 + 3e-10, 1e-300, 1e300, 1e-12]
) | st.floats(-4.0, 4.0, allow_nan=False).filter(bool)
# tols: the sampled values, a negative, a negative zero and nan among them
# (each takes the general path through tolerance_groups, which splits at a
# negative or nan tol), and a range
GROUP_TOL_VALUES = [0.0, -0.0, 1e-12, 1e-9, 1e-3, 0.5, 1.0, 2.0, 3.0, -1.0, math.nan]
GROUP_TOLS = st.sampled_from(GROUP_TOL_VALUES) | st.floats(0.0, 4.0)
GROUP_CELLS = [f"c{i}" for i in range(6)]


@st.composite
def dcl_inputs(draw):
    """dcl's (support, values) pairs: one to three functions on six cells."""
    gens = draw(st.lists(st.dictionaries(st.sampled_from(GROUP_CELLS), GROUP_VALUES), min_size=1, max_size=3))
    return [(g, g) for g in gens]


@st.composite
def join_inputs(draw):
    """lattice_join's (block, profile) pairs: two partial partitions of six
    cells into blocks, each with positive profile values."""
    pairs = []
    for _ in range(2):
        label = draw(st.lists(st.integers(-1, 2), min_size=6, max_size=6))
        profile = dict(zip(GROUP_CELLS, draw(st.lists(
            st.sampled_from([1.0, 0.5, 1.0 - 1e-10, 1e-300]) | st.floats(1e-6, 1.0), min_size=6, max_size=6
        ))))
        for k in range(3):
            block = [cid for cid, b in zip(GROUP_CELLS, label) if b == k]
            if block:
                pairs.append((block, profile))
    return pairs


class TestSingleGroupBuckets:
    """The bucket pass that takes a bucket as one group without a sort, against
    the grouping that sent every bucket through tolerance_groups."""

    space = make_space([(cid, 1.0) for cid in GROUP_CELLS], 2.0)

    @settings(max_examples=400, deadline=None)
    @given(dcl_inputs() | join_inputs(), GROUP_TOLS)
    def test_agrees_with_reference(self, generators, tol):
        assert _grouping(_proportional_blocks, self.space, generators, tol) == _grouping(
            reference_proportional_blocks, self.space, generators, tol
        )

    @settings(max_examples=400, deadline=None)
    @given(dcl_inputs() | join_inputs(), GROUP_TOLS)
    def test_agrees_with_one_group_reference_to_the_bit(self, generators, tol):
        # the bucket grouping with its sign split, against the routine it
        # was split out of
        assert _hex_grouping(_proportional_blocks, self.space, generators, tol) == _hex_grouping(
            reference_one_group_blocks, self.space, generators, tol
        )

    def both(self, values, tol):
        """The grouping of these functions at tol, checked against both references."""
        space = make_space([(cid, 1.0) for cid in sorted({c for v in values for c in v})], 2.0)
        generators = [(v, v) for v in values]
        got = _grouping(_proportional_blocks, space, generators, tol)
        assert got == _grouping(reference_proportional_blocks, space, generators, tol)
        assert _hex_grouping(_proportional_blocks, space, generators, tol) == _hex_grouping(
            reference_one_group_blocks, space, generators, tol
        )
        return got

    @pytest.mark.parametrize("step, blocks", [
        (2.0**-20, (("x", "y"),)),
        (math.nextafter(2.0**-20, 1.0), (("x",), ("y",))),
    ], ids=["spans-tol", "spans-past-tol"])
    def test_column_spanning_tol(self, step, blocks):
        # the second column is (2**-30, 2**-30 + step), exactly: it spans step
        low = 2.0**-30
        values = [{"x": 1.0, "y": 1.0}, {"x": low, "y": low + step}]
        assert (low + step) - low == step
        assert self.both(values, 2.0**-20)[0] == blocks

    def test_tol_zero(self):
        # equal scaled columns are one group at tol 0; one ulp apart, two
        assert self.both([{"x": 1.0, "y": 2.0}, {"x": 0.5, "y": 1.0}], 0.0)[0] == (("x", "y"),)
        apart = [{"x": 1.0, "y": 2.0}, {"x": 0.5, "y": math.nextafter(1.0, 2.0)}]
        assert self.both(apart, 0.0)[0] == (("x",), ("y",))

    @pytest.mark.parametrize("tol", [2.0, 2.5, 3.0])
    def test_opposite_signs_at_tol_two_or_more(self, tol):
        # the scaled column (1, -1, 1) spans 2: one group, whose negative ratio
        # leaves y a block of its own
        blocks, profile = self.both([{"x": 1.0, "y": -1.0, "z": 2.0}], tol)
        assert blocks == (("x", "z"), ("y",))
        assert profile == [("x", 0.5), ("z", 1.0), ("y", 1.0)]

    def test_ratio_underflow_is_a_singleton(self):
        # scaled, both cells read 1.0; b's ratio to a, 1e-300 / 1e300, is 0.0
        assert 1e-300 / 1e300 == 0.0
        assert self.both([{"a": 1e300, "b": 1e-300}], 1e-9) == (
            (("a",), ("b",)),
            [("a", 1.0), ("b", 1.0)],
        )

    def test_ratio_overflow_is_rejected(self):
        # as in test_overflowing_profile_is_rejected: b's ratio to a is inf
        assert self.both([{"a": 1e-300, "b": 1e300}], 1e-9) == (
            "raised",
            ValidationError,
            "profile on 'b' must be positive, got inf",
        )

    def test_nan_tol_splits_every_cell(self):
        # one function of one sign: the scaled column (1, 1) spans 0, but
        # close(1, 1, nan) is false, so tolerance_groups splits both cells
        assert self.both([{"a": 1.0, "b": 3.0}], math.nan) == (
            (("a",), ("b",)),
            [("a", 1.0), ("b", 1.0)],
        )

    def test_negative_tol_splits_every_cell(self):
        # at tol -1 no two values are close, not even equal ones: a and b do
        # not share a block, though a sign split would put them together
        assert self.both([{"a": 1.0, "b": 2.0, "c": -1.0}], -1.0) == (
            (("a",), ("b",), ("c",)),
            [("a", 1.0), ("b", 1.0), ("c", 1.0)],
        )

    def test_overflow_is_named_in_the_negative_group_first(self):
        # both sign groups hold a ratio of 1e600: the negative group comes
        # first, as tolerance_groups orders the column (-1, -1, 1, 1)
        assert self.both([{"a": -1e-300, "b": -1e300, "c": 1e-300, "d": 1e300}], 1e-9) == (
            "raised",
            ValidationError,
            "profile on 'b' must be positive, got inf",
        )

    @pytest.mark.parametrize("tol", [0.0, -0.0, 1e-9, 1.0, math.nextafter(2.0, 0.0)])
    def test_mixed_signs_split_into_two_groups(self, tol):
        # below tol 2 one function's bucket is its negative cells and its
        # positive cells, each a group; the second positive cell underflows
        assert self.both([{"a": 1e300, "b": -2.0, "c": 1e-300, "d": -1.0, "e": 3e300}], tol) == (
            (("a", "e"), ("b", "d"), ("c",)),
            [("a", 1 / 3), ("e", 1.0), ("b", 1.0), ("d", 0.5), ("c", 1.0)],
        )


def _hex_grouping(build, *args):
    """Blocks and profile (in order, as float.hex) of a grouping or join, or
    the class and message it raised."""
    try:
        L = build(*args)
    except (ValidationError, ZeroDivisionError) as exc:
        return ("raised", type(exc), str(exc))
    return (L.blocks, [(cid, v.hex()) for cid, v in L.profile.items()])


# raw profile values for join inputs: ties, near ties, magnitudes whose
# ratios underflow to 0.0 or overflow, and the 0.0 that `_canonical` leaves
# where a block's values span more than the float range
JOIN_PROFILE_VALUES = st.sampled_from(
    [1.0, 0.5, 1.0 - 1e-10, 2.0**-30, 1e-300, 1e300, 3e300, 0.0]
) | st.floats(1e-6, 1.0)


@st.composite
def lattice_pairs(draw):
    """Two lattices on six unit cells, each a partial partition into up to
    three blocks with raw profile values: made with the dataclass
    constructor, not `_canonical`, so that a join bucket can hold ratios
    that underflow or overflow.  A label of -1 leaves a cell out, so some
    cells lie in one lattice only."""
    space = TestSingleGroupBuckets.space
    pair = []
    for _ in range(2):
        label = draw(st.lists(st.integers(-1, 2), min_size=6, max_size=6))
        values = draw(st.lists(JOIN_PROFILE_VALUES, min_size=6, max_size=6))
        blocks = [
            tuple(cid for cid, b in zip(GROUP_CELLS, label) if b == k) for k in range(3)
        ]
        blocks = tuple(sorted((block for block in blocks if block), key=min))
        profile = {cid: v for cid, v, b in zip(GROUP_CELLS, values, label) if b >= 0}
        pair.append(Sublattice(space, blocks, profile))
    return pair


class TestBucketedJoin:
    """lattice_join, which buckets its cells by (A-block, C-block) itself,
    against the join that handed every block to the grouping as a generator."""

    def both(self, A, C, tol):
        """The join of A and C at tol, checked against the reference to the bit."""
        got = _hex_grouping(lattice_join, A, C, tol)
        assert got == _hex_grouping(reference_generator_join, A, C, tol)
        return got

    @pytest.mark.parametrize("tol", GROUP_TOL_VALUES, ids=repr)
    @settings(max_examples=150, deadline=None)
    @given(pair=lattice_pairs())
    def test_agrees_with_reference_at_each_tol(self, pair, tol):
        self.both(*pair, tol)

    @settings(max_examples=300, deadline=None)
    @given(pair=lattice_pairs(), tol=GROUP_TOLS)
    def test_agrees_with_reference(self, pair, tol):
        self.both(*pair, tol)

    def test_cells_in_one_lattice_only(self):
        # x and y lie in A alone, z and w in C alone, v in both: one
        # coordinate each for the first two buckets, two for v
        space = make_space([(cid, 1.0) for cid in "vwxyz"], 2.0)
        A = Sublattice.make(space, [("vxy", {"v": 0.5, "x": 1.0, "y": 0.25})])
        C = Sublattice.make(space, [("vzw", {"v": 1.0, "z": 0.5, "w": 0.5})])
        assert self.both(A, C, 1e-9)[0] == (("v",), ("w", "z"), ("x", "y"))

    def test_overflow_is_named_in_the_first_bucket(self):
        # two A-blocks, each a bucket whose second ratio is 1e600: the bucket
        # of the earlier cell is grouped first, and its cell named
        space = make_space([(cid, 1.0) for cid in "wxyz"], 2.0)
        A = Sublattice(
            space, (("w", "y"), ("x", "z")), {"w": 1e-300, "x": 1e-300, "y": 1e300, "z": 1e300}
        )
        assert self.both(A, Sublattice.trivial(space), 1e-9) == (
            "raised",
            ValidationError,
            "profile on 'y' must be positive, got inf",
        )

    def test_ratio_underflow_is_a_singleton(self):
        # a one-coordinate bucket: y's ratio to x, 1e-300 / 1e300, is 0.0
        space = make_space([(cid, 1.0) for cid in "xy"], 2.0)
        A = Sublattice(space, (("x", "y"),), {"x": 1e300, "y": 1e-300})
        assert self.both(A, Sublattice.trivial(space), 1e-9) == (
            (("x",), ("y",)),
            [("x", "0x1.0000000000000p+0"), ("y", "0x1.0000000000000p+0")],
        )

    @pytest.mark.parametrize("step, blocks", [
        (2.0**-20, (("x", "y"),)),
        (math.nextafter(2.0**-20, 1.0), (("x",), ("y",))),
    ], ids=["spans-tol", "spans-past-tol"])
    def test_column_spanning_tol(self, step, blocks):
        # x and y share an A-block and a C-block; A's scaled column is (1, 1)
        # and C's (2**-30, 2**-30 + step), exactly: it spans step
        space = make_space([(cid, 1.0) for cid in "xy"], 2.0)
        low = 2.0**-30
        A = Sublattice(space, (("x", "y"),), {"x": 1.0, "y": 1.0})
        C = Sublattice(space, (("x", "y"),), {"x": low, "y": low + step})
        assert self.both(A, C, 2.0**-20)[0] == blocks


class TestIntersectsWell:
    def test_masked_dependence_does_not(self):
        fx = masked_dependence_example()
        assert not intersects_well(fx.A, fx.C)

    def test_contained_does(self):
        space = unit_space(4)
        constants = dcl(space, [indicator(space, space.ids())])
        halves = Sublattice.make(
            space,
            [
                (("c0", "c1"), {"c0": 1.0, "c1": 1.0}),
                (("c2", "c3"), {"c2": 1.0, "c3": 1.0}),
            ],
        )
        assert intersects_well(halves, constants)

    def test_disjoint_supports_do(self):
        space = unit_space(4)
        A = dcl(space, [indicator(space, ["c0"])])
        C = dcl(space, [indicator(space, ["c3"])])
        assert intersects_well(A, C)


class TestMemberSetClosure:
    @pytest.mark.parametrize("seed", range(20))
    def test_members_closed_under_lattice_ops(self, seed):
        inst = random_instance(seed, 6)
        C = inst.chain[seed % 3]
        if C.dim == 0:
            return
        rng = random.Random(seed)
        coeffs1 = [rng.choice((-2.0, -1.0, 0.5, 1.0, 3.0)) for _ in range(C.dim)]
        coeffs2 = [rng.choice((-2.0, -1.0, 0.5, 1.0, 3.0)) for _ in range(C.dim)]
        f, g = C.member(coeffs1), C.member(coeffs2)
        for h in (f + g, 2.5 * f, f.meet(g), f.join(g)):
            assert contains(C, h) is not None


class TestRepresentationInvariance:
    @pytest.mark.parametrize("seed", range(25))
    def test_cond_exp_transports(self, seed):
        inst = random_instance(seed, 6)
        rng = random.Random(seed)
        d = step_function(
            inst.space, {c: rng.choice((0.5, 1.0, 2.0, 4.0)) for c in inst.space.ids()}
        )
        dc = density_change(inst.space, d)
        C = inst.chain[seed % 3]
        Cd = C.density_push(dc)
        f = inst.functions[0]
        assert function_close(
            dc.push(cond_exp(f, C)), cond_exp(dc.push(f), Cd), 1e-9
        )
        assert is_sublattice_of(Cd, Cd)
        for g in C.generators():
            assert contains(Cd, dc.push(g)) is not None

    @pytest.mark.parametrize("seed", range(25))
    def test_dcl_join_intersection_transport(self, seed):
        inst = random_instance(seed, 6)
        rng = random.Random(seed ^ 0xD)
        d = step_function(
            inst.space, {c: rng.choice((0.5, 1.0, 2.0)) for c in inst.space.ids()}
        )
        dc = density_change(inst.space, d)
        f0, f1 = inst.functions[0], inst.functions[1]
        A = dcl(inst.space, [f0, f1])
        assert dcl(dc.target, [dc.push(f0), dc.push(f1)]).equals(
            A.density_push(dc), 1e-9
        )
        C = inst.chain[seed % 3]
        assert lattice_join(A, C).density_push(dc).equals(
            lattice_join(A.density_push(dc), C.density_push(dc)), 1e-9
        )
        assert lattice_intersection(A, C).density_push(dc).equals(
            lattice_intersection(A.density_push(dc), C.density_push(dc)), 1e-9
        )

    def test_mismatched_space_raises(self):
        fx = masked_dependence_example()
        other = unit_space(3)
        with pytest.raises(SpaceMismatch):
            cond_exp(indicator(other, ["c0"]), fx.C)


def same_blocks(L1, L2, tol):
    """Equal block sets with profiles equal within tol, whatever the cell order."""
    if {frozenset(b) for b in L1.blocks} != {frozenset(b) for b in L2.blocks}:
        return False
    return all(close(L1.profile[c], L2.profile[c], tol) for c in L1.profile)


def same_atoms(atoms1, atoms2, tol):
    return len(atoms1) == len(atoms2) and all(
        close(m1, m2, tol) and all(close(x, y, tol) for x, y in zip(v1, v2))
        for (v1, m1), (v2, m2) in zip(atoms1, atoms2)
    )


def assert_cell_order_free(fs, C, order, tol=1e-9):
    """dcl, join, intersection, conditional expectations, *-independence,
    canonical bases, types and conditional laws agree on the same cells
    listed in another order."""
    space = C.space
    moved = Space(tuple((cid, space.weight(cid)) for cid in order), space.p)
    gs = [StepFunction(moved, f.values) for f in fs]
    D = Sublattice.make(moved, [(b, {c: C.profile[c] for c in b}) for b in C.blocks])
    A = dcl(space, fs[:2], tol)
    A2 = dcl(moved, gs[:2], tol)
    assert same_blocks(A, A2, tol)
    assert same_blocks(lattice_join(A, C, tol), lattice_join(A2, D, tol), tol)
    assert same_blocks(
        lattice_intersection(A, C, tol), lattice_intersection(A2, D, tol), tol
    )
    for f, g in zip(fs, gs):
        e1, e2 = cond_exp(f, C), cond_exp(g, D)
        assert all(close(e1[cid], e2[cid], tol) for cid in order)
    v1 = star_independent(fs[:1], fs[1:2], C, tol)
    v2 = star_independent(gs[:1], gs[1:2], D, tol)
    assert v1.independent == v2.independent
    if v1.witness is not None:
        assert close(v1.witness.gap, v2.witness.gap, tol)
    for k in (1, 2):
        assert same_blocks(canonical_base(fs[:k], C, tol), canonical_base(gs[:k], D, tol), tol)
    for f, g in zip(fs, gs):
        t1, t2 = type_datum(f, C, tol), type_datum(g, D, tol)
        assert close(t1.orth_pos, t2.orth_pos, tol)
        assert close(t1.orth_neg, t2.orth_neg, tol)
        for segs1, segs2 in zip(t1.profile.per_block, t2.profile.per_block):
            assert same_atoms([((v,), m) for m, v in segs1], [((v,), m) for m, v in segs2], tol)
    d1, d2 = cond_distribution(fs, C, tol), cond_distribution(gs, D, tol)
    for atoms1, atoms2 in zip(d1.per_block, d2.per_block):
        assert same_atoms(atoms1, atoms2, tol)
    assert same_atoms(d1.orth, d2.orth, tol)


class TestCellOrder:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_instances(self, seed):
        inst = random_instance(seed, 7)
        order = list(inst.space.ids())
        random.Random(seed).shuffle(order)
        assert_cell_order_free(list(inst.functions), inst.chain[seed % 3], order[::-1])
        assert_cell_order_free(list(inst.functions), inst.chain[seed % 3], order)

    @pytest.mark.parametrize("order", ["".join(o) for o in itertools.permutations("abc")])
    def test_near_tie_rays(self, order):
        # (1, 1), (1, 1 + 0.8e-9), (1, 1 + 1.6e-9): b is within tol of both
        # neighbours, a and c are not within tol of each other
        space = make_space([(cid, 1.0) for cid in "abc"], 2.0)
        f = indicator(space, "abc")
        g = step_function(space, {"a": 1.0, "b": 1.0 + 0.8e-9, "c": 1.0 + 1.6e-9})
        C = dcl(space, [f])
        assert_cell_order_free([f, g], C, order)
        assert dcl(space, [f, g]).dim == 2


def reversed_refinement(space):
    """Each cell split into two halves, the child space listing every child
    in the reverse of the order a lift visits them."""
    kids = [(f"{cid}#{k}", w / 2) for cid, w in space.cells for k in (0, 1)]
    splitting = {cid: (f"{cid}#0", f"{cid}#1") for cid in space.ids()}
    child = Space(tuple(reversed(kids)), space.p)
    return Refinement(space, child, splitting)


def assert_canonical(L):
    """L is reference_make of its own (block, profile) pairs given in reversed
    order: blocks, cell order and profile items all equal."""
    ref = reference_make(L.space, [(b, {c: L.profile[c] for c in b}) for b in reversed(L.blocks)])
    assert L.blocks == ref.blocks
    assert list(L.profile.items()) == list(ref.profile.items())


class TestCanonicalConstructor:
    @staticmethod
    def built(seed):
        """The outputs of every in-package builder on one random instance."""
        inst = random_instance(seed, 12, n_functions=4)
        space, (C, B, D), fs = inst.space, inst.chain, list(inst.functions)
        rng = random.Random(seed)
        A = dcl(space, fs)
        yield A
        yield dcl(space, [*C.generators(), fs[0]])
        yield lattice_join(C, A)
        yield lattice_join(B, D)
        yield lattice_intersection(A, C)
        yield lattice_intersection(D, dcl(space, fs[:2]))
        yield canonical_base(fs[:2], _nontrivial_sublattice(inst, seed))
        yield D.subset(k for k in range(D.dim) if rng.random() < 0.5)
        plan = {cid: (0.25, 0.75) for cid in space.ids() if rng.random() < 0.5}
        r = refine_space(space, plan, [("fresh", 1.0)])
        yield D.lift(r)
        yield B.lift(reversed_refinement(space))
        d = step_function(space, {c: rng.choice((0.5, 1.0, 2.0, 4.0)) for c in space.ids()})
        dc = density_change(space, d)
        yield C.density_push(dc)
        target = Space(tuple(reversed(dc.target.cells)), space.p)
        yield D.density_push(DensityChange(space, target, d))

    @pytest.mark.parametrize("seed", range(300))
    def test_builders_return_the_canonical_form(self, seed):
        for L in self.built(seed):
            assert_canonical(L)

    def test_tolerance_group_in_space_order(self):
        # x and y are proportional within tol; y sorts first on c's scaled
        # column, and the block still lists x first
        space = make_space([("x", 1.0), ("y", 1.0)], 2.0)
        a = StepFunction(space, {"x": 1.0, "y": 1.0})
        c = StepFunction(space, {"x": 1.0, "y": 1.0 - 1e-10})
        assert_canonical(dcl(space, [a, c]))
        assert dcl(space, [a, c]).blocks == (("x", "y"),)

    def test_canonical_base_block_in_space_order(self):
        # A's blocks are listed a, b (string order); f has the same law on
        # both, so the base merges them into one block, in space order b, a
        space = make_space([("b", 1.0), ("a", 1.0)], 2.0)
        A = Sublattice.make(space, [(["b"], {"b": 1.0}), (["a"], {"a": 1.0})])
        cb = canonical_base([indicator(space, ["a", "b"])], A)
        assert_canonical(cb)
        assert cb.blocks == (("b", "a"),)

    def test_subset_takes_a_negative_index_once(self):
        space = make_space([("x", 1.0), ("y", 1.0)], 2.0)
        C = Sublattice.make(space, [(["x"], {"x": 1.0}), (["y"], {"y": 1.0})])
        assert C.subset([1, -1]).blocks == (("y",),)
        assert C.subset([-2, 0, 1]) == C

    def test_overflowing_profile_is_rejected(self):
        space = make_space([("a", 1.0), ("b", 1.0)], 2.0)
        f = StepFunction(space, {"a": 1e-300, "b": 1e300})
        with pytest.raises(ValidationError) as err:
            dcl(space, [f])
        assert str(err.value) == "profile on 'b' must be positive, got inf"

    def test_lift_sorts_children_into_the_child_order(self):
        space = make_space([("x", 2.0), ("y", 1.0), ("z", 1.0)], 2.0)
        C = Sublattice.make(space, [(["x", "z"], {"x": 1.0, "z": 0.5}), (["y"], {"y": 1.0})])
        r = reversed_refinement(space)
        lifted = C.lift(r)
        # the blocks and profile the lift made before it sorted, through the reference
        ref = reference_make(
            r.child,
            [
                (["x#0", "x#1", "z#0", "z#1"], {"x#0": 1.0, "x#1": 1.0, "z#0": 0.5, "z#1": 0.5}),
                (["y#0", "y#1"], {"y#0": 1.0, "y#1": 1.0}),
            ],
        )
        # cells in the child's order, blocks by least cell id ("x#0" before "y#0")
        assert lifted.blocks == ref.blocks == (("z#1", "z#0", "x#1", "x#0"), ("y#1", "y#0"))
        assert lifted.profile == ref.profile


class TestMakeChecksItsInput:
    def test_cell_missing_from_its_profile(self):
        space = unit_space(2)
        with pytest.raises(ValidationError) as err:
            Sublattice.make(space, [(["c0", "c1"], {"c0": 1.0})])
        assert str(err.value) == "cell 'c1' has no profile value"

    @pytest.mark.parametrize(
        "value, shown", [("heavy", "'heavy'"), (None, "None"), ([1.0], "[1.0]")]
    )
    def test_profile_value_not_a_number(self, value, shown):
        space = unit_space(2)
        with pytest.raises(ValidationError) as err:
            Sublattice.make(space, [(["c0", "c1"], {"c0": 1.0, "c1": value})])
        assert str(err.value) == f"profile on 'c1' must be a number, got {shown}"

    def test_profile_scaling_to_zero(self):
        # each value is positive, but y / 1e300 is 0.0: a join over it would divide by 0
        space = make_space([("x", 1.0), ("y", 1.0), ("z", 1.0)], 2.0)
        with pytest.raises(ValidationError) as err:
            Sublattice.make(space, [(["x", "y", "z"], {"x": 1e300, "y": 1e-300, "z": 1.0})])
        assert str(err.value) == "profile on 'y' scales to 0.0 against its block's peak, got 1e-300"
        # the same values in blocks of their own scale to 1
        C = Sublattice.make(space, [(["x"], {"x": 1e300}), (["y", "z"], {"y": 1e-300, "z": 1.0})])
        assert C.profile == {"x": 1.0, "y": 1e-300, "z": 1.0}

    def test_numeric_strings_still_convert(self):
        space = unit_space(2)
        C = Sublattice.make(space, [(["c0", "c1"], {"c0": "2", "c1": 1})])
        assert C.profile == {"c0": 1.0, "c1": 0.5}


class TestEqualsItself:
    def test_same_object_reads_no_profile(self, monkeypatch):
        import lplattice.sublattice as sublattice

        calls = []
        real = sublattice.close
        monkeypatch.setattr(sublattice, "close", lambda *a: calls.append(a) or real(*a))
        C = random_instance(3, 12).chain[2]
        assert C.dim > 0
        assert C.equals(C) and C.equals(C, 0.0)
        assert calls == []
        # a different object still compares every profile value
        twin = Sublattice(C.space, C.blocks, dict(C.profile))
        assert C.equals(twin)
        assert len(calls) == len(C.profile)
        # below 0 no value is close to itself, so C, which has blocks, is not equal to itself
        assert not C.equals(C, -1.0)


class TestSublatticeOfReference:
    @pytest.mark.parametrize("seed", range(300))
    def test_agrees_with_reference(self, seed):
        inst = random_instance(seed, 12, n_functions=4)
        C, B, D = inst.chain
        A = dcl(inst.space, inst.functions[:1])
        for X, Y in ((C, B), (B, C), (B, D), (A, C)):
            assert is_sublattice_of(X, Y) == reference_is_sublattice_of(X, Y)
