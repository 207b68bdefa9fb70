import itertools
import math
import random
import re

import pytest
from conftest import (
    _cumulative,
    _merge_cuts,
    documented_cuts,
    reference_block_laws,
    reference_closed_canonical_base,
    reference_distance,
    reference_merged_midpoints,
    reference_piecewise_pth_power,
    reference_realize_cond_distribution,
    reference_realize_common,
    reference_slice_independent,
    reference_slice_profile,
    reference_type_equals,
)

from lplattice import (
    ArityMismatch,
    BadR,
    ConditionalDistribution,
    InvalidDistribution,
    NonFiniteValue,
    Sublattice,
    SliceProfile,
    SpaceMismatch,
    StepFunction,
    SublatticeMismatch,
    TargetOutOfRange,
    TypeDatum,
    UnknownCell,
    band_decompose,
    canonical_realization,
    close,
    cond_distribution,
    cond_exp,
    cond_probability,
    conditional_slice,
    dcl,
    density_change,
    distance,
    function_close,
    indicator,
    lift,
    make_space,
    maharam_select,
    merged_midpoints,
    nonforking_extension,
    norm,
    realize_cond_distribution,
    refine_space,
    slice_profile,
    step_function,
    tuple_type_equal,
    type_datum,
)
from lplattice import lift_type_datum
from lplattice.core import DEFAULT_TOL
from lplattice.oracles import random_instance
from lplattice.independence import canonical_base, slice_independent
from lplattice.typespace import (
    _CUT_TOL,
    _block_laws,
    _merge_atoms,
    _merge_values,
    _piecewise_pth_power,
    _sweep,
    realize_common,
)
from lplattice.verify import masked_dependence_example, pairwise_independence_example


def one_block_space(n=4, p=1.0):
    space = make_space([(f"c{i}", 1.0) for i in range(n)], p)
    C = dcl(space, [indicator(space, space.ids())])
    return space, C


def staircase(space):
    return step_function(space, {"c0": 4.0, "c1": 3.0, "c2": 2.0, "c3": 1.0})


class TestCondProbability:
    def test_full_support(self):
        space, C = one_block_space()
        assert function_close(
            cond_probability(space.ids(), C), indicator(space, space.ids()), 1e-12
        )

    def test_empty_event(self):
        space, C = one_block_space()
        assert cond_probability([], C).values == {}

    def test_half_event(self):
        space, C = one_block_space()
        got = cond_probability(["c0", "c1"], C)
        assert function_close(got, 0.5 * indicator(space, space.ids()), 1e-12)


class TestConditionalSlice:
    def test_staircase(self):
        space, C = one_block_space()
        got = conditional_slice(staircase(space), C, 0.3)
        assert function_close(got, 3.0 * indicator(space, space.ids()), 1e-12)

    def test_member_has_constant_slices(self):
        space = make_space([("a", 1.0), ("b", 2.0)], 2.0)
        C = Sublattice.make(space, [(("a", "b"), {"a": 1.0, "b": 0.5})])
        member = -2.0 * C.generators()[0]
        for r in (0.1, 0.5, 0.9):
            assert function_close(conditional_slice(member, C, r), member, 1e-12)

    def test_signed_halves(self):
        space = make_space([("u", 0.5), ("v", 0.5)], 1.0)
        C = dcl(space, [indicator(space, ["u", "v"])])
        f = step_function(space, {"u": 2.0, "v": -3.0})
        chi = indicator(space, ["u", "v"])
        assert function_close(conditional_slice(f, C, 0.25), 2.0 * chi, 1e-12)
        assert function_close(conditional_slice(f, C, 0.75), -3.0 * chi, 1e-12)

    def test_bad_r(self):
        space, C = one_block_space()
        with pytest.raises(BadR):
            conditional_slice(staircase(space), C, 1.0)

    @pytest.mark.parametrize("seed", range(30))
    def test_depends_only_on_band_component(self, seed):
        inst = random_instance(seed, 7)
        C = inst.chain[seed % 3]
        f = inst.functions[0]
        f1, _ = band_decompose(f, C)
        for r in (0.2, 0.5, 0.8):
            assert function_close(
                conditional_slice(f, C, r), conditional_slice(f1, C, r), 0.0
            )


class TestSliceProfile:
    def test_staircase_segments(self):
        space, C = one_block_space()
        prof = slice_profile(staircase(space), C)
        assert prof.per_block == (((0.25, 4.0), (0.25, 3.0), (0.25, 2.0), (0.25, 1.0)),)

    def test_read_past_the_last_cut(self):
        # lengths may sum to just under 1; past the last cut the last value holds
        space, C = one_block_space()
        prof = SliceProfile(C, (((0.5, 2.0), (0.5 - 1e-12, 1.0)),))
        assert prof.coefficient(0, 1.0 - 1e-13) == 1.0
        assert prof.function_at(1.0 - 1e-13) == indicator(space, space.ids())

    @pytest.mark.parametrize("r", [-1.0, 0.0, 1.0, 1.5, float("nan")])
    def test_point_reads_need_r_in_the_unit_interval(self, r):
        # as conditional_slice does; a bisect would read any r
        _, C = one_block_space()
        prof = SliceProfile(C, (((0.5, 2.0), (0.5, 1.0)),))
        message = "^" + re.escape(f"r must lie in (0,1), got {r!r}") + "$"
        with pytest.raises(BadR, match=message):
            prof.coefficient(0, r)
        with pytest.raises(BadR, match=message):
            prof.coefficients_at(r)
        with pytest.raises(BadR, match=message):
            prof.function_at(r)

    def test_zero_function(self):
        space, C = one_block_space()
        prof = slice_profile(step_function(space, {}), C)
        assert prof.per_block == (((1.0, 0.0),),)

    def test_signed_segments(self):
        space = make_space([("u", 0.5), ("v", 0.5)], 1.0)
        C = dcl(space, [indicator(space, ["u", "v"])])
        prof = slice_profile(step_function(space, {"u": 2.0, "v": -3.0}), C)
        assert prof.per_block == (((0.5, 2.0), (0.5, -3.0)),)

    @pytest.mark.parametrize("seed", range(30))
    def test_monotone_in_r(self, seed):
        inst = random_instance(seed, 8)
        C = inst.chain[seed % 3]
        prof = slice_profile(inst.functions[0], C)
        for segments in prof.per_block:
            values = [v for _, v in segments]
            assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("seed", range(30))
    def test_sign_decomposition_at_midpoints(self, seed):
        inst = random_instance(seed, 8)
        C = inst.chain[seed % 3]
        f = inst.functions[0]
        prof = slice_profile(f, C)
        for r in merged_midpoints(prof):
            s = conditional_slice(f, C, r)
            spos = conditional_slice(f.pos(), C, r)
            sneg = conditional_slice(f.neg(), C, 1.0 - r)
            assert function_close(s.pos(), spos, 1e-12)
            assert function_close(s.neg(), sneg, 1e-12)
            assert norm(spos.meet(sneg)) <= 1e-12


class TestMergedMidpoints:
    def one_block_profile(self, segments):
        space, C = one_block_space(2)
        return SliceProfile(C, (tuple(segments),))

    def test_cuts_closer_than_1e_12_merge(self):
        c = 0.5 + 4e-13
        a = self.one_block_profile([(0.5, 2.0), (0.5, 1.0)])
        b = self.one_block_profile([(c, 3.0), (1.0 - c, 1.0)])
        # the smaller cut stands for the merged pair, whatever the argument order
        assert merged_midpoints(a, b) == (0.25, 0.75)
        assert merged_midpoints(b, a) == (0.25, 0.75)

    def test_cuts_near_0_and_1_are_absorbed(self):
        prof = self.one_block_profile([(4e-13, 3.0), (1.0 - 8e-13, 2.0), (4e-13, 1.0)])
        assert merged_midpoints(prof) == (0.5,)
        assert prof.breakpoints() == ()


class TestTypeDatum:
    def test_member_of_c(self):
        space, C = one_block_space()
        member = 2.0 * indicator(space, space.ids())
        t = type_datum(member, C)
        assert t.orth_pos == 0.0 and t.orth_neg == 0.0
        assert t.profile.per_block == (((1.0, 2.0),),)

    def test_orthogonal_function(self):
        space = make_space([("a", 1.0), ("b", 1.0), ("x", 1.0)], 2.0)
        C = dcl(space, [indicator(space, ["a", "b"])])
        f = step_function(space, {"x": -3.0})
        t = type_datum(f, C)
        assert t.profile.per_block == (((1.0, 0.0),),)
        assert t.orth_pos == 0.0
        assert close(t.orth_neg, 3.0)

    @pytest.mark.parametrize("seed", range(30))
    def test_reconstructs_norm(self, seed):
        inst = random_instance(seed, 8)
        C = inst.chain[seed % 3]
        f = inst.functions[0]
        t = type_datum(f, C)
        p = inst.space.p
        total = sum(
            C.nu_block(k) * sum(ln * abs(v) ** p for ln, v in t.profile.per_block[k])
            for k in range(C.dim)
        )
        total += t.orth_pos ** p + t.orth_neg ** p
        assert abs(total - norm(f) ** p) <= 1e-9 * (1.0 + norm(f) ** p)


class TestCondDistribution:
    def test_half_indicator_law(self):
        fx = pairwise_independence_example()
        d = cond_distribution([fx.a1], fx.C)
        assert d.per_block == ((((0.0,), 0.5), ((1.0,), 0.5)),)
        assert d.orth == ()

    def test_diagonal_pair(self):
        space, C = one_block_space()
        f = staircase(space)
        d = cond_distribution([f, f], C)
        for vec, _ in d.per_block[0]:
            assert vec[0] == vec[1]

    def test_constant_tuple_point_mass(self):
        space, C = one_block_space()
        chi = indicator(space, space.ids())
        d = cond_distribution([2.0 * chi, -1.0 * chi], C)
        assert d.per_block == ((((2.0, -1.0), 4.0),),)

    def test_near_tie_merges_past_a_sorted_neighbour(self):
        # (1e-12, 3) sorts between (0, 5) and (2e-12, 5), which still merge
        space, C = one_block_space(3)
        f = step_function(space, {"c1": 1e-12, "c2": 2e-12})
        g = step_function(space, {"c0": 5.0, "c1": 3.0, "c2": 5.0})
        assert len(cond_distribution([f, g], C).per_block[0]) == 2


class TestTupleTypeEqual:
    def test_space_mismatch_over_trivial_sublattice(self):
        # with no blocks the per-block laws are empty, yet both tuples are checked
        space, other = make_space([("a", 1.0)], 2.0), make_space([("b", 1.0)], 2.0)
        f, g = step_function(space, {"a": 1.0}), step_function(other, {"b": 1.0})
        with pytest.raises(SpaceMismatch):
            tuple_type_equal([f], [g], Sublattice.trivial(space))

    def test_near_tie_same_type(self):
        space, C = one_block_space(3)
        f = step_function(space, {"c1": 1e-12, "c2": 2e-12})
        f2 = step_function(space, {"c1": 1e-12})
        g = step_function(space, {"c0": 5.0, "c1": 3.0, "c2": 5.0})
        assert tuple_type_equal([f, g], [f2, g], C)

    def test_equal_distributions(self):
        space, C = one_block_space(3, 2.0)
        f = step_function(space, {"c0": 2.0, "c2": 1.0})
        g = step_function(space, {"c0": 1.0, "c2": 2.0})
        assert tuple_type_equal([f], [g], C)

    def test_reflexive(self):
        space, C = one_block_space()
        f = staircase(space)
        assert tuple_type_equal([f], [f], C)

    def test_swap_distinguished_over_finer_lattice(self):
        fx = masked_dependence_example()
        g = step_function(fx.space, {"(1,2]": 1.0, "(2,3]": 2.0})
        assert tuple_type_equal([fx.f], [g], fx.C)
        assert not tuple_type_equal([fx.f], [g], fx.B)

    def test_arity_mismatch(self):
        space, C = one_block_space()
        f = staircase(space)
        with pytest.raises(ArityMismatch):
            tuple_type_equal([f], [f, f], C)

    def test_orthogonal_parts_compared_off_origin(self):
        space = make_space([("a", 1.0), ("x", 1.0), ("y", 1.0)], 2.0)
        C = dcl(space, [indicator(space, ["a"])])
        f = step_function(space, {"x": 2.0})
        g = step_function(space, {"y": 2.0})
        assert tuple_type_equal([f], [g], C)
        h = step_function(space, {"y": 3.0})
        assert not tuple_type_equal([f], [h], C)

    def test_orthogonal_parts_up_to_density_change(self):
        # 2*chi_a and chi_b have equal orthogonal norms, so equal types
        space = make_space([("a", 1.0), ("b", 4.0), ("c", 1.0)], 2.0)
        C = dcl(space, [indicator(space, ["c"])])
        f = 2.0 * indicator(space, ["a"])
        g = indicator(space, ["b"])
        assert distance(type_datum(f, C), type_datum(g, C)) == 0.0
        assert type_datum(f, C).equals(type_datum(g, C))
        assert tuple_type_equal([f], [g], C)
        dc = density_change(space, step_function(space, {"a": 2.0, "b": 1.0, "c": 1.0}))
        assert tuple_type_equal([dc.push(f)], [dc.push(g)], C.density_push(dc))
        # pairs: the same ray agrees, a different direction does not
        assert tuple_type_equal([f, f], [g, g], C)
        assert not tuple_type_equal([f, 0.5 * f], [g, g], C)

    @pytest.mark.parametrize("v, tol", [(1e-10, DEFAULT_TOL), (0.2, 0.5)])
    def test_opposite_orthogonal_atoms_within_tol(self, v, tol):
        # the two orthogonal atoms of f merge to their mean, the origin
        space = make_space([("a", 1.0), ("b", 1.0), ("c", 1.0)], 2.0)
        C = dcl(space, [indicator(space, ["c"])])
        f = step_function(space, {"a": v, "b": -v})
        assert cond_distribution([f], C, tol).orth == ()
        assert tuple_type_equal([f], [f], C, tol)
        assert tuple_type_equal([f], [-1.0 * f], C, tol)
        # and agrees with the orthogonal norms of the 1-type
        zero = step_function(space, {})
        same = type_datum(f, C, tol).equals(type_datum(zero, C, tol), tol)
        assert tuple_type_equal([f], [zero], C, tol) is same

    @pytest.mark.parametrize(
        "weight, value",
        # s**p overflows and raises; m * s**p overflows to inf without raising
        [(1.0, 1e200), (1e300, 1e10)],
        ids=["power-overflows", "mass-overflows"],
    )
    def test_orthogonal_ray_mass_overflow_raises_non_finite(self, weight, value):
        space = make_space([("a", 1.0), ("x", weight)], 2.0)
        C = dcl(space, [indicator(space, ["a"])])
        f = step_function(space, {"x": value})
        with pytest.raises(NonFiniteValue) as err:
            tuple_type_equal([f], [f], C)
        assert str(err.value) == "type equality overflows: an orthogonal ray mass m*s**p is inf"


class TestDistance:
    def test_zero_for_equal(self):
        space, C = one_block_space()
        t = type_datum(staircase(space), C)
        assert distance(t, t) == 0.0

    def test_staircase_vs_constant_p1(self):
        space, C = one_block_space(4, 1.0)
        t1 = type_datum(staircase(space), C)
        t2 = type_datum(indicator(space, space.ids()), C)
        # sorted-coupling transport: |4-1| + |3-1| + |2-1| + |1-1| = 6
        assert close(distance(t1, t2), 6.0, 1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_orthogonal_only_types(self, p):
        space = make_space([("a", 1.0), ("x", 1.0), ("y", 1.0)], p)
        C = Sublattice.trivial(space)
        f = step_function(space, {"x": 2.0, "y": -1.0})
        g = step_function(space, {"x": 5.0, "y": -3.0})
        t1, t2 = type_datum(f, C), type_datum(g, C)
        want = (3.0 ** p + 2.0 ** p) ** (1.0 / p)
        assert close(distance(t1, t2), want, 1e-12)

    @pytest.mark.parametrize("p, value", [(1.0, 1e308), (2.0, 1e200)])
    def test_overflow_raises_non_finite(self, p, value):
        # p = 1: the gap itself overflows to inf; p = 2: the gap is finite
        # and its square overflows
        space = make_space([("u", 1.0), ("v", 1.0)], p)
        C = dcl(space, [indicator(space, ["u"])])
        t1 = type_datum(step_function(space, {"u": value}), C)
        t2 = type_datum(step_function(space, {"u": -value}), C)
        with pytest.raises(NonFiniteValue, match="distance overflows"):
            distance(t1, t2)

    def test_sublattice_mismatch(self):
        space, C = one_block_space()
        other = dcl(space, [indicator(space, ["c0"])])
        with pytest.raises(SublatticeMismatch):
            distance(type_datum(staircase(space), C), type_datum(staircase(space), other))


class TestCanonicalRealization:
    def test_member_realizes_to_itself(self):
        space, C = one_block_space()
        member = 2.5 * indicator(space, space.ids())
        refinement, g = canonical_realization(type_datum(member, C))
        assert refinement.child == space
        assert function_close(g, member, 1e-12)

    def test_staircase_layout(self):
        space, C = one_block_space(4, 1.0)
        f = staircase(space)
        t = type_datum(f, C)
        refinement, g = canonical_realization(t)
        assert len(refinement.child.cells) == 16
        # decreasing along the r-index inside every parent cell
        for cid in space.ids():
            kids = refinement.children_of(cid)
            vals = [g[k] for k in kids]
            assert vals == sorted(vals, reverse=True)
        assert type_datum(g, C.lift(refinement)).equals(lift_type_datum(t, refinement), 1e-12)

    def test_idempotence(self):
        # the slice data of a canonical realization reproduce the datum, so
        # realizing again changes nothing beyond refinement bookkeeping
        space, C = one_block_space(4, 2.0)
        f = staircase(space)
        t = type_datum(f, C)
        refinement, g = canonical_realization(t)
        C1 = C.lift(refinement)
        t2 = type_datum(g, C1)
        assert t2.equals(lift_type_datum(t, refinement), 1e-12)
        r2, g2 = canonical_realization(t2)
        C2 = C1.lift(r2)
        assert close(norm(g2), norm(g), 1e-12)
        assert distance(type_datum(lift(g, r2), C2), type_datum(g2, C2)) <= 1e-12

    def test_orthogonal_part_on_fresh_cells(self):
        space = make_space([("a", 1.0), ("x", 1.0)], 2.0)
        C = dcl(space, [indicator(space, ["a"])])
        f = step_function(space, {"a": 1.0, "x": -2.0})
        t = type_datum(f, C)
        refinement, g = canonical_realization(t)
        assert set(refinement.fresh_cells) == {"fresh1"}
        assert g["fresh1"] == -2.0
        assert type_datum(g, C.lift(refinement)).equals(lift_type_datum(t, refinement), 1e-12)

    @pytest.mark.parametrize("seed", range(25))
    def test_realization_has_the_type(self, seed):
        inst = random_instance(seed, 6)
        C = inst.chain[seed % 3]
        t = type_datum(inst.functions[0], C)
        refinement, g = canonical_realization(t)
        assert type_datum(g, C.lift(refinement)).equals(lift_type_datum(t, refinement), 1e-9)


class TestRealizationsAgree:
    @pytest.mark.parametrize("seed", range(30))
    def test_band_function_realizes_alike(self, seed):
        # for f in C's band, the law of f over C determines its decreasing layout
        inst = random_instance(seed, 8)
        C = inst.chain[seed % 3]
        f, _ = band_decompose(inst.functions[0], C)
        r1, g = canonical_realization(type_datum(f, C))
        r2, (h,) = realize_cond_distribution(cond_distribution([f], C))
        assert r1.child == r2.child
        assert r1.splitting == r2.splitting
        assert g == h


class TestMaharamSelect:
    def test_full_target_selects_everything(self):
        space, C = one_block_space(4, 2.0)
        cells = ["c0", "c2"]
        target = cond_exp(indicator(space, cells), C)
        refinement, selected = maharam_select(cells, C, target)
        assert refinement.child == space
        assert selected == frozenset(cells)

    def test_third_splits_a_cell(self):
        space = make_space([("u", 1.0), ("v", 1.0)], 1.0)
        C = dcl(space, [indicator(space, ["u", "v"])])
        target = (1.0 / 3.0) * indicator(space, ["u", "v"])
        refinement, selected = maharam_select(["u"], C, target)
        assert selected == frozenset(["u#0"])
        assert close(refinement.child.weight("u#0"), 2.0 / 3.0)
        got = cond_exp(indicator(refinement.child, selected), C.lift(refinement))
        assert function_close(got, lift(target, refinement), 1e-12)

    def test_zero_target(self):
        space, C = one_block_space()
        refinement, selected = maharam_select(["c0", "c1"], C, step_function(space, {}))
        assert refinement.child == space
        assert selected == frozenset()

    def test_target_out_of_range(self):
        space, C = one_block_space()
        too_big = indicator(space, space.ids())
        with pytest.raises(TargetOutOfRange):
            maharam_select(["c0"], C, too_big)

    def test_target_not_member(self):
        space, C = one_block_space()
        with pytest.raises(TargetOutOfRange):
            maharam_select(["c0"], C, indicator(space, ["c0"]))

    def test_unknown_cell_named_is_the_first_given(self):
        # the cells were once checked in the order of a set of them, which
        # varies with the string hash of the process
        space, C = one_block_space()
        unknown = ["q", "r", "s", "t", "u"]
        for k in range(len(unknown)):
            cells = ["c0"] + unknown[k:] + unknown[:k]
            with pytest.raises(UnknownCell, match=f"^no cell {unknown[k]!r}$"):
                maharam_select(cells, C, step_function(space, {}))


class TestRealizeCondDistribution:
    def test_point_mass_needs_no_refinement(self):
        space, C = one_block_space()
        chi = indicator(space, space.ids())
        d = cond_distribution([3.0 * chi], C)
        refinement, gs = realize_cond_distribution(d)
        assert refinement.child == space
        assert function_close(gs[0], 3.0 * chi, 1e-12)

    def test_two_atoms_on_heavy_cell(self):
        space = make_space([("a", 2.0)], 1.0)
        C = dcl(space, [indicator(space, ["a"])])
        from lplattice import ConditionalDistribution

        d = ConditionalDistribution(C, 1, ((((4.0,), 1.0), ((1.0,), 1.0)),), ())
        refinement, gs = realize_cond_distribution(d)
        child = refinement.child
        assert close(child.weight("a#0"), 1.0) and close(child.weight("a#1"), 1.0)
        assert gs[0].values == {"a#0": 4.0, "a#1": 1.0}
        back = cond_distribution(gs, C.lift(refinement))
        assert back.per_block == d.per_block

    def test_realized_distribution_transfers_type(self):
        fx = pairwise_independence_example()
        d = cond_distribution([fx.a1], fx.C)
        refinement, gs = realize_cond_distribution(d)
        C1 = fx.C.lift(refinement)
        assert tuple_type_equal(gs, [lift(fx.a1, refinement)], C1)

    def test_block_mass_must_match(self):
        space, C = one_block_space()
        from lplattice import ConditionalDistribution

        with pytest.raises(InvalidDistribution):
            ConditionalDistribution(C, 1, ((((1.0,), 1.0),),), ())

    def test_origin_mass_rejected(self):
        space, C = one_block_space()
        from lplattice import ConditionalDistribution

        with pytest.raises(InvalidDistribution):
            ConditionalDistribution(
                C, 1, ((((1.0,), 4.0),),), (((0.0,), 1.0),)
            )


class TestRefiningOperations:
    """A change of space returns its Refinement once, beside the result: the
    input space is the refinement's parent, and every function returned lives
    on the refinement's child space."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize(
        "op",
        [
            "refine_space",
            "canonical_realization",
            "realize_cond_distribution",
            "maharam_select",
            "nonforking_extension",
        ],
    )
    def test_result_lives_on_the_child(self, op, seed):
        inst = random_instance(seed, 6)
        space, (C, B, _), (f, g) = inst.space, inst.chain, inst.functions[:2]
        calls = {
            "refine_space": lambda: (
                refine_space(space, {space.ids()[0]: (0.25, 0.75)}, [("x", 1.0)]),
                (),
            ),
            "canonical_realization": lambda: canonical_realization(type_datum(f, C)),
            "realize_cond_distribution": lambda: realize_cond_distribution(
                cond_distribution([f, g], C)
            ),
            "maharam_select": lambda: maharam_select(
                space.ids(), C, (1.0 / 3.0) * cond_exp(indicator(space, space.ids()), C)
            ),
            "nonforking_extension": lambda: nonforking_extension([f, g], C, B),
        }
        refinement, result = calls[op]()
        assert refinement.parent is space
        if op == "maharam_select":
            assert result <= set(refinement.child.ids())
            return
        functions = (result,) if isinstance(result, StepFunction) else result
        assert all(h.space is refinement.child for h in functions)


class TestLayoutAgreesWithReference:
    @pytest.mark.parametrize("seed", range(300))
    def test_slice_profile_and_realization_match(self, seed):
        # slice profiles and realizations laid out by `_layout` equal, to the
        # last bit, the per-job copies they replaced
        inst = random_instance(seed, 12)
        for C in inst.chain:
            for f in inst.functions:
                assert slice_profile(f, C).per_block == reference_slice_profile(f, C).per_block
            for arity in (1, 2, 3):
                d = cond_distribution(inst.functions[:arity], C)
                refinement, gs = realize_cond_distribution(d)
                ref_child, ref_refinement, ref_gs = reference_realize_cond_distribution(d, C)
                assert refinement.child == ref_child
                assert refinement.splitting == ref_refinement.splitting
                assert [g.values for g in gs] == [g.values for g in ref_gs]


class TestThresholdBlockSets:
    @pytest.mark.parametrize("seed", range(25))
    def test_block_sets_agree(self, seed):
        inst = random_instance(seed, 7)
        C = inst.chain[seed % 3]
        if C.dim == 0:
            return
        f = abs(inst.functions[0])
        f1, _ = band_decompose(f, C)
        prof = slice_profile(f, C)
        rng = random.Random(seed)
        h = {cid: f1[cid] / C.profile[cid] for cid in C.support}
        candidates = sorted({abs(v) for v in h.values()} | {0.5})
        for _ in range(4):
            t = rng.choice(candidates)
            r = rng.choice((0.25, 0.5, 0.75, rng.random() * 0.9 + 0.05))
            grid = [r * k / 8.0 for k in range(1, 8)] + [r - 1e-9]
            grid = [x for x in grid if 0.0 < x < 1.0]
            for k, block in enumerate(C.blocks):
                mass = sum(C.nu(c) for c in block if h[c] >= t - 1e-12)
                lhs = mass / C.nu_block(k) >= r - 1e-12
                rhs = all(prof.coefficient(k, rp) >= t - 1e-12 for rp in grid)
                assert lhs == rhs, (seed, t, r, k)


class TestSliceIntegralRecovery:
    @pytest.mark.parametrize("seed", range(40))
    def test_expectation_is_slice_integral(self, seed):
        inst = random_instance(seed, 8)
        C = inst.chain[seed % 3]
        f = inst.functions[0]
        prof = slice_profile(f, C)
        integral = C.member(prof.integral_coefficients())
        assert norm(cond_exp(f, C) - integral) <= 1e-9


class TestInvarianceUnderTransport:
    @pytest.mark.parametrize("seed", range(20))
    def test_lift_preserves_types_and_distances(self, seed):
        inst = random_instance(seed, 6)
        C = inst.chain[seed % 3]
        f, g = inst.functions[0], inst.functions[1]
        r = refine_space(inst.space, {inst.space.ids()[0]: (0.5, 0.5)})
        C1 = C.lift(r)
        t1, t2 = type_datum(f, C), type_datum(g, C)
        s1, s2 = type_datum(lift(f, r), C1), type_datum(lift(g, r), C1)
        assert abs(distance(t1, t2) - distance(s1, s2)) <= 1e-9
        assert tuple_type_equal([f], [g], C) == tuple_type_equal(
            [lift(f, r)], [lift(g, r)], C1
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_density_transports_slices(self, seed):
        inst = random_instance(seed, 6)
        rng = random.Random(seed)
        d = step_function(
            inst.space, {c: rng.choice((0.5, 1.0, 2.0)) for c in inst.space.ids()}
        )
        dc = density_change(inst.space, d)
        C = inst.chain[seed % 3]
        Cd = C.density_push(dc)
        f = inst.functions[0]
        for r in (0.3, 0.7):
            assert function_close(
                dc.push(conditional_slice(f, C, r)),
                conditional_slice(dc.push(f), Cd, r),
                1e-9,
            )


class TestRealizeCommon:
    @pytest.mark.parametrize("seed", range(20))
    def test_common_realization_attains_distance(self, seed):
        inst = random_instance(seed, 6)
        C = inst.chain[seed % 3]
        t1 = type_datum(inst.functions[0], C)
        t2 = type_datum(inst.functions[1], C)
        f, g = realize_common(t1, t2)
        assert abs(norm(f - g) - distance(t1, t2)) <= 1e-9

    def test_lengths_short_of_one(self):
        # lengths may sum to 1 within DEFAULT_TOL; the last child still runs
        # to 1, so each cell's children weigh what it weighs
        _, C = one_block_space(2)
        t1 = TypeDatum(SliceProfile(C, (((0.5, 2.0), (0.5 - 9e-10, 1.0)),)), 0.0, 0.0)
        t2 = TypeDatum(SliceProfile(C, (((0.25, 3.0), (0.75, 0.0)),)), 0.0, 0.0)
        f, g = realize_common(t1, t2)
        assert [w for _, w in f.space.cells] == [0.25, 0.25, 0.5] * 2
        assert (f.values, g.values) == (
            {"c0#0": 2.0, "c0#1": 2.0, "c0#2": 1.0, "c1#0": 2.0, "c1#1": 2.0, "c1#2": 1.0},
            {"c0#0": 3.0, "c1#0": 3.0},
        )

    def test_sublattice_mismatch(self):
        space, C = one_block_space()
        D = dcl(space, [indicator(space, ["c0"])])
        f = indicator(space, ["c0", "c1"])
        with pytest.raises(SublatticeMismatch):
            realize_common(type_datum(f, C), type_datum(f, D))


class TestOneFunctionBlockLaws:
    """_block_laws' one-function loop against the general path it leaves
    (tests/conftest.py::reference_block_laws): the same floats, bit for bit."""

    TOLS = [0.0, 1e-9, 1e-3, 1e302]

    @staticmethod
    def _both(f, C, tol):
        got = list(_block_laws((f,), C, tol))
        want = list(reference_block_laws((f,), C, tol))
        assert got == want
        assert repr(got) == repr(want)  # -0.0 and 0.0 too

    @pytest.mark.parametrize("tol", TOLS)
    def test_random_instances(self, tol):
        for seed in range(300):
            inst = random_instance(seed, 12)
            for C in inst.chain:
                for f in inst.functions:
                    self._both(f, C, tol)

    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("a", [-2.5, -1.0, 0.0, 0.25, 1.0, 3.0])
    def test_near_tie_chains(self, tol, a):
        chain = [a, a + 0.6 * tol, a + 1.2 * tol]
        order = [2, 0, 1, 0, 2, 1]
        space = make_space([(f"c{i}", 0.5 + i) for i in range(9)], 2.0)
        scales = [1.0, 0.5, 0.25]
        C = Sublattice.make(
            space,
            [
                ([f"c{i}" for i in range(6)], {f"c{i}": 1.0 for i in range(6)}),
                ([f"c{i}" for i in range(6, 9)], {f"c{6 + j}": s for j, s in enumerate(scales)}),
            ],
        )
        values = {f"c{i}": chain[k] for i, k in enumerate(order)}
        values.update({f"c{6 + j}": chain[j] * s for j, s in enumerate(scales)})
        self._both(step_function(space, values), C, tol)

    def test_space_check_runs_first(self):
        space, C = one_block_space()
        other = make_space([("c0", 1.0)], 1.0)
        with pytest.raises(SpaceMismatch):
            next(_block_laws((step_function(other, {"c0": 1.0}),), C, DEFAULT_TOL))


class TestZeroMassRuns:
    """A run of atoms whose masses all underflow to 0.0 is dropped before a
    mean would divide by its total mass (reference_merge_atoms divides first,
    so it is not the reference here)."""

    UNDERFLOW = 1e-300 * 1e-300  # a mass mu * w**p past the float range's bottom

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-6])
    def test_merge_atoms(self, tol):
        zero = self.UNDERFLOW
        assert zero == 0.0
        assert _merge_atoms([((1.0,), zero)], tol) == ()
        run = [((1.0, -2.0), zero), ((1.0, -2.0 + 1e-12), zero), ((1.0, -2.0), zero)]
        assert _merge_atoms(run + [((3.0, 0.5), 0.25)], tol) == (((3.0, 0.5), 0.25),)
        if tol:  # the two vectors are one run only at a tol above their gap
            assert _merge_atoms(run, tol) == ()

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-6])
    def test_merge_values(self, tol):
        zero = self.UNDERFLOW
        assert _merge_values({1.0: zero}, tol) == ()
        acc = {-1.0: zero, -1.0 + 1e-12: zero, 2.0: 0.5}
        assert _merge_values(acc, tol) == (((2.0,), 0.5),)
        assert _merge_values({-1.0: zero, -1.0 + 1e-12: zero}, tol) == ()

    def test_a_run_with_mass_keeps_its_mean(self):
        assert _merge_values({1.0: 0.0, 1.0 + 1e-12: 0.5}, 1e-9) == (((1.0 + 1e-12,), 0.5),)
        assert _merge_atoms([((1.0,), 0.0), ((1.0 + 1e-12,), 0.5)], 1e-9) == (((1.0 + 1e-12,), 0.5),)


def _result(fn, *args):
    """What a call returned, or the class and message it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared with the reference's exception
        return ("raised", type(exc), str(exc))


def _base(fn, fs, A):
    cb = _result(fn, fs, A)
    return cb if isinstance(cb, tuple) else (cb.blocks, cb.profile)


def _verdict(fn, f, B, C):
    v = _result(fn, f, B, C)
    return v if isinstance(v, tuple) else (v.independent, v.witness and v.witness.gap)


def _assert_realizations_match(got, want, t1, t2):
    # the same cells and values, and the same child weights unless a merged
    # cut is now its run's smallest, where the old merge kept the first seen:
    # then a child's r-length moves by rounding, within two cut tolerances
    for g, w in zip(got, want, strict=True):
        assert g.values == w.values
    cells, old = got[0].space.cells, want[0].space.cells
    assert [cid for cid, _ in cells] == [cid for cid, _ in old]
    pairs = zip(t1.profile.per_block, t2.profile.per_block)
    cuts = [[c for segs in pair for c in _cumulative(segs)[:-1]] for pair in pairs]
    if all(_merge_cuts(cs) == _merge_cuts(sorted(cs)) for cs in cuts):
        assert cells == old
        return
    bound = 2 * _CUT_TOL * max(weight for _, weight in old)
    for (_, a), (_, b) in zip(cells, old):
        assert abs(a - b) <= bound


def _assert_midpoints_match(profiles):
    # exactly the midpoints of the documented merge; against the old merge,
    # which kept a run's first-seen cut and ended at 1, the same intervals
    # with each midpoint within one ulp of 1
    got = merged_midpoints(*profiles)
    cuts = documented_cuts([segs for prof in profiles for segs in prof.per_block])
    assert got == tuple((a + b) / 2.0 for a, b in zip(cuts, cuts[1:]))
    want = reference_merged_midpoints(*profiles)
    assert len(got) == len(want)
    assert all(abs(a - b) <= math.ulp(1.0) for a, b in zip(got, want))


class TestOneSweep:
    """Every r-axis reader goes through `_sweep`; the cut merge and the
    two-pointer walk it replaced are the references in tests/conftest.py."""

    @pytest.mark.parametrize("first", range(0, 2000, 100))
    def test_differential_against_the_old_readers(self, first):
        for seed in range(first, first + 100):
            inst = random_instance(seed, 8, n_functions=3)
            fs = inst.functions
            D = inst.chain[-1]  # C <= B <= D
            for C in inst.chain:
                types = [type_datum(f, C) for f in fs]
                for t1, t2 in itertools.product(types, repeat=2):
                    assert distance(t1, t2) == reference_distance(t1, t2), seed
                    assert t1.equals(t2) == reference_type_equals(t1, t2), seed
                for t1, t2 in itertools.combinations(types, 2):
                    _assert_realizations_match(
                        realize_common(t1, t2), reference_realize_common(t1, t2), t1, t2
                    )
                for arity in (1, 2):
                    assert _base(canonical_base, fs[:arity], C) == _base(
                        reference_closed_canonical_base, fs[:arity], C
                    ), seed
                for f, t in zip(fs, types):
                    assert _verdict(slice_independent, f, D, C) == _verdict(
                        reference_slice_independent, f, D, C
                    ), seed
                    for profiles in ((t.profile,), (slice_profile(f, D), t.profile)):
                        _assert_midpoints_match(profiles)

    def test_cuts_5e_13_apart_are_one_cut(self):
        c = 0.5 + 5e-13
        a = ((0.5, 2.0), (0.5, 1.0))
        b = ((c, 3.0), (1.0 - c, 0.0))
        assert [(s, e) for s, e, _ in _sweep([a, b])] == [(0.0, 0.5), (0.5, 1.0)]
        assert [(s, e) for s, e, _ in _sweep([b, a])] == [(0.0, 0.5), (0.5, 1.0)]
        for p in (1.0, 2.0, 3.0):
            got = _piecewise_pth_power(a, b, p)
            want = reference_piecewise_pth_power(a, b, p)
            # the old walk kept the sliver (0.5, c) apart, where the values are 1 and 3
            assert got != want
            assert abs(got - want) <= (c - 0.5) * 2.0**p + 4 * math.ulp(want)

    def test_segment_shorter_than_the_cut_tolerance(self):
        # a middle segment of 4e-13 merges into the cut before it; the layout
        # steps past it, so the interval after reads its next segment
        a = ((0.5, 3.0), (4e-13, 2.0), (0.5 - 4e-13, 1.0))
        b = ((1.0, 0.0),)
        assert [(s, e, v) for s, e, v in _sweep([a, b])] == [
            (0.0, 0.5, (3.0, 0.0)),
            (0.5, 1.0, (1.0, 0.0)),
        ]
        # the old walk read 2 on the sliver
        got, want = _piecewise_pth_power(a, b, 1.0), reference_piecewise_pth_power(a, b, 1.0)
        assert abs(got - want) <= 4e-13 * 1.0 + 4 * math.ulp(want)

    def test_cuts_near_0_and_1_are_not_interior(self):
        a = ((4e-13, 3.0), (1.0 - 8e-13, 2.0), (4e-13, 1.0))
        b = ((1.0, 0.0),)
        end = 1.0  # the smallest last cut: 4e-13 + (1 - 8e-13) + 4e-13 rounds to 1
        # the layout is past its first segment from 0 on and never reaches its last
        assert list(_sweep([a, b])) == [(0.0, end, (2.0, 0.0))]
        prof = SliceProfile(one_block_space(2)[1], (a,))
        assert merged_midpoints(prof) == reference_merged_midpoints(prof) == (0.5,)
        got, want = _piecewise_pth_power(a, b, 1.0), reference_piecewise_pth_power(a, b, 1.0)
        assert abs(got - want) <= 4e-13 * (3.0 - 2.0) + 4e-13 * (2.0 - 1.0) + 4 * math.ulp(want)

    def test_last_interval_ends_at_the_smallest_last_cut(self):
        a = ((0.5, 2.0), (0.5 - 2e-10, 1.0))
        b = ((0.25, 1.0), (0.75, 0.0))
        assert [(s, e) for s, e, _ in _sweep([a, b])] == [(0.0, 0.25), (0.25, 0.5), (0.5, 1.0 - 2e-10)]
        # the old walk ends there too
        assert _piecewise_pth_power(a, b, 2.0) == reference_piecewise_pth_power(a, b, 2.0)

    def test_cuts_near_the_end_are_not_interior(self):
        # lengths summing short of 1: a cut within _CUT_TOL of the smallest
        # last cut leaves no sliver before it
        a = ((0.5, 2.0), (0.5 - 5e-10, 1.0))
        end = 0.5 + (0.5 - 5e-10)
        b = ((end - 5e-13, 3.0), (1.0 - (end - 5e-13), 0.0))
        assert list(_sweep([a, b])) == [(0.0, 0.5, (2.0, 3.0)), (0.5, end, (1.0, 3.0))]

    def test_no_layouts_is_one_interval(self):
        assert list(_sweep([])) == [(0.0, 1.0, ())]

    @pytest.mark.parametrize("seed", range(10))
    def test_merged_midpoints_ignore_the_order_of_profiles(self, seed):
        rng = random.Random(seed)
        space, C = one_block_space(2)
        profiles = []
        for _ in range(4):
            # cuts on a grid of 1/8, each jittered below the cut tolerance
            cuts = sorted(rng.sample(range(1, 8), 3))
            edges = [0.0] + [k / 8 + rng.uniform(-0.4, 0.4) * _CUT_TOL for k in cuts] + [1.0]
            lengths = [b - a for a, b in zip(edges, edges[1:])]
            profiles.append(SliceProfile(C, (tuple(zip(lengths, (4.0, 3.0, 2.0, 1.0))),)))
        perms = list(itertools.permutations(profiles))
        assert len({merged_midpoints(*perm) for perm in perms}) == 1
        # the old merge kept the cut seen first, so the order showed
        assert len({reference_merged_midpoints(*perm) for perm in perms}) > 1


class TestNonFiniteRecords:
    """The public type-space records name a non-finite number before any
    other check reads it."""

    @pytest.mark.parametrize(
        "segments, message",
        [
            (((0.5, 2.0), (0.5, -math.inf)), "block 0 segment 1 is not finite: (0.5, -inf)"),
            (((0.5, 2.0), (0.5, math.nan)), "block 0 segment 1 is not finite: (0.5, nan)"),
            # this one used to read "segment values must strictly decrease"
            (((0.5, math.inf), (0.5, 1.0)), "block 0 segment 0 is not finite: (0.5, inf)"),
            (((math.inf, 2.0),), "block 0 segment 0 is not finite: (inf, 2.0)"),
        ],
        ids=["value-minus-inf", "value-nan", "first-value-inf", "length-inf"],
    )
    def test_slice_profile(self, segments, message):
        _, C = one_block_space(2)
        with pytest.raises(NonFiniteValue) as err:
            SliceProfile(C, (segments,))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "pos, neg, message",
        [
            (math.inf, 0.0, "orth_pos is not finite: inf"),
            (0.0, math.nan, "orth_neg is not finite: nan"),
        ],
        ids=["pos-inf", "neg-nan"],
    )
    def test_type_datum(self, pos, neg, message):
        _, C = one_block_space(2)
        profile = SliceProfile(C, (((1.0, 0.0),),))
        with pytest.raises(NonFiniteValue) as err:
            TypeDatum(profile, pos, neg)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "block, orth, message",
        [
            ((((math.inf,), 2.0),), (), "block 0 atom ((inf,), 2.0) is not finite"),
            ((((1.0,), 2.0),), (((math.nan,), 1.0),), "orthogonal atom ((nan,), 1.0) is not finite"),
            ((((1.0,), 2.0),), (((1.0,), math.inf),), "orthogonal atom ((1.0,), inf) is not finite"),
        ],
        ids=["atom-entry-inf", "orth-vector-nan", "orth-mass-inf"],
    )
    def test_conditional_distribution(self, block, orth, message):
        space = make_space([("a", 1.0), ("b", 1.0), ("x", 1.0)], 1.0)
        C = dcl(space, [indicator(space, ["a", "b"])])
        with pytest.raises(NonFiniteValue) as err:
            ConditionalDistribution(C, 1, (block,), orth)
        assert str(err.value) == message

    def test_profiles_ending_apart(self):
        # lengths may sum to 1 within DEFAULT_TOL; a cut of the other profile
        # past the smaller end used to send the old walk round forever
        _, C = one_block_space(1)
        a = ((1.0 - 5e-10, 1.0),)
        b = ((1.0 - 1e-11, 2.0), (1e-11, 1.0))
        assert list(_sweep([a, b])) == [(0.0, 1.0 - 5e-10, (1.0, 2.0))]
        t1 = TypeDatum(SliceProfile(C, (a,)), 0.0, 0.0)
        t2 = TypeDatum(SliceProfile(C, (b,)), 0.0, 0.0)
        assert distance(t1, t2) == 1.0 - 5e-10
        assert not t1.equals(t2)
