import itertools
import random

import pytest

from conftest import (
    documented_cuts,
    lattice_terms,
    reference_canonical_base,
    reference_merged_midpoints,
    reference_slice_independent,
    reference_star_independent,
)
from lplattice import (
    NonFiniteValue,
    PreconditionFailed,
    Sublattice,
    canonical_base,
    cond_exp,
    dcl,
    density_change,
    function_close,
    indicator,
    is_sublattice_of,
    lattice_join,
    lift,
    make_space,
    nonforking_extension,
    norm,
    product_check,
    restricted_star_check,
    slice_independent,
    star_independent,
    stationarity_check,
    step_function,
    tuple_type_equal,
)
from lplattice.oracles import random_instance, slice_by_definition
from lplattice.typespace import merged_midpoints, slice_profile
from lplattice.verify import (
    _nontrivial_sublattice,
    masked_dependence_example,
    pairwise_independence_example,
)


class TestStarIndependent:
    def test_masked_dependence_has_top_witness(self):
        for p in (1.0, 1.5, 2.0, 3.0):
            fx = masked_dependence_example(p)
            verdict = star_independent(fx.A, fx.B, fx.C)
            assert not verdict.independent
            assert function_close(verdict.witness.element, fx.chi_top, 1e-12)
            assert function_close(verdict.witness.over_b, fx.chi_top, 1e-12)
            assert function_close(
                verdict.witness.over_c, (1.0 / 3.0) * fx.chi, 1e-12
            )

    def test_pairwise_independent_triple(self):
        for p in (1.0, 1.5, 2.0, 3.0):
            fx = pairwise_independence_example(p)
            assert star_independent([fx.a1], [fx.a3], fx.C).independent
            assert star_independent([fx.a2], [fx.a3], fx.C).independent
            verdict = star_independent([fx.a1, fx.a2], [fx.a3], fx.C)
            assert not verdict.independent
            assert function_close(verdict.witness.element, fx.a1.meet(fx.a2), 1e-12)

    def test_members_of_c_are_independent(self):
        fx = masked_dependence_example()
        member = -3.0 * fx.chi
        assert star_independent([member], fx.B, fx.C).independent

    def test_witness_gap_exceeds_tol(self):
        fx = masked_dependence_example()
        verdict = star_independent(fx.A, fx.B, fx.C)
        assert verdict.witness.gap > 1e-9
        assert norm(verdict.witness.over_b - verdict.witness.over_c) == verdict.witness.gap


def _outcome(test, *args):
    """A test's verdict as comparable data, or the class and message it raised."""
    try:
        verdict = test(*args)
    except Exception as exc:  # compared with the reference's exception
        return ("raised", type(exc), str(exc))
    w = verdict.witness
    if w is None:
        return (verdict.independent, None)
    fields = (w.kind, w.r, w.gap, w.element.values, w.over_b.values, w.over_c.values)
    return (verdict.independent, fields)


def _sides(inst, seed):
    """Sides of an independence test: the chain members, a nontrivial
    sublattice, and function lists of arity 1 to 3."""
    fs = list(inst.functions)
    return list(inst.chain) + [_nontrivial_sublattice(inst, seed), fs[:1], fs[1:], fs]


def _documented_r(outcome, f, B, C):
    """The reference's outcome with its witness r where the documented cut
    rules put it: a merged cut is its run's smallest member (the old merge
    kept the first seen), and the last interval ends at the smallest last
    cut of all blocks (the old one ended at 1)."""
    if outcome[0] is not False:  # no witness
        return outcome
    kind, r, *rest = outcome[1]
    profiles = (slice_profile(f, B), slice_profile(f, C))
    merged = documented_cuts([segs for prof in profiles for segs in prof.per_block])
    k = reference_merged_midpoints(*profiles).index(r)
    return (False, (kind, (merged[k] + merged[k + 1]) / 2.0, *rest))


class TestOnePassGaps:
    """The one-pass gaps against the per-generator loops they replaced."""

    @pytest.mark.parametrize("seed", range(300))
    def test_star_matches_reference(self, seed):
        rng = random.Random(seed)
        for size in (6, 12):
            inst = random_instance(seed, size)
            sides = _sides(inst, seed)
            for A, B, C in rng.sample(list(itertools.product(sides, repeat=3)), 8):
                assert _outcome(star_independent, A, B, C) == _outcome(
                    reference_star_independent, A, B, C
                )

    @pytest.mark.parametrize("seed", range(300))
    def test_slice_matches_reference(self, seed):
        for size in (6, 12):
            inst = random_instance(seed, size)
            C, B, D = inst.chain
            pairs = [(B, C), (D, C), (D, B), (_nontrivial_sublattice(inst, seed), C)]
            for f in inst.functions:
                for b, c in pairs:
                    want = _outcome(reference_slice_independent, f, b, c)
                    assert _outcome(slice_independent, f, b, c) == _documented_r(
                        want, f, b, c
                    )

    def test_tie_goes_to_earliest_block(self):
        # two copies of one C-block split the same way: bit-equal gaps on {s} and {u}
        space = make_space([("s", 1.0), ("t", 0.5), ("u", 1.0), ("v", 0.5)], 1.5)
        C = Sublattice.make(
            space, [(("s", "t"), {"s": 1.0, "t": 2.0}), (("u", "v"), {"u": 1.0, "v": 2.0})]
        )
        f = step_function(space, {"s": 1.0, "t": 3.0, "u": 1.0, "v": 3.0})
        verdict = star_independent([f], [f], C)
        assert verdict.witness.element.values == {"s": 1.0}
        assert _outcome(star_independent, [f], [f], C) == _outcome(
            reference_star_independent, [f], [f], C
        )

    def test_non_finite_expectation_names_the_first_cell(self):
        # E_C(chi_y) has coefficient 1e300 / 1e-10 = inf: its first cell is x
        space = make_space([("x", 1e-300), ("y", 1e300)], 1.0)
        C = Sublattice.make(space, [(("x", "y"), {"x": 1.0, "y": 1e-310})])
        chi_y = indicator(space, ["y"])
        message = "value on cell 'x' is not finite: inf"
        with pytest.raises(NonFiniteValue, match=f"^{message}$"):
            star_independent([chi_y], [chi_y], C)
        assert _outcome(star_independent, [chi_y], [chi_y], C) == _outcome(
            reference_star_independent, [chi_y], [chi_y], C
        )


class TestRestrictedStarCheck:
    def test_masked_dependence_fails_precondition(self):
        fx = masked_dependence_example()
        with pytest.raises(PreconditionFailed, match="intersect"):
            restricted_star_check(fx.A, fx.B, fx.C)

    def test_c_not_inside_b_fails(self):
        fx = masked_dependence_example()
        with pytest.raises(PreconditionFailed, match="sublattice"):
            restricted_star_check(fx.C, fx.A, fx.B)

    def test_contained_independent_case(self):
        fx = pairwise_independence_example()
        A = dcl(fx.space, [fx.a1, indicator(fx.space, fx.space.ids())])
        B = dcl(fx.space, [fx.a3, indicator(fx.space, fx.space.ids())])
        assert restricted_star_check(A, B, fx.C)

    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_star_under_preconditions(self, seed):
        inst = random_instance(seed, 6)
        C, B, _ = inst.chain
        A = lattice_join(dcl(inst.space, [inst.functions[0]]), C)
        try:
            got = restricted_star_check(A, B, C)
        except PreconditionFailed:
            return
        assert got == star_independent(A, B, C).independent


class TestProductCheck:
    def test_single_generator_lattices_product(self):
        fx = pairwise_independence_example()
        chi = indicator(fx.space, fx.space.ids())
        A = dcl(fx.space, [fx.a1, chi])
        B = dcl(fx.space, [fx.a3, chi])
        assert product_check(A, B, fx.C)

    def test_pair_lattice_fails_product(self):
        fx = pairwise_independence_example()
        chi = indicator(fx.space, fx.space.ids())
        A = dcl(fx.space, [fx.a1, fx.a2, chi])
        B = dcl(fx.space, [fx.a3, chi])
        assert not product_check(A, B, fx.C)

    def test_all_equal(self):
        fx = pairwise_independence_example()
        chi = indicator(fx.space, fx.space.ids())
        A = dcl(fx.space, [fx.a3, chi])
        assert product_check(A, A, A)

    def test_non_indicator_precondition(self):
        space = make_space([("a", 1.0), ("b", 1.0)], 2.0)
        A = Sublattice.make(space, [(("a", "b"), {"a": 1.0, "b": 0.5})])
        with pytest.raises(PreconditionFailed, match="indicator"):
            product_check(A, A, A)

    def test_support_precondition(self):
        space = make_space([(f"c{i}", 1.0) for i in range(4)], 2.0)
        A = Sublattice.make(
            space,
            [
                (("c0", "c1"), {"c0": 1.0, "c1": 1.0}),
                (("c2",), {"c2": 1.0}),
                (("c3",), {"c3": 1.0}),
            ],
        )
        B = Sublattice.make(
            space,
            [
                (("c0", "c1"), {"c0": 1.0, "c1": 1.0}),
                (("c2", "c3"), {"c2": 1.0, "c3": 1.0}),
            ],
        )
        C = dcl(space, [indicator(space, ["c0", "c1"])])
        with pytest.raises(PreconditionFailed, match="supp"):
            product_check(A, B, C)

    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_star(self, seed):
        inst = random_instance(seed, 6)
        C = inst.chain[0]
        if C.dim == 0 or any(abs(v - 1.0) > 1e-12 for v in C.profile.values()):
            return
        chi_c = [g for g in C.generators()]
        f0 = inst.functions[0].restrict(C.support)
        f1 = inst.functions[1].restrict(C.support)
        # indicator lattices refining C inside its support
        A = dcl(inst.space, chi_c + [f0.pos().join(0.0 * f0)])
        B = dcl(inst.space, chi_c + [f1.pos()])
        A = _indicatorize(A)
        B = _indicatorize(B)
        try:
            got = product_check(A, B, C)
        except PreconditionFailed:
            return
        assert got == star_independent(A, B, C).independent


def _indicatorize(lat: Sublattice) -> Sublattice:
    """Replace every profile by 1 (keeps the block partition)."""
    return Sublattice.make(
        lat.space,
        [(block, {cid: 1.0 for cid in block}) for block in lat.blocks],
    )


class TestSliceIndependent:
    def test_half_indicator_against_other_half(self):
        fx = pairwise_independence_example()
        chi = indicator(fx.space, fx.space.ids())
        B = dcl(fx.space, [fx.a3, chi])
        verdict = slice_independent(fx.a1, B, fx.C)
        assert verdict.independent

    def test_member_of_c(self):
        fx = masked_dependence_example()
        assert slice_independent(2.0 * fx.chi, fx.B, fx.C).independent

    def test_top_indicator_dependent(self):
        fx = masked_dependence_example()
        verdict = slice_independent(fx.chi_top, fx.B, fx.C)
        assert not verdict.independent
        assert function_close(verdict.witness.over_b, fx.chi_top, 1e-12)

    def test_precondition(self):
        fx = masked_dependence_example()
        with pytest.raises(PreconditionFailed):
            slice_independent(fx.f, fx.C, fx.B)

    @pytest.mark.parametrize("seed", range(60))
    def test_agrees_with_star(self, seed):
        inst = random_instance(seed, 7)
        C, B, _ = inst.chain
        for f in inst.functions:
            assert (
                slice_independent(f, B, C).independent
                == star_independent([f], B, C).independent
            )


class TestNonforkingExtension:
    def test_extension_splits_into_thirds(self):
        fx = masked_dependence_example(1.0)
        refinement, (g,) = nonforking_extension([fx.f], fx.C, fx.B)
        space2 = refinement.child
        B1 = fx.B.lift(refinement)
        C1 = fx.C.lift(refinement)
        # each original cell splits into thirds carrying the values 2, 1, 0
        for cid in fx.space.ids():
            kids = refinement.children_of(cid)
            assert len(kids) == 3
            assert sorted(g[k] for k in kids) == [0.0, 1.0, 2.0]
        chi1 = indicator(space2, space2.ids())
        for level in (2.0, 1.0):
            event = indicator(space2, [c for c in space2.ids() if g[c] == level])
            assert function_close(cond_exp(event, B1), (1.0 / 3.0) * chi1, 1e-12)
            assert function_close(cond_exp(event, C1), (1.0 / 3.0) * chi1, 1e-12)
        assert tuple_type_equal([g], [lift(fx.f, refinement)], C1)
        assert star_independent([g], B1, C1).independent

    def test_member_of_c_unchanged(self):
        fx = masked_dependence_example()
        refinement, (g,) = nonforking_extension([2.0 * fx.chi], fx.C, fx.B)
        assert refinement.child == fx.space
        assert function_close(g, 2.0 * fx.chi, 1e-12)

    def test_precondition(self):
        fx = masked_dependence_example()
        with pytest.raises(PreconditionFailed):
            nonforking_extension([fx.f], fx.B, fx.C)

    @pytest.mark.parametrize("seed", range(40))
    def test_postconditions(self, seed):
        inst = random_instance(seed, 6)
        C, B, _ = inst.chain
        fs = tuple(inst.functions[:2])
        refinement, gs = nonforking_extension(fs, C, B)
        C1, B1 = C.lift(refinement), B.lift(refinement)
        assert tuple_type_equal(gs, [lift(f, refinement) for f in fs], C1)
        assert star_independent(gs, B1, C1).independent


class TestStationarity:
    def test_equal_tuples(self):
        fx = masked_dependence_example()
        res = stationarity_check([fx.f], [fx.f], fx.C, fx.B)
        assert res.holds

    def test_two_realizations_agree_over_b(self):
        fx = masked_dependence_example()
        r1, gs1 = nonforking_extension([fx.f], fx.C, fx.B)
        C1, B1 = fx.C.lift(r1), fx.B.lift(r1)
        r2, gs2 = nonforking_extension(gs1, C1, B1)
        res = stationarity_check(
            [lift(g, r2) for g in gs1], list(gs2), C1.lift(r2), B1.lift(r2)
        )
        assert res.hypotheses_met
        assert res.holds

    def test_unmet_hypotheses_are_vacuous(self):
        fx = masked_dependence_example()
        g = step_function(fx.space, {"[0,1]": 7.0})
        res = stationarity_check([fx.f], [g], fx.C, fx.B)
        assert not res.hypotheses_met
        assert res.holds


class TestCanonicalBase:
    def test_member_of_a(self):
        fx = masked_dependence_example()
        member = 2.0 * fx.chi
        cb = canonical_base([member], fx.C)
        assert cb.equals(dcl(fx.space, [member]))

    def test_quarters_fixture(self):
        space = make_space([(f"q{i}", 0.25) for i in (1, 2, 3, 4)], 2.0)
        halves = Sublattice.make(
            space,
            [
                (("q1", "q2"), {"q1": 1.0, "q2": 1.0}),
                (("q3", "q4"), {"q3": 1.0, "q4": 1.0}),
            ],
        )
        f = indicator(space, ["q1"])
        cb = canonical_base([f], halves)
        assert cb.equals(dcl(space, [indicator(space, ["q1", "q2"])]))
        assert star_independent([f], halves, cb).independent

    def test_half_indicator_base_is_constants(self):
        fx = pairwise_independence_example()
        chi = indicator(fx.space, fx.space.ids())
        A = dcl(fx.space, [fx.a3, chi])
        cb = canonical_base([fx.a1], A)
        assert cb.equals(fx.C)

    @pytest.mark.parametrize("seed", range(40))
    def test_laws(self, seed):
        inst = random_instance(seed, 6)
        A = inst.chain[seed % 3]
        if A.dim == 0:
            A = inst.chain[2]
        f = inst.functions[0]
        cb = canonical_base([f], A)
        assert is_sublattice_of(cb, A)
        assert star_independent([f], A, cb).independent
        seen = []
        prof = slice_profile(f, A)
        for r in merged_midpoints(prof):
            s = slice_by_definition(f, A, r)
            if not any(function_close(s, t) for t in seen):
                seen.append(s)
        assert cb.equals(dcl(inst.space, seen))

    @pytest.mark.parametrize("seed", range(25))
    def test_tuple_laws(self, seed):
        inst = random_instance(seed, 6)
        A = inst.chain[seed % 3]
        if A.dim == 0:
            A = inst.chain[2]
        fs = list(inst.functions[:2])
        cb = canonical_base(fs, A)
        assert is_sublattice_of(cb, A)
        assert star_independent(fs, A, cb).independent

    @pytest.mark.parametrize("seed", range(300))
    def test_agrees_with_reference_fixpoint(self, seed):
        # the closed form reproduces the join-and-reslice fixpoint to the bit
        for size in (6, 12):
            inst = random_instance(seed, size)
            A = _nontrivial_sublattice(inst, seed)
            for arity in (1, 2, 3):
                fs = inst.functions[:arity]
                cb, ref = canonical_base(fs, A), reference_canonical_base(fs, A)
                assert cb.blocks == ref.blocks
                assert cb.profile == ref.profile

    def test_minimality_on_curated_instances(self):
        for space, A, fs in _curated_minimality_instances():
            cb = canonical_base(fs, A)
            assert cb.dim >= 1
            for drop in range(cb.dim):
                smaller = cb.subset([k for k in range(cb.dim) if k != drop])
                assert not star_independent(fs, A, smaller).independent


def _curated_minimality_instances():
    """Instances where every proper block subset of the base loses independence."""
    out = []
    for p in (1.0, 2.0):
        space = make_space([(f"q{i}", 0.25) for i in (1, 2, 3, 4)], p)
        halves = Sublattice.make(
            space,
            [
                (("q1", "q2"), {"q1": 1.0, "q2": 1.0}),
                (("q3", "q4"), {"q3": 1.0, "q4": 1.0}),
            ],
        )
        out.append((space, halves, [indicator(space, ["q1"])]))
        out.append((space, halves, [step_function(space, {"q1": 3.0, "q2": 1.0, "q3": 2.0})]))
        out.append(
            (
                space,
                halves,
                [
                    step_function(
                        space, {"q1": 3.0, "q2": 1.0, "q3": 2.0, "q4": -1.0}
                    )
                ],
            )
        )
    for p, w in ((1.0, (1.0, 1.0, 0.5, 0.5, 2.0, 1.0)), (2.0, (0.25, 0.75, 1.0, 1.0, 0.5, 0.5))):
        space = make_space([(f"c{i}", w[i]) for i in range(6)], p)
        A = Sublattice.make(
            space,
            [
                (("c0", "c1"), {"c0": 1.0, "c1": 1.0}),
                (("c2", "c3"), {"c2": 1.0, "c3": 1.0}),
                (("c4", "c5"), {"c4": 1.0, "c5": 1.0}),
            ],
        )
        f = step_function(
            space, {"c0": 4.0, "c1": 1.0, "c2": 3.0, "c3": -1.0, "c4": 2.0, "c5": 0.5}
        )
        out.append((space, A, [f]))
    # tuple instance: both coordinates load every base block
    space = make_space([(f"q{i}", 0.25) for i in (1, 2, 3, 4)], 2.0)
    halves = Sublattice.make(
        space,
        [
            (("q1", "q2"), {"q1": 1.0, "q2": 1.0}),
            (("q3", "q4"), {"q3": 1.0, "q4": 1.0}),
        ],
    )
    out.append(
        (
            space,
            halves,
            [indicator(space, ["q1"]), step_function(space, {"q3": 2.0})],
        )
    )
    space2 = make_space([("a", 1.0), ("b", 1.0), ("c", 2.0)], 1.0)
    A2 = Sublattice.make(
        space2,
        [(("a", "b"), {"a": 1.0, "b": 1.0}), (("c",), {"c": 1.0})],
    )
    out.append((space2, A2, [step_function(space2, {"a": 2.0, "c": 1.0})]))
    assert len(out) >= 10
    return out


class TestAxioms:
    @pytest.mark.parametrize("seed", range(50))
    def test_symmetry(self, seed):
        inst = random_instance(seed, 6)
        C = inst.chain[0]
        f0, f1 = inst.functions[0], inst.functions[1]
        assert (
            star_independent([f0], [f1], C).independent
            == star_independent([f1], [f0], C).independent
        )

    @pytest.mark.parametrize("seed", range(50))
    def test_transitivity(self, seed):
        inst = random_instance(seed, 6)
        C, B, D = inst.chain
        f = inst.functions[0]
        lhs = star_independent([f], D, C).independent
        rhs = (
            star_independent([f], B, C).independent
            and star_independent([f], D, B).independent
        )
        assert lhs == rhs

    @pytest.mark.parametrize("seed", range(50))
    def test_finite_character(self, seed):
        inst = random_instance(seed, 6, n_functions=4)
        C = inst.chain[0]
        gens = list(inst.functions[:3])
        if star_independent(gens, [inst.functions[3]], C).independent:
            for size in (1, 2):
                for subset in itertools.combinations(gens, size):
                    assert star_independent(
                        list(subset), [inst.functions[3]], C
                    ).independent

    @pytest.mark.parametrize("seed", range(40))
    def test_term_reduction(self, seed):
        inst = random_instance(seed, 5, n_functions=4)
        C = inst.chain[0]
        a_side = list(inst.functions[:2])
        b_side = list(inst.functions[2:4])
        full = star_independent(a_side, b_side, C).independent
        pairs_ok = all(
            star_independent([t], [s], C).independent
            for t in lattice_terms(a_side)
            for s in lattice_terms(b_side)
        )
        assert full == pairs_ok

    def test_non_triviality_fixture(self):
        fx = pairwise_independence_example()
        assert star_independent([fx.a1], [fx.a3], fx.C).independent
        assert star_independent([fx.a2], [fx.a3], fx.C).independent
        assert not star_independent([fx.a1, fx.a2], [fx.a3], fx.C).independent

    @pytest.mark.parametrize("seed", range(40))
    def test_good_intersection_consequence(self, seed):
        inst = random_instance(seed, 6)
        C = inst.chain[0]
        A = lattice_join(dcl(inst.space, [inst.functions[0]]), C)
        B = lattice_join(dcl(inst.space, [inst.functions[1]]), C)
        if star_independent(A, B, C).independent:
            assert (A.support & B.support) == C.support

    @pytest.mark.parametrize("seed", range(30))
    def test_p_invariance(self, seed):
        verdicts = set()
        for p in (1.0, 1.5, 2.0, 3.0):
            inst = random_instance(seed, 6, p=p)
            C, B, _ = inst.chain
            f0, f1 = inst.functions[0], inst.functions[1]
            verdicts.add(
                (
                    star_independent([f0], [f1], C).independent,
                    star_independent([f0], B, C).independent,
                )
            )
        assert len(verdicts) == 1

    @pytest.mark.parametrize("seed", range(25))
    def test_invariance_under_cell_permutation(self, seed):
        inst = random_instance(seed, 6)
        space = inst.space
        rng = random.Random(seed)
        perm = list(space.ids())
        rng.shuffle(perm)
        if any(space.weight(a) != space.weight(b) for a, b in zip(space.ids(), perm)):
            return  # only weight-preserving relabellings are automorphisms
        mapping = dict(zip(space.ids(), perm))
        relabeled = make_space([(mapping[c], space.weight(c)) for c in space.ids()], space.p)

        def push_fn(f):
            return step_function(relabeled, {mapping[c]: v for c, v in f.values.items()})

        def push_lat(lat):
            return Sublattice.make(
                relabeled,
                [
                    (
                        [mapping[c] for c in block],
                        {mapping[c]: lat.profile[c] for c in block},
                    )
                    for block in lat.blocks
                ],
            )

        C = inst.chain[0]
        f0, f1 = inst.functions[0], inst.functions[1]
        assert (
            star_independent([f0], [f1], C).independent
            == star_independent([push_fn(f0)], [push_fn(f1)], push_lat(C)).independent
        )

    @pytest.mark.parametrize("seed", range(25))
    def test_invariance_under_density_change(self, seed):
        inst = random_instance(seed, 6)
        rng = random.Random(seed)
        d = step_function(
            inst.space, {c: rng.choice((0.5, 1.0, 2.0)) for c in inst.space.ids()}
        )
        dc = density_change(inst.space, d)
        C = inst.chain[0]
        f0, f1 = inst.functions[0], inst.functions[1]
        assert (
            star_independent([f0], [f1], C).independent
            == star_independent(
                [dc.push(f0)], [dc.push(f1)], C.density_push(dc)
            ).independent
        )
