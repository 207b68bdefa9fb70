import itertools
import math
import random

import pytest

from conftest import (
    documented_cuts,
    lattice_terms,
    reference_canonical_base,
    reference_expectation_gaps,
    reference_merged_midpoints,
    reference_restricted_star_check,
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
    intersects_well,
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
from lplattice.independence import _expectation_gaps, _screened_gaps, _worst_block
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

    @pytest.mark.parametrize("one_shot", list(itertools.product([False, True], repeat=3)))
    def test_one_shot_sides_are_read_once(self, one_shot):
        # a generator side yields its functions once; finding the space must
        # not use up its first function (the A side was read as empty, and the
        # masked dependence judged independent)
        fx = masked_dependence_example()
        sides = ([fx.f], list(fx.B.generators()), [fx.chi])
        want = _outcome(star_independent, *sides)
        assert want[0] is False
        given = [(f for f in side) if shot else side for side, shot in zip(sides, one_shot)]
        assert _outcome(star_independent, *given) == want

    def test_b_that_is_a_shares_its_join(self, monkeypatch):
        # B given as A's very sublattice: B' is A', joined once
        import lplattice.independence as independence

        fx = masked_dependence_example()
        joins = []

        def counting(A, C, tol, original=independence.lattice_join):
            joins.append(A)
            return original(A, C, tol)

        monkeypatch.setattr(independence, "lattice_join", counting)
        for A, B in ((fx.A, fx.A), (fx.B, fx.B), (fx.A, fx.B)):
            want = _outcome(reference_star_independent, A, B, fx.C)
            joins.clear()
            assert _outcome(star_independent, A, B, fx.C) == want
            assert joins == ([A] if A is B else [A, B])


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


def _hex_gaps(gaps, A, B, C):
    """The gaps per block of A as float.hex, or the class and message raised."""
    try:
        return [gap.hex() for gap in gaps(A, B, C)]
    except Exception as exc:  # compared with the reference's exception
        return ["raised", type(exc), str(exc)]


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

    @pytest.mark.parametrize("seed", range(200))
    def test_gaps_match_reference_to_the_bit(self, seed):
        # (A', B', C) triples: the joins star_independent builds over a
        # chain member and over a dcl, and the chain members in every order
        inst = random_instance(seed, 12)
        C, B, D = inst.chain
        space = inst.space
        fs = list(inst.functions)
        Cbar = dcl(space, fs[2:])
        triples = [
            (lattice_join(dcl(space, fs[:1]), C), lattice_join(B, C), C),
            (lattice_join(dcl(space, fs[:2]), Cbar), lattice_join(D, Cbar), Cbar),
            (lattice_join(_nontrivial_sublattice(inst, seed), C), D, C),
            *itertools.permutations((C, B, D)),
        ]
        for A, Bp, Cp in triples:
            got = _hex_gaps(_expectation_gaps, A, Bp, Cp)
            assert got == _hex_gaps(reference_expectation_gaps, A, Bp, Cp)
            if got[:1] != ["raised"]:
                assert got == [norm(cond_exp(e, Bp) - cond_exp(e, Cp)).hex() for e in A.generators()]

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


def _grid(seed, rows, cols, p, weights=(0.1, 3.0)):
    """A rows x cols grid of cells with weights a_i * b_j drawn uniform in
    `weights`, f depending on the row and g on the column, and C one block of
    profile 1: f and g are independent over C, so every true gap is 0."""
    rng = random.Random(seed)
    a = [rng.uniform(*weights) for _ in range(rows)]
    b = [rng.uniform(*weights) for _ in range(cols)]
    ids = [[f"r{i}c{j}" for j in range(cols)] for i in range(rows)]
    space = make_space([(ids[i][j], a[i] * b[j]) for i in range(rows) for j in range(cols)], p)
    fv = [rng.uniform(0.5, 3.0) for _ in range(rows)]
    gv = [rng.uniform(0.5, 3.0) for _ in range(cols)]
    f = step_function(space, {ids[i][j]: fv[i] for i in range(rows) for j in range(cols)})
    g = step_function(space, {ids[i][j]: gv[j] for i in range(rows) for j in range(cols)})
    C = Sublattice.make(space, [(space.ids(), dict.fromkeys(space.ids(), 1.0))])
    return space, f, g, C


def _counting_gaps(monkeypatch):
    """The blocks the exact `_gap` runs on, counted."""
    import lplattice.independence as independence

    calls = []

    def counting(*args, original=independence._gap):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(independence, "_gap", counting)
    return calls


class TestScreenedGaps:
    """The screened gap kernel decides the verdict, the witness block and its
    gap exactly as the exact loop over every block does."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_grid_cancellation_family(self, monkeypatch, p):
        # the rows cover C's one block: the uncovered mass is 0 by the count,
        # never nu_C(K) - sum nu_C(L), whose rounding the p-th root magnifies
        calls = _counting_gaps(monkeypatch)
        for seed in range(200):
            space, f, g, C = _grid(seed, 6, 7, p)
            assert _outcome(star_independent, [f], [g], C) == (True, None)
            assert _outcome(reference_star_independent, [f], [g], C) == (True, None)
        assert calls == []

    def test_independent_grid_runs_no_exact_gap(self, monkeypatch):
        space, f, g, C = _grid(1, 64, 64, 3.0)
        assert len(space.cells) == 4096
        calls = _counting_gaps(monkeypatch)
        assert star_independent([f], [g], C).independent
        assert calls == []

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_gap_at_tol_and_one_ulp_either_side(self, p):
        # perturbing one weight by s makes a gap of about s; tol is then put
        # at the block's exact gap and one ulp either side of it
        for s in (1e-9, 3e-7, 0.25):
            space, f, g, C = _grid(4, 3, 4, p, weights=(1.0, 1.0))
            cells = [(cid, w * (1.0 + s) if cid == "r0c0" else w) for cid, w in space.cells]
            space = make_space(cells, p)
            f, g = step_function(space, f.values), step_function(space, g.values)
            C = Sublattice.make(space, [(space.ids(), dict.fromkeys(space.ids(), 1.0))])
            A, B = lattice_join(dcl(space, [f]), C), lattice_join(dcl(space, [g]), C)
            top = max(_expectation_gaps(A, B, C))
            assert top > 0.0
            below, above = math.nextafter(top, 0.0), math.nextafter(top, math.inf)
            for tol in (below, top, above):
                want = _outcome(reference_star_independent, A, B, C, tol)
                assert _outcome(star_independent, A, B, C, tol) == want
                assert want[0] is (tol >= top)

    @pytest.mark.parametrize("seed", range(40))
    def test_profiles_proportional_to_c_within_tol(self, seed):
        # the profiles of B and C differ by up to tol/2 relative, so the join
        # keeps B's columns, on B's profile (it peaks first): w_C / w_B'
        # spreads inside a block of B'
        rng = random.Random(seed)
        p = rng.choice([1.0, 1.5, 2.0, 3.0])
        space, f, g, _ = _grid(seed, 4, 5, p)
        tol = 1e-9

        def near_one(cells):
            return {cid: 1.0 - (k > 0) * rng.uniform(0.0, tol / 2) for k, cid in enumerate(cells)}

        C = Sublattice.make(space, [(space.ids(), near_one(space.ids()))])
        columns = [[cid for cid in space.ids() if cid.endswith(f"c{j}")] for j in range(5)]
        B = Sublattice.make(space, [(cells, near_one(cells)) for cells in columns])
        Bp = lattice_join(B, C, tol)
        assert Bp.blocks == B.blocks
        ratios = [[C.profile[cid] / Bp.profile[cid] for cid in L] for L in Bp.blocks]
        assert max(max(r) - min(r) for r in ratios) > 0.0
        h = step_function(space, {cid: rng.choice([0.5, 1.0, 2.0]) for cid in space.ids()})
        for A in ([f], [h], [f, g]):
            assert _outcome(star_independent, A, B, C, tol) == _outcome(
                reference_star_independent, A, B, C, tol
            )

    def test_many_way_tie_goes_to_earliest_block(self, monkeypatch):
        # nine columns of one non-dyadic weight: nine gaps equal in real
        # arithmetic, all recomputed; the witness is the first of the largest
        # float gaps, as in the exact loop
        space, f, g, C = _grid(2, 5, 9, 3.0, weights=(0.3, 0.3))
        calls = _counting_gaps(monkeypatch)
        got = _outcome(star_independent, [g], [g], C)
        assert len(calls) == 9
        assert got[0] is False
        assert got == _outcome(reference_star_independent, [g], [g], C)

    def test_screen_needs_both_sides_to_contain_c(self):
        # star_independent's joins always contain C block by block; given
        # lattices that do not, the screen declines and the exact loop runs
        space = make_space([(cid, 1.0) for cid in "abcd"], 2.0)
        ones = dict.fromkeys("abcd", 1.0)
        C = Sublattice.make(space, [("ab", ones), ("cd", ones)])
        whole = Sublattice.make(space, [("abcd", ones)])
        part = Sublattice.make(space, [("a", ones), ("b", ones), ("c", ones)])
        assert _screened_gaps(C, C, C) is not None
        for A, B in ((C, whole), (whole, C), (C, part)):
            assert _screened_gaps(A, B, C) is None
            gaps = list(_expectation_gaps(A, B, C))
            top = max(gaps)
            assert _worst_block(A, B, C, 1e-9) == ((gaps.index(top), top) if top > 1e-9 else None)

    def test_p3_overflow_falls_back_to_the_exact_loop(self):
        # |c_K|**3 overflows in the kernel (c_K is about 1e110); the exact
        # loop's norm rescales it and finds a finite witness gap
        space = make_space([("x", 1e250), ("y", 1e-100)], 3.0)
        C = Sublattice.make(space, [(("x", "y"), {"x": 1e-110, "y": 1.0})])
        f = step_function(space, {"x": 1.0, "y": 2.0})
        A = lattice_join(dcl(space, [f]), C)
        with pytest.raises(OverflowError):
            _screened_gaps(A, A, C)
        got = _outcome(star_independent, [f], [f], C)
        assert got[0] is False and math.isfinite(got[1][2])
        assert got == _outcome(reference_star_independent, [f], [f], C)


def _checked(check, *args):
    """A boolean check's answer, or the class and message it raised."""
    try:
        return check(*args)
    except Exception as exc:  # compared with the reference's exception
        return ("raised", type(exc), str(exc))


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

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference(self, seed):
        # A joined with C or not (dcl(f) need not contain C), B over C in the
        # chain or C itself: the verdict, or the precondition that fails, is
        # the exact loop's; over the 40 seeds both verdicts occur
        inst = random_instance(seed, 6)
        C, B, D = inst.chain
        space, fs = inst.space, list(inst.functions)
        sides_a = [
            lattice_join(dcl(space, fs[:1]), C),
            dcl(space, fs[:1]),
            dcl(space, fs[:2]),
            _nontrivial_sublattice(inst, seed),
            *inst.chain,
        ]
        verdicts = []
        for tol in (0.0, 1e-12, 1e-9, 1e-6, 1e-3):
            for A in sides_a:
                for Bx in (C, B, D):
                    got = _checked(restricted_star_check, A, Bx, C, tol)
                    assert got == _checked(reference_restricted_star_check, A, Bx, C, tol)
                    verdicts.append(got)
        assert True in verdicts

    def test_b_block_straddling_c_blocks_within_tol(self, monkeypatch):
        # B's block {a, b} meets C's blocks {a} and {b, c}, which still lie in
        # B within tol (b carries 1e-10 in both); the screen declines and the
        # exact loop runs on every block of A
        space = make_space([(cid, 1.0) for cid in "abc"], 2.0)
        C = Sublattice.make(space, [("a", {"a": 1.0}), ("bc", {"b": 1e-10, "c": 1.0})])
        B = Sublattice.make(space, [("ab", {"a": 1.0, "b": 1e-10}), ("c", {"c": 1.0})])
        assert is_sublattice_of(C, B, 1e-9) and not is_sublattice_of(C, B, 1e-11)
        assert _screened_gaps(C, B, C) is None
        for tol in (1e-9, 1e-11, 1e-30):
            assert _checked(restricted_star_check, C, B, C, tol) == _checked(
                reference_restricted_star_check, C, B, C, tol
            )
        calls = _counting_gaps(monkeypatch)
        assert restricted_star_check(C, B, C, 1e-9)
        assert len(calls) == len(C.blocks)

    def test_independent_grid_runs_no_exact_gap(self, monkeypatch):
        # C has two blocks of rows; A, the first three rows, does not contain
        # C, but each of its blocks lies in C's first block, and B (the
        # columns cut by C) contains C
        space, f, g, _ = _grid(3, 6, 7, 3.0)
        ids = space.ids()
        ones = dict.fromkeys(ids, 1.0)
        C = Sublattice.make(space, [(ids[:21], ones), (ids[21:], ones)])
        A = Sublattice.make(space, [(ids[i : i + 7], ones) for i in (0, 7, 14)])
        B = lattice_join(dcl(space, [g]), C)
        assert len(B.blocks) == 14 and not is_sublattice_of(C, A)
        calls = _counting_gaps(monkeypatch)
        assert restricted_star_check(A, B, C)
        assert calls == []
        assert reference_restricted_star_check(A, B, C)

    def test_overflow_in_a_later_block_raises(self):
        # A's first block {a, b} fails (E_B and E_C of its indicator differ);
        # on its block {y}, E_B(chi_y) = inf on x, as B's profile on y is
        # 1e-310, while C's is 1e-10, which lies in B within tol.  The exact
        # loop stopped at the first failing block and returned False; every
        # block is screened now, and the overflow raises NonFiniteValue.
        # star_independent joins B with C, which splits {x, y}: its B' has
        # no such profile, and it finds {a, b} dependent
        space = make_space(
            [("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0), ("x", 1e-300), ("y", 1e300)], 1.0
        )
        ones = dict.fromkeys("abcdxy", 1.0)
        C = Sublattice.make(space, [("abcd", ones), ("xy", {"x": 1.0, "y": 1e-10})])
        A = Sublattice.make(space, [("ab", ones), ("cd", ones), ("x", ones), ("y", ones)])
        B = Sublattice.make(space, [("ab", ones), ("cd", ones), ("xy", {"x": 1.0, "y": 1e-310})])
        assert is_sublattice_of(C, B) and intersects_well(A, C)
        assert reference_restricted_star_check(A, B, C) is False
        message = "value on cell 'x' is not finite: inf"
        with pytest.raises(NonFiniteValue, match=f"^{message}$"):
            restricted_star_check(A, B, C)
        assert lattice_join(B, C).blocks == A.blocks
        verdict = star_independent(A, B, C)
        assert not verdict.independent and verdict.witness.element.values == {"a": 1.0, "b": 1.0}


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
