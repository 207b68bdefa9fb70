"""Verification suites: worked-example fixtures, exact identities, axiom
checks, and oracle agreements.

Each checker returns None on success or a human-readable failure detail.
`run_suites` runs them from the suite tables for the CLI, attaching to every
failure the one-line call that re-runs the failing check; a LatticeError
raised inside a checker is its suite's failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .core import (
    DEFAULT_TOL,
    Space,
    StepFunction,
    _Value,
    check_tol,
    density_change,
    function_close,
    indicator,
    lift,
    make_space,
    norm,
    step_function,
)
from .errors import LatticeError
from .independence import (
    slice_independent,
    star_independent,
    stationarity_check,
    nonforking_extension,
    canonical_base,
)
from .oracles import (
    RandomInstance,
    random_instance,
    slice_by_definition,
    coupling_upper_bounds,
    brute_dcl_closure,
)
from .sublattice import (
    Sublattice,
    band_decompose,
    cond_exp,
    contains,
    dcl,
    is_sublattice_of,
    lattice_join,
)
from .typespace import (
    conditional_slice,
    distance,
    maharam_select,
    merged_midpoints,
    realize_common,
    slice_profile,
    tuple_type_equal,
    type_datum,
)


# --- worked-example fixtures -------------------------------------------------------------

class MaskedDependenceFixture(_Value):
    """Three unit cells for [0,1], (1,2], (2,3]; f = 2*chi_[0,1] + chi_(2,3]."""

    space: Space
    f: StepFunction
    chi: StepFunction
    chi_top: StepFunction
    A: Sublattice
    B: Sublattice
    C: Sublattice

    def __init__(
        self,
        space: Space,
        f: StepFunction,
        chi: StepFunction,
        chi_top: StepFunction,
        A: Sublattice,
        B: Sublattice,
        C: Sublattice,
    ) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "chi_top", chi_top)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)


def masked_dependence_example(p: float = 2.0) -> MaskedDependenceFixture:
    space = make_space([("[0,1]", 1.0), ("(1,2]", 1.0), ("(2,3]", 1.0)], p)
    f = step_function(space, {"[0,1]": 2.0, "(2,3]": 1.0})
    chi = indicator(space, space.ids())
    chi_top = indicator(space, ["(2,3]"])
    A = dcl(space, [f])
    B = Sublattice.make(
        space,
        [
            (("[0,1]", "(1,2]"), {"[0,1]": 1.0, "(1,2]": 1.0}),
            (("(2,3]",), {"(2,3]": 1.0}),
        ],
    )
    C = dcl(space, [chi])
    return MaskedDependenceFixture(space, f, chi, chi_top, A, B, C)


class PairwiseIndependenceFixture(_Value):
    """Quarter cells of the unit interval with the classic pairwise-independent
    triple a1, a2, a3."""

    space: Space
    a1: StepFunction
    a2: StepFunction
    a3: StepFunction
    C: Sublattice

    def __init__(
        self,
        space: Space,
        a1: StepFunction,
        a2: StepFunction,
        a3: StepFunction,
        C: Sublattice,
    ) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "a3", a3)
        object.__setattr__(self, "C", C)


def pairwise_independence_example(p: float = 2.0) -> PairwiseIndependenceFixture:
    space = make_space([(f"q{i}", 0.25) for i in (1, 2, 3, 4)], p)
    a1 = indicator(space, ["q1", "q3"])
    a2 = indicator(space, ["q1", "q4"])
    a3 = indicator(space, ["q1", "q2"])
    C = dcl(space, [indicator(space, space.ids())])
    return PairwiseIndependenceFixture(space, a1, a2, a3, C)


# --- shared helpers -------------------------------------------------------------

def _nontrivial_sublattice(inst: RandomInstance, prefer: int) -> Sublattice:
    """A nontrivial chain member, cycling through the chain with `prefer`."""
    order = [inst.chain[(prefer + i) % 3] for i in range(3)]
    for lat in order:
        if lat.dim > 0:
            return lat
    return dcl(inst.space, [indicator(inst.space, inst.space.ids())])


# --- acceptance checkers --------------------------------------------------------

def check_masked_dependence_fixture(p: float, tol: float = 1e-12) -> Optional[str]:
    # default tol: a rounding bound, as the fixture is exact up to a division by 3
    fx = masked_dependence_example(p)
    for alpha in (1.0, -2.0, 0.5):
        want = alpha * fx.chi
        for lat, name in ((fx.B, "B"), (fx.C, "C")):
            got = cond_exp(alpha * fx.f, lat)
            if not function_close(got, want, tol):
                return f"E_{name}({alpha}*f) != {alpha}*chi at p={p}"
    if not function_close(cond_exp(fx.chi_top, fx.B), fx.chi_top, tol):
        return f"E_B(chi_(2,3]) != chi_(2,3] at p={p}"
    if not function_close(cond_exp(fx.chi_top, fx.C), (1.0 / 3.0) * fx.chi, tol):
        return f"E_C(chi_(2,3]) != chi/3 at p={p}"
    verdict = star_independent(fx.A, fx.B, fx.C, tol)
    if verdict.independent:
        return f"star_independent judged the masked-dependence fixture independent at p={p}"
    witness = verdict.witness
    if witness is None or not function_close(witness.element, fx.chi_top, tol):
        return f"witness is not chi_(2,3] at p={p}"
    if not function_close(witness.over_b, fx.chi_top, tol):
        return f"witness E_B is not chi_(2,3] at p={p}"
    if not function_close(witness.over_c, (1.0 / 3.0) * fx.chi, tol):
        return f"witness E_C is not chi/3 at p={p}"
    return None


def check_pairwise_independence_fixture(p: float, tol: float = DEFAULT_TOL) -> Optional[str]:
    fx = pairwise_independence_example(p)
    for aj, name in ((fx.a1, "a1"), (fx.a2, "a2")):
        if not star_independent([aj], [fx.a3], fx.C, tol).independent:
            return f"{name} not independent from a3 at p={p}"
    verdict = star_independent([fx.a1, fx.a2], [fx.a3], fx.C, tol)
    if verdict.independent:
        return f"pair a1,a2 judged independent from a3 at p={p}"
    want = fx.a1.meet(fx.a2)
    if verdict.witness is None or not function_close(verdict.witness.element, want, tol):
        return f"pair witness is not chi_q1 at p={p}"
    return None


def check_slice_integral_identities(seed: int, tol: float = DEFAULT_TOL) -> Optional[str]:
    inst = random_instance(seed, 8)
    C = _nontrivial_sublattice(inst, seed)
    for f in inst.functions:
        prof = slice_profile(f, C, tol)
        integral = C.member(prof.integral_coefficients())
        enorm = norm(cond_exp(f, C) - integral)
        if enorm > 1e-9:
            return f"seed {seed}: |E_C(f) - integral of slices| = {enorm}"
        f1, _ = band_decompose(f, C)
        p = inst.space.p
        band_pth = norm(f1) ** p
        slice_pth = sum(
            C.nu_block(k)
            * sum(length * abs(value) ** p for length, value in prof.per_block[k])
            for k in range(C.dim)
        )
        if abs(band_pth - slice_pth) > 1e-9 * (1.0 + norm(f) ** p):
            return f"seed {seed}: norm identity off by {abs(band_pth - slice_pth)}"
    return None


def check_slice_oracle(seed: int, tol: float = DEFAULT_TOL) -> Optional[str]:
    inst = random_instance(seed, 8)
    C = _nontrivial_sublattice(inst, seed)
    rng = random.Random(seed ^ 0x5EED)
    f = inst.functions[0]
    for _ in range(5):
        r = rng.uniform(0.05, 0.95)
        fast = conditional_slice(f, C, r, tol)
        slow = slice_by_definition(f, C, r)
        if not function_close(fast, slow, 1e-9):
            return f"seed {seed}: slice mismatch at r={r}"
    prof = slice_profile(f, C, tol)
    mids = merged_midpoints(prof)
    prev = None
    for r in mids:
        cur = prof.coefficients_at(r)
        if prev is not None and any(c > q + 1e-12 for c, q in zip(cur, prev)):
            return f"seed {seed}: slice coefficients increase in r"
        prev = cur
    fpos, fneg = f.pos(), f.neg()
    for r in mids:
        s = conditional_slice(f, C, r, tol)
        spos = conditional_slice(fpos, C, r, tol)
        sneg = conditional_slice(fneg, C, 1.0 - r, tol)
        if not function_close(s.pos(), spos, 1e-12):
            return f"seed {seed}: positive-part identity fails at r={r}"
        if not function_close(s.neg(), sneg, 1e-12):
            return f"seed {seed}: negative-part identity fails at r={r}"
        if norm(spos.meet(sneg)) > 1e-12:
            return f"seed {seed}: slice parts are not disjoint at r={r}"
    f1, _ = band_decompose(f, C)
    for r in mids[:2]:
        if not function_close(
            conditional_slice(f, C, r, tol), conditional_slice(f1, C, r, tol), 0.0
        ):
            return f"seed {seed}: slice depends on the orthogonal component"
    return None


def check_distance(seed: int, tol: float = DEFAULT_TOL) -> Optional[str]:
    inst = random_instance(seed, 6)
    C = _nontrivial_sublattice(inst, seed)
    t = [type_datum(f, C, tol) for f in inst.functions]
    d12 = distance(t[0], t[1], tol)
    if abs(d12 - coupling_upper_bounds(t[0], t[1], trials=0, tol=tol)) > 1e-9:
        return f"seed {seed}: distance differs from the transport oracle"
    if abs(d12 - distance(t[1], t[0], tol)) > 1e-12:
        return f"seed {seed}: distance is asymmetric"
    if distance(t[0], t[0], tol) > 1e-12:
        return f"seed {seed}: d(t,t) != 0"
    d13 = distance(t[0], t[2], tol)
    d23 = distance(t[1], t[2], tol)
    if d13 > d12 + d23 + 1e-9:
        return f"seed {seed}: triangle inequality fails"
    bound = coupling_upper_bounds(t[0], t[1], trials=8, seed=seed, tol=tol)
    if d12 > bound + 1e-9:
        return f"seed {seed}: distance exceeds a sampled coupling bound"
    if bound > d12 + 1e-9:
        return f"seed {seed}: sorted coupling does not attain the distance"
    f_common, g_common = realize_common(t[0], t[1], tol)
    if abs(norm(f_common - g_common) - d12) > 1e-9:
        return f"seed {seed}: common-refinement realization is not isometric"
    return None


def check_cond_exp_axioms(seed: int, tol: float = DEFAULT_TOL) -> Optional[str]:
    inst = random_instance(seed, 8)
    C = _nontrivial_sublattice(inst, seed)
    f, g = inst.functions[0], inst.functions[1]
    ef = cond_exp(f, C)
    if not function_close(cond_exp(ef, C), ef, 1e-9):
        return f"seed {seed}: E_C is not a projection"
    epos = cond_exp(abs(f), C)
    if any(v < -1e-9 for v in epos.values.values()):
        return f"seed {seed}: E_C is not positive"
    if norm(ef) > norm(f) + 1e-9:
        return f"seed {seed}: E_C is not contractive"
    lin = cond_exp(f + 2.5 * g, C)
    if not function_close(lin, ef + 2.5 * cond_exp(g, C), 1e-9):
        return f"seed {seed}: E_C is not linear"
    _, f2 = band_decompose(f, C)
    if norm(cond_exp(f2, C)) > 1e-9:
        return f"seed {seed}: E_C does not vanish on the orthogonal band"
    inst2 = random_instance(seed, 8, p=2.0)
    C2 = _nontrivial_sublattice(inst2, seed)
    h = inst2.functions[0]
    resid = h - cond_exp(h, C2)
    for e in C2.generators():
        inner = sum(
            inst2.space.weight(cid) * resid[cid] * e[cid] for cid in e.values
        )
        if abs(inner) > 1e-9:
            return f"seed {seed}: p=2 residual is not orthogonal to C"
    return None


def check_independence_axioms(seed: int, tol: float = DEFAULT_TOL) -> Optional[str]:
    inst = random_instance(seed, 6, n_functions=4)
    C, B, D = inst.chain
    f0, f1, f2, f3 = inst.functions

    va = star_independent([f0], [f1], C, tol)
    vb = star_independent([f1], [f0], C, tol)
    if va.independent != vb.independent:
        return f"seed {seed}: symmetry fails"

    lhs = star_independent([f0], D, C, tol).independent
    rhs = (
        star_independent([f0], B, C, tol).independent
        and star_independent([f0], D, B, tol).independent
    )
    if lhs != rhs:
        return f"seed {seed}: transitivity fails along the chain"

    if star_independent([f0, f1, f3], [f2], C, tol).independent:
        for subset in ([f0], [f1], [f3], [f0, f1], [f0, f3], [f1, f3]):
            if not star_independent(subset, [f2], C, tol).independent:
                return f"seed {seed}: finite character fails"

    fs = (f0, f1)
    r1, gs = nonforking_extension(fs, C, B, tol)
    C1, B1 = C.lift(r1), B.lift(r1)
    lifted = tuple(lift(f, r1) for f in fs)
    if not tuple_type_equal(gs, lifted, C1, tol):
        return f"seed {seed}: extension does not preserve the type"
    if not star_independent(gs, B1, C1, tol).independent:
        return f"seed {seed}: extension output is not independent"

    r2, gs2 = nonforking_extension(gs, C1, B1, tol)
    res = stationarity_check(
        tuple(lift(g, r2) for g in gs), gs2, C1.lift(r2), B1.lift(r2), tol
    )
    if not res.holds:
        return f"seed {seed}: stationarity fails"

    sv = slice_independent(f0, B, C, tol)
    st = star_independent([f0], B, C, tol)
    if sv.independent != st.independent:
        return f"seed {seed}: slice and star characterizations disagree"

    A2 = lattice_join(dcl(inst.space, [f0], tol), C, tol)
    B2 = lattice_join(dcl(inst.space, [f1], tol), C, tol)
    if star_independent(A2, B2, C, tol).independent:
        if (A2.support & B2.support) != C.support:
            return f"seed {seed}: good-intersection consequence fails"
    return None


def check_p_invariance(seed: int, tol: float = DEFAULT_TOL) -> Optional[str]:
    verdicts = []
    for p in (1.0, 1.5, 2.0, 3.0):
        inst = random_instance(seed, 6, p=p)
        C, B, _ = inst.chain
        f0, f1, _ = inst.functions
        verdicts.append(
            (
                star_independent([f0], [f1], C, tol).independent,
                star_independent([f0], B, C, tol).independent,
            )
        )
    if len(set(verdicts)) != 1:
        return f"seed {seed}: verdicts vary with p: {verdicts}"
    return None


def check_dcl_oracle(seed: int, tol: float = DEFAULT_TOL) -> Optional[str]:
    inst = random_instance(seed, 6)
    gens = list(inst.functions[:3])
    fast = dcl(inst.space, gens, tol)
    slow = brute_dcl_closure(inst.space, gens)
    if not fast.equals(slow, 1e-6):
        return f"seed {seed}: dcl disagrees with the closure oracle"
    return None


def check_canonical_base(seed: int, tol: float = DEFAULT_TOL) -> Optional[str]:
    inst = random_instance(seed, 6)
    A = _nontrivial_sublattice(inst, seed)
    f = inst.functions[0]
    cb = canonical_base([f], A, tol)
    if not is_sublattice_of(cb, A, tol):
        return f"seed {seed}: canonical base is not inside dcl(A)"
    if not star_independent([f], A, cb, tol).independent:
        return f"seed {seed}: f is not independent from A over its base"
    prof = slice_profile(f, A, tol)
    slices = [slice_by_definition(f, A, r) for r in merged_midpoints(prof)]
    if not cb.equals(dcl(inst.space, slices, tol), tol):
        return f"seed {seed}: n=1 base differs from the dcl of the slice values"
    pair = [inst.functions[0], inst.functions[1]]
    cb2 = canonical_base(pair, A, tol)
    if not is_sublattice_of(cb2, A, tol):
        return f"seed {seed}: tuple base is not inside dcl(A)"
    return None


def check_maharam(seed: int, tol: float = DEFAULT_TOL) -> Optional[str]:
    inst = random_instance(seed, 6)
    C = _nontrivial_sublattice(inst, seed)
    rng = random.Random(seed ^ 0xA11)
    cells = [cid for cid in inst.space.ids() if rng.random() < 0.7]
    frac = rng.choice((0.0, 0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.75, 1.0))
    # frac times each block coefficient of E_C(chi_cells), a member of C by
    # construction: frac * E_C(chi_cells) can round off C's profile, which
    # maharam_select rejects at tol 0
    coeffs = contains(C, cond_exp(indicator(inst.space, cells), C), tol)
    target = C.member([frac * coeffs[k] for k in range(len(C.blocks))])
    refinement, selected = maharam_select(cells, C, target, tol)
    got = cond_exp(indicator(refinement.child, selected), C.lift(refinement))
    if not function_close(got, lift(target, refinement), 1e-12):
        return f"seed {seed}: selection misses the target"
    children = {kid for cid in cells for kid in refinement.children_of(cid)}
    if not selected <= children:
        return f"seed {seed}: selection leaves the given cell set"
    return None


def check_density_invariance(seed: int, tol: float = DEFAULT_TOL) -> Optional[str]:
    inst = random_instance(seed, 6)
    C = _nontrivial_sublattice(inst, seed)
    rng = random.Random(seed ^ 0xDE45)
    d = step_function(
        inst.space, {cid: rng.choice((0.5, 1.0, 2.0, 4.0)) for cid in inst.space.ids()}
    )
    dc = density_change(inst.space, d)
    Cd = C.density_push(dc)
    f0, f1, _ = inst.functions
    v_before = star_independent([f0], [f1], C, tol).independent
    v_after = star_independent([dc.push(f0)], [dc.push(f1)], Cd, tol).independent
    if v_before != v_after:
        return f"seed {seed}: independence verdict changes under density change"
    if not function_close(dc.push(cond_exp(f0, C)), cond_exp(dc.push(f0), Cd), 1e-9):
        return f"seed {seed}: conditional expectation does not transport"
    r = random.Random(seed ^ 0x51).uniform(0.1, 0.9)
    if not function_close(
        dc.push(conditional_slice(f0, C, r, tol)),
        conditional_slice(dc.push(f0), Cd, r, tol),
        1e-9,
    ):
        return f"seed {seed}: slices do not transport"
    t1 = type_datum(f0, C, tol)
    t2 = type_datum(f1, C, tol)
    t1d = type_datum(dc.push(f0), Cd, tol)
    t2d = type_datum(dc.push(f1), Cd, tol)
    if abs(distance(t1, t2, tol) - distance(t1d, t2d, tol)) > 1e-9:
        return f"seed {seed}: type distance changes under density change"
    if norm(f0) > 0 and abs(norm(dc.push(f0)) - norm(f0)) > 1e-9 * max(1.0, norm(f0)):
        return f"seed {seed}: density change is not isometric"
    return None


# --- suite driver ---------------------------------------------------------------

# a dataclass, not a core._Value: perfbench/selftest.py copies one with
# dataclasses.replace, and `lplattice run` never imports this module
@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    replay: Optional[str]  # on failure, a command that re-runs the failing check


# the worked fixtures: suite name, checker name, the p values it is checked at
FIXTURES = (
    ("masked-dependence-fixture", "check_masked_dependence_fixture", (1.0, 2.0)),
    ("pairwise-independence-fixture", "check_pairwise_independence_fixture", (1.0, 1.5, 2.0, 3.0)),
)

# the seeded sweeps: suite name, checker name, seed offset (from seed * 1_000_000)
# and the divisor of `trials` that gives the instance count, at least 1
SWEEPS = (
    ("slice-integral-identities", "check_slice_integral_identities", 0, 1),
    ("slice-oracle", "check_slice_oracle", 10_000, 1),
    ("type-distance", "check_distance", 20_000, 1),
    ("cond-exp-axioms", "check_cond_exp_axioms", 30_000, 1),
    ("independence-axioms", "check_independence_axioms", 40_000, 1),
    ("p-invariance", "check_p_invariance", 50_000, 4),
    ("dcl-oracle", "check_dcl_oracle", 60_000, 1),
    ("canonical-bases", "check_canonical_base", 70_000, 1),
    ("maharam-selection", "check_maharam", 80_000, 1),
    ("density-invariance", "check_density_invariance", 90_000, 2),
)


def run_suites(
    seed: int = 0, trials: int = 60, tol: float = DEFAULT_TOL
) -> list[SuiteResult]:
    """Run every verification suite; trials bounds the per-suite instance count."""
    check_tol(tol)
    suites = [
        (name, checker, ps, "p in {" + ", ".join(f"{p:g}" for p in ps) + "}")
        for name, checker, ps in FIXTURES
    ]
    for name, checker, offset, share in SWEEPS:
        start = seed * 1_000_000 + offset
        seeds = range(start, start + max(1, trials // share))
        suites.append((name, checker, seeds, f"{len(seeds)} instances"))
    results = []
    for name, checker, args, summary in suites:
        result = SuiteResult(name, True, summary, None)
        for arg in args:
            try:
                # looked up per call, so that a wrapper installed on this module sees it
                detail = globals()[checker](arg, tol)
            except LatticeError as exc:
                detail = f"{arg!r}: {type(exc).__name__}: {exc}"
            if detail is not None:
                call = f"from lplattice.verify import {checker} as c; print(c({arg!r}, {tol!r}))"
                result = SuiteResult(name, False, detail, f"python3 -c '{call}'")
                break
        results.append(result)
    return results
