"""Seeded scenario generators, the request each workload sends, and the
planted-answer checks.

Every generator fixes its answers by construction: the check of a request
reads the report (or the suite results) and compares it with what the
generator planted, using its own arithmetic on the document.  No check calls
into lplattice.  Stdlib only; lplattice is imported by the caller.

Request i of a run takes its shape from point i of a low-discrepancy sequence
in [0,1)^6 (Roberts' R_d) and its content from
random.Random("<workload>:<seed>:<i>"), so one seed always gives the same
inputs.  Coordinate 0 sets the cell count, log-uniform over the workload's
range; the others make the request's discrete choices (command mix, block
granularity, indicator or general profiles, shared or rebuilt sublattices).
The shapes are the same for every seed and every prefix of the stream covers
the sizes, the choices and each pair of them evenly; so runs that complete
different numbers of requests, or use different seeds, see the same mix, and
the seed varies only which cells, weights and values each request gets.
"""

from __future__ import annotations

import random

WEIGHT_POOL = (0.25, 0.5, 1.0, 2.0)
PROFILE_POOL = (0.5, 1.0, 2.0)
P_POOL = (1.0, 1.5, 2.0, 3.0)
# dyadic values keep every planted identity exact up to rounding of sums
VALUE_POOL = tuple(k / 8 for k in range(-24, 25) if k)
SMALL_POOL = (-1.0, 1.0, 2.0)
VECTOR_POOL = tuple(k / 4 for k in range(-12, 13))
FRACTION_POOL = tuple(k / 16 for k in range(1, 16))

# cell-count range per workload; verify instances are sized by run_suites
SIZES = {
    "compose": (32, 256),
    "slices": (1000, 6000),
    "refine": (64, 512),
}
VERIFY_TRIALS = 5
WORKLOADS = ("compose", "slices", "refine", "verify")
REL_TOL = 1e-7
DIMS = 6


def _rd_alphas(d: int) -> tuple[float, ...]:
    # R_d steps: powers of 1/g, where g > 1 solves g^(d+1) = g + 1
    g = 2.0
    for _ in range(64):
        g -= (g ** (d + 1) - g - 1.0) / ((d + 1) * g ** d - 1.0)
    return tuple(g ** -(j + 1) for j in range(d))


_ALPHAS = _rd_alphas(DIMS)


def design_point(index: int) -> tuple[float, ...]:
    return tuple((0.5 + index * a) % 1.0 for a in _ALPHAS)


def request_cells(workload: str, index: int) -> int:
    """Cell count of request `index`; 0 for verify, which has no size knob."""
    if workload not in SIZES:
        return 0
    lo, hi = SIZES[workload]
    return int(round(lo * (hi / lo) ** design_point(index)[0]))


def make_request(workload: str, seed: int, index: int) -> tuple[dict, dict]:
    """The request document and the answers planted in it."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "verify":
        return {"seed": seed * 100_000 + index, "trials": VERIFY_TRIALS}, {}
    n = request_cells(workload, index)
    return _GENERATORS[workload](rng, n, design_point(index))


# --- shared pieces ------------------------------------------------------------

def _space(rng: random.Random, n: int) -> tuple[dict, dict[str, float], float]:
    p = rng.choice(P_POOL)
    mu = {f"c{i}": rng.choice(WEIGHT_POOL) for i in range(n)}
    doc = {"p": p, "cells": [{"id": c, "weight": w} for c, w in mu.items()]}
    return doc, mu, p


def _partition(rng: random.Random, cells: list[str], indicator: bool, fine: bool) -> list[tuple[list[str], dict]]:
    """Random blocks over `cells`, n/3 of them when fine, else n/10, with a
    positive profile (all ones when indicator)."""
    k = max(1, len(cells) // (3 if fine else 10))
    groups: dict[int, list[str]] = {}
    for c in cells:
        groups.setdefault(rng.randrange(k), []).append(c)
    return [
        (members, {c: 1.0 if indicator else rng.choice(PROFILE_POOL) for c in members})
        for members in groups.values()
    ]


def _blocks_doc(blocks: list[tuple[list[str], dict]]) -> dict:
    return {"blocks": [{"cells": cells, "profile": prof} for cells, prof in blocks]}


def _random_function(rng: random.Random, cells, density: float = 0.7, pool=VALUE_POOL) -> dict:
    return {c: rng.choice(pool) for c in cells if rng.random() < density}


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(scale), abs(a), abs(b))


def _blocks_from_doc(sdoc: dict) -> list[tuple[list[str], dict]]:
    """Blocks with the profile scaled to peak 1, as lplattice stores them."""
    out = []
    for b in sdoc["blocks"]:
        top = max(b["profile"].values())
        out.append((b["cells"], {c: v / top for c, v in b["profile"].items()}))
    return out


def _nu_mass(cells, f: dict, mu: dict, w: dict, p: float) -> tuple[float, float]:
    """(sum of mu*w^(p-1)*f, sum of mu*w^p) over the cells: the nu-mass of f/w
    and the nu-mass of the block."""
    num = sum(mu[c] * w[c] ** (p - 1.0) * f.get(c, 0.0) for c in cells)
    den = sum(mu[c] * w[c] ** p for c in cells)
    return num, den


def _member_coeff(g: dict, cells, w: dict) -> float | None:
    """The coefficient a with g = a*w on the cells, or None if there is none."""
    ratios = [g.get(c, 0.0) / w[c] for c in cells]
    a = ratios[0]
    if all(_close(r, a) for r in ratios):
        return a
    return None


def _check_member(g: dict, blocks, where: str) -> str | None:
    """g is a member of the block-form sublattice: a multiple of the profile on
    every block and zero off the support."""
    support = set()
    for cells, w in blocks:
        support.update(cells)
        if _member_coeff(g, cells, w) is None:
            return f"{where}: not a multiple of the profile on block {cells[:3]}"
    stray = [c for c, v in g.items() if c not in support and not _close(v, 0.0)]
    if stray:
        return f"{where}: nonzero off the support at {stray[0]}"
    return None


def _check_condexp(result: dict, f: dict, blocks, mu, p, where: str) -> str | None:
    """E(f|C) is a member of C with the nu-mass of f/w on every block."""
    e = result["values"]
    bad = _check_member(e, blocks, where)
    if bad:
        return bad
    for cells, w in blocks:
        want, _ = _nu_mass(cells, f, mu, w, p)
        got, _ = _nu_mass(cells, e, mu, w, p)
        if not _close(got, want, sum(mu[c] * abs(f.get(c, 0.0)) for c in cells)):
            return f"{where}: block nu-mass {got!r} != {want!r}"
    return None


# --- compose: lattice composition via dcl -------------------------------------

def _compose(rng: random.Random, n: int, u: tuple[float, ...]) -> tuple[dict, dict]:
    space, mu, p = _space(rng, n)
    cells = list(mu)
    indicator = u[5] < 0.5
    # the last cell never lies in C, so a function nonzero there is no member
    support = [c for c in cells[:-1] if rng.random() < 0.9] or cells[:1]
    blocks = _partition(rng, support, indicator, u[2] < 0.5)
    # C is handed over as generators; cells of one planted block get vectors
    # w * v_k, and no two blocks share a direction, so dcl(C) recovers the blocks
    width = rng.choice((2, 3))
    directions: set[tuple[float, ...]] = set()
    vectors = []
    while len(vectors) < len(blocks):
        v = tuple(rng.choice(VECTOR_POOL) for _ in range(width))
        top = max(abs(x) for x in v)
        if top and tuple(x / top for x in v) not in directions:
            directions.add(tuple(x / top for x in v))
            vectors.append(v)
    functions: dict[str, dict] = {f"gen{j}": {} for j in range(width)}
    block_of: dict[str, int] = {}
    w_of: dict[str, float] = {}
    for k, ((members, prof), v) in enumerate(zip(blocks, vectors)):
        for c in members:
            block_of[c] = k
            w_of[c] = prof[c]
            for j in range(width):
                if v[j]:
                    functions[f"gen{j}"][c] = prof[c] * v[j]
    gen_names = list(functions)
    # the commands either share the parsed C or rebuild dcl(C) from its generators
    c_side = "C" if u[4] < 0.5 else gen_names
    # half the requests plant an independent pair (f is a member of C), half a
    # dependent pair (a = b = [h] with h outside C)
    independent = u[1] < 0.5
    if independent:
        coeffs = [rng.choice((0.0,) + VALUE_POOL) for _ in blocks]
        coeffs[0] = coeffs[0] or 1.0
        functions["f"] = {c: coeffs[block_of[c]] * w_of[c] for c in support if coeffs[block_of[c]]}
        functions["g"] = _random_function(rng, cells)
        indep = {"op": "indep", "a": ["f"], "b": ["g"], "c": c_side}
    else:
        h = _random_function(rng, cells)
        if not any(c not in block_of for c in h) and all(
            _member_coeff(h, members, w) is not None for members, w in blocks
        ):
            h[cells[-1]] = 1.0
        functions["h"] = h
        indep = {"op": "indep", "a": ["h"], "b": ["h"], "c": c_side}
    # the canonical base of one function, or in a quarter of the requests of a
    # pair (join-and-reslice rounds); few distinct values keep the slices few
    base_of = ["s"] if u[3] < 0.75 else ["s", "s2"]
    for name in base_of:
        functions[name] = _random_function(rng, cells, 0.4, SMALL_POOL)
    doc = {
        "space": space,
        "functions": {name: {"values": vals} for name, vals in functions.items()},
        "sublattices": {"C": {"generators": gen_names}},
        "commands": [indep, {"op": "cb", "fs": base_of, "a": "C"}],
    }
    planted = {
        "independent": independent,
        "block_of": block_of,
        "w": w_of,
        "sizes": [len(m) for m, _ in blocks],
    }
    return doc, planted


def _check_compose(doc: dict, planted: dict, report: dict) -> str | None:
    indep, cb = report["results"]
    if indep["result"]["independent"] is not planted["independent"]:
        return f"indep: planted independent={planted['independent']}, got {indep['result']['independent']}"
    # the canonical base over C is a sublattice of C: each block is a union of
    # whole planted C-blocks, carrying a multiple of C's profile on each
    block_of, w, sizes = planted["block_of"], planted["w"], planted["sizes"]
    for blk in cb["result"]["blocks"]:
        groups: dict[int, list[str]] = {}
        for c in blk["cells"]:
            if c not in block_of:
                return f"cb: cell {c} lies outside C"
            groups.setdefault(block_of[c], []).append(c)
        for k, members in groups.items():
            if len(members) != sizes[k]:
                return f"cb: block cuts planted C-block {k}"
            if _member_coeff(blk["profile"], members, w) is None:
                return f"cb: profile is not a multiple of C's on block {k}"
    return None


# --- slices: the linear read path ---------------------------------------------

def _swap_equal_cells(rng: random.Random, fs: list[dict], groups) -> list[dict]:
    """Swap the values of the tuple between cells with equal nu-weight; the
    joint law over C, and so the type, stays the same."""
    out = [dict(f) for f in fs]
    for members in groups:
        shuffled = list(members)
        rng.shuffle(shuffled)
        for src, dst in zip(members, shuffled):
            for f, g in zip(fs, out):
                if src in f:
                    g[dst] = f[src]
                else:
                    g.pop(dst, None)
    return out


def _slices(rng: random.Random, n: int, u: tuple[float, ...]) -> tuple[dict, dict]:
    space, mu, p = _space(rng, n)
    cells = list(mu)
    indicator = u[5] < 0.5
    fine = u[2] < 0.5
    lattices = {
        "C": _partition(rng, [c for c in cells if rng.random() < 0.9] or cells[:1], indicator, fine),
        "B": _partition(rng, [c for c in cells if rng.random() < 0.9] or cells[:1], not indicator, not fine),
    }
    f = _random_function(rng, cells, 0.5)
    g = _random_function(rng, cells, 0.4)
    functions = {"f": f, "g": g}
    # the commands share C, or alternate between C and B
    names = "CC" if u[4] < 0.5 else "CB"
    r = rng.choice(FRACTION_POOL) + rng.random() / 64.0
    commands = [
        {"op": "condexp", "f": "f", "c": names[0]},
        {"op": "slice", "f": "f", "c": names[1], "r": r},
    ]
    # one of three reads per request
    kind = int(u[1] * 3)
    planted: dict = {}
    if kind == 0:
        commands.append({"op": "profile", "f": "g", "c": names[0]})
    elif kind == 1:
        # dist(f, g) is at least the gap of the blocks' nu-averages of f/w and
        # g/w; make that floor clearly positive
        blocks = lattices[names[0]]
        support = [c for members, _ in blocks for c in members]
        k = 0
        while _dist_floor(blocks, f, g, mu, p) < 1e-3:
            c = support[k % len(support)]
            g[c] = g.get(c, 0.0) + 1.0
            k += 1
        planted["dist_floor"] = _dist_floor(blocks, f, g, mu, p)
        commands += [
            {"op": "dist", "f": a, "g": b, "c": names[0]}
            for a, b in (("f", "f"), ("f", "g"), ("g", "f"))
        ]
    else:
        # permute (f, g) within cells of equal (mu, w) in each block, and within
        # cells of equal mu off the support: the type over the lattice stays
        blocks = lattices[names[0]]
        inside = {c for members, _ in blocks for c in members}
        groups: dict[tuple, list[str]] = {}
        for k, (members, prof) in enumerate(blocks):
            for c in members:
                groups.setdefault((k, mu[c], prof[c]), []).append(c)
        for c in cells:
            if c not in inside:
                groups.setdefault((-1, mu[c]), []).append(c)
        functions["f2"], functions["g2"] = _swap_equal_cells(rng, [f, g], groups.values())
        # in half the requests change g2 on one cell: part of the joint law of
        # (f2, g2) moves to another point, so the types differ
        planted["typeeq"] = u[3] < 0.5
        if not planted["typeeq"]:
            g2 = functions["g2"]
            c = next(iter(g2), cells[0])
            g2[c] = 2.0 * g2[c] if c in g2 else 1.0
        commands.append({"op": "typeeq", "fs": ["f", "g"], "gs": ["f2", "g2"], "c": names[0]})
    doc = {
        "space": space,
        "functions": {name: {"values": v} for name, v in functions.items()},
        "sublattices": {name: _blocks_doc(lattices[name]) for name in sorted(set(names))},
        "commands": commands,
    }
    return doc, planted


def _dist_floor(blocks, f: dict, g: dict, mu, p: float) -> float:
    """A lower bound on dist(f, g) over the blocks: on each block the
    profiles' r-integrals are the nu-averages of f/w and g/w, and the p-th
    power gap of the profiles is at least the p-th power of the averages'
    gap (Jensen).  Orthogonal parts only add to the distance."""
    total = 0.0
    for cells, w in blocks:
        num_f, den = _nu_mass(cells, f, mu, w, p)
        num_g, _ = _nu_mass(cells, g, mu, w, p)
        total += den * abs(num_f - num_g) ** p / den ** p
    return total ** (1.0 / p)


def _slice_coeff(cells, f: dict, mu, w, p, r: float) -> float:
    """Right-continuous decreasing rearrangement of f/w under nu, at r."""
    acc: dict[float, float] = {}
    for c in cells:
        v = f.get(c, 0.0) / w[c]
        acc[v] = acc.get(v, 0.0) + mu[c] * w[c] ** p
    total = sum(acc.values())
    cum = 0.0
    for v in sorted(acc, reverse=True):
        cum += acc[v] / total
        if cum > r:
            return v
    return min(acc)


def _check_slices(doc: dict, planted: dict, report: dict) -> str | None:
    mu = {c["id"]: c["weight"] for c in doc["space"]["cells"]}
    p = doc["space"]["p"]
    fn = {name: d["values"] for name, d in doc["functions"].items()}
    lats = {name: _blocks_from_doc(s) for name, s in doc["sublattices"].items()}
    dists = {}
    for cmd in report["results"]:
        op, res, blocks = cmd["op"], cmd["result"], lats[cmd["c"]]
        if op == "condexp":
            bad = _check_condexp(res, fn[cmd["f"]], blocks, mu, p, "condexp")
        elif op == "slice":
            bad = _check_member(res["values"], blocks, "slice")
            for cells, w in blocks:
                if bad:
                    break
                want = _slice_coeff(cells, fn[cmd["f"]], mu, w, p, cmd["r"])
                got = res["values"].get(cells[0], 0.0) / w[cells[0]]
                if not _close(got, want):
                    bad = f"slice: coefficient {got!r} != {want!r} on block {cells[:3]}"
        elif op == "profile":
            bad = _check_profile(res, fn[cmd["f"]], blocks, mu, p)
        elif op == "dist":
            dists[cmd["f"], cmd["g"]] = res
            bad = None if res >= 0.0 else f"dist {res!r} < 0"
        elif res is not planted["typeeq"]:
            bad = f"typeeq: planted {planted['typeeq']}, got {res!r}"
        if bad:
            return bad
    if dists:
        floor = planted["dist_floor"]
        for pair in (("f", "g"), ("g", "f")):
            if dists[pair] < floor * (1.0 - REL_TOL):
                return f"dist{pair} = {dists[pair]!r} below the planted floor {floor!r}"
        scale = max(1.0, dists["f", "g"])
        if not _close(dists["f", "f"], 0.0, scale):
            return f"dist(f, f) = {dists['f', 'f']!r}"
        if not _close(dists["f", "g"], dists["g", "f"], scale):
            return f"dist not symmetric: {dists['f', 'g']!r} vs {dists['g', 'f']!r}"
    return None


def _check_profile(res: dict, f: dict, blocks, mu, p) -> str | None:
    """Segment lengths sum to 1 and the r-integral of a block's profile is the
    nu-average of f/w (the slice integral identity)."""
    by_cell = {cells[0]: (cells, w) for cells, w in blocks}
    for blk in res["blocks"]:
        cells, w = next(by_cell[c] for c in blk["cells"] if c in by_cell)
        if sorted(cells) != sorted(blk["cells"]):
            return "profile: block cells differ from the document's"
        segs = blk["segments"]
        if not _close(sum(sg["length"] for sg in segs), 1.0):
            return "profile: segment lengths do not sum to 1"
        num, den = _nu_mass(cells, f, mu, w, p)
        got = sum(sg["length"] * sg["value"] for sg in segs)
        if not _close(got, num / den, max(abs(sg["value"]) for sg in segs)):
            return f"profile: integral {got!r} != {num / den!r}"
    return None


# --- refine: the writes -------------------------------------------------------

def _refine(rng: random.Random, n: int, u: tuple[float, ...]) -> tuple[dict, dict]:
    space, mu, p = _space(rng, n)
    cells = list(mu)
    indicator = u[5] < 0.5
    support = [c for c in cells if rng.random() < 0.9] or cells[:1]
    C = _partition(rng, support, indicator, u[2] < 0.5)
    f = _random_function(rng, cells, 0.7, SMALL_POOL)
    # maharam target: E(chi_S|C) = t_k * w on block k, reachable from `allowed`
    allowed = sorted(c for c in cells if rng.random() < 0.6)
    chosen = set(allowed)
    target = {}
    for members, w in C:
        bound = sum(mu[c] * w[c] ** (p - 1.0) for c in members if c in chosen)
        _, nu_b = _nu_mass(members, {}, mu, w, p)
        t = rng.choice(FRACTION_POOL) * bound / nu_b
        if t > 0.0:
            for c in members:
                target[c] = t * w[c]
    functions = {"f": f, "t": target}
    sublattices = {"C": _blocks_doc(C)}
    planted: dict = {}
    commands = [{"op": "maharam", "cells": allowed, "c": "C", "target": "t"}]
    # then a canonical realization or a non-forking extension
    if u[1] < 0.5:
        commands += [
            {"op": "realize", "f": "f", "c": "C", "as": "fr"},
            {"op": "condexp", "f": "f", "c": "C"},
            {"op": "dist", "f": "f", "g": "fr", "c": "C"},
        ]
    else:
        # B refines C: every C-block splits into parts with the same profile
        B = []
        for members, prof in C:
            parts: dict[int, list[str]] = {}
            for c in members:
                parts.setdefault(rng.randrange(2), []).append(c)
            B.extend((m, {c: prof[c] for c in m}) for m in parts.values())
        sublattices["B"] = _blocks_doc(B)
        g = functions["g"] = _random_function(rng, cells, 0.5, SMALL_POOL)
        # the extension (f1, g1) has the type of (f, g) over C; (f1, f1) does
        # not, since f and g differ on some cell
        same = u[3] < 0.5
        planted["typeeq"] = same
        if all(f.get(c, 0.0) == g.get(c, 0.0) for c in cells):
            g[cells[0]] = g.get(cells[0], 0.0) + 1.0
        commands += [
            {"op": "extend", "fs": ["f", "g"], "c": "C", "b": "B", "as": ["f1", "g1"]},
            {"op": "condexp", "f": "f", "c": "C"},
            {"op": "typeeq", "fs": ["f", "g"], "gs": ["f1", "g1" if same else "f1"], "c": "C"},
        ]
    doc = {
        "space": space,
        "functions": {name: {"values": v} for name, v in functions.items()},
        "sublattices": sublattices,
        "commands": commands,
    }
    return doc, planted


def _ancestor(cid: str) -> str:
    return cid.split("#", 1)[0]


def _check_refine(doc: dict, planted: dict, report: dict) -> str | None:
    mu0 = {c["id"]: c["weight"] for c in doc["space"]["cells"]}
    p = doc["space"]["p"]
    fn = {name: d["values"] for name, d in doc["functions"].items()}
    C = _blocks_from_doc(doc["sublattices"]["C"])
    maharam, _, condexp, read = report["results"]
    # maharam ran first: selected cells are original cells or the first child
    # of the one cell split per block; their weights come from the refinement log
    weight = dict(mu0)
    for kids in report["refinements"][0]["splitting"].values():
        weight.update((kid["id"], kid["weight"]) for kid in kids)
    allowed = set(maharam["cells"])
    selected = maharam["result"]["selected"]
    if any(_ancestor(c) not in allowed for c in selected):
        return "maharam: selected a cell outside the allowed set"
    # final cells by the original cell they descend from
    picked: dict[str, list[str]] = {}
    for c in selected:
        picked.setdefault(_ancestor(c), []).append(c)
    for cells, w in C:
        got = sum(weight[k] * w[c] ** (p - 1.0) for c in cells for k in picked.get(c, ()))
        want, _ = _nu_mass(cells, fn["t"], mu0, w, p)
        if not _close(got, want, sum(mu0[c] for c in cells)):
            return f"maharam: block mass {got!r} != target {want!r}"
    # condexp of the lifted f over the lifted C, on the final space
    mu = {c["id"]: c["weight"] for c in report["space"]["cells"]}
    descendants: dict[str, list[str]] = {}
    for c in mu:
        descendants.setdefault(_ancestor(c), []).append(c)
    lifted = []
    for cells, w in C:
        kids = {k: w[c] for c in cells for k in descendants.get(c, ())}
        lifted.append((list(kids), kids))
    f = {c: fn["f"][_ancestor(c)] for c in mu if _ancestor(c) in fn["f"]}
    bad = _check_condexp(condexp["result"], f, lifted, mu, p, "condexp after refinement")
    if bad:
        return bad
    if read["op"] == "dist" and not _close(read["result"], 0.0):
        return f"realize: dist(f, realization of f) = {read['result']!r}"
    if read["op"] == "typeeq" and read["result"] is not planted["typeeq"]:
        return f"extend: typeeq against {read['gs']}: planted {planted['typeeq']}, got {read['result']!r}"
    return None


def check(workload: str, doc: dict, planted: dict, answer) -> str | None:
    """None when the answer matches what was planted, else what went wrong."""
    if workload == "verify":
        failed = [r.name for r in answer if not r.passed]
        return f"suites failed: {failed}" if failed else None
    if len(answer["results"]) != len(doc["commands"]):
        return "report lacks results"
    return _CHECKS[workload](doc, planted, answer)


_GENERATORS = {"compose": _compose, "slices": _slices, "refine": _refine}
_CHECKS = {"compose": _check_compose, "slices": _check_slices, "refine": _check_refine}
