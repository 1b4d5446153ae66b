"""`words`: the Omega-algebra word engine in `omega` and `towers`.

No Fraction arithmetic runs here: every job builds, substitutes or
evaluates closure words over finite carriers.  A change to the word engine
must move this workload; a change to the rational kernel must not.
"""

from __future__ import annotations

import itertools
import math

from common import require

# Each kind is a batch of near-constant cost: rep_closure (~5 ms) below
# tower_sweep (~9 ms) below rep_endos (~45 ms) below tower_enum (~130 ms).
# With 6 + 10 + 5 + 1 jobs per cycle the median falls in the middle of the
# sweep cluster and the 90th percentile inside the rep_endos cluster, not
# on a boundary between kinds.
PATTERN = (("tower_sweep", "rep_closure") * 6 + ("tower_sweep",) * 4
           + ("rep_endos",) * 5 + ("tower_enum",))
POOL_SIZE = 440
SWEEP_PAIRS = 200
CLOSURE_SUBSETS = 2  # per representation of the corpus
ENDO_SIZES = range(6, 13)
TOWER_ENDOS = 729
E1, E2, P0 = (1, 0), (0, 1), (0, 0)


def expected_outcomes(lib) -> tuple:
    return ()


# ---------------------------------------------------------------------------
# fixtures


def _transformation_monoid(lib, rng, size, cap=48):
    """Seeded random monoid of self-maps of a `size`-point set acting on it."""
    points = tuple(range(size))
    while True:
        maps = {points}
        for _ in range(2):
            maps.add(tuple(rng.randrange(size) for _ in points))
        frontier = list(maps)
        while frontier and len(maps) <= cap:
            fresh = []
            for f in frontier:
                for g in list(maps):
                    for h in (tuple(f[g[p]] for p in points),
                              tuple(g[f[p]] for p in points)):
                        if h not in maps:
                            maps.add(h)
                            fresh.append(h)
            frontier = fresh
        if len(maps) <= cap and len(maps) >= 6:
            break
    carrier = sorted(maps)
    table = {(a, b): tuple(a[b[p]] for p in points) for a in carrier for b in carrier}
    omega = lib.omega
    acting = omega.FiniteOmegaAlgebra(carrier, omega.Signature([("mul", 2)]),
                                      {"mul": table}, carrier_bound=64)
    acted = omega.FiniteOmegaAlgebra(points, omega.Signature([]), {})
    return omega.Representation(acting, acted, lambda f, p: f[p],
                                rep_kind="monoid-action")


def _tower_fixture(lib):
    tower = lib.samples.toy_affine_tower()
    gens = [[E1, E2], [P0]]
    endos = lib.towers.enumerate_tower_endomorphisms(tower)
    clo = lib.towers.tower_closure(tower, gens)
    coords = [lib.towers.tower_endo_coordinates(tower, gens, m, clo=clo, verified=True)
              for m in endos]
    return {"tower": tower, "endos": endos, "coords": coords,
            "ids": clo.identity_assignments()}


def setup(lib, rng, size=POOL_SIZE) -> list:
    samples = lib.samples
    tower = _tower_fixture(lib)
    reps = [samples.generation_rep(n) for n in (6, 12, 24, 48)]
    reps += [samples.translation_rep(n) for n in (6, 12, 24, 48)]
    reps += [_transformation_monoid(lib, rng, n) for n in (4, 5, 6, 6)]
    cyclic = [samples.generation_rep(n) for n in ENDO_SIZES]
    jobs = []
    for kind in (PATTERN[i % len(PATTERN)] for i in range(size)):
        if kind == "tower_sweep":
            pairs = [(rng.randrange(TOWER_ENDOS), rng.randrange(TOWER_ENDOS))
                     for _ in range(SWEEP_PAIRS)]
            jobs.append((kind, (tower, pairs)))
        elif kind == "tower_enum":
            # any two independent vectors and any one point generate the tower
            e1, e2 = rng.choice([(u, v) for u in _VECTORS for v in _VECTORS
                                 if _independent(u, v)])
            jobs.append((kind, (tower, [[e1, e2], [rng.choice(_VECTORS)]])))
        elif kind == "rep_closure":
            jobs.append((kind, [
                (rep, rng.sample(rep.acted.carrier, rng.randint(1, min(3, len(rep.acted.carrier)))))
                for rep in reps for _ in range(CLOSURE_SUBSETS)]))
        else:
            jobs.append((kind, [(rep, _generating_set(rng, len(rep.acted.carrier)))
                                for rep in cyclic]))
    return jobs


def _generating_set(rng, n) -> list:
    """One unit of Z/n plus random extras: a seeded generating superset."""
    units = [x for x in range(1, n) if math.gcd(x, n) == 1]
    return sorted({rng.choice(units)} | {rng.randrange(n) for _ in range(3)})


_VECTORS = [(x, y) for x in range(3) for y in range(3)]


def _independent(u, v) -> bool:
    return (u[0] * v[1] - u[1] * v[0]) % 3 != 0


# ---------------------------------------------------------------------------
# jobs: library calls only, timed by the caller


def run_tower_sweep(lib, inputs):
    fx, pairs = inputs
    towers = lib.towers
    tower, coords, ids = fx["tower"], fx["coords"], fx["ids"]
    out = []
    for i, j in pairs:
        sup = towers.tower_superpose(coords[j], coords[i])
        out.append((
            towers.eval_tower_word(tower, 2, sup[0][E1], ids),
            towers.eval_tower_word(tower, 2, sup[0][E2], ids),
            towers.eval_tower_word(tower, 3, sup[1][P0], ids),
        ))
    return out


def run_tower_enum(lib, inputs):
    fx, gens = inputs
    towers = lib.towers
    tower = fx["tower"]
    endos = towers.enumerate_tower_endomorphisms(tower)
    clo = towers.tower_closure(tower, gens)
    coords = [towers.tower_endo_coordinates(tower, gens, m, clo=clo, verified=True)
              for m in endos]
    return endos, clo, coords


def run_rep_closure(lib, inputs):
    return [lib.omega.closure(rep, gens) for rep, gens in inputs]


def run_rep_endos(lib, inputs):
    omega = lib.omega
    out = []
    for rep, gens in inputs:
        basis = omega.extract_basis(rep, gens)
        endos = omega.enumerate_rep_endomorphisms(rep)
        clo = omega.closure(rep, basis)
        coords = [omega.endo_coordinates(rep, basis, r, clo=clo, verified=True)
                  for r in endos]
        ident = {x: x for x in basis}
        values = [[{x: omega.eval_word(rep, sup[x], ident) for x in basis}
                   for sup in (omega.superpose(ws, wr) for ws in coords)]
                  for wr in coords]
        out.append((basis, endos, values))
    return out


# ---------------------------------------------------------------------------
# checks: benchmark-owned, run outside the timer


def _eval_word(lib, word, act, apply, table):
    """Word evaluation written for the checks; `act(actor, value)` handles
    action nodes, with actors left for the caller to resolve."""
    om = lib.omega
    if isinstance(word, om.Gen):
        return table[word.key]
    if isinstance(word, om.App):
        return apply(word.op, [_eval_word(lib, c, act, apply, table) for c in word.children])
    if isinstance(word, om.Act):
        return act(word.actor, _eval_word(lib, word.child, act, apply, table))
    raise TypeError(f"not a word: {word!r}")


def _add3(u, v):
    return ((u[0] + v[0]) % 3, (u[1] + v[1]) % 3)


def _toy_eval(lib, level, word, gens):
    """Evaluate a toy-affine-tower word at the identity assignment of
    `gens` (level 2: vectors under addition and F3 scalars; level 3:
    points under translation)."""
    om = lib.omega
    if level == 2:
        return _eval_word(lib, word, lambda d, v: ((d * v[0]) % 3, (d * v[1]) % 3),
                          lambda op, args: _add3(*args), {x: x for x in gens[0]})

    def act(actor, p):
        v = _toy_eval(lib, 2, actor, gens) if isinstance(actor, (om.Gen, om.App, om.Act)) else actor
        return _add3(v, p)

    return _eval_word(lib, word, act, None, {x: x for x in gens[1]})


def _check_tower_maps(endos):
    """Tower-endomorphism laws of the toy tower, written out: h2 is F3-linear
    on F3^2 and h3 commutes with translation through h2."""
    require(len(endos) == TOWER_ENDOS, f"{len(endos)} tower endomorphisms, expected {TOWER_ENDOS}")
    seen = set()
    for h2, h3 in endos:
        for u in _VECTORS:
            for v in _VECTORS:
                require(h2[_add3(u, v)] == _add3(h2[u], h2[v]), "h2 not additive")
                require(h3[_add3(u, v)] == _add3(h2[u], h3[v]), "h3 breaks translation")
            for d in range(3):
                require(h2[((d * u[0]) % 3, (d * u[1]) % 3)] ==
                        ((d * h2[u][0]) % 3, (d * h2[u][1]) % 3), "h2 not F3-linear")
        seen.add((tuple(sorted(h2.items())), tuple(sorted(h3.items()))))
    require(len(seen) == TOWER_ENDOS, "tower endomorphisms repeat")


def check_tower_sweep(lib, inputs, result):
    fx, pairs = inputs
    endos = fx["endos"]
    require(len(result) == len(pairs), "missing sweep results")
    for (i, j), got in zip(pairs, result):
        (r2, r3), (s2, s3) = endos[i], endos[j]
        require(got == (r2[s2[E1]], r2[s2[E2]], r3[s3[P0]]),
                f"superposition of endomorphisms {i}, {j} breaks the composition law")


def check_tower_enum(lib, inputs, result):
    _, gens = inputs
    endos, clo, coords = result
    _check_tower_maps(endos)
    require(clo.is_full, "generating tuple does not generate the tower")
    for (h2, h3), (c2, c3) in zip(endos, coords):
        for x in gens[0]:
            require(_toy_eval(lib, 2, c2[x], gens) == h2[x], "level-2 coordinate word is wrong")
        for p in gens[1]:
            require(_toy_eval(lib, 3, c3[p], gens) == h3[p], "level-3 coordinate word is wrong")


def check_rep_closure(lib, inputs, result):
    require(len(result) == len(inputs), "missing closure results")
    for (rep, gens), clo in zip(inputs, result):
        carrier = rep.acted.carrier
        oracle = lib.omega.naive_closure(rep, gens)
        require(set(clo.members) == oracle, f"closure of {gens!r} has the wrong members")
        require(list(clo.members) == [m for m in carrier if m in oracle],
                "closure members are not in carrier order")
        require(set(clo.word_of) == oracle, "word table keys differ from the members")
        for m in clo.members:
            got = _eval_word(lib, clo.word_of[m], rep.act, rep.acted.apply,
                             {x: x for x in gens})
            require(got == m, f"word of {m!r} evaluates to {got!r}")


def check_rep_endos(lib, inputs, result):
    require(len(result) == len(inputs), "missing results")
    for (rep, gens), one in zip(inputs, result):
        _check_rep_endos(lib, rep, gens, *one)


def _check_rep_endos(lib, rep, gens, basis, endos, values):
    n = len(rep.acted.carrier)
    oracle = lib.omega.naive_closure
    require(set(basis) <= set(gens), "basis is not drawn from the generators")
    require(len(oracle(rep, basis)) == n, "basis does not generate")
    for x in basis:
        require(len(oracle(rep, [y for y in basis if y != x])) < n, "basis is not minimal")
    require(len(endos) == n, f"{len(endos)} endomorphisms of C{n}, expected {n}")
    keys = {tuple(r[m] for m in range(n)) for r in endos}
    require(len(keys) == n, "endomorphisms repeat")
    for r in endos:
        require(all(r[(a + b) % n] == (r[a] + r[b]) % n
                    for a, b in itertools.product(range(n), repeat=2)),
                "map is not additive")
    for r, row in zip(endos, values):
        for s, got in zip(endos, row):
            require(got == {x: r[s[x]] for x in basis},
                    "superposition breaks the composition law")


JOBS = {
    "tower_sweep": (run_tower_sweep, check_tower_sweep),
    "tower_enum": (run_tower_enum, check_tower_enum),
    "rep_closure": (run_rep_closure, check_rep_closure),
    "rep_endos": (run_rep_endos, check_rep_endos),
}
