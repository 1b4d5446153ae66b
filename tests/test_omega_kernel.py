"""Differential tests of the indexed closure, basis and enumeration kernel.

Seeded random algebras (carriers of 1-6 labels mixing ints, strings and
tuples; operations of arity 0-3) carry raw representations built without
validation and towers of height 2 and 3.  Each oracle is written here, on
labels only: the breadth-first label-keyed closure loop, a greedy basis over
the set-only saturations, and brute force over every carrier map.
"""

import itertools
import random

import pytest

from divring.errors import NotGenerating, NotRepEndomorphism
from divring.omega import (
    Act,
    App,
    FiniteOmegaAlgebra,
    Gen,
    Representation,
    Signature,
    closure,
    endo_coordinates,
    enumerate_rep_endomorphisms,
    extract_basis,
    is_rep_endomorphism,
    naive_closure,
)
from divring.samples import cyclic_group, generation_rep, point_set
from divring.towers import (
    Tower,
    enumerate_tower_endomorphisms,
    is_tower_endomorphism,
    naive_tower_closure,
    tower_basis,
    tower_closure,
    tower_endo_coordinates,
)

LABELS = [0, 1, 2, 7, "a", "b", "zz", (0,), (1, 2), ("a", 0)]
OPS = [("c", 0), ("u", 1), ("m", 2), ("t", 3)]


def random_algebra(rng, size):
    """Random tables, or, half the time, tables built from one random
    self-map f of the carrier: a non-constant operation is args -> args[j]
    or f(args[j]) for a fixed j, so that many maps respect it.  Returns the
    algebra and f, or None."""
    carrier = rng.sample(LABELS, size)
    f = {x: rng.choice(carrier) for x in carrier} if rng.random() < 0.5 else None
    ops = [op for op in OPS if rng.random() < 0.5]
    tables = {}
    for op, arity in ops:
        j, twist = rng.randrange(max(arity, 1)), rng.random() < 0.5
        tables[op] = {
            args: rng.choice(carrier) if f is None or not args
            else f[args[j]] if twist else args[j]
            for args in itertools.product(carrier, repeat=arity)
        }
    return FiniteOmegaAlgebra(carrier, Signature(ops), tables), f


def random_rep(rng, acting, acted, f):
    """A random action, or, when the acted algebra comes with its self-map
    f, each actor acting as f or as the identity."""
    twist = {a: rng.random() < 0.5 for a in acting.carrier}
    action = {
        (a, m): rng.choice(acted.carrier) if f is None else f[m] if twist[a] else m
        for a in acting.carrier for m in acted.carrier
    }
    return Representation(acting, acted, action, validate=False)


def random_tower(rng, height, max_size):
    algebras = [random_algebra(rng, rng.randint(1, max_size)) for _ in range(height)]
    return Tower([random_rep(rng, lo, hi, f)
                  for (lo, _), (hi, f) in zip(algebras, algebras[1:])])


def random_subsets(rng, tower):
    cases = [[alg.carrier for alg in tower.algebras[1:]],
             [[] for _ in tower.reps]]
    cases += [[rng.sample(alg.carrier, rng.randint(0, len(alg.carrier)))
               for alg in tower.algebras[1:]] for _ in range(3)]
    return cases


def towers(seed, count, height, max_size):
    rng = random.Random(seed)
    return [(random_tower(rng, height, max_size), rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# oracles


def closure_oracle(reps, gens):
    """The layered breadth-first closure over label-keyed tables: every round
    takes every operation over all argument tuples of the members so far
    and every actor over all members."""
    actors, actor_words = reps[0].acting.carrier, None
    out = []
    for rep, level_gens in zip(reps, gens):
        alg = rep.acted
        gset = set(level_gens)
        generators = tuple(x for x in alg.carrier if x in gset)
        word_of = {x: Gen(x) for x in generators}
        levels = dict.fromkeys(generators, 0)
        depth = 0
        while True:
            current = [m for m in alg.carrier if m in word_of]
            fresh = {}
            for op, arity in alg.signature.ops:
                for args in itertools.product(current, repeat=arity):
                    val = alg.apply(op, args)
                    if val not in word_of and val not in fresh:
                        fresh[val] = App(op, tuple(word_of[a] for a in args))
            for a in actors:
                actor = a if actor_words is None else actor_words[a]
                for m in current:
                    val = rep.act(a, m)
                    if val not in word_of and val not in fresh:
                        fresh[val] = Act(actor, word_of[m])
            if not fresh:
                break
            depth += 1
            for m, w in fresh.items():
                word_of[m] = w
                levels[m] = depth
        actors = tuple(m for m in alg.carrier if m in word_of)
        actor_words = word_of
        out.append((generators, actors, word_of, levels))
    return out


def basis_oracle(tower, gens, saturate):
    """Greedy removal, lowest level first and descending carrier order within
    a level, keeping a removal whenever every level still saturates to its
    whole carrier; None when the tuple does not generate."""
    def generates(tuple_):
        return all(len(s) == len(alg.carrier)
                   for s, alg in zip(saturate(tuple_), tower.algebras[1:]))

    keep = [[x for x in alg.carrier if x in set(g)]
            for alg, g in zip(tower.algebras[1:], gens)]
    if not generates(keep):
        return None
    for k in range(len(keep)):
        for x in reversed(list(keep[k])):
            trial = keep[:k] + [[y for y in keep[k] if y != x]] + keep[k + 1:]
            if generates(trial):
                keep = trial
    return tuple(tuple(level) for level in keep)


def level_endomorphism(rep, h, lower):
    alg = rep.acted
    for op, arity in alg.signature.ops:
        for args in itertools.product(alg.carrier, repeat=arity):
            if h[alg.apply(op, args)] != alg.apply(op, [h[x] for x in args]):
                return False
    return all(h[rep.act(a, m)] == rep.act(lower[a], h[m])
               for a in rep.acting.carrier for m in alg.carrier)


def brute_endomorphisms(tower):
    """Every tower endomorphism, found by trying every map of each level."""
    found = [()]
    for rep in tower.reps:
        carrier = rep.acted.carrier
        found = [
            maps + (h,)
            for maps in found
            for h in (dict(zip(carrier, images))
                      for images in itertools.product(carrier, repeat=len(carrier)))
            if level_endomorphism(rep, h, maps[-1] if maps else
                                  {a: a for a in rep.acting.carrier})
        ]
    return found


def items(maps):
    return [list(h.items()) for h in maps]


# ---------------------------------------------------------------------------
# closure


@pytest.mark.parametrize("height", [2, 3])
def test_closure_matches_label_loop(height):
    for tower, rng in towers(610 + height, 60, height, 6):
        for gens in random_subsets(rng, tower):
            got = tower_closure(tower, gens)
            want = closure_oracle(tower.reps, gens)
            for k, (generators, members, word_of, levels) in enumerate(want, 1):
                assert got.generators[k - 1] == generators
                assert got.members[k] == members
                assert list(got.word_of[k].items()) == list(word_of.items())
                assert list(got.levels[k].items()) == list(levels.items())
            if height == 2:
                clo = closure(tower.reps[0], gens[0])
                assert list(clo.word_of.items()) == list(want[0][2].items())
                assert list(clo.levels.items()) == list(want[0][3].items())


def test_closure_of_nullary_and_empty_generators():
    one = FiniteOmegaAlgebra(["a", (1,)], Signature([("c", 0), ("u", 1)]),
                             {"c": {(): "a"}, "u": {("a",): (1,), ((1,),): "a"}})
    rep = Representation(FiniteOmegaAlgebra([0], Signature([]), {}), one,
                         {(0, "a"): "a", (0, (1,)): (1,)}, validate=False)
    clo = closure(rep, [])
    assert clo.generators == () and clo.members == ("a", (1,))
    assert list(clo.word_of.items()) == [("a", App("c", ())),
                                         ((1,), App("u", (App("c", ()),)))]
    assert clo.levels == {"a": 1, (1,): 2}
    assert closure(rep, ["a"]).levels == {"a": 0, (1,): 1}


# ---------------------------------------------------------------------------
# basis


@pytest.mark.parametrize("height", [2, 3])
def test_basis_matches_greedy_oracle(height):
    for tower, rng in towers(620 + height, 60, height, 6):
        for gens in random_subsets(rng, tower):
            if height == 2:
                rep = tower.reps[0]
                want = basis_oracle(tower, gens, lambda g: [naive_closure(rep, g[0])])
                call = lambda: (extract_basis(rep, gens[0]),)  # noqa: E731
            else:
                want = basis_oracle(tower, gens, lambda g: naive_tower_closure(tower, g)[1:])
                call = lambda: tower_basis(tower, gens)  # noqa: E731
            if want is None:
                with pytest.raises(NotGenerating):
                    call()
            else:
                assert call() == want


# ---------------------------------------------------------------------------
# endomorphisms


def affine_lines():
    """Z/n translating n points, for n = 2..4: a level-3 action step reads
    the row of the level-2 image of its actor, which is not the actor."""
    return [Tower([generation_rep(n), Representation(
        cyclic_group(n, op_name="add"), point_set(n), lambda a, p, n=n: (a + p) % n,
        validate=False)]) for n in (2, 3, 4)]


@pytest.mark.parametrize("height,max_size", [(2, 4), (3, 3)])
def test_enumeration_matches_brute_force(height, max_size):
    cases = towers(630 + height, 50, height, max_size)
    for tower, rng in cases + [(t, None) for t in affine_lines() if height == 3]:
        full = [alg.carrier for alg in tower.algebras[1:]]
        basis = tower_basis(tower, full)

        def key(maps):
            return tuple(tuple(alg.index(h[b]) for b in level)
                         for alg, h, level in zip(tower.algebras[1:], maps, basis))

        want = sorted(brute_endomorphisms(tower), key=key)
        got = enumerate_tower_endomorphisms(tower)
        assert [items(m) for m in got] == [items(m) for m in want]
        if height == 2:
            rep = tower.reps[0]
            assert [list(r.items()) for r in enumerate_rep_endomorphisms(rep)] == \
                [list(m[0].items()) for m in want]


@pytest.mark.parametrize("height", [2, 3])
def test_endomorphism_check_matches_oracle(height):
    for tower, rng in towers(640 + height, 60, height, 5):
        carriers = [alg.carrier for alg in tower.algebras[1:]]
        endos = enumerate_tower_endomorphisms(tower)
        for _ in range(8):
            maps = [{m: rng.choice(c) for m in c} for c in carriers]
            lowers = [{a: a for a in tower.algebras[0].carrier}] + maps
            want = all(map(level_endomorphism, tower.reps, maps, lowers))
            assert is_tower_endomorphism(tower, maps) is want
            assert want == (tuple(maps) in endos)
            if height == 2:
                assert is_rep_endomorphism(tower.reps[0], maps[0]) is want
            # dropping an element or sending one off the carrier breaks any map
            k = rng.randrange(height - 1)
            m = rng.choice(carriers[k])
            partial = maps[:k] + [{x: y for x, y in maps[k].items() if x != m}] + maps[k + 1:]
            leaving = maps[:k] + [{**maps[k], m: "off"}] + maps[k + 1:]
            for bad in (partial, leaving):
                assert is_tower_endomorphism(tower, bad) is False
                with pytest.raises(NotRepEndomorphism):
                    tower_endo_coordinates(tower, carriers, bad)
                if height == 2:
                    with pytest.raises(NotRepEndomorphism):
                        endo_coordinates(tower.reps[0], carriers[0], bad[0])
