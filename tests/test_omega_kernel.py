"""Differential tests of the indexed closure, basis and enumeration kernel.

Seeded random algebras (carriers of 1-6 labels mixing ints, strings and
tuples; operations of arity 0-3) carry raw representations built without
validation and towers of height 2 and 3.  Each oracle is written here, on
labels only: the breadth-first label-keyed closure loop, a greedy basis over
the set-only saturations, and brute force over every carrier map.  The
row-reader morphism checks are compared with the flat-list checks they
replaced, on carriers of 0 to 48 elements, and the kept endomorphism
search with fresh, repeated, copied and pickled representations.  The
round loop is compared with its full-scan form on carriers of 0 to 12
elements.
"""

import copy
import itertools
import pickle
import random

import pytest

from divring import omega
from divring.errors import NotEndomorphism, NotGenerating, NotRepEndomorphism
from divring.omega import (
    Act,
    App,
    FiniteOmegaAlgebra,
    Gen,
    Representation,
    Signature,
    _first_break,
    _maps_action,
    _op_break,
    check_morphism,
    closure,
    endo_coordinates,
    enumerate_rep_endomorphisms,
    extract_basis,
    is_homomorphism,
    is_rep_endomorphism,
    naive_closure,
)
from divring.samples import (
    cyclic_group,
    f3_field,
    generation_rep,
    point_set,
    toy_affine_tower,
    translation_rep,
)
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
# rounds


def full_scan_rounds(rep, actors, start):
    """The full-scan round loop, the reference for `_rounds`: every round
    scans all of its argument tuples and actor rows, and the loop ends only
    at a round that adds nothing."""
    alg, rows = rep.acted, rep._rows
    n = len(alg.carrier)
    seen = bytearray(n)
    for m in start:
        seen[m] = 1
    current = new = list(start)
    first = True
    while True:
        chunks, fresh = {}, []
        for op, arity in alg.signature.ops:
            if arity not in chunks:
                chunks[arity] = full_scan_chunks(n, current, new, arity, first)
            table = alg._flat[op]
            for base, lasts in chunks[arity]:
                for last in lasts:
                    v = table[base + last]
                    if not seen[v]:
                        seen[v], pos = 1, base + last
                        args = [pos // n ** k % n for k in range(arity - 1, -1, -1)]
                        fresh.append((v, op, tuple(args)))
        for a in actors:
            row = rows[a]
            for m in new:
                v = row[m]
                if not seen[v]:
                    seen[v] = 1
                    fresh.append((v, None, (a, m)))
        if not fresh:
            return
        yield fresh
        new = sorted([v for v, _, _ in fresh])
        current, first = sorted(current + new), False


def full_scan_chunks(n, current, new, arity, first):
    if arity == 0:
        return [(0, (0,))] if first else []
    out, newset = [], set(new)
    for prefix in itertools.product(current, repeat=arity - 1):
        base = 0
        for a in prefix:
            base = base * n + a
        out.append((base * n, new if newset.isdisjoint(prefix) else current))
    return out


def index_rep(rng, size):
    """A representation on the carrier 0..size-1 with operations of arity
    0-3 (nullary ones only on a nonempty carrier) and 0-3 actors.  Values
    come from the whole carrier, or, half the time, from a random part of
    it, so that some closures stop short of the carrier."""
    carrier = list(range(size))
    pool = rng.sample(carrier, rng.randint(1, size)) if size and rng.random() < 0.5 else carrier
    ops = [op for op in OPS if (op[1] or size) and rng.random() < 0.6]
    tables = {op: {args: rng.choice(pool) for args in itertools.product(carrier, repeat=arity)}
              for op, arity in ops}
    acted = FiniteOmegaAlgebra(carrier, Signature(ops), tables)
    acting = FiniteOmegaAlgebra(range(rng.randint(0, 3)), Signature([]), {})
    action = {(a, m): rng.choice(pool) for a in acting.carrier for m in carrier}
    return Representation(acting, acted, action, validate=False)


def test_rounds_match_the_full_scan_loop():
    rng = random.Random(2606)
    cases = filled = 0
    for _ in range(400):
        size = rng.randint(0, 12)
        rep = index_rep(rng, size)
        carrier, actors = list(range(size)), range(len(rep.acting.carrier))
        starts = [[], carrier]
        if size:
            starts.append([rng.randrange(size)])
            starts += [sorted(rng.sample(carrier, rng.randint(1, size))) for _ in range(3)]
            # all but one element: the round that reaches it fills the carrier
            starts += [[m for m in carrier if m != x] for x in rng.sample(carrier, min(size, 3))]
        for start in starts:
            want = list(full_scan_rounds(rep, actors, start))
            assert list(omega._rounds(rep, actors, start)) == want
            cases += 1
            filled += bool(want) and len(start) + sum(map(len, want)) == size
    assert cases > 3000 and filled > 1000
    # two binary operations, so two readers of each round's prefix walk,
    # under no actor, the identity, and scaling by every element
    field = f3_field()
    for actors in ([], [0], [0, 1, 2]):
        rep = Representation(field, field, {(a, m): a * m % 3 for a in range(3) for m in range(3)},
                             validate=False)
        for k in range(4):
            for start in itertools.combinations(range(3), k):
                want = list(full_scan_rounds(rep, actors, list(start)))
                assert list(omega._rounds(rep, actors, list(start))) == want


class CountingTable(tuple):
    """A flat table or action row that counts the cells read from it."""

    reads = 0

    def __getitem__(self, i):
        CountingTable.reads += 1
        return tuple.__getitem__(self, i)


def test_rounds_stop_reading_once_the_carrier_is_full():
    c6 = FiniteOmegaAlgebra(range(6), Signature([("s", 1)]),
                            {"s": {(m,): (m + 1) % 6 for m in range(6)}})
    rep = Representation(FiniteOmegaAlgebra([0], Signature([]), {}), c6,
                         {(0, m): m for m in range(6)}, validate=False)
    rep.acted._flat = {"s": CountingTable(rep.acted._flat["s"])}
    rep._rows = (CountingTable(rep._rows[0]),)
    start = [0, 1, 2, 4, 5]
    CountingTable.reads = 0
    assert list(full_scan_rounds(rep, [0], start)) == [[(3, "s", (2,))]]
    assert CountingTable.reads == 5 + 5 + 1 + 1  # two rounds, the second finds nothing
    CountingTable.reads = 0
    assert list(omega._rounds(rep, [0], start)) == [[(3, "s", (2,))]]
    assert CountingTable.reads == 3  # s(0), s(1), s(2) = 3 fills the carrier
    CountingTable.reads = 0
    assert list(omega._rounds(rep, [0], range(6))) == []
    assert CountingTable.reads == 0
    # two new members a round: s(4) = 5 fills the carrier in round 3
    rep._rows = (CountingTable((m + 3) % 6 for m in range(6)),)
    want = [[(1, "s", (0,)), (3, None, (0, 0))], [(2, "s", (1,)), (4, "s", (3,))], [(5, "s", (4,))]]
    assert list(full_scan_rounds(rep, [0], [0])) == want
    CountingTable.reads = 0
    assert list(omega._rounds(rep, [0], [0])) == want
    assert CountingTable.reads == 2 + 4 + 2


def test_rounds_walk_prefixes_once_a_round_and_only_as_read(monkeypatch):
    """add and mul of F3 read one walk over the argument prefixes a round,
    and the round that fills the carrier makes no prefix past the one
    that fills it."""
    field = f3_field()
    rep = Representation(FiniteOmegaAlgebra([0], Signature([]), {}), field,
                         {(0, m): m for m in range(3)})
    made, product = [], itertools.product

    def counted(*args, **kwargs):
        made.append(0)
        for prefix in product(*args, **kwargs):
            made[-1] += 1
            yield prefix

    monkeypatch.setattr(itertools, "product", counted)
    # round 1 over {1}: add(1, 1) = 2 and mul(1, 1) = 1, both from prefix (1,);
    # round 2: prefix (1,) with the new 2 gives add(1, 2) = 0, and (2,) is never made
    assert list(omega._rounds(rep, [0], [1])) == [[(2, "add", (1, 1))], [(0, "add", (1, 2))]]
    assert made == [1, 1]


# ---------------------------------------------------------------------------
# basis


@pytest.mark.parametrize("height", [2, 3, 4])
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


def test_basis_keeps_its_errors():
    """A level that is not generated, at level 2 or at level 3, raises
    NotGenerating, and a wrong number of generator sets ValueError, with
    the messages they had when generation was read from the word tables."""
    tower = toy_affine_tower()
    vectors, points = (alg.carrier for alg in tower.algebras[1:])
    not_generating = "^the generators do not generate every level$"
    for gens in ([[(1, 0)], points], [vectors, []], [[(1, 0)], []], [[], points]):
        with pytest.raises(NotGenerating, match=not_generating):
            tower_basis(tower, gens)
    assert tower_basis(tower, [vectors, points]) == (((0, 1), (1, 0)), ((0, 0),))
    for gens in ([vectors], [vectors, points, points], []):
        with pytest.raises(ValueError, match="^need one generator set per level above the first$"):
            tower_basis(tower, gens)
    with pytest.raises(NotGenerating, match=not_generating):
        extract_basis(generation_rep(6), [2])


# ---------------------------------------------------------------------------
# endomorphisms


def affine_lines():
    """Z/n translating n points, for n = 2..4: a level-3 action step reads
    the row of the level-2 image of its actor, which is not the actor."""
    return [Tower([generation_rep(n), Representation(
        cyclic_group(n, op_name="add"), point_set(n), lambda a, p, n=n: (a + p) % n,
        validate=False)]) for n in (2, 3, 4)]


def sample_towers():
    """generation_rep(n) for n = 1..6 and translation_rep(6), as height-2
    towers: brute force tries all 6^6 maps of the largest."""
    return [Tower([rep]) for rep in [*map(generation_rep, range(1, 7)), translation_rep(6)]]


@pytest.mark.parametrize("height,max_size", [(2, 4), (3, 3)])
def test_enumeration_matches_brute_force(height, max_size):
    cases = towers(630 + height, 50, height, max_size)
    extra = affine_lines() if height == 3 else sample_towers()
    for tower, rng in cases + [(t, None) for t in extra]:
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


# ---------------------------------------------------------------------------
# row-reader checks against the flat-list checks they replaced


def flat_op_break(h, src, dst):
    """The flat-list operation check: dst's table at the h-images of every
    argument tuple against h of src's value, in itertools.product order."""
    n, image = len(dst.carrier), h.__getitem__
    for op, arity in src.signature.ops:
        pos = [0]
        for _ in range(arity):
            pos = [p * n + x for p in pos for x in h]
        lhs, rhs = list(map(dst._flat[op].__getitem__, pos)), list(map(image, src._flat[op]))
        if lhs != rhs:
            return op, arity, lhs, rhs
    return None


def flat_maps_action(h, lower, f, g):
    """The flat-list action check: every actor row of f through h against
    g's row of lower(a) read at h."""
    rows = g._rows
    return [h[v] for row in f._rows for v in row] == [rows[b][x] for b in lower for x in h]


def algebra_pair(rng, n_src, n_dst):
    """Two algebras of one signature (arities 0-3; nullary only on nonempty
    carriers, ternary only up to 13 elements) and a label map h from the
    first carrier to the second, onto when n_src >= n_dst.  dst's tables
    are random; src's value at each tuple is an h-preimage of dst's value
    at the h-images when h reaches it, so an onto h is a homomorphism;
    half the time one src cell is then redrawn.  Returns (src, dst, h)."""
    src_c = [("s", i) for i in rng.sample(range(n_src), n_src)]
    dst_c = [f"d{i}" for i in range(n_dst)]
    if n_dst <= n_src:
        images = dst_c + [rng.choice(dst_c) for _ in range(n_src - n_dst)]
        rng.shuffle(images)
    else:
        images = [rng.choice(dst_c) for _ in src_c]
    h = dict(zip(src_c, images))
    pre = {}
    for x, y in h.items():
        pre.setdefault(y, []).append(x)
    ops = [(name, arity) for name, arity in zip("cumt", range(4))
           if rng.random() < 0.7 and (arity or min(n_src, n_dst))
           and (arity < 3 or max(n_src, n_dst) <= 13)]
    dst_tables = {op: {args: rng.choice(dst_c) for args in itertools.product(dst_c, repeat=arity)}
                  for op, arity in ops}
    src_tables = {op: {args: rng.choice(pre.get(dst_tables[op][tuple(h[x] for x in args)], src_c))
                       for args in itertools.product(src_c, repeat=arity)}
                  for op, arity in ops}
    if src_c and ops and rng.random() < 0.5:
        op, arity = rng.choice(ops)
        src_tables[op][tuple(rng.choice(src_c) for _ in range(arity))] = rng.choice(src_c)
    signature = Signature(ops)
    return (FiniteOmegaAlgebra(src_c, signature, src_tables),
            FiniteOmegaAlgebra(dst_c, signature, dst_tables), h)


ALGEBRA_SIZES = [(0, 0), (0, 3), (1, 1), (1, 4), (2, 2), (2, 1), (3, 2), (2, 5), (5, 5),
                 (8, 3), (13, 13), (30, 48), (48, 7), (48, 48)]


def test_operation_check_matches_flat_lists():
    rng = random.Random(650)
    broken_arities, passed = set(), 0
    for n_src, n_dst in ALGEBRA_SIZES:
        for _ in range(12):
            src, dst, h = algebra_pair(rng, n_src, n_dst)
            row = [dst.index(h[m]) for m in src.carrier]
            want = flat_op_break(row, src, dst)
            assert _op_break(row, src, dst) == want
            assert _op_break(tuple(row), src, dst) == want
            assert is_homomorphism(h, src, dst) is (want is None)
            if want is None:
                passed += 1
            else:
                broken_arities.add(want[1])
            # the target's own endomorphism check, on a random self-map
            self_map = [rng.randrange(n_dst) for _ in range(n_dst)]
            assert _op_break(self_map, dst, dst) == flat_op_break(self_map, dst, dst)
            assert _op_break(range(n_dst), dst, dst) is None
    assert broken_arities == {0, 1, 2, 3} and passed > 20


REP_SIZES = [(0, 0, 0, 0), (0, 2, 3, 3), (2, 2, 0, 0), (2, 2, 0, 3), (1, 1, 1, 1),
             (3, 2, 2, 2), (2, 4, 3, 2), (5, 5, 8, 8), (3, 1, 48, 6), (4, 4, 48, 48),
             (2, 3, 5, 9)]


def test_action_check_matches_flat_lists():
    rng = random.Random(651)
    outcomes = set()
    for n_a, n_b, n_m, n_n in REP_SIZES:
        for _ in range(12):
            acting_f, acting_g, r = algebra_pair(rng, n_a, n_b)
            acted_f, acted_g, big_r = algebra_pair(rng, n_m, n_n)
            g = Representation(acting_g, acted_g, {
                (b, y): rng.choice(acted_g.carrier)
                for b in acting_g.carrier for y in acted_g.carrier}, validate=False)
            pre = {}
            for x, y in big_r.items():
                pre.setdefault(y, []).append(x)
            # an action with R(f(a)(m)) = g(r(a))(R(m)) wherever R reaches
            # the right-hand side, then half the time one cell redrawn
            action = {(a, m): rng.choice(pre.get(g.act(r[a], big_r[m]), acted_f.carrier))
                      for a in acting_f.carrier for m in acted_f.carrier}
            if action and rng.random() < 0.5:
                action[rng.choice(list(action))] = rng.choice(acted_f.carrier)
            f = Representation(acting_f, acted_f, action, validate=False)
            lower = [acting_g.index(r[a]) for a in acting_f.carrier]
            row = [acted_g.index(big_r[m]) for m in acted_f.carrier]
            want = flat_maps_action(row, lower, f, g)
            assert _maps_action(row, lower, f, g) is want
            assert _maps_action(tuple(row), tuple(lower), f, g) is want
            morphism = (flat_op_break(lower, acting_f, acting_g) is None
                        and flat_op_break(row, acted_f, acted_g) is None and want)
            assert check_morphism(r, big_r, f, g) is morphism
            outcomes.add((want, morphism))
            # f's own action check under a random acted self-map
            self_map = [rng.randrange(n_m) for _ in range(n_m)]
            assert (_maps_action(self_map, range(n_a), f, f)
                    is flat_maps_action(self_map, range(n_a), f, f))
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_non_endomorphic_action_names_the_flat_witness():
    rng = random.Random(652)
    raised = 0
    for size in [1, 2, 3, 5, 9, 13] * 10:
        alg, _, _ = algebra_pair(rng, size, size)
        acting = point_set(rng.randint(1, 4))
        # every actor acts as the identity, then half the time one cell moves
        action = {(a, m): m for a in acting.carrier for m in alg.carrier}
        if rng.random() < 0.5:
            action[rng.choice(list(action))] = rng.choice(alg.carrier)
        want = None
        for a in acting.carrier:
            row = [alg.index(action[a, m]) for m in alg.carrier]
            broken = flat_op_break(row, alg, alg)
            if broken is not None:
                op, arity, lhs, rhs = broken
                want = (a, op, _first_break(lhs, rhs, *[alg.carrier] * arity))
                break
        if want is None:
            Representation(acting, alg, action)
            continue
        with pytest.raises(NotEndomorphism) as info:
            Representation(acting, alg, action)
        assert (info.value.actor, info.value.op, info.value.arguments) == want
        message = f"transformation of {want[0]!r} breaks operation {want[1]!r} at {want[2]!r}"
        assert str(info.value) == message
        assert info.value.args == (message,)
        raised += 1
    assert 10 < raised < 60


# ---------------------------------------------------------------------------
# the endomorphism search, built once per representation and kept on it


def test_search_is_built_once_per_representation(monkeypatch):
    built = []
    basis = omega._basis
    monkeypatch.setattr(omega, "_basis", lambda reps, gens: built.append(reps) or basis(reps, gens))
    tower, rep = toy_affine_tower(), translation_rep(5)
    assert enumerate_tower_endomorphisms(tower) == enumerate_tower_endomorphisms(tower)
    assert enumerate_rep_endomorphisms(rep) == enumerate_rep_endomorphisms(rep)
    assert built == [tower.reps[:1], tower.reps[1:], (rep,)]
    # towers over searched representations reuse their searches
    assert enumerate_tower_endomorphisms(Tower([rep])) == [
        (r,) for r in enumerate_rep_endomorphisms(rep)]
    assert len(enumerate_tower_endomorphisms(Tower(tower.reps[1:]))) == 9
    assert len(built) == 3
    # an equal but distinct representation has a search of its own
    assert enumerate_rep_endomorphisms(translation_rep(5)) == enumerate_rep_endomorphisms(rep)
    assert len(built) == 4


def test_returned_endomorphisms_are_fresh():
    rep, tower = generation_rep(6), toy_affine_tower()
    endos, maps = enumerate_rep_endomorphisms(rep), enumerate_tower_endomorphisms(tower)
    want = [list(r.items()) for r in endos]
    want_maps = [[list(h.items()) for h in m] for m in maps]
    endos[0][0] = 5
    endos[1].clear()
    endos.pop()
    maps[0][1][(0, 0)] = (1, 1)
    maps[1][0].clear()
    assert [list(r.items()) for r in enumerate_rep_endomorphisms(rep)] == want
    assert [[list(h.items()) for h in m] for m in enumerate_tower_endomorphisms(tower)] == want_maps


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["deepcopy", "pickle"])
def test_copies_enumerate_alike(clone):
    rep, tower = translation_rep(6), toy_affine_tower()
    want, want_maps = enumerate_rep_endomorphisms(rep), enumerate_tower_endomorphisms(tower)
    assert enumerate_rep_endomorphisms(clone(rep)) == want
    assert enumerate_rep_endomorphisms(clone(translation_rep(6))) == want  # not yet searched
    assert enumerate_tower_endomorphisms(clone(tower)) == want_maps
