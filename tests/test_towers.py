import gc
import itertools
import os
import pickle
import random

import pytest

from divring.errors import (
    ChainMismatch,
    GeneratorMismatch,
    MissingGenerator,
    NoIdentityPreimage,
    NotGenerating,
    NotRepEndomorphism,
)
from divring import omega
from divring.io import load_representation
from divring.omega import (
    Act,
    App,
    FiniteOmegaAlgebra,
    Gen,
    Representation,
    Signature,
    Sub,
    classify,
    closure,
    endo_coordinates,
    enumerate_rep_automorphisms,
    enumerate_rep_endomorphisms,
    eval_word,
    extract_basis,
    is_rep_endomorphism,
    naive_closure,
    substitute,
    superpose,
)
from divring.samples import (
    cyclic_group,
    f3_point_set,
    generation_rep,
    point_set,
    scalar_rep,
    toy_affine_tower,
    translation_rep,
)
from divring.towers import (
    Tower,
    build_tower,
    check_tower_morphism,
    compose_tower_morphisms,
    effectiveness_chain,
    enumerate_tower_automorphisms,
    enumerate_tower_endomorphisms,
    eval_tower_word,
    induced_two_level,
    is_tower_endomorphism,
    naive_tower_closure,
    tower_basis,
    tower_closure,
    tower_endo_coordinates,
    tower_superpose,
)

E1, E2 = (1, 0), (0, 1)
P0 = (0, 0)


def layered_saturation(tower, gens):
    """Independent layer-by-layer fixpoint used as the closure oracle."""
    members = [set(tower.algebras[0].carrier)]
    for li in range(1, tower.height):
        alg = tower.algebras[li]
        rep = tower.reps[li - 1]
        acc = set(gens[li - 1])
        while True:
            new = set()
            for op, arity in alg.signature.ops:
                for args in itertools.product(sorted(acc, key=alg.index),
                                              repeat=arity):
                    v = alg.apply(op, args)
                    if v not in acc:
                        new.add(v)
            for a in members[li - 1]:
                for m in acc:
                    v = rep.act(a, m)
                    if v not in acc:
                        new.add(v)
            if not new:
                break
            acc |= new
        members.append(acc)
    return members


# ---------------------------------------------------------------------------
# construction


def test_toy_tower_builds(affine_tower):
    assert affine_tower.height == 3
    assert classify(affine_tower.reps[0]).effective
    assert classify(affine_tower.reps[1]).single_transitive


def test_single_representation_tower(c6_translation):
    t = build_tower([c6_translation])
    assert t.height == 2


def test_chain_mismatch_detected(c6_translation):
    other = translation_rep(3)
    with pytest.raises(ChainMismatch):
        build_tower([c6_translation, other])


# ---------------------------------------------------------------------------
# closure


def test_layered_closure_examples(affine_tower):
    clo = tower_closure(affine_tower, [[E1], [P0]])
    assert set(clo.members[1]) == {(0, 0), (1, 0), (2, 0)}
    assert set(clo.members[2]) == {(0, 0), (1, 0), (2, 0)}
    assert not clo.is_full
    full = tower_closure(affine_tower, [[E1, E2], [P0]])
    assert full.is_full
    everything = tower_closure(
        affine_tower,
        [affine_tower.algebras[1].carrier, affine_tower.algebras[2].carrier],
    )
    assert everything.is_full


def test_closure_matches_layered_oracle(affine_tower, rng):
    cases = [
        [[E1], [P0]],
        [[E1, E2], [P0]],
        [[(1, 1)], [(2, 2)]],
        [[(2, 1), (1, 2)], []],
    ]
    for gens in cases:
        got = tower_closure(affine_tower, gens)
        want = layered_saturation(affine_tower, gens)
        for li in range(3):
            assert set(got.members[li]) == want[li]


def test_tower_words_reproduce_members(affine_tower):
    clo = tower_closure(affine_tower, [[E1, E2], [P0]])
    ids = clo.identity_assignments()
    for li in (1, 2):
        for m in clo.members[li]:
            word = clo.word_of[li][m]
            assert eval_tower_word(affine_tower, li + 1, word, ids) == m


# ---------------------------------------------------------------------------
# a representation is a height-2 tower


def height_two_cases():
    c6 = load_representation(
        os.path.join(os.path.dirname(__file__), "..", "demos", "data", "c6.json"))
    return [generation_rep(8), translation_rep(12), c6]


@pytest.mark.parametrize("rep", height_two_cases(),
                         ids=["generation8", "translation12", "c6"])
def test_representation_is_height_two_tower(rep, rng):
    tower = Tower([rep])
    carrier = rep.acted.carrier
    subsets = [list(carrier), [], [carrier[-1]]]
    subsets += [rng.sample(carrier, rng.randint(1, 3)) for _ in range(6)]
    for gens in subsets:
        clo = closure(rep, gens)
        tclo = tower_closure(tower, [gens])
        assert clo.generators == tclo.generators[0]
        assert clo.members == tclo.members[1]
        assert list(clo.word_of.items()) == list(tclo.word_of[1].items())
        assert list(clo.levels.items()) == list(tclo.levels[1].items())
        assert clo.is_full == tclo.is_full
        assert naive_closure(rep, gens) == naive_tower_closure(tower, [gens])[1]
        if clo.is_full:
            assert (extract_basis(rep, gens),) == tower_basis(tower, [gens])
        else:
            with pytest.raises(NotGenerating):
                extract_basis(rep, gens)
            with pytest.raises(NotGenerating):
                tower_basis(tower, [gens])
    endos = enumerate_rep_endomorphisms(rep)
    assert [list(r.items()) for r in endos] == [
        list(maps[0].items()) for maps in enumerate_tower_endomorphisms(tower)]
    assert enumerate_rep_automorphisms(rep) == [
        maps[0] for maps in enumerate_tower_automorphisms(tower)]
    basis = extract_basis(rep, carrier)
    for r in endos:
        assert is_rep_endomorphism(rep, r) and is_tower_endomorphism(tower, [r])
        assert (endo_coordinates(rep, basis, r),) == tower_endo_coordinates(
            tower, [basis], [r])
    for _ in range(10):
        r = {m: rng.choice(carrier) for m in carrier}
        assert is_rep_endomorphism(rep, r) == is_tower_endomorphism(tower, [r])


# ---------------------------------------------------------------------------
# endomorphisms and superposition


def test_endomorphism_count(affine_tower):
    endos = enumerate_tower_endomorphisms(affine_tower)
    # 81 linear maps on the vector level times 9 translations of the points
    assert len(endos) == 729
    for maps in endos[:20]:
        assert is_tower_endomorphism(affine_tower, maps)


def test_coordinates_reject_non_endomorphism(affine_tower):
    gens = [[E1, E2], [P0]]
    shift = {v: ((v[0] + 1) % 3, v[1]) for v in affine_tower.algebras[1].carrier}
    ident = {p: p for p in affine_tower.algebras[2].carrier}
    assert not is_tower_endomorphism(affine_tower, [shift, ident])
    with pytest.raises(NotRepEndomorphism):
        tower_endo_coordinates(affine_tower, gens, [shift, ident])


def test_bad_maps_are_no_tower_endomorphisms(affine_tower):
    gens = [[E1, E2], [P0]]
    vectors, points = affine_tower.algebras[1].carrier, affine_tower.algebras[2].carrier
    ident = [{v: v for v in vectors}, {p: p for p in points}]
    bad = [
        [ident[0], {P0: P0}],                 # not total on the points
        [{E1: E1}, ident[1]],                 # not total on the vectors
        [ident[0], {**ident[1], P0: (5, 5)}],  # leaves the points
        [{**ident[0], E1: "x"}, ident[1]],    # leaves the vectors
    ]
    assert is_tower_endomorphism(affine_tower, ident)
    for maps in bad:
        assert is_tower_endomorphism(affine_tower, maps) is False
        with pytest.raises(NotRepEndomorphism):
            tower_endo_coordinates(affine_tower, gens, maps)
    translation = Tower([translation_rep(6)])
    assert is_tower_endomorphism(translation, [{0: 1}]) is False
    with pytest.raises(NotRepEndomorphism):
        tower_endo_coordinates(translation, [[0]], [{0: 1}])


def test_identity_superposition_is_fixed_point(affine_tower):
    gens = [[E1, E2], [P0]]
    clo = tower_closure(affine_tower, gens)
    ident = (
        {v: v for v in affine_tower.algebras[1].carrier},
        {p: p for p in affine_tower.algebras[2].carrier},
    )
    wid = tower_endo_coordinates(affine_tower, gens, ident, clo=clo)
    sup = tower_superpose(wid, wid)
    ids = clo.identity_assignments()
    for x in (E1, E2):
        assert eval_tower_word(affine_tower, 2, sup[0][x], ids) == x
    assert eval_tower_word(affine_tower, 3, sup[1][P0], ids) == P0


def test_superposition_composition_law_random_pairs(affine_tower, rng):
    gens = [[E1, E2], [P0]]
    clo = tower_closure(affine_tower, gens)
    ids = clo.identity_assignments()
    endos = enumerate_tower_endomorphisms(affine_tower)
    sample = rng.sample(endos, 12)
    for r in sample:
        for s in sample:
            wr = tower_endo_coordinates(affine_tower, gens, r, clo=clo,
                                        verified=True)
            ws = tower_endo_coordinates(affine_tower, gens, s, clo=clo,
                                        verified=True)
            sup = tower_superpose(ws, wr)
            for x in (E1, E2):
                assert eval_tower_word(affine_tower, 2, sup[0][x], ids) == \
                    r[0][s[0][x]]
            assert eval_tower_word(affine_tower, 3, sup[1][P0], ids) == \
                r[1][s[1][P0]]


def test_superpose_level_mismatch(affine_tower):
    gens = [[E1, E2], [P0]]
    ident = (
        {v: v for v in affine_tower.algebras[1].carrier},
        {p: p for p in affine_tower.algebras[2].carrier},
    )
    wid = tower_endo_coordinates(affine_tower, gens, ident)
    with pytest.raises(GeneratorMismatch):
        tower_superpose(wid, wid[:1])


def walk(tower, level, word, assignments):
    """Recursive tower-word evaluation written out in the test."""
    if isinstance(word, Gen):
        return assignments[level][word.key]
    if isinstance(word, App):
        return tower.algebras[level - 1].apply(
            word.op, [walk(tower, level, c, assignments) for c in word.children]
        )
    actor = word.actor
    if isinstance(actor, (Gen, App, Act)):
        actor = walk(tower, level - 1, actor, assignments)
    return tower.reps[level - 2].act(actor, walk(tower, level, word.child, assignments))


def test_superpose_missing_generator_is_eager(affine_tower):
    gens = [[E1, E2], [P0]]
    ident = (
        {v: v for v in affine_tower.algebras[1].carrier},
        {p: p for p in affine_tower.algebras[2].carrier},
    )
    wid = tower_endo_coordinates(affine_tower, gens, ident)
    # E2 is missing from the level-2 table that E2's own word needs
    with pytest.raises(GeneratorMismatch):
        tower_superpose(wid, ({E1: wid[0][E1]}, wid[1]))
    # a level-3 word reaching E2 only through its actor word
    coords = ({}, {P0: Act(Gen(E2), Gen(P0))})
    with pytest.raises(GeneratorMismatch):
        tower_superpose(coords, ({E1: Gen(E1)}, {P0: Gen(P0)}))
    sup = tower_superpose(coords, ({E1: Gen(E1), E2: Gen(E2)}, {P0: Gen(P0)}))
    ids = {2: {E1: E1, E2: E2}, 3: {P0: P0}}
    assert eval_tower_word(affine_tower, 3, sup[1][P0], ids) == (0, 1)
    # an assignment without E2 raises, also right after a memoised value
    lacking = {2: {E1: E1}, 3: {P0: P0}}
    for _ in range(2):
        with pytest.raises(MissingGenerator):
            eval_tower_word(affine_tower, 3, sup[1][P0], lacking)
        with pytest.raises(MissingGenerator):
            eval_tower_word(affine_tower, 3, coords[1][P0], lacking)
        assert eval_tower_word(affine_tower, 3, sup[1][P0], ids) == (0, 1)
        assert eval_tower_word(affine_tower, 3, coords[1][P0], ids) == (0, 1)


def test_words_below_level_two_are_rejected(affine_tower):
    """Also above the top: each level outside 2 .. height is named."""
    ids = {2: {E1: E1, E2: E2}, 3: {P0: P0}}
    for level in (1, affine_tower.height + 1):
        with pytest.raises(ValueError, match=f"^no level {level}: "):
            eval_tower_word(affine_tower, level, App("add", (Gen(E1), Gen(E2))), ids)


def test_evaluation_memo_is_keyed_by_tower_and_values(affine_tower):
    scalars = affine_tower.reps[0]
    minus = Tower([scalars, Representation(
        scalars.acted, f3_point_set(),
        lambda v, p: ((p[0] - v[0]) % 3, (p[1] - v[1]) % 3),
        rep_kind="monoid-action",
    )])
    gens = [[E1, E2], [P0]]
    clo = tower_closure(affine_tower, gens)
    endos = enumerate_tower_endomorphisms(affine_tower)
    wr = tower_endo_coordinates(affine_tower, gens, endos[100], clo=clo,
                                verified=True)
    ws = tower_endo_coordinates(affine_tower, gens, endos[500], clo=clo,
                                verified=True)
    sup = tower_superpose(ws, wr)
    ids = clo.identity_assignments()
    other = {2: {E1: (1, 1), E2: (2, 0)}, 3: {P0: (2, 1)}}
    word = clo.word_of[2][(1, 2)]
    assert walk(affine_tower, 3, word, ids) == (1, 2)
    assert walk(minus, 3, word, ids) == (2, 1)
    for _ in range(2):  # the second round reads the memo
        for tower in (affine_tower, minus):
            for assignments in (ids, other):
                for level in (2, 3):
                    for w in clo.word_of[level - 1].values():
                        assert eval_tower_word(tower, level, w, assignments) == \
                            walk(tower, level, w, assignments)
                images = {
                    level: {x: walk(tower, level, w, assignments)
                            for x, w in wr[level - 2].items()}
                    for level in (2, 3)
                }
                for level in (2, 3):
                    for x, w in ws[level - 2].items():
                        assert eval_tower_word(tower, level, sup[level - 2][x],
                                               assignments) == \
                            walk(tower, level, w, images)


class SubstitutedImages(dict):
    """The value of each substituted word, worked out when it is read."""

    def __init__(self, tower, level, table, assignments):
        super().__init__()
        self.args = tower, level, table, assignments

    def __missing__(self, g):
        tower, level, table, assignments = self.args
        self[g] = walk_any(tower, level, table[g], assignments)
        return self[g]


def walk_any(tower, level, word, assignments):
    """walk, reading a Sub node as its body under the values of the words
    its tables substitute."""
    if isinstance(word, Sub):
        inner = {lvl: SubstitutedImages(tower, lvl, t, assignments)
                 for lvl, t in enumerate(word.tables, 2) if lvl <= word.level}
        return walk_any(tower, level, word.body, inner)
    if isinstance(word, Gen):
        return assignments[level][word.key]
    if isinstance(word, App):
        return tower.algebras[level - 1].apply(
            word.op, [walk_any(tower, level, c, assignments) for c in word.children])
    actor = word.actor
    if isinstance(actor, (Gen, App, Act, Sub)):
        actor = walk_any(tower, level - 1, actor, assignments)
    return tower.reps[level - 2].act(actor, walk_any(tower, level, word.child, assignments))


def transformation_monoid_rep():
    """All self-maps of a 3-point set, composed, acting on the points."""
    points = (0, 1, 2)
    maps = list(itertools.product(points, repeat=3))
    mul = {(a, b): tuple(a[b[p]] for p in points) for a in maps for b in maps}
    acting = FiniteOmegaAlgebra(maps, Signature([("mul", 2)]), {"mul": mul})
    acted = FiniteOmegaAlgebra(points, Signature([]), {})
    return Representation(acting, acted, lambda f, p: f[p], rep_kind="monoid-action")


def random_word(rng, tower, level, gens, depth):
    alg = tower.algebras[level - 1]
    if depth == 0 or rng.random() < 0.25:
        return Gen(rng.choice(gens[level]))
    if alg.signature.ops and rng.random() < 0.5:
        op, arity = rng.choice(alg.signature.ops)
        return App(op, tuple(random_word(rng, tower, level, gens, depth - 1)
                             for _ in range(arity)))
    if level == 2:
        actor = rng.choice(tower.algebras[0].carrier)
    else:
        actor = random_word(rng, tower, level - 1, gens, depth - 1)
    return Act(actor, random_word(rng, tower, level, gens, depth - 1))


@pytest.mark.parametrize("memo_limit", [None, 8])
def test_engine_matches_label_oracle(memo_limit, monkeypatch):
    """Random words and superposition chains up to depth 3 (Sub nodes whose
    tables hold Sub nodes) evaluate as the label-level oracle says, under
    several assignments, also when the memo is dropped every few entries."""
    if memo_limit is not None:
        monkeypatch.setattr(omega, "_MEMO_LIMIT", memo_limit)
    rng = random.Random(1106)
    for obj in (generation_rep(6), transformation_monoid_rep(), toy_affine_tower()):
        tower = obj if isinstance(obj, Tower) else Tower([obj])
        levels = range(2, tower.height + 1)
        for _ in range(25):
            gens = {lvl: rng.sample(tower.algebras[lvl - 1].carrier, rng.randint(1, 3))
                    for lvl in levels}

            def tables(depth=3):
                return tuple({g: random_word(rng, tower, lvl, gens, depth) for g in gens[lvl]}
                             for lvl in levels)

            def superposed(coords, tabs):
                if isinstance(obj, Tower):
                    return tower_superpose(coords, tabs)
                return (superpose(coords[0], tabs[0]),)

            words = tables()
            chain = tables()
            for _ in range(3):
                chain = superposed(tables(), chain)
                words = superposed(words, chain)
                if not isinstance(obj, Tower):
                    word = rng.choice(list(words[0].values()))
                    words = ({"substituted": substitute(word, chain[0]), **words[0]},)
            identity = {lvl: {g: g for g in gens[lvl]} for lvl in levels}
            other = {lvl: {g: rng.choice(tower.algebras[lvl - 1].carrier) for g in gens[lvl]}
                     for lvl in levels}
            lacking = {lvl: dict(list(t.items())[1:]) for lvl, t in other.items()}
            for assignments in (identity, other, lacking):
                for lvl, table in zip(levels, words):
                    for w in table.values():
                        try:
                            want = walk_any(tower, lvl, w, assignments)
                        except KeyError:
                            with pytest.raises(MissingGenerator):
                                eval_tower_word(tower, lvl, w, assignments)
                            continue
                        assert eval_tower_word(tower, lvl, w, assignments) == want
                        if not isinstance(obj, Tower):
                            assert eval_word(obj, w, assignments[2]) == want


def test_equal_closures_built_apart_share_the_memo(affine_tower):
    gens = [[E1, E2], [P0]]
    first = tower_closure(affine_tower, gens)
    ids = first.identity_assignments()
    values = [[eval_tower_word(affine_tower, level, w, ids)
               for w in first.word_of[level - 1].values()] for level in (2, 3)]
    entries = len(omega._MEMO)
    second = tower_closure(affine_tower, gens)
    assert all(second.word_of[2][m] is not first.word_of[2][m] for m in second.word_of[2])
    again = [[eval_tower_word(affine_tower, level, w, ids)
              for w in second.word_of[level - 1].values()] for level in (2, 3)]
    assert again == values
    assert len(omega._MEMO) == entries
    # a pickled copy carries no engine state and evaluates the same
    ident = ({v: v for v in affine_tower.algebras[1].carrier},
             {p: p for p in affine_tower.algebras[2].carrier})
    wid = tower_endo_coordinates(affine_tower, gens, ident, clo=second)
    sup = tower_superpose(wid, second.word_of[1:])
    for level, word in ((3, second.word_of[2][(1, 2)]), (2, sup[0][E1]), (3, sup[1][P0])):
        copy = pickle.loads(pickle.dumps(word))
        assert "_id" not in getattr(copy, "__dict__", {})
        assert eval_tower_word(affine_tower, level, copy, ids) == \
            walk_any(affine_tower, level, word, ids)


def test_superposition_sweep_leaves_no_reference_cycles(affine_tower):
    gens = [[E1, E2], [P0]]
    clo = tower_closure(affine_tower, gens)
    ids = clo.identity_assignments()
    endos = enumerate_tower_endomorphisms(affine_tower)
    coords = [tower_endo_coordinates(affine_tower, gens, m, clo=clo, verified=True)
              for m in endos]
    rng = random.Random(7)
    pairs = [(rng.randrange(len(endos)), rng.randrange(len(endos))) for _ in range(200)]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        results = []
        for i, j in pairs:
            sup = tower_superpose(coords[j], coords[i])
            results.append((sup, eval_tower_word(affine_tower, 2, sup[0][E1], ids),
                            eval_tower_word(affine_tower, 3, sup[1][P0], ids)))
        for (i, j), (_, v2, v3) in zip(pairs, results):
            assert (v2, v3) == (endos[i][0][endos[j][0][E1]], endos[i][1][endos[j][1][P0]])
        del results, sup
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_equal_families_built_apart_share_snapshots_and_nodes(affine_tower, monkeypatch):
    """Coordinate families built apart with equal words share one snapshot
    and its Sub nodes: a second sweep adds no interned entry and returns
    the same nodes."""
    monkeypatch.setattr(omega, "_INTERNED", {})
    monkeypatch.setattr(omega, "_MEMO", {})
    gens = [[E1, E2], [P0]]
    endos = enumerate_tower_endomorphisms(affine_tower)[::91]

    def sweep():
        clo = tower_closure(affine_tower, gens)
        ids = clo.identity_assignments()
        coords = [tower_endo_coordinates(affine_tower, gens, m, clo=clo, verified=True)
                  for m in endos]
        sups = [tower_superpose(ws, wr) for wr in coords for ws in coords]
        return sups, [eval_tower_word(affine_tower, level, sup[level - 2][x], ids)
                      for sup in sups for level, x in ((2, E1), (2, E2), (3, P0))]

    first, values = sweep()
    entries = len(omega._INTERNED)
    second, again = sweep()
    assert len(omega._INTERNED) == entries and again == values
    assert all(a[k][x] is b[k][x] for a, b in zip(first, second) for k in (0, 1) for x in a[k])


def test_non_word_values_keep_a_private_snapshot(affine_tower):
    """A non-word on a generator no body reaches is accepted, on a snapshot
    of its own; a body that reaches it raises TypeError."""
    gens = [[E1, E2], [P0]]
    clo = tower_closure(affine_tower, gens)
    ids = clo.identity_assignments()
    endos = enumerate_tower_endomorphisms(affine_tower)
    wr, ws = (tower_endo_coordinates(affine_tower, gens, endos[i], clo=clo, verified=True)
              for i in (100, 500))
    tables = ({**wr[0], "spare": 42}, dict(wr[1]))
    sups = [tower_superpose(ws, tables) for _ in range(2)]
    assert sups[0][0][E1] is not sups[1][0][E1]
    for sup in sups:
        assert eval_tower_word(affine_tower, 2, sup[0][E1], ids) == \
            walk_any(affine_tower, 2, tower_superpose(ws, wr)[0][E1], ids)
    with pytest.raises(TypeError):
        tower_superpose(({E1: Gen("spare")}, {}), tables)


def test_superposition_and_evaluation_follow_changed_inputs(affine_tower):
    """A coordinate family, a plain table or an assignment changed in place
    after use is read afresh; results built before keep the values they
    had."""
    gens = [[E1, E2], [P0]]
    clo = tower_closure(affine_tower, gens)
    endos = enumerate_tower_endomorphisms(affine_tower)
    wr, ws, wt = (tower_endo_coordinates(affine_tower, gens, endos[i], clo=clo, verified=True)
                  for i in (100, 500, 600))
    plain = [dict(t) for t in wr]
    ids = clo.identity_assignments()

    def composed(assignments):  # ws evaluated at the images of wr, as labels
        images = {level: {x: walk(affine_tower, level, w, assignments)
                          for x, w in wr[level - 2].items()} for level in (2, 3)}
        return {(level, x): walk(affine_tower, level, w, images)
                for level in (2, 3) for x, w in ws[level - 2].items()}

    before, plain_before = tower_superpose(ws, wr), tower_superpose(ws, plain)
    want_before = composed(ids)
    assert wt[0][E1] != wr[0][E1]
    wr[0][E1] = plain[0][E1] = wt[0][E1]
    after, plain_after = tower_superpose(ws, wr), tower_superpose(ws, plain)
    want_after = composed(ids)
    assert want_after != want_before
    for sup, want in ((before, want_before), (after, want_after),
                      (plain_before, want_before), (plain_after, want_after)):
        for (level, x), value in want.items():
            assert eval_tower_word(affine_tower, level, sup[level - 2][x], ids) == value
    ids[2][E1] = (1, 1)
    for (level, x), value in composed(ids).items():
        assert eval_tower_word(affine_tower, level, after[level - 2][x], ids) == value
    # a copied or pickled coordinate table is a plain dict
    assert type(pickle.loads(pickle.dumps(wr[0]))) is dict
    assert pickle.loads(pickle.dumps(wr)) == wr


# ---------------------------------------------------------------------------
# basis


def test_tower_basis_examples(affine_tower):
    basis = tower_basis(affine_tower, [[E1, E2, (1, 1)], [P0, (1, 0)]])
    assert set(basis[0]) == {E1, E2}
    assert set(basis[1]) == {P0}
    again = tower_basis(affine_tower, [list(basis[0]), list(basis[1])])
    assert again == basis


def test_tower_basis_minimality(affine_tower):
    basis = tower_basis(
        affine_tower,
        [list(affine_tower.algebras[1].carrier),
         list(affine_tower.algebras[2].carrier)],
    )
    assert tower_closure(affine_tower, [list(g) for g in basis]).is_full
    for li in range(2):
        for x in basis[li]:
            trial = [list(g) for g in basis]
            trial[li] = [y for y in trial[li] if y != x]
            assert not tower_closure(affine_tower, trial).is_full


def test_empty_point_level_does_not_generate(affine_tower):
    with pytest.raises(NotGenerating):
        tower_basis(affine_tower, [[E1, E2], []])


def test_automorphisms_map_tower_bases_to_bases(affine_tower, rng):
    autos = enumerate_tower_automorphisms(affine_tower)
    assert autos
    basis = ((E1, E2), (P0,))
    for maps in rng.sample(autos, min(12, len(autos))):
        image = [
            [maps[0][x] for x in basis[0]],
            [maps[1][x] for x in basis[1]],
        ]
        got = tower_basis(affine_tower, image)
        assert set(got[0]) == set(image[0])
        assert set(got[1]) == set(image[1])


# ---------------------------------------------------------------------------
# morphisms


def test_identity_tower_morphism(affine_tower):
    ident = [{a: a for a in alg.carrier} for alg in affine_tower.algebras]
    assert check_tower_morphism(ident, affine_tower, affine_tower)


def test_endomorphisms_are_tower_morphisms(affine_tower, rng):
    ident1 = {a: a for a in affine_tower.algebras[0].carrier}
    endos = enumerate_tower_endomorphisms(affine_tower)
    for maps in rng.sample(endos, 10):
        assert check_tower_morphism([ident1, *maps], affine_tower, affine_tower)


def test_broken_level_fails_morphism(affine_tower):
    ident = [{a: a for a in alg.carrier} for alg in affine_tower.algebras]
    broken = dict(ident[2])
    broken[(0, 0)], broken[(1, 1)] = broken[(1, 1)], broken[(0, 0)]
    assert not check_tower_morphism([ident[0], ident[1], broken],
                                    affine_tower, affine_tower)


def test_morphism_composition(affine_tower, rng):
    ident1 = {a: a for a in affine_tower.algebras[0].carrier}
    endos = enumerate_tower_endomorphisms(affine_tower)
    for _ in range(6):
        p = [ident1, *rng.choice(endos)]
        q = [ident1, *rng.choice(endos)]
        comp = compose_tower_morphisms(p, q)
        assert check_tower_morphism(list(comp), affine_tower, affine_tower)


# ---------------------------------------------------------------------------
# induced representations and effectiveness


def test_induced_representation_examples(affine_tower):
    ind = induced_two_level(affine_tower, 1, (0, 0))
    assert ind.act(1, (1, 0)) == (1, 0)
    assert ind.act(2, (1, 0)) == (2, 0)
    assert ind.act(2, (0, 2)) == (0, 1)
    assert classify(ind).effective


def test_induced_representation_needs_identity_preimage(affine_tower):
    with pytest.raises(NoIdentityPreimage):
        induced_two_level(affine_tower, 1, (1, 0))


def test_induced_representation_anchor_dependence(affine_tower):
    at_origin = induced_two_level(affine_tower, 1, (0, 0))
    elsewhere = induced_two_level(affine_tower, 1, (0, 0), anchor=(1, 1))
    assert at_origin.action != elsewhere.action
    assert elsewhere.act(2, (1, 1)) == (1, 1)


def test_effectiveness_chain(affine_tower):
    assert effectiveness_chain(affine_tower, 1, 1) == \
        classify(affine_tower.reps[0]).effective
    assert effectiveness_chain(affine_tower, 2, 1)
    assert effectiveness_chain(affine_tower, 1, 2)


def test_trivial_middle_breaks_chain(affine_tower):
    trivial = Representation(
        affine_tower.algebras[1], affine_tower.algebras[2],
        lambda v, p: p, rep_kind="raw",
    )
    t = Tower([affine_tower.reps[0], trivial])
    assert not effectiveness_chain(t, 1, 2)
