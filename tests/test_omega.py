import itertools

import pytest

from divring.cli import format_word
from divring.errors import (
    GeneratorMismatch,
    LawViolation,
    NotEndomorphism,
    NotGenerating,
    NotMorphism,
    NotRepEndomorphism,
)
from divring.omega import (
    Act,
    App,
    FiniteOmegaAlgebra,
    Gen,
    Representation,
    Signature,
    build_representation,
    check_morphism,
    classify,
    closure,
    decompose_morphism,
    endo_coordinates,
    enumerate_rep_automorphisms,
    enumerate_rep_endomorphisms,
    eval_word,
    extract_basis,
    is_regular,
    is_rep_endomorphism,
    naive_closure,
    one_and_only_one,
    superpose,
    substitute,
    word_generators,
)
from divring.samples import (
    cyclic_group,
    generation_rep,
    point_set,
    scalar_rep,
    translation_rep,
    trivial_monoid,
)
from conftest import random_transformation_monoid


def saturate(rep, gens):
    """Independent saturation loop written inside the test module."""
    members = set(gens)
    while True:
        added = set()
        for op, arity in rep.acted.signature.ops:
            for args in itertools.product(sorted(members, key=rep.acted.index),
                                          repeat=arity):
                v = rep.acted.apply(op, args)
                if v not in members:
                    added.add(v)
        for a in rep.acting.carrier:
            for m in members:
                v = rep.act(a, m)
                if v not in members:
                    added.add(v)
        if not added:
            return members
        members |= added


# ---------------------------------------------------------------------------
# construction and laws


def test_c6_translation_is_valid_monoid_action(c6_translation):
    assert c6_translation.rep_kind == "monoid-action"


def test_f3_scalars_are_valid_ring_action():
    rep = scalar_rep()
    assert rep.rep_kind == "ring-on-abelian-group"


def test_constant_map_rejected_on_group_carrier():
    with pytest.raises(NotEndomorphism):
        build_representation(
            trivial_monoid(), cyclic_group(6, "add"), lambda a, m: 3, "raw"
        )


def test_monoid_law_violation_detected():
    c6 = cyclic_group(6)
    pts = point_set(6)
    # a(m) = a^2 + m keeps the unit law but breaks f(a)f(b) = f(ab)
    with pytest.raises(LawViolation):
        build_representation(c6, pts, lambda a, m: (a * a + m) % 6,
                             "monoid-action")


def test_ring_action_requires_named_operations():
    c6 = cyclic_group(6)
    with pytest.raises(LawViolation):
        build_representation(c6, point_set(6), lambda a, m: (a + m) % 6,
                             "ring-on-abelian-group")


# ---------------------------------------------------------------------------
# classification


def test_translation_is_single_transitive(c6_translation):
    flags = classify(c6_translation)
    assert flags.effective and flags.transitive and flags.single_transitive
    assert one_and_only_one(c6_translation)


def test_reduced_action_is_transitive_not_effective():
    c6 = cyclic_group(6)
    pts3 = point_set(3)
    rep = build_representation(c6, pts3, lambda a, m: (a % 3 + m) % 3,
                               "monoid-action")
    flags = classify(rep)
    assert flags.transitive and not flags.effective
    assert not flags.single_transitive


def test_trivial_action_is_neither():
    rep = generation_rep(6)
    flags = classify(rep)
    assert not flags.effective or len(rep.acting.carrier) == 1
    assert not flags.transitive
    assert not flags.single_transitive


# ---------------------------------------------------------------------------
# closure and words


def test_closure_examples(c6_generation):
    assert closure(c6_generation, [1]).members == (0, 1, 2, 3, 4, 5)
    assert closure(c6_generation, [2]).members == (0, 2, 4)
    full = closure(c6_generation, range(6))
    assert full.is_full
    assert all(isinstance(full.word_of[m], Gen) for m in full.members)
    # a one-shot iterable is read once, not once per carrier element
    assert closure(c6_generation, iter([2, 3])).generators == (2, 3)


def test_closure_levels_are_breadth_first(c6_generation):
    clo = closure(c6_generation, [1])
    assert clo.levels[1] == 0
    assert clo.levels[2] == 1
    assert clo.levels[4] == 2


def test_closure_is_monotone_and_idempotent(c6_generation):
    small = set(closure(c6_generation, [2]).members)
    big = set(closure(c6_generation, [2, 3]).members)
    assert {2} <= small <= big
    again = closure(c6_generation, sorted(small))
    assert set(again.members) == small


def test_closure_matches_saturation_oracle(c6_generation, c6_translation, rng):
    reps = [c6_generation, c6_translation, scalar_rep(),
            random_transformation_monoid(rng, 5)]
    for rep in reps:
        carrier = rep.acted.carrier
        subsets = [[m] for m in carrier]
        subsets += [list(carrier[:2]), list(carrier[-2:])]
        for gens in subsets:
            got = set(closure(rep, gens).members)
            assert got == saturate(rep, gens)
            assert got == set(naive_closure(rep, gens))


def test_closure_words_reproduce_members(c6_generation):
    clo = closure(c6_generation, [2, 3])
    identity = {x: x for x in clo.generators}
    for m in clo.members:
        assert eval_word(c6_generation, clo.word_of[m], identity) == m


def test_eval_word_basics(c6_generation):
    x = Gen(1)
    assert eval_word(c6_generation, x, {1: 1}) == 1
    w = App("add", (x, x))
    assert eval_word(c6_generation, w, {1: 1}) == 2
    act = Act("e", w)
    assert eval_word(c6_generation, act, {1: 1}) == 2


# ---------------------------------------------------------------------------
# endomorphisms, coordinates, superposition


def endos_by_multiplier(rep):
    return {r[1]: r for r in enumerate_rep_endomorphisms(rep)}


def test_endomorphism_enumeration(c6_generation):
    table = endos_by_multiplier(c6_generation)
    assert sorted(table) == [0, 1, 2, 3, 4, 5]


def test_identity_coordinates(c6_generation):
    ident = {m: m for m in range(6)}
    coords = endo_coordinates(c6_generation, [1], ident)
    assert eval_word(c6_generation, coords[1], {1: 1}) == 1


def test_multiplier_five_coordinates(c6_generation):
    table = endos_by_multiplier(c6_generation)
    coords = endo_coordinates(c6_generation, [1], table[5])
    assert eval_word(c6_generation, coords[1], {1: 1}) == 5


def test_coordinates_reject_non_endomorphism(c6_generation):
    bogus = {m: (m + 1) % 6 for m in range(6)}
    with pytest.raises(NotRepEndomorphism):
        endo_coordinates(c6_generation, [1], bogus)


def test_coordinates_require_generating_set(c6_generation):
    ident = {m: m for m in range(6)}
    with pytest.raises(NotGenerating):
        endo_coordinates(c6_generation, [2], ident)


def test_superpose_with_identity(c6_generation):
    table = endos_by_multiplier(c6_generation)
    clo = closure(c6_generation, [1])
    w5 = endo_coordinates(c6_generation, [1], table[5], clo=clo)
    wid = endo_coordinates(c6_generation, [1], table[1], clo=clo)
    sup = superpose(w5, wid)
    assert eval_word(c6_generation, sup[1], {1: 1}) == 5


def test_superpose_composes_contravariantly(c6_generation):
    table = endos_by_multiplier(c6_generation)
    clo = closure(c6_generation, [1])
    w5 = endo_coordinates(c6_generation, [1], table[5], clo=clo)
    sup = superpose(w5, w5)
    assert eval_word(c6_generation, sup[1], {1: 1}) == 1  # 25 = 1 mod 6


def test_superposition_law_all_pairs(c6_generation):
    clo = closure(c6_generation, [1])
    endos = enumerate_rep_endomorphisms(c6_generation)
    coords = {
        r[1]: endo_coordinates(c6_generation, [1], r, clo=clo, verified=True)
        for r in endos
    }
    for r in endos:
        for s in endos:
            sup = superpose(coords[s[1]], coords[r[1]])
            assert eval_word(c6_generation, sup[1], {1: 1}) == r[s[1]]


def test_superposed_words_print_and_report_generators(c6_generation):
    table = endos_by_multiplier(c6_generation)
    clo = closure(c6_generation, [1])
    w5 = endo_coordinates(c6_generation, [1], table[5], clo=clo)
    w2 = endo_coordinates(c6_generation, [1], table[2], clo=clo)
    sup = superpose(w5, w2)
    assert word_generators(sup[1]) == {1}
    assert format_word(sup[1]) == f"{format_word(w5[1])}[1 := {format_word(w2[1])}]"
    assert eval_word(c6_generation, sup[1], {1: 1}) == 4  # 2 * 5 mod 6
    twice = substitute(sup[1], {1: Gen(1)})
    assert word_generators(twice) == {1}
    assert eval_word(c6_generation, twice, {1: 3}) == 0  # 4 * 3 mod 6
    with pytest.raises(GeneratorMismatch):
        superpose(w5, {2: w2[1]})


def test_superposition_associativity(c6_generation):
    # evaluating the structural substitution equals evaluating the original
    # words under the assignment by the substituted words' values
    clo = closure(c6_generation, [2, 3])
    table = endos_by_multiplier(c6_generation)
    w5map = endo_coordinates(c6_generation, [2, 3], table[5], clo=clo)
    for m in clo.members:
        word = clo.word_of[m]
        structural = substitute(word, w5map)
        identity = {x: x for x in (2, 3)}
        via_assignment = eval_word(
            c6_generation, word,
            {x: eval_word(c6_generation, w5map[x], identity) for x in (2, 3)},
        )
        assert eval_word(c6_generation, structural, identity) == via_assignment


def test_endomorphisms_form_semigroup(c6_generation):
    endos = enumerate_rep_endomorphisms(c6_generation)
    keys = {tuple(r[m] for m in range(6)) for r in endos}
    for r in endos:
        for s in endos:
            comp = {m: r[s[m]] for m in range(6)}
            assert is_rep_endomorphism(c6_generation, comp)
            assert tuple(comp[m] for m in range(6)) in keys


def test_automorphisms_form_group(c6_generation):
    autos = enumerate_rep_automorphisms(c6_generation)
    assert sorted(a[1] for a in autos) == [1, 5]
    for a in autos:
        inv = {v: k for k, v in a.items()}
        assert is_rep_endomorphism(c6_generation, inv)


# ---------------------------------------------------------------------------
# regularity and bases


def test_automorphisms_are_regular(c6_generation):
    for a in enumerate_rep_automorphisms(c6_generation):
        assert is_regular(c6_generation, [1], a)
        assert is_regular(c6_generation, [2, 3], a)


def test_doubling_is_singular(c6_generation):
    table = endos_by_multiplier(c6_generation)
    assert not is_regular(c6_generation, [1], table[2])
    assert is_regular(c6_generation, [1], table[1])


def test_basis_extraction_examples(c6_generation):
    assert extract_basis(c6_generation, [1, 2, 3]) == (1,)
    assert extract_basis(c6_generation, [2, 3]) == (2, 3)
    assert extract_basis(c6_generation, [1]) == (1,)


def test_basis_minimality(c6_generation):
    for gens in ([1, 2, 3], [2, 3], [1, 4, 5], list(range(6))):
        basis = extract_basis(c6_generation, gens)
        assert closure(c6_generation, basis).is_full
        for x in basis:
            rest = [y for y in basis if y != x]
            assert not closure(c6_generation, rest).is_full


def test_two_inequivalent_bases(c6_generation):
    assert closure(c6_generation, [1]).is_full
    assert closure(c6_generation, [2, 3]).is_full
    assert not closure(c6_generation, [3]).is_full
    assert extract_basis(c6_generation, [2, 3]) == (2, 3)


def test_automorphisms_map_bases_to_bases(c6_generation):
    for a in enumerate_rep_automorphisms(c6_generation):
        for basis in ((1,), (2, 3)):
            image = [a[x] for x in basis]
            assert set(extract_basis(c6_generation, image)) == set(image)


# ---------------------------------------------------------------------------
# morphisms


def test_identity_morphism(c6_translation):
    ident_a = {a: a for a in c6_translation.acting.carrier}
    ident_m = {m: m for m in c6_translation.acted.carrier}
    assert check_morphism(ident_a, ident_m, c6_translation, c6_translation)


def test_mod3_reduction_is_morphism(c6_translation):
    t3 = translation_rep(3)
    r = {a: a % 3 for a in range(6)}
    big_r = {m: m % 3 for m in range(6)}
    assert check_morphism(r, big_r, c6_translation, t3)
    constant = {m: 0 for m in range(6)}
    assert not check_morphism(r, constant, c6_translation, t3)


def test_decompose_identity(c6_translation):
    ident_a = {a: a for a in c6_translation.acting.carrier}
    ident_m = {m: m for m in c6_translation.acted.carrier}
    dec = decompose_morphism(ident_a, ident_m, c6_translation, c6_translation)
    assert all(dec.checks.values())
    assert len(dec.acting_quotient.carrier) == 6
    assert dec.t == {a: a for a in range(6)}


def test_decompose_reduction(c6_translation):
    t3 = translation_rep(3)
    r = {a: a % 3 for a in range(6)}
    big_r = {m: m % 3 for m in range(6)}
    dec = decompose_morphism(r, big_r, c6_translation, t3)
    assert all(dec.checks.values())
    assert sorted(dec.acting_quotient.carrier) == [0, 1, 2]
    assert dec.j[3] == dec.j[0]
    assert dec.i == {y: y for y in range(3)}


def test_decompose_injective_embedding(c6_translation):
    t3 = translation_rep(3)
    r = {a: (2 * a) % 6 for a in range(3)}
    big_r = {m: (2 * m) % 6 for m in range(3)}
    dec = decompose_morphism(r, big_r, t3, c6_translation)
    assert all(dec.checks.values())
    assert dec.j == {a: a for a in range(3)}
    assert sorted(dec.acting_image.carrier) == [0, 2, 4]
    assert sorted(dec.acted_image.carrier) == [0, 2, 4]


def test_decompose_rejects_non_morphism(c6_translation):
    t3 = translation_rep(3)
    r = {a: a % 3 for a in range(6)}
    constant = {m: 0 for m in range(6)}
    with pytest.raises(NotMorphism):
        decompose_morphism(r, constant, c6_translation, t3)
