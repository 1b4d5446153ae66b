"""Differential tests of construction, law checks and classification.

`FiniteOmegaAlgebra`, `Representation` and `Tower` check their tables,
actions and laws on carrier indices.  The oracles here are the label loops
they replace, written on labels only: one `tables`/`action` lookup per
actor, operation and argument tuple, in carrier order.  Seeded cases cover
every rep_kind over relabelled carriers (strings, tuples, ints), valid ones
and copies broken by changing one action or table cell, and each outcome
must equal the oracle's: exception type, message and fields, classification
flags, and the level of a chain mismatch.
"""

import itertools
import random
from collections import Counter

from divring.errors import ChainMismatch, LawViolation, NotEndomorphism
from divring.omega import FiniteOmegaAlgebra, Representation, classify, one_and_only_one
from divring.towers import Tower
from conftest import random_transformation_monoid

POOL = ["a", "b", "zz", (0,), (1, 2), ("a", 0), (), -3, 7, 11, "e", ("x", "y")]
POOL += [f"s{i}" for i in range(60)]
KINDS = ("raw", "monoid-action", "ring-on-abelian-group")


# ---------------------------------------------------------------------------
# int-labelled specs: (carrier, ops, tables), the action a dict


def spec(n, ops, fn):
    carrier = list(range(n))
    return carrier, ops, {op: {args: fn[op](*args)
                               for args in itertools.product(carrier, repeat=k)}
                          for op, k in ops}


def group(n, op):
    return spec(n, [(op, 2)], {op: lambda a, b: (a + b) % n})


def ring(n, zero_mul=False):
    return spec(n, [("add", 2), ("mul", 2)], {"add": lambda a, b: (a + b) % n,
                                              "mul": lambda a, b: 0 if zero_mul else a * b % n})


def random_spec(rng, n, ops):
    return spec(n, ops, {op: lambda *args: rng.randrange(n) for op, _ in ops})


def action(acting, acted, fn):
    return {(a, m): fn(a, m) for a in acting[0] for m in acted[0]}


def from_rep(rep):
    def of(alg):
        return (list(alg.carrier), list(alg.signature.ops),
                {op: dict(t) for op, t in alg.tables.items()})
    return of(rep.acting), of(rep.acted), dict(rep.action)


def base_cases(rng):
    """(rep_kind, acting spec, acted spec, action) over int carriers."""
    n = rng.choice([1, 2, 3, 4, 6])
    m = rng.choice([d for d in range(1, n + 1) if n % d == 0])
    c, k = rng.randrange(m), rng.randrange(m)
    points = spec(m, [], {})
    for acted in (points, group(m, "add")):
        yield "monoid-action", group(n, "mul"), acted, action(group(n, "mul"), acted,
                                                              lambda a, x: (c * a + x) % m)
    for acting in (ring(n), ring(n, zero_mul=True)):
        acted = group(m, "add")
        yield "ring-on-abelian-group", acting, acted, action(acting, acted,
                                                             lambda a, x: k * a * x % m)
    # signatures the kinds reject
    for kind, acting, acted in [("ring-on-abelian-group", group(n, "mul"), group(m, "add")),
                                ("ring-on-abelian-group", ring(n), points),
                                ("monoid-action", points, points)]:
        yield kind, acting, acted, action(acting, acted, lambda a, x: x)
    ops = [op for op in [("c", 0), ("u", 1), ("m", 2), ("t", 3)] if rng.random() < 0.5]
    # an acted algebra whose operations read their first argument through a
    # self-map f, so that f and the identity are endomorphisms; its 'add'
    # is not commutative
    for kind in KINDS:
        if kind == "ring-on-abelian-group":
            acting, acted_ops = ring(rng.randint(1, 4)), [("add", 2)]
        else:
            acting_ops = [("mul", 2)] if kind == "monoid-action" else ops
            acting, acted_ops = random_spec(rng, rng.randint(1, 4), acting_ops), ops
        size = rng.randint(1, 4)
        f = {x: rng.randrange(size) for x in range(size)}
        acted = spec(size, acted_ops,
                     {op: lambda *args: f[args[0]] if args else 0 for op, _ in acted_ops})
        twist = {a: rng.random() < 0.5 for a in acting[0]}
        yield kind, acting, acted, action(acting, acted, lambda a, x: f[x] if twist[a] else x)
    yield ("monoid-action", *from_rep(random_transformation_monoid(rng, rng.randint(2, 4))))


def relabel(rng, alg):
    carrier, ops, tables = alg
    names = dict(zip(carrier, rng.sample(POOL, len(carrier))))
    out = ([names[x] for x in carrier], ops,
           {op: {tuple(names[x] for x in args): names[v] for args, v in t.items()}
            for op, t in tables.items()})
    return out, names


def relabelled(rng, kind, acting, acted, act):
    acting, an = relabel(rng, acting)
    acted, mn = relabel(rng, acted)
    return kind, acting, acted, {(an[a], mn[x]): mn[v] for (a, x), v in act.items()}


def broken(rng, kind, acting, acted, act):
    """A copy with one action cell, or one table cell of either algebra, set
    to a random element of its carrier (the same one, at times)."""
    acting, acted = [(carrier, ops, {op: dict(t) for op, t in tables.items()})
                     for carrier, ops, tables in (acting, acted)]
    act = dict(act)
    alg = rng.choice([None, acting, acted])
    if alg is None or not alg[1]:
        act[rng.choice(sorted(act, key=repr))] = rng.choice(acted[0])
    else:
        table = alg[2][rng.choice(alg[1])[0]]
        table[rng.choice(sorted(table, key=repr))] = rng.choice(alg[0])
    return kind, acting, acted, act


def cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        for case in base_cases(rng):
            case = relabelled(rng, *case)
            yield case
            yield broken(rng, *case)


# ---------------------------------------------------------------------------
# label-loop oracles


def oracle_laws(kind, acting, acted, act):
    """The exception the construction must raise, or None."""
    def ap(alg, op, args):
        return alg.tables[op][tuple(args)]

    for a in acting.carrier:
        for op, arity in acted.signature.ops:
            for args in itertools.product(acted.carrier, repeat=arity):
                if act[a, ap(acted, op, args)] != ap(acted, op, [act[a, x] for x in args]):
                    return NotEndomorphism(a, op, args)

    def unit(op):
        return next((e for e in acting.carrier
                     if all(ap(acting, op, (e, x)) == x == ap(acting, op, (x, e))
                            for x in acting.carrier)), None)

    def unit_acts(e):
        return next((LawViolation("unit-acts-as-identity", (e, m))
                     for m in acted.carrier if act[e, m] != m), None)

    def products(op, additive):
        for a, b, m in itertools.product(acting.carrier, acting.carrier, acted.carrier):
            if additive and (act[ap(acting, "add", (a, b)), m]
                             != ap(acted, "add", (act[a, m], act[b, m]))):
                return LawViolation("additivity-in-actor", (a, b, m))
            if act[ap(acting, op, (a, b)), m] != act[a, act[b, m]]:
                return LawViolation("action-multiplicativity", (a, b, m))
        return None

    if kind == "monoid-action":
        binary = [n for n, k in acting.signature.ops if k == 2]
        if not binary:
            return LawViolation("acting algebra lacks a binary operation")
        op = "mul" if "mul" in binary else binary[0]
        e = unit(op)
        if e is None:
            return LawViolation("monoid-unit", op)
        return unit_acts(e) or products(op, False)
    if kind == "ring-on-abelian-group":
        names = [n for n, _ in acting.signature.ops]
        if "add" not in names or "mul" not in names:
            return LawViolation("ring signature must name 'add' and 'mul' operations")
        if "add" not in [n for n, _ in acted.signature.ops]:
            return LawViolation("acted group must name an 'add' operation")
        e = unit("mul")
        return products("mul", True) or (unit_acts(e) if e is not None else None)
    return None


def oracle_classify(acting, acted, act):
    A, M = acting.carrier, acted.carrier
    images = [tuple(act[a, m] for m in M) for a in A]
    effective = len(set(images)) == len(images)
    transitive = all(any(act[a, m] == mp for a in A) for m in M for mp in M)
    one = all(sum(1 for a in A if act[a, mp] == m) == 1 for m in M for mp in M)
    return one, (effective, transitive, effective and transitive and one)


def oracle_build_error(carrier, ops, tables):
    for op, arity in ops:
        for args in itertools.product(carrier, repeat=arity):
            if args not in tables[op]:
                return f"table for {op!r} is not total at {args!r}"
            if tables[op][args] not in set(carrier):
                return f"table for {op!r} leaves the carrier at {args!r}"
    return None


def oracle_action_error(acting, acted, act):
    for a in acting:
        for m in acted:
            if (a, m) not in act:
                return f"action is not total at ({a!r}, {m!r})"
            if act[a, m] not in set(acted):
                return f"action leaves the carrier at ({a!r}, {m!r})"
    return None


def outcome(exc):
    return None if exc is None else (type(exc), str(exc), vars(exc))


def raised(build):
    try:
        build()
    except (ValueError, LawViolation, NotEndomorphism, ChainMismatch) as exc:
        return exc
    return None


# ---------------------------------------------------------------------------
# tests


def test_laws_and_witnesses_match_label_oracle():
    seen = Counter()
    for kind, acting, acted, act in cases(9130, 40):
        acting, acted = FiniteOmegaAlgebra(*acting), FiniteOmegaAlgebra(*acted)
        want = outcome(oracle_laws(kind, acting, acted, act))
        got = outcome(raised(lambda: Representation(acting, acted, act, rep_kind=kind)))
        assert got == want, (kind, acting.carrier, acted.carrier)
        seen[kind, want and (want[0].__name__, want[2].get("law"))] += 1
        rep = Representation(acting, acted, act, rep_kind=kind, validate=False)
        one, flags = oracle_classify(acting, acted, act)
        assert one_and_only_one(rep) is one
        assert tuple(vars(classify(rep)).values()) == flags
        seen["single transitive"] += flags[2]
    # every law and witness kind occurs, and valid actions of every kind
    for kind in KINDS:
        assert seen[kind, None] > 0
        assert seen[kind, ("NotEndomorphism", None)] > 0
    for law in ("unit-acts-as-identity", "action-multiplicativity", "monoid-unit",
                "acting algebra lacks a binary operation"):
        assert seen["monoid-action", ("LawViolation", law)] > 0
    for law in ("additivity-in-actor", "action-multiplicativity", "unit-acts-as-identity",
                "ring signature must name 'add' and 'mul' operations",
                "acted group must name an 'add' operation"):
        assert seen["ring-on-abelian-group", ("LawViolation", law)] > 0
    assert seen["single transitive"] > 0


def test_construction_errors_match_label_oracle():
    rng = random.Random(9131)
    seen = Counter()
    for kind, acting, acted, act in cases(9132, 15):
        for alg in (acting, acted):
            carrier, ops, tables = alg
            tables = {op: dict(t) for op, t in tables.items()}
            cells = [(op, args) for op, t in tables.items() for args in t]
            if cells:
                op, args = rng.choice(cells)
                if rng.random() < 0.5:
                    del tables[op][args]
                else:
                    tables[op][args] = "off"
            want = oracle_build_error(carrier, ops, tables)
            exc = raised(lambda: FiniteOmegaAlgebra(carrier, ops, tables))
            assert outcome(exc) == (None if want is None else (ValueError, want, {}))
            seen[want is None] += 1
        act = dict(act)
        cell = rng.choice(sorted(act, key=repr))
        if rng.random() < 0.5:
            del act[cell]
        else:
            act[cell] = "off"
        acting, acted = FiniteOmegaAlgebra(*acting), FiniteOmegaAlgebra(*acted)
        want = oracle_action_error(acting.carrier, acted.carrier, act)
        exc = raised(lambda: Representation(acting, acted, act, validate=False))
        assert outcome(exc) == (ValueError, want, {})
    assert seen[True] > 0 and seen[False] > 0


def test_chain_mismatch_level_matches_label_oracle():
    rng = random.Random(9133)
    levels = Counter()
    for _ in range(120):
        height = rng.choice([3, 4])
        ops = [op for op in [("c", 0), ("u", 1), ("m", 2)] if rng.random() < 0.6]
        specs = [relabel(rng, random_spec(rng, rng.randint(1, 3), ops))[0] for _ in range(height)]
        reps = []
        for lo, hi in zip(specs, specs[1:]):
            if reps and rng.random() < 0.7:
                # the same structure built afresh, or a copy with one change
                carrier, sig, tables = lo
                tables = {op: dict(t) for op, t in tables.items()}
                change = rng.choice(["none", "cell", "order", "label"])
                if change == "cell" and ops:
                    op = rng.choice(ops)[0]
                    tables[op][rng.choice(sorted(tables[op], key=repr))] = rng.choice(carrier)
                elif change == "order":
                    carrier = carrier[::-1]
                elif change == "label":
                    carrier = carrier[:-1] + ["fresh"]
                    tables = {op: {tuple("fresh" if x == lo[0][-1] else x for x in args):
                                   "fresh" if v == lo[0][-1] else v for args, v in t.items()}
                              for op, t in tables.items()}
                acting = FiniteOmegaAlgebra(carrier, sig, tables)
            else:
                acting = reps[-1].acted if reps else FiniteOmegaAlgebra(*lo)
            acted = FiniteOmegaAlgebra(*hi)
            reps.append(Representation(acting, acted, action(
                (acting.carrier,), (acted.carrier,), lambda a, m: rng.choice(acted.carrier)),
                validate=False))
        want = next((ChainMismatch(k + 1) for k in range(len(reps) - 1)
                     if (reps[k].acted.carrier, reps[k].acted.signature, reps[k].acted.tables)
                     != (reps[k + 1].acting.carrier, reps[k + 1].acting.signature,
                         reps[k + 1].acting.tables)), None)
        assert outcome(raised(lambda: Tower(reps))) == outcome(want)
        levels[want and want.level] += 1
    assert levels[None] > 0 and levels[1] > 0 and levels[2] > 0


def test_ring_kind_needs_binary_add_and_mul():
    """An 'add' or 'mul' of another arity fails the signature law instead of
    reaching the tables at pairs."""
    ternary = FiniteOmegaAlgebra([0], [("add", 2), ("mul", 3)],
                                 {"add": {(0, 0): 0}, "mul": {(0, 0, 0): 0}})
    unary = FiniteOmegaAlgebra([0], [("add", 1)], {"add": {(0,): 0}})
    cases = [(ternary, unary, "ring signature must name 'add' and 'mul' operations"),
             (FiniteOmegaAlgebra(*ring(1)), unary, "acted group must name an 'add' operation")]
    for acting, acted, law in cases:
        exc = raised(lambda: Representation(acting, acted, {(0, 0): 0},
                                            rep_kind="ring-on-abelian-group"))
        assert outcome(exc) == outcome(LawViolation(law))
