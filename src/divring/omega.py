"""Finite universal algebras, their representations, closures and words.

A FiniteOmegaAlgebra is a finite carrier with total operation tables.  A
Representation is one such algebra acting on another so that every
transformation is an endomorphism of the acted algebra; the optional kind
("monoid-action", "ring-on-abelian-group" or "raw") declares which extra
laws the action satisfies, and every declared law is checked exhaustively
at construction time.

Closure of a generating subset, derivation words, coordinates of
endomorphisms, their superposition, regularity, basis extraction and
morphism decomposition all live here, each written once for towers (see
"the layered engine" below): a representation is the height-2 tower.

Word equality throughout is evaluation equality, never syntactic: the word
problem has no normal form in this generality, but all carriers are finite
so agreement under every relevant assignment is decidable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import (
    GeneratorMismatch,
    LawViolation,
    MissingGenerator,
    NotEndomorphism,
    NotGenerating,
    NotMorphism,
    NotRepEndomorphism,
)

DEFAULT_CARRIER_BOUND = 64


@dataclass(frozen=True)
class Signature:
    """Named finitary operations; names are unique, arities >= 0."""

    ops: tuple

    def __init__(self, ops: Iterable):
        ops = tuple((str(name), int(arity)) for name, arity in ops)
        names = [n for n, _ in ops]
        if len(set(names)) != len(names):
            raise ValueError("operation names must be unique")
        if any(a < 0 for _, a in ops):
            raise ValueError("arities must be nonnegative")
        object.__setattr__(self, "ops", ops)

    def arity(self, name: str) -> int:
        for n, a in self.ops:
            if n == name:
                return a
        raise KeyError(name)

    @property
    def names(self) -> tuple:
        return tuple(n for n, _ in self.ops)


class FiniteOmegaAlgebra:
    """A finite carrier with a total table for every signature operation."""

    __slots__ = ("carrier", "signature", "tables", "name", "_index")

    def __init__(self, carrier, signature, tables, name=None,
                 carrier_bound=DEFAULT_CARRIER_BOUND):
        self.carrier = tuple(carrier)
        if len(set(self.carrier)) != len(self.carrier):
            raise ValueError("carrier labels must be distinct")
        if len(self.carrier) > carrier_bound:
            raise ValueError(
                f"carrier size {len(self.carrier)} exceeds bound {carrier_bound}"
            )
        if not isinstance(signature, Signature):
            signature = Signature(signature)
        self.signature = signature
        self.name = name
        self._index = {m: i for i, m in enumerate(self.carrier)}
        cset = set(self.carrier)
        norm = {}
        for op, arity in signature.ops:
            table = tables[op]
            if callable(table):
                table = {
                    args: table(*args)
                    for args in itertools.product(self.carrier, repeat=arity)
                }
            else:
                table = dict(table)
            for args in itertools.product(self.carrier, repeat=arity):
                if args not in table:
                    raise ValueError(f"table for {op!r} is not total at {args!r}")
                if table[args] not in cset:
                    raise ValueError(f"table for {op!r} leaves the carrier at {args!r}")
            norm[op] = table
        self.tables = norm

    def apply(self, op: str, args: Sequence) -> object:
        return self.tables[op][tuple(args)]

    def index(self, m) -> int:
        return self._index[m]

    def same_structure(self, other: "FiniteOmegaAlgebra") -> bool:
        return (
            self.carrier == other.carrier
            and self.signature == other.signature
            and self.tables == other.tables
        )

    def is_endomorphism(self, h: Mapping) -> bool:
        """h: carrier -> carrier respecting every operation."""
        return is_homomorphism(h, self, self)

    def __repr__(self):
        label = self.name or f"{len(self.carrier)} elements"
        return f"FiniteOmegaAlgebra({label})"


def _find_unit(alg: FiniteOmegaAlgebra, op: str):
    """Two-sided unit of a binary operation, or None."""
    for e in alg.carrier:
        if all(
            alg.apply(op, (e, x)) == x and alg.apply(op, (x, e)) == x
            for x in alg.carrier
        ):
            return e
    return None


class Representation:
    """An algebra A acting on an algebra M by endomorphisms.

    handedness only affects printing (left actions read a*m, right ones
    m*a); the action function itself is side-agnostic.
    """

    __slots__ = ("acting", "acted", "action", "rep_kind", "handedness", "name")

    def __init__(self, acting, acted, action, rep_kind="raw", handedness="left",
                 name=None, validate=True):
        if rep_kind not in ("raw", "monoid-action", "ring-on-abelian-group"):
            raise ValueError(f"unknown rep_kind {rep_kind!r}")
        if handedness not in ("left", "right"):
            raise ValueError("handedness must be 'left' or 'right'")
        self.acting = acting
        self.acted = acted
        if callable(action):
            action = {
                (a, m): action(a, m)
                for a in acting.carrier
                for m in acted.carrier
            }
        self.action = dict(action)
        self.rep_kind = rep_kind
        self.handedness = handedness
        self.name = name
        if validate:
            self._validate()

    def act(self, a, m):
        return self.action[(a, m)]

    def transformation(self, a) -> tuple:
        """The transformation of M induced by a, as an image tuple in carrier order."""
        return tuple(self.action[(a, m)] for m in self.acted.carrier)

    # -- validation ---------------------------------------------------------

    def _validate(self):
        mset = set(self.acted.carrier)
        for a in self.acting.carrier:
            for m in self.acted.carrier:
                if (a, m) not in self.action or self.action[(a, m)] not in mset:
                    raise ValueError(f"action is not total at ({a!r}, {m!r})")
        # every transformation must respect the acted algebra's operations
        for a in self.acting.carrier:
            for op, arity in self.acted.signature.ops:
                for args in itertools.product(self.acted.carrier, repeat=arity):
                    lhs = self.act(a, self.acted.apply(op, args))
                    rhs = self.acted.apply(op, [self.act(a, x) for x in args])
                    if lhs != rhs:
                        raise NotEndomorphism(a, op, args)
        if self.rep_kind == "monoid-action":
            self._validate_monoid_action()
        elif self.rep_kind == "ring-on-abelian-group":
            self._validate_ring_action()

    def _binary_op(self, name_hint=None):
        ops = [n for n, a in self.acting.signature.ops if a == 2]
        if name_hint and name_hint in ops:
            return name_hint
        if not ops:
            raise LawViolation("acting algebra lacks a binary operation")
        return ops[0]

    def _validate_monoid_action(self):
        op = self._binary_op("mul")
        unit = _find_unit(self.acting, op)
        if unit is None:
            raise LawViolation("monoid-unit", op)
        for m in self.acted.carrier:
            if self.act(unit, m) != m:
                raise LawViolation("unit-acts-as-identity", (unit, m))
        for a in self.acting.carrier:
            for b in self.acting.carrier:
                ab = self.acting.apply(op, (a, b))
                for m in self.acted.carrier:
                    if self.act(ab, m) != self.act(a, self.act(b, m)):
                        raise LawViolation("action-multiplicativity", (a, b, m))

    def _validate_ring_action(self):
        names = self.acting.signature.names
        if "add" not in names or "mul" not in names:
            raise LawViolation("ring signature must name 'add' and 'mul' operations")
        if "add" not in self.acted.signature.names:
            raise LawViolation("acted group must name an 'add' operation")
        for a in self.acting.carrier:
            for b in self.acting.carrier:
                asum = self.acting.apply("add", (a, b))
                aprod = self.acting.apply("mul", (a, b))
                for m in self.acted.carrier:
                    lhs = self.act(asum, m)
                    rhs = self.acted.apply("add", (self.act(a, m), self.act(b, m)))
                    if lhs != rhs:
                        raise LawViolation("additivity-in-actor", (a, b, m))
                    if self.act(aprod, m) != self.act(a, self.act(b, m)):
                        raise LawViolation("action-multiplicativity", (a, b, m))
        one = _find_unit(self.acting, "mul")
        if one is not None:
            for m in self.acted.carrier:
                if self.act(one, m) != m:
                    raise LawViolation("unit-acts-as-identity", (one, m))

    def __repr__(self):
        label = self.name or f"{self.acting!r} on {self.acted!r}"
        return f"Representation({label})"


def build_representation(acting, acted, action, rep_kind="raw",
                         handedness="left", name=None) -> Representation:
    """Validated construction; see Representation for the checked laws."""
    return Representation(acting, acted, action, rep_kind, handedness, name)


@dataclass(frozen=True)
class RepClassification:
    effective: bool
    transitive: bool
    single_transitive: bool


def one_and_only_one(rep: Representation) -> bool:
    """For every pair (m, m') exactly one actor sends m' to m."""
    for m in rep.acted.carrier:
        for mp in rep.acted.carrier:
            hits = sum(1 for a in rep.acting.carrier if rep.act(a, mp) == m)
            if hits != 1:
                return False
    return True


def classify(rep: Representation) -> RepClassification:
    """Effectiveness, transitivity and single transitivity flags.

    Single transitivity is taken as the conjunction of the two flags and is
    cross-checked against the one-and-only-one characterization; the two
    agree on all shipped test objects.
    """
    transformations = [rep.transformation(a) for a in rep.acting.carrier]
    effective = len(set(transformations)) == len(transformations)
    transitive = all(
        any(rep.act(a, m) == mp for a in rep.acting.carrier)
        for m in rep.acted.carrier
        for mp in rep.acted.carrier
    )
    single = effective and transitive and one_and_only_one(rep)
    return RepClassification(effective, transitive, single)


# ---------------------------------------------------------------------------
# words


@dataclass(frozen=True)
class Gen:
    """A generator occurrence; the key is the generator element itself."""

    key: object


@dataclass(frozen=True)
class App:
    """An operation of the acted algebra applied to sub-words."""

    op: str
    children: tuple


@dataclass(frozen=True)
class Act:
    """An action application.  For a plain representation the actor is a
    bare element of the acting algebra; in towers it is a word one level
    down."""

    actor: object
    child: object


class Sub:
    """An explicit substitution: `body` with its generators replaced.

    `tables[k]` maps the generators of level k + 2 to words of that level
    (a representation is a height-2 tower, with the one table of level 2).
    The body is a word of level `level`: its own generators come from
    tables[level - 2], those of its actor words from the tables below.
    Superposition builds these nodes instead of copying the body.  The
    tables are a read-only snapshot taken at superposition, shared by
    every node built from the same tables.
    """

    __slots__ = ("body", "level", "_env", "_uses", "_val", "_value")

    def __init__(self, body, level, env, uses):
        self.body = body
        self.level = level
        self._env = env
        self._uses = uses
        self._val = None  # the last valuation and the value under it
        self._value = None

    @property
    def tables(self) -> tuple:
        return tuple(MappingProxyType(t) for t in self._env.tables)

    def __repr__(self):
        return f"Sub({self.body!r}, level={self.level}, tables={self._env.tables!r})"


Word = object  # Gen | App | Act | Sub
_WORD_TYPES = (Gen, App, Act, Sub)

# Word-engine caches, shared by every caller in the process: no result
# depends on what they hold, only the time it takes.  Words and tables are
# keyed by id; every entry holds the object it was keyed by, so no other
# object can take that id while the entry lives.
#   _ENVS        id(tables) -> _Env: a snapshot of substitution tables and
#                the Sub nodes built on it; each Sub keeps its last value
#   _USES        id(word) -> (word, generators it reaches)
#   _VALUATIONS  (owner, generator images) -> _Valuation
#   _VALUES      (valuation, id(word)) -> (word, value), for App and Act
# The first is dropped after _SUB_LIMIT new envs and Sub nodes, the other
# three together after _VALUE_LIMIT new entries, which bounds their memory.
_SUB_LIMIT = 1 << 10
_VALUE_LIMIT = 1 << 12
_ENVS: dict = {}
_USES: dict = {}
_VALUATIONS: dict = {}
_VALUES: dict = {}
_LAST = [None, None, None]  # owner, assignment snapshot, valuation
_added = [0, 0]  # since the last drop: envs and Sub nodes, values


def _trim_subs() -> None:
    """Count one new env or Sub node, dropping them all when full."""
    _added[0] += 1
    if _added[0] > _SUB_LIMIT:
        _added[0] = 1
        for env in _ENVS.values():  # a Sub refers back to its env
            for subs in env.subs:
                subs.clear()
        _ENVS.clear()


def _trim_values() -> None:
    """Count one new uses, valuation or value entry, dropping them all
    when full."""
    _added[1] += 1
    if _added[1] > _VALUE_LIMIT:
        _added[1] = 1
        _USES.clear()
        _VALUATIONS.clear()
        _VALUES.clear()


class _Valuation:
    """Generator images of one owner (a tower, or a representation taken as
    a height-2 tower): images[level][generator]."""

    __slots__ = ("owner", "images")

    def __init__(self, owner, images):
        self.owner = owner
        self.images = images


def _valuation(owner, images: dict) -> _Valuation:
    """The valuation of `images`, interned by content so that equal
    generator values share their memoised word values."""
    key = (owner, tuple((level, tuple(t.items())) for level, t in images.items()))
    try:
        val = _VALUATIONS.get(key)
    except TypeError:  # unhashable images: evaluate without sharing
        return _Valuation(owner, images)
    if val is None:
        _trim_values()
        val = _VALUATIONS[key] = _Valuation(owner, images)
    return val


def _evaluate_at(owner, reps: Sequence, level: int, word, assignment: Mapping,
                 levelled: bool):
    """The entry of eval_word and eval_tower_word; `levelled` assignments
    map each level to a table, plain ones are the level-2 table itself.
    A call with the same owner and an equal assignment as the last one
    reuses its valuation, and a Sub node already evaluated under it
    returns its value at once."""
    last = _LAST
    if last[0] is owner and last[1] == assignment:
        val = last[2]
    else:
        if levelled:
            snapshot = images = {lvl: dict(t) for lvl, t in assignment.items()}
        else:
            snapshot = dict(assignment)
            images = {2: snapshot}
        val = _valuation(owner, images)
        last[:] = [owner, snapshot, val]
    if type(word) is Sub and word._val is val and word.level == level:
        return word._value
    return _evaluate(reps, level, word, val)


class _Env:
    """A snapshot of substitution tables and the Sub nodes built on it."""

    __slots__ = ("source", "tables", "subs")

    def __init__(self, source, tables):
        self.source = source
        self.tables = tuple(dict(t) for t in tables)
        self.subs = tuple({} for _ in tables)  # [level - 2][id(word)] -> Sub


def _env(source, tables: tuple) -> _Env:
    """The snapshot of `tables`, reused while they are unchanged."""
    env = _ENVS.get(id(source))
    if env is None or env.tables != tables:
        _trim_subs()
        env = _ENVS[id(source)] = _Env(source, tables)
    return env


def _uses(word) -> frozenset:
    """The generators a word reaches, as pairs (d, g): g is a generator of
    the level d steps below the word's own (actor words sit one level
    down)."""
    hit = _USES.get(id(word))
    if hit is not None:
        return hit[1]
    kind = type(word)
    if kind is Gen:
        out = frozenset(((0, word.key),))
    elif kind is App:
        out = frozenset().union(*[_uses(c) for c in word.children])
    elif kind is Act:
        out = _uses(word.child)
        if isinstance(word.actor, _WORD_TYPES):
            out = out | {(d + 1, g) for d, g in _uses(word.actor)}
    elif kind is Sub:
        tables = word._env.tables
        out = frozenset(
            (d + e, h)
            for d, g in word._uses
            for e, h in _uses(tables[word.level - 2 - d][g])
        )
    else:
        raise TypeError(f"not a word: {word!r}")
    _trim_values()
    _USES[id(word)] = (word, out)
    return out


def _substitute(word, level: int, env: _Env) -> Sub:
    """The Sub node of a level-`level` word on `env`, built once per word.
    Raises GeneratorMismatch for a generator the word reaches and the
    tables lack."""
    subs = env.subs[level - 2]
    sub = subs.get(id(word))
    if sub is not None:
        return sub
    uses = _uses(word)
    tables = env.tables
    for d, g in uses:
        k = level - 2 - d
        if not (0 <= k < len(tables) and g in tables[k]):
            raise GeneratorMismatch(f"level {k + 2}: {g!r}")
    _trim_subs()
    sub = subs[id(word)] = Sub(word, level, env, uses)
    return sub


def _evaluate(reps: Sequence, level: int, word, val: _Valuation):
    """Value of a level-`level` word; reps[k] acts level k + 1 on k + 2."""
    kind = type(word)
    if kind is Sub:
        if word.level != level:
            raise ValueError(f"a level-{word.level} word evaluated at level {level}")
        if word._val is not val:
            inner = _substituted_images(reps, word, val)
            word._value = _evaluate(reps, level, word.body, inner)
            word._val = val
        return word._value
    if kind is Gen:
        images = val.images.get(level)
        if images is None or word.key not in images:
            raise MissingGenerator(f"level {level}: {word.key!r}")
        return images[word.key]
    key = (val, id(word))
    hit = _VALUES.get(key)
    if hit is not None:
        return hit[1]
    rep = reps[level - 2]
    if kind is App:
        value = rep.acted.apply(
            word.op, [_evaluate(reps, level, c, val) for c in word.children]
        )
    elif kind is Act:
        actor = word.actor
        if isinstance(actor, _WORD_TYPES):
            if level == 2:
                raise ValueError("an actor word needs a tower level below its own")
            actor = _evaluate(reps, level - 1, actor, val)
        value = rep.act(actor, _evaluate(reps, level, word.child, val))
    else:
        raise TypeError(f"not a word: {word!r}")
    _trim_values()
    _VALUES[key] = (word, value)
    return value


def _substituted_images(reps: Sequence, sub: Sub, val: _Valuation) -> _Valuation:
    """The valuation giving each generator that the body of `sub` reaches
    the value, under `val`, of the word substituted for it."""
    images = {}
    for d, g in sub._uses:
        level = sub.level - d
        word = sub._env.tables[level - 2][g]
        images.setdefault(level, {})[g] = _evaluate(reps, level, word, val)
    return _valuation(val.owner, images)


def eval_word(rep: Representation, word, assignment: Mapping):
    """Evaluate a word with generator images drawn from `assignment`.

    The representation is taken as a height-2 tower: evaluation, its memo
    (keyed by the representation, the node and the generator values) and
    MissingGenerator work as in towers.eval_tower_word.
    """
    return _evaluate_at(rep, (rep,), 2, word, assignment, False)


def word_generators(word) -> set:
    """The generators of the word's own level that it reaches, through
    substitutions too."""
    return {g for d, g in _uses(word) if d == 0}


# ---------------------------------------------------------------------------
# the layered engine
#
# Closure, bases, endomorphism checks, coordinates and endomorphism
# enumeration for a tower given by its representations: reps[k] acts level
# k + 1 on level k + 2, levels counted from 1, and a representation is the
# tower (rep,).  Level 1 is the whole first algebra, fixed by endomorphisms.
# The public functions here and in towers wrap these routines.


def _close(reps: Sequence, gens: Sequence) -> tuple:
    """Layered breadth-first fixpoint; gens[k] generates level k + 2.

    Returns the generators, members, word tables and breadth-first levels
    of levels 2..n, each a tuple over the levels.  Level k + 2 is saturated
    with the closed level k + 1 as its pool of actors.  Round d + 1 is
    produced from the members of rounds <= d: first every operation in
    signature order over argument tuples in carrier-lexicographic order,
    then every action, actors in carrier order.  The first derivation of an
    element wins, making the word tables deterministic.  An action records
    its actor as a bare element at level 2 and as a lower-level word above.
    """
    if len(gens) != len(reps):
        raise ValueError("need one generator set per level above the first")
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
    return tuple(zip(*out))


def _generates(reps: Sequence, word_tables: Sequence) -> bool:
    return all(len(w) == len(rep.acted.carrier) for rep, w in zip(reps, word_tables))


def _basis(reps: Sequence, gens: Sequence) -> tuple:
    """Greedy layered minimization of a generating tuple, lowest level first.

    Within a level elements are tried for removal in descending carrier
    order, so derived elements drop before the primitives that generate
    them; once an element survives it stays necessary because closures only
    shrink when the set does.  Removing any single element of the result
    breaks generation.
    """
    keep, _, words, _ = _close(reps, gens)
    if not _generates(reps, words):
        raise NotGenerating("the generators do not generate every level")
    for k, rep in enumerate(reps):
        for x in sorted(keep[k], key=rep.acted.index, reverse=True):
            trial = keep[:k] + (tuple(y for y in keep[k] if y != x),) + keep[k + 1:]
            if _generates(reps, _close(reps, trial)[2]):
                keep = trial
    return keep


def _is_level_endomorphism(rep: Representation, h: Mapping, lower: Mapping) -> bool:
    """h is an endomorphism of the acted algebra with h(a m) = lower(a) h(m)."""
    return rep.acted.is_endomorphism(h) and _commutes(h, lower, rep, rep)


def _is_endomorphism(reps: Sequence, maps: Sequence) -> bool:
    """maps[k] maps level k + 2 and passes the level check through the
    map below it, the identity under level 2."""
    lowers = [{a: a for a in reps[0].acting.carrier}, *maps]
    return len(maps) == len(reps) and all(
        map(_is_level_endomorphism, reps, maps, lowers))


def _coordinates(reps: Sequence, generators: Sequence, word_tables: Sequence,
                 maps: Sequence, verified: bool) -> tuple:
    """Per level, each generator mapped to the closure word of its image;
    `verified=True` skips the endomorphism check."""
    if not _generates(reps, word_tables):
        raise NotGenerating("the generators do not generate every level")
    if not verified and not _is_endomorphism(reps, maps):
        raise NotRepEndomorphism("maps fail the endomorphism conditions")
    return tuple(
        {x: words[h[x]] for x in gens}
        for gens, words, h in zip(generators, word_tables, maps)
    )


def _endomorphisms(owner, reps: Sequence) -> list:
    """All endomorphisms (h_2, .., h_n), ordered by the basis images of the
    lowest level first, each level's images in carrier-lexicographic order.

    An endomorphism is determined by its images of a basis: h_k(m) is the
    value of the closure word of m when the basis of every level j <= k
    takes its images under h_j.  Each candidate is evaluated so, by the
    shared evaluator under `owner`, and kept when it passes the level check
    through the map chosen below it.  Basis and closure are computed once.
    """
    basis = _basis(reps, [rep.acted.carrier for rep in reps])
    word_tables = _close(reps, basis)[2]
    out = []

    def extend(k, chosen, images):
        if k == len(reps):
            out.append(tuple(chosen))
            return
        rep, level, words = reps[k], k + 2, word_tables[k]
        lower = chosen[-1] if chosen else {a: a for a in rep.acting.carrier}
        for values in itertools.product(rep.acted.carrier, repeat=len(basis[k])):
            level_images = {**images, level: dict(zip(basis[k], values))}
            # candidates never repeat their images: no interning
            val = _Valuation(owner, level_images)
            h = {m: _evaluate(reps, level, words[m], val) for m in rep.acted.carrier}
            if _is_level_endomorphism(rep, h, lower):
                extend(k + 1, chosen + [h], level_images)

    extend(0, [], {})
    return out


def _saturate(rep: Representation, actors: Iterable, gens: Iterable) -> frozenset:
    """Set-only saturation of `gens` under the acted algebra's operations and
    the actions of `actors`: the independent oracle for the closure words,
    sharing no code with _close."""
    result = set(gens) & set(rep.acted.carrier)
    changed = True
    while changed:
        changed = False
        for op, arity in rep.acted.signature.ops:
            for args in itertools.product(list(result), repeat=arity):
                v = rep.acted.apply(op, args)
                if v not in result:
                    result.add(v)
                    changed = True
        for a in actors:
            for m in list(result):
                v = rep.act(a, m)
                if v not in result:
                    result.add(v)
                    changed = True
    return frozenset(result)


# ---------------------------------------------------------------------------
# closure, endomorphisms, coordinates, superposition, bases


@dataclass(frozen=True)
class ClosureResult:
    """Fixpoint of a generating set together with first-derivation words.

    members is in carrier order; word_of maps each member to the word of
    its first derivation; levels records the breadth-first level at which
    each member appeared.
    """

    rep: Representation
    generators: tuple
    members: tuple
    word_of: dict
    levels: dict

    @property
    def is_full(self) -> bool:
        return len(self.members) == len(self.rep.acted.carrier)


def closure(rep: Representation, gens: Iterable) -> ClosureResult:
    """Breadth-first fixpoint of generators under operations and actions,
    in the order of the layered closure (see _close)."""
    (generators,), (members,), (word_of,), (levels,) = _close((rep,), [gens])
    return ClosureResult(rep, generators, members, word_of, levels)


def naive_closure(rep: Representation, gens: Iterable) -> frozenset:
    """Set-only saturation loop; the independent oracle for closure()."""
    return _saturate(rep, rep.acting.carrier, gens)


def is_rep_endomorphism(rep: Representation, r: Mapping) -> bool:
    """r: M -> M an endomorphism of the acted algebra commuting with every
    action transformation."""
    return _is_endomorphism((rep,), (r,))


def endo_coordinates(rep: Representation, gens: Iterable, r: Mapping,
                     clo: Optional[ClosureResult] = None,
                     verified: bool = False) -> dict:
    """Coordinates of the endomorphism r: each generator is mapped to the
    closure word of its image, all relative to the same generating set.

    A precomputed closure of the same generating set may be passed in, and
    `verified=True` skips the endomorphism re-check, for callers sweeping
    many endomorphisms of one representation.
    """
    if clo is None:
        clo = closure(rep, gens)
    return _coordinates((rep,), (clo.generators,), (clo.word_of,), (r,), verified)[0]


def substitute(word, table: Mapping) -> Sub:
    """`word` with each generator occurrence replaced by its word from
    `table`, as an explicit-substitution node (see superpose)."""
    return _substitute(word, 2, _env(table, (table,)))


def superpose(coords: Mapping, endo_coords: Mapping) -> dict:
    """Substitute an endomorphism's generator words into a coordinate family.

    Both families must be relative to the same generating set.  Evaluating
    the result at the generators equals evaluating `coords` at the
    endomorphism's image of the generators; for two endomorphism families
    this composes contravariantly (coordinates of S superposed with
    coordinates of R are coordinates of R after S).

    Each result is a `Sub` node holding the coordinate word and one shared
    snapshot of `endo_coords`; no tree is copied.  A generator that a
    coordinate word reaches and `endo_coords` lacks raises
    GeneratorMismatch here, not at evaluation.  eval_word evaluates the
    result by value, each substituted word once per assignment.
    """
    env = _env(endo_coords, (endo_coords,))
    return {key: _substitute(w, 2, env) for key, w in coords.items()}


def is_regular(rep: Representation, gens: Iterable, r: Mapping) -> bool:
    """True when the image of the generating set still generates."""
    clo = closure(rep, gens)
    if not clo.is_full:
        raise NotGenerating("the set does not generate the carrier")
    return closure(rep, [r[x] for x in clo.generators]).is_full


def extract_basis(rep: Representation, gens: Iterable) -> tuple:
    """Greedy minimization of a generating set (see _basis): removing any
    single element of the result breaks generation."""
    return _basis((rep,), [gens])[0]


def enumerate_rep_endomorphisms(rep: Representation) -> list:
    """All endomorphisms of the representation, as carrier maps, determined
    by their images of a basis (see _endomorphisms)."""
    return [maps[0] for maps in _endomorphisms(rep, (rep,))]


def enumerate_rep_automorphisms(rep: Representation) -> list:
    return [r for r in enumerate_rep_endomorphisms(rep) if len(set(r.values())) == len(r)]


# ---------------------------------------------------------------------------
# morphisms and their decomposition


def is_homomorphism(h: Mapping, src: FiniteOmegaAlgebra,
                    dst: FiniteOmegaAlgebra) -> bool:
    for op, arity in src.signature.ops:
        if op not in dst.signature.names or dst.signature.arity(op) != arity:
            return False
        for args in itertools.product(src.carrier, repeat=arity):
            if h[src.apply(op, args)] != dst.apply(op, [h[x] for x in args]):
                return False
    return True


def _commutes(big_r: Mapping, r: Mapping, f: Representation, g: Representation) -> bool:
    """R(f(a)(m)) = g(r(a))(R(m)) for every actor a and element m."""
    return all(
        big_r[f.act(a, m)] == g.act(r[a], big_r[m])
        for a in f.acting.carrier
        for m in f.acted.carrier
    )


def check_morphism(r: Mapping, big_r: Mapping, f: Representation,
                   g: Representation) -> bool:
    """(r, R) is a morphism of representations from f into g."""
    return (is_homomorphism(r, f.acting, g.acting)
            and is_homomorphism(big_r, f.acted, g.acted)
            and _commutes(big_r, r, f, g))


def _kernel_partition(h: Mapping, carrier: Sequence) -> dict:
    """Map each element to the canonical representative (first in carrier
    order) of its kernel class."""
    by_image = {}
    for x in carrier:
        by_image.setdefault(h[x], []).append(x)
    rep_of = {}
    for cls in by_image.values():
        first = cls[0]
        for x in cls:
            rep_of[x] = first
    return rep_of


def _quotient_algebra(alg: FiniteOmegaAlgebra, rep_of: Mapping,
                      name=None) -> tuple[FiniteOmegaAlgebra, dict]:
    """Quotient by the kernel partition; classes are labelled by their
    canonical representatives."""
    classes = []
    for x in alg.carrier:
        if rep_of[x] == x:
            classes.append(x)
    tables = {}
    for op, arity in alg.signature.ops:
        table = {}
        for args in itertools.product(classes, repeat=arity):
            table[args] = rep_of[alg.apply(op, args)]
        # well-definedness: any representatives give the same class
        for args in itertools.product(alg.carrier, repeat=arity):
            reduced = tuple(rep_of[x] for x in args)
            if rep_of[alg.apply(op, args)] != table[reduced]:
                raise NotMorphism(f"kernel is not a congruence for {op!r}")
        tables[op] = table
    quotient = FiniteOmegaAlgebra(classes, alg.signature, tables, name=name,
                                  carrier_bound=len(classes) or 1)
    nat = {x: rep_of[x] for x in alg.carrier}
    return quotient, nat


def _image_algebra(h: Mapping, src: FiniteOmegaAlgebra,
                   dst: FiniteOmegaAlgebra, name=None) -> FiniteOmegaAlgebra:
    image = [y for y in dst.carrier if y in set(h.values())]
    tables = {}
    for op, arity in dst.signature.ops:
        tables[op] = {
            args: dst.apply(op, args)
            for args in itertools.product(image, repeat=arity)
        }
    return FiniteOmegaAlgebra(image, dst.signature, tables, name=name,
                              carrier_bound=max(len(image), 1))


@dataclass
class MorphismDecomposition:
    """The three-factor decomposition (r, R) = (i, I) (t, T) (j, J).

    j, J are the natural projections onto the kernel quotients, t, T the
    isomorphisms onto the images, i, I the inclusions.  quotient_rep is the
    representation induced on the quotients, image_rep the one induced on
    the images; (t, T) is an isomorphism between them.
    """

    j: dict
    J: dict
    t: dict
    T: dict
    i: dict
    I: dict
    acting_quotient: FiniteOmegaAlgebra
    acted_quotient: FiniteOmegaAlgebra
    acting_image: FiniteOmegaAlgebra
    acted_image: FiniteOmegaAlgebra
    quotient_rep: Representation
    image_rep: Representation
    checks: dict = field(default_factory=dict)


def decompose_morphism(r: Mapping, big_r: Mapping, f: Representation,
                       g: Representation) -> MorphismDecomposition:
    """Kernel/image decomposition of a morphism of representations.

    Builds the quotient representation on (A/ker r, M/ker R), the image
    representation on (r A, R M), verifies that every factor pair is a
    morphism, that (t, T) is invertible with morphism inverse, and that the
    composition reproduces (r, R) on the nose.
    """
    if not check_morphism(r, big_r, f, g):
        raise NotMorphism("the pair (r, R) is not a morphism")
    rep_a = _kernel_partition(r, f.acting.carrier)
    rep_m = _kernel_partition(big_r, f.acted.carrier)
    acting_q, j = _quotient_algebra(f.acting, rep_a, name="A/ker")
    acted_q, J = _quotient_algebra(f.acted, rep_m, name="M/ker")
    # induced action on the quotients: F(j(a))(J(m)) = J(f(a)(m))
    action_q = {}
    for a in acting_q.carrier:
        for m in acted_q.carrier:
            action_q[(a, m)] = rep_m[f.act(a, m)]
    for a in f.acting.carrier:
        for m in f.acted.carrier:
            if rep_m[f.act(a, m)] != action_q[(rep_a[a], rep_m[m])]:
                raise NotMorphism("induced quotient action is ill-defined")
    quotient_rep = Representation(acting_q, acted_q, action_q, rep_kind="raw")
    acting_im = _image_algebra(r, f.acting, g.acting, name="im r")
    acted_im = _image_algebra(big_r, f.acted, g.acted, name="im R")
    action_im = {
        (a, m): g.act(a, m)
        for a in acting_im.carrier
        for m in acted_im.carrier
    }
    for a in acting_im.carrier:
        for m in acted_im.carrier:
            if action_im[(a, m)] not in set(acted_im.carrier):
                raise NotMorphism("image set is not stable under the action")
    image_rep = Representation(acting_im, acted_im, action_im, rep_kind="raw")
    t = {cls: r[cls] for cls in acting_q.carrier}
    big_t = {cls: big_r[cls] for cls in acted_q.carrier}
    i = {y: y for y in acting_im.carrier}
    big_i = {y: y for y in acted_im.carrier}
    t_inv = {v: k for k, v in t.items()}
    big_t_inv = {v: k for k, v in big_t.items()}
    checks = {
        "j_J_morphism": check_morphism(j, J, f, quotient_rep),
        "t_T_morphism": check_morphism(t, big_t, quotient_rep, image_rep),
        "t_T_inverse_morphism": check_morphism(t_inv, big_t_inv, image_rep,
                                               quotient_rep),
        "i_I_morphism": check_morphism(i, big_i, image_rep, g),
        "composition_r": all(i[t[j[a]]] == r[a] for a in f.acting.carrier),
        "composition_R": all(big_i[big_t[J[m]]] == big_r[m]
                             for m in f.acted.carrier),
    }
    if not all(checks.values()):
        raise NotMorphism(f"decomposition checks failed: {checks}")
    return MorphismDecomposition(
        j=j, J=J, t=t, T=big_t, i=i, I=big_i,
        acting_quotient=acting_q, acted_quotient=acted_q,
        acting_image=acting_im, acted_image=acted_im,
        quotient_rep=quotient_rep, image_rep=image_rep,
        checks=checks,
    )
