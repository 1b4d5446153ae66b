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
from dataclasses import dataclass, field, fields
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

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
        if len(dict(ops)) != len(ops):
            raise ValueError("operation names must be unique")
        if any(a < 0 for _, a in ops):
            raise ValueError("arities must be nonnegative")
        object.__setattr__(self, "ops", ops)

    def arity(self, name: str) -> int:
        return dict(self.ops)[name]


def _tabulate(what: str, table, carriers: Sequence, index: Mapping) -> tuple:
    """(labels, flat) of a table over the product of carriers: a mapping
    from cells to values, or a callable of one label per carrier.  labels
    is the mapping's copy or the callable's values as a dict; flat is the
    tuple of the values' indices in itertools.product order.  A ValueError
    names the first cell in that order that is missing ("is not total") or
    whose value is not in index ("leaves the carrier"), else the mapping's
    first key outside the product ("has a cell outside the carriers")."""
    cells = list(itertools.product(*carriers))
    table = {cell: table(*cell) for cell in cells} if callable(table) else dict(table)
    try:
        flat = tuple([index[table[cell]] for cell in cells])
        if len(table) == len(cells):
            return table, flat
    except (KeyError, TypeError):
        pass
    for cell in cells:
        if cell not in table:
            raise ValueError(f"{what} is not total at {cell!r}")
        try:
            index[table[cell]]
        except (KeyError, TypeError):
            raise ValueError(f"{what} leaves the carrier at {cell!r}") from None
    product = set(cells)
    extra = next(key for key in table if key not in product)
    raise ValueError(f"{what} has a cell outside the carriers at {extra!r}")


def _readers(flat: tuple, n: int) -> tuple:
    """One itemgetter per n-value row of flat (a nullary table: one row)."""
    return tuple([itemgetter(*flat[i:i + n]) for i in range(0, len(flat), max(n, 1))])


class FiniteOmegaAlgebra:
    """A finite carrier with a total table for every signature operation.

    Each table is a mapping from argument tuples to values or a callable
    of the arguments; construction raises ValueError naming the first
    argument tuple, in itertools.product order, that a mapping misses or
    whose value is not a carrier element, else its first other key.  The
    carrier is read as indices 0..n-1 and each table as one flat tuple of
    value indices, (a_1, .., a_r) at sum a_k n^(r-k), the itertools.product
    order: same_structure, the law checks of Representation and the engine
    read these tuples, the morphism checks one itemgetter per n-value row.
    `tables` is the label-level view.  None may be mutated after construction.
    """

    __slots__ = ("carrier", "signature", "tables", "name", "_index", "_flat", "_readers")

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
        self.tables, self._flat, self._readers = {}, {}, {}
        for op, arity in signature.ops:
            if op not in tables:
                raise ValueError(f"no table for {op!r}")
            self.tables[op], self._flat[op] = _tabulate(
                f"table for {op!r}", tables[op], [self.carrier] * arity, self._index)
            self._readers[op] = _readers(self._flat[op], len(self.carrier))

    def apply(self, op: str, args: Sequence) -> object:
        return self.tables[op][tuple(args)]

    def index(self, m) -> int:
        return self._index[m]

    def same_structure(self, other: "FiniteOmegaAlgebra") -> bool:
        return (
            self.carrier == other.carrier
            and self.signature == other.signature
            and self._flat == other._flat
        )

    def is_endomorphism(self, h: Mapping) -> bool:
        """h: carrier -> carrier respecting every operation."""
        return is_homomorphism(h, self, self)

    def __repr__(self):
        label = self.name or f"{len(self.carrier)} elements"
        return f"FiniteOmegaAlgebra({label})"


def _find_unit(alg: FiniteOmegaAlgebra, op: str):
    """Carrier index of the two-sided unit of a binary operation, the first
    e whose row and column of the flat table are the identity, or None."""
    flat, n = alg._flat[op], len(alg.carrier)
    ident = tuple(range(n))
    return next((e for e in ident if flat[e * n:e * n + n] == ident == flat[e::n]), None)


def _first_break(lhs: Sequence, rhs: Sequence, *carriers) -> tuple:
    """The labels at the first position where the flat lists lhs and rhs
    differ, positions read in itertools.product order over `carriers`."""
    p = next(i for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
    labels = []
    for carrier in reversed(carriers):
        p, i = divmod(p, len(carrier))
        labels.append(carrier[i])
    return tuple(labels[::-1])


class Representation:
    """An algebra A acting on an algebra M by endomorphisms.

    handedness only affects printing (left actions read a*m, right ones
    m*a).  The action is a mapping from pairs (a, m) to acted elements or
    a callable of a and m; construction raises ValueError naming the first
    pair, in carrier order, that a mapping misses or whose value is not an
    acted element, else its first other key.  It is kept as one image row
    of acted-carrier indices per actor, in acting-carrier order, each with
    an itemgetter reader; `action` is the label-level view.  None may change.
    The endomorphism and rep_kind laws are checked on the rows and the flat
    tables, a failure naming its first witness in carrier order (actor,
    operation and arguments; or law and witness); `validate=False` skips
    only these checks.
    """

    __slots__ = ("acting", "acted", "action", "rep_kind", "handedness", "name",
                 "_rows", "_readers", "_search")

    def __init__(self, acting, acted, action, rep_kind="raw", handedness="left",
                 name=None, validate=True):
        if rep_kind not in ("raw", "monoid-action", "ring-on-abelian-group"):
            raise ValueError(f"unknown rep_kind {rep_kind!r}")
        if handedness not in ("left", "right"):
            raise ValueError("handedness must be 'left' or 'right'")
        self.acting = acting
        self.acted = acted
        self.action, flat = _tabulate("action", action, [acting.carrier, acted.carrier],
                                      acted._index)
        n = len(acted.carrier)
        self._rows = tuple([flat[a * n:a * n + n] for a in range(len(acting.carrier))])
        self._readers = _readers(flat, n)
        self._search = None  # basis and closure program, on first enumeration
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
        # every transformation must respect the acted algebra's operations
        acting, acted = self.acting, self.acted
        for a, row in zip(acting.carrier, self._rows):
            broken = _op_break(row, acted, acted)
            if broken is not None:
                op, arity, lhs, rhs = broken
                raise NotEndomorphism(a, op, _first_break(lhs, rhs, *[acted.carrier] * arity))
        if self.rep_kind == "monoid-action":
            ops = [n for n, k in acting.signature.ops if k == 2]
            if not ops:
                raise LawViolation("acting algebra lacks a binary operation")
            op = "mul" if "mul" in ops else ops[0]
            unit = _find_unit(acting, op)
            if unit is None:
                raise LawViolation("monoid-unit", op)
            self._validate_unit(unit)
            self._validate_products(op, additive=False)
        elif self.rep_kind == "ring-on-abelian-group":
            if ("add", 2) not in acting.signature.ops or ("mul", 2) not in acting.signature.ops:
                raise LawViolation("ring signature must name 'add' and 'mul' operations")
            if ("add", 2) not in acted.signature.ops:
                raise LawViolation("acted group must name an 'add' operation")
            self._validate_products("mul", additive=True)
            one = _find_unit(acting, "mul")
            if one is not None:
                self._validate_unit(one)

    def _validate_unit(self, e: int):
        """The row of the acting-carrier index e is the identity."""
        ident = tuple(range(len(self.acted.carrier)))
        if self._rows[e] != ident:
            m, = _first_break(self._rows[e], ident, self.acted.carrier)
            raise LawViolation("unit-acts-as-identity", (self.acting.carrier[e], m))

    def _validate_products(self, op: str, additive: bool):
        """(ab)m = a(bm) for the product op and, when additive,
        (a + b)m = am + bm: the rows of ab (and a + b) against those of a
        read at b's row (and the acted add table at the rows of a and b),
        the witness being the first failing (a, b, m), additivity first."""
        rows, n, acting = self._rows, len(self.acted.carrier), self.acting
        if additive:
            add, laws = self.acted._flat["add"], ("additivity-in-actor", "action-multiplicativity")
            lhs = [v for s, t in zip(acting._flat["add"], acting._flat[op])
                   for pair in zip(rows[s], rows[t]) for v in pair]
            rhs = [v for ra in rows for rb in rows for x, y in zip(ra, rb)
                   for v in (add[x * n + y], ra[y])]
        else:
            laws = ("action-multiplicativity",)
            lhs = [v for t in acting._flat[op] for v in rows[t]]
            rhs = [ra[y] for ra in rows for rb in rows for y in rb]
        if lhs != rhs:
            *witness, law = _first_break(lhs, rhs, acting.carrier, acting.carrier,
                                         self.acted.carrier, laws)
            raise LawViolation(law, tuple(witness))

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


def _columns(rep: Representation) -> list:
    """Per acted element, in carrier order, its images under the actors."""
    return [[row[m] for row in rep._rows] for m in range(len(rep.acted.carrier))]


def one_and_only_one(rep: Representation) -> bool:
    """For every pair (m, m') exactly one actor sends m' to m: each column
    of the action rows holds every acted element once."""
    n = len(rep.acted.carrier)
    return all(len(col) == n == len(set(col)) for col in _columns(rep))


def classify(rep: Representation) -> RepClassification:
    """Effectiveness, transitivity and single transitivity flags.

    Single transitivity is transitivity with as many actors as acted
    elements: each column then holds every element once, which is
    one_and_only_one, and two equal rows would repeat an element in every
    column, so the action is effective too.
    """
    rows, n = rep._rows, len(rep.acted.carrier)
    effective = len(set(rows)) == len(rows)
    transitive = all(len(set(col)) == n for col in _columns(rep))
    return RepClassification(effective, transitive, transitive and len(rows) == n)


# ---------------------------------------------------------------------------
# words


class _Node:
    """The word id and reached generators the engine keeps on a node; a
    copied or pickled node is rebuilt without them, as ids are per process."""

    _id = -1

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class Gen(_Node):
    """A generator occurrence; the key is the generator element itself."""

    key: object


@dataclass(frozen=True)
class App(_Node):
    """An operation of the acted algebra applied to sub-words."""

    op: str
    children: tuple


@dataclass(frozen=True)
class Act(_Node):
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
    Superposition builds one node per body on a snapshot of the tables
    instead of copying the body; `tables` are read-only views of it.  A
    node needs every generator the body reaches (GeneratorMismatch
    otherwise); its word id comes from its level, body and those words, so
    equal nodes built on different snapshots share their values, and equal
    bodies superposed on equal tables share the node (see _substitute).
    """

    __slots__ = ("body", "level", "_tables", "_id")

    def __init__(self, body, level, tables):
        key = [4, level, _word_id(body)]
        for d, g in _uses(body):
            k = level - 2 - d
            if not (0 <= k < len(tables) and g in tables[k]):
                raise GeneratorMismatch(f"level {k + 2}: {g!r}")
            key.append(_word_id(tables[k][g]))
        self.body, self.level, self._tables = body, level, tables
        self._id = _intern(tuple(key))

    @property
    def tables(self) -> tuple:
        return tuple(MappingProxyType(t) for t in self._tables)

    def __reduce__(self):
        return Sub, (self.body, self.level, self._tables)

    def __repr__(self):
        return f"Sub({self.body!r}, level={self.level}, tables={self._tables!r})"


_WORD_TYPES = (Gen, App, Act, Sub)

# The word memo, shared by every caller in the process: no result depends
# on what it holds, only the time it takes.  Words are hash-consed: a node
# gets the id of its structure on first use and keeps it, so equal words
# built apart share their values; labels enter it with their repr and Sub
# nodes as themselves, so words that print apart never share an id.
#   _INTERNED  a word's structure -> its id; a valuation's images -> it;
#              a table tuple's labels and word ids -> its snapshot
#   _MEMO      word id << 64 | valuation id -> value, a carrier index; it
#              holds only ints, so the collector skips it
# Ids are never given twice, so the two are dropped together, at any
# insertion, when one reaches _MEMO_LIMIT entries.  _LAST keeps the
# valuations of the last assignments with a copy of them: a sweep under
# one assignment compares it instead of hashing it.
_MEMO_LIMIT = 1 << 16
_INTERNED: dict = {}
_MEMO: dict = {}
_LAST = [None, None, ()]  # representations, assignments copied, valuations
_NEXT_ID = itertools.count()


def _room(table: dict) -> None:
    if len(table) >= _MEMO_LIMIT:
        _INTERNED.clear()
        _MEMO.clear()


def _intern(key: tuple, make=_NEXT_ID.__next__):
    value = _INTERNED.get(key)
    if value is None:
        _room(_INTERNED)
        value = _INTERNED[key] = make()
    return value


def _word_id(word) -> int:
    """The id of a node's structure, given on first use and kept on it with
    the generators the node reaches (see _uses)."""
    i = getattr(word, "_id", -1)
    if i >= 0:
        return i
    kind = type(word)
    if kind is Gen:
        key, uses = (0, word.key, repr(word.key)), [(0, word.key)]
    elif kind is App:
        key = (1, word.op, *map(_strict, word.children))
        uses = [u for c in word.children for u in _uses(c)]
    elif kind is not Act:
        raise TypeError(f"not a word: {word!r}")
    elif isinstance(word.actor, _WORD_TYPES):
        key = (2, _strict(word.actor), _strict(word.child))
        uses = [*_uses(word.child), *[(d + 1, g) for d, g in _uses(word.actor)]]
    else:
        key = (3, word.actor, repr(word.actor), _strict(word.child))
        uses = _uses(word.child)
    object.__setattr__(word, "_uses", tuple(dict.fromkeys(uses)))
    object.__setattr__(word, "_id", _intern(key))
    return word._id


def _strict(word):
    """A word's id, or a Sub node itself, as nodes that print apart share its id."""
    return word if type(word) is Sub else _word_id(word)


def _uses(word) -> tuple:
    """The generators a word reaches, as pairs (d, g) in first-occurrence
    order: g is a generator of the level d steps below the word's own
    (actor words sit one level down)."""
    if type(word) is Sub:
        tables, level = word._tables, word.level
        return tuple(dict.fromkeys((d + e, h) for d, g in _uses(word.body)
                                   for e, h in _uses(tables[level - 2 - d][g])))
    _word_id(word)
    return word._uses


class _Coordinates(dict):
    """A coordinate table carrying its family's copy and snapshot (see _substitute)."""

    __slots__ = ("_snapshot",)

    def __reduce__(self):
        return dict, (dict(self),)


def _substitute(coords: Sequence[Mapping], tables: Sequence[Mapping]) -> tuple:
    """Each level-(k + 2) word of coords[k] as a Sub node on a snapshot of
    `tables` interned by their labels and word ids (private if they hold a
    non-word), which coordinate tables carry with their own copy to compare."""
    tables = tuple(tables)
    try:
        own, copies, nodes = tables[0]._snapshot
    except (AttributeError, IndexError):  # none taken yet, or no tables
        own = None
    if own != tables:
        own, nodes = tuple(map(dict, tables)), tuple({} for _ in tables)
        try:  # the tables copied and a Sub node per level and body
            copies, nodes = _intern((5, *[tuple([(g, repr(g), _strict(w)) for g, w in t.items()])
                                          for t in own]), lambda: (own, nodes))
        except TypeError:  # a non-word value: a private snapshot
            copies = own
        for t in tables:
            if type(t) is _Coordinates:
                t._snapshot = own, copies, nodes
    out = []
    for level, table in enumerate(coords, 2):
        known, subs = nodes[level - 2], {}
        for name, word in table.items():
            sub = known.get(getattr(word, "_id", -1))  # Sub bodies are kept under themselves
            if sub is None:  # a new body, a Sub, or one without its id yet; raises on a non-word
                key = _strict(word)
                sub = known[key] = known.get(key) or Sub(word, level, copies)
            subs[name] = sub
        out.append(subs)
    return tuple(out)


class _Valuation:
    """A level's generator images over the valuations of the levels below
    (`lower`, and `chain` from level 2 up): carrier indices, None for a
    user's image that is no carrier element."""

    __slots__ = ("id", "rep", "carrier", "level", "lower", "chain", "images")

    def __init__(self, rep, lower, images: dict):
        self.id, self.rep, self.carrier = next(_NEXT_ID), rep, rep.acted.carrier
        self.lower, self.images = lower, images
        self.chain = (*lower.chain, lower) if lower else ()
        self.level = len(self.chain) + 2


def _valuation(rep: Representation, lower, images: dict) -> _Valuation:
    return _intern((rep, lower, tuple(images.items())), lambda: _Valuation(rep, lower, images))


def _evaluate_at(reps: Sequence, level: int, word, assignments: Mapping):
    """eval_word and eval_tower_word: reps[k] acts level k + 1 on k + 2,
    assignments[k] holds level k's images."""
    if type(word) is Gen:  # its image as given
        images = assignments.get(level)
        if images is None or word.key not in images:
            raise MissingGenerator(f"level {level}: {word.key!r}")
        return images[word.key]
    if not 2 <= level <= len(reps) + 1:
        raise ValueError(f"no level {level}: words live at levels 2 to {len(reps) + 1}")
    last = _LAST
    if last[1] != assignments or last[0] != reps:
        val = None
        for k, rep in enumerate(reps, 2):
            images = {}
            for g, x in assignments.get(k, {}).items():
                try:
                    images[g] = rep.acted._index.get(x)
                except TypeError:  # unhashable
                    images[g] = None
            val = _valuation(rep, val, images)
        last[:] = reps, {k: dict(t) for k, t in assignments.items()}, (None, None, *val.chain, val)
    val = last[2][level]
    return val.carrier[_value(word, val)]


def _value(word, val: _Valuation) -> int:
    """Carrier index of a word of val's level under val."""
    kind = type(word)
    if kind is Gen:
        if word.key not in val.images:
            raise MissingGenerator(f"level {val.level}: {word.key!r}")
        if val.images[word.key] is None:
            raise KeyError(f"level {val.level}: the image of {word.key!r} is no carrier element")
        return val.images[word.key]
    if kind is Sub and word.level != val.level:
        raise ValueError(f"a level-{word.level} word evaluated at level {val.level}")
    key = (word._id if kind is Sub else _word_id(word)) << 64 | val.id
    value = _MEMO.get(key)
    if value is not None:
        return value
    rep = val.rep
    if kind is App:
        args = [_value(c, val) for c in word.children]
        alg = rep.acted
        if len(args) != alg.signature.arity(word.op):
            raise KeyError(f"{word.op!r} applied to {len(args)} arguments")
        n, pos = len(alg.carrier), 0
        for a in args:
            pos = pos * n + a
        value = alg._flat[word.op][pos]
    elif kind is Act:
        actor = word.actor
        if not isinstance(actor, _WORD_TYPES):
            actor = rep.acting._index[actor]
        elif val.lower is None:
            raise ValueError("an actor word needs a tower level below its own")
        else:
            actor = _value(actor, val.lower)
        value = rep._rows[actor][_value(word.child, val)]
    else:
        value = _value(word.body, _inner(word, val))
    _room(_MEMO)
    _MEMO[key] = value
    return value


def _inner(sub: Sub, val: _Valuation) -> _Valuation:
    """The valuation giving each generator that the body of `sub` reaches
    the value, under `val`, of the word substituted for it."""
    uses, inner = _uses(sub.body), None
    for outer in (*val.chain, val):
        table, depth = sub._tables[outer.level - 2], sub.level - outer.level
        inner = _valuation(outer.rep, inner, {
            g: _value(table[g], outer) for d, g in uses if d == depth})
    return inner


def eval_word(rep: Representation, word, assignment: Mapping):
    """Evaluate a word with generator images drawn from `assignment`, the
    representation taken as a height-2 tower (see towers.eval_tower_word)."""
    return _evaluate_at((rep,), 2, word, {2: assignment})


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
# The engine runs on carrier indices, the flat operation tables and the
# action rows; labels and words are made only for results.  One semi-naive
# round loop (_rounds) yields the closure words, the generation counts and
# membership trials of basis extraction and the straight-line programs of
# enumeration (_search).  The public functions here and in towers wrap
# these routines.


def _rounds(rep: Representation, actors: Sequence, start: Sequence):
    """Breadth-first rounds from the acted-carrier indices `start`
    (ascending), `actors` being acting-carrier indices in carrier order.

    Yields each round's new members in first-derivation order as steps
    (v, op, args): v is op at the argument indices args, or, with op None
    and args (a, m), actor a's image of m.  A round applies every operation,
    in signature order, to argument tuples over the members in lexicographic
    order, then every actor's row to the members.  Semi-naive: tuples of
    older members gave their values in an earlier round, so only tuples
    holding a member new in the round before are generated, and actors read
    only the new members; the first round takes every tuple, the nullary one
    too.  Operations of one arity share the round's walk over argument
    prefixes, each prefix made when first read.  Once every carrier index is
    seen no tuple or row can add a member, so the step that fills the
    carrier ends the loop and a full start yields nothing.  Rounds and first
    derivations are the full loop's.
    """
    alg, rows = rep.acted, rep._rows
    n, ops = len(alg.carrier), alg.signature.ops
    seen = bytearray(n)
    for m in start:
        seen[m] = 1
    left, current = seen.count(0), list(start)
    new, first = current, True
    while left:
        walks, fresh = {}, []
        for op, arity in ops:
            if arity not in walks:
                walks[arity] = iter(itertools.tee(_chunks(n, current, new, arity, first),
                                                  sum(a == arity for _, a in ops)))
            table = alg._flat[op]
            for base, lasts in next(walks[arity]):
                for last in lasts:
                    v = table[base + last]
                    if not seen[v]:
                        seen[v], pos = 1, base + last
                        args = [pos // n ** k % n for k in range(arity - 1, -1, -1)]
                        fresh.append((v, op, tuple(args)))
                        if len(fresh) == left:
                            yield fresh
                            return
        for a in actors:
            row = rows[a]
            for m in new:
                v = row[m]
                if not seen[v]:
                    seen[v] = 1
                    fresh.append((v, None, (a, m)))
                    if len(fresh) == left:
                        yield fresh
                        return
        if not fresh:
            return
        yield fresh
        new, left = sorted([v for v, _, _ in fresh]), left - len(fresh)
        current, first = sorted(current + new), False


def _chunks(n: int, current: list, new: list, arity: int, first: bool):
    """The flat positions of the argument tuples over `current` that hold a
    member of `new`, ascending (lexicographic in the tuples), as pairs
    (base, lasts) giving base + last, one per prefix of arity - 1 arguments
    made as read; a prefix without a new member takes its last from `new`."""
    if arity == 0:
        yield from [(0, (0,))] if first else []
        return
    newset = set(new)
    for prefix in itertools.product(current, repeat=arity - 1):
        base = 0
        for a in prefix:
            base = base * n + a
        yield base * n, new if newset.isdisjoint(prefix) else current


def _starts(reps: Sequence, gens: Sequence) -> list:
    """Per level, the acted-carrier indices of its generators, ascending."""
    if len(gens) != len(reps):
        raise ValueError("need one generator set per level above the first")
    return [[i for i, x in enumerate(rep.acted.carrier) if x in s]
            for rep, s in zip(reps, map(set, gens))]


def _close(reps: Sequence, gens: Sequence) -> tuple:
    """Layered breadth-first fixpoint; gens[k] generates level k + 2.

    Returns the generators, members, word tables and breadth-first levels
    of levels 2..n, each a tuple over the levels.  Level k + 2 runs the
    rounds of _rounds with the closed level k + 1 as its actors, up to the
    round that fills the level, if one does.  The first derivation of an
    element wins, making the word tables deterministic: generators in
    carrier order, then each round in derivation order.  An action records
    its actor as a bare element at level 2 and as a lower-level word above.
    """
    actors, actor_words = range(len(reps[0].acting.carrier)), reps[0].acting.carrier
    out = []
    for rep, start in zip(reps, _starts(reps, gens)):
        carrier = rep.acted.carrier
        words = [None] * len(carrier)
        word_of, levels = {}, {}
        for i in start:
            words[i] = word_of[carrier[i]] = Gen(carrier[i])
            levels[carrier[i]] = 0
        for depth, fresh in enumerate(_rounds(rep, actors, start), 1):
            for v, op, args in fresh:
                word = (Act(actor_words[args[0]], words[args[1]]) if op is None
                        else App(op, tuple([words[i] for i in args])))
                words[v] = word_of[carrier[v]] = word
                levels[carrier[v]] = depth
        actors, actor_words = [i for i, w in enumerate(words) if w is not None], words
        out.append((tuple([carrier[i] for i in start]),
                    tuple([carrier[i] for i in actors]), word_of, levels))
    return tuple(zip(*out))


def _basis(reps: Sequence, gens: Sequence) -> tuple:
    """Greedy layered minimization of a generating tuple, lowest level first.

    A level generates when its generators and the members its rounds reach
    count its carrier.  Within a level elements are tried for removal in
    descending carrier order, so derived elements drop before the primitives
    that generate them; once an element survives it stays necessary because
    closures only shrink when the set does.  Removing any single element of
    the result breaks generation.  Removing x from level k keeps the full
    levels below, and those above too while level k stays full, i.e. while
    the rest of level k reaches x: a trial is one set-only closure of level
    k under all of level k - 1, stopped at the round that reaches x.
    """
    out = []
    for rep, rest in zip(reps, _starts(reps, gens)):
        carrier, actors = rep.acted.carrier, range(len(rep.acting.carrier))
        if len(rest) + sum(map(len, _rounds(rep, actors, rest))) < len(carrier):
            raise NotGenerating("the generators do not generate every level")
        for x in rest[::-1]:
            trial = [y for y in rest if y != x]
            if any(v == x for fresh in _rounds(rep, actors, trial) for v, _, _ in fresh):
                rest = trial
        out.append(tuple([carrier[i] for i in rest]))
    return tuple(out)


def _index_row(h: Mapping, src: FiniteOmegaAlgebra, dst: FiniteOmegaAlgebra):
    """The label map h: src -> dst as dst-carrier indices in src order, or
    None when h is not total on src, leaves dst, or dst lacks an operation
    of src at its arity."""
    if set(src.signature.ops) <= set(dst.signature.ops):
        try:
            return [dst._index[h[m]] for m in src.carrier]
        except KeyError:
            pass
    return None


def _op_break(h: Sequence, src: FiniteOmegaAlgebra, dst: FiniteOmegaAlgebra):
    """None when the index row h respects every operation of src: for each
    argument prefix, dst's row at its h-images read through itemgetter(*h)
    is src's reader of its row applied to h.  Otherwise the first failing
    operation, in signature order, as (op, arity, lhs, rhs) flat lists."""
    if not h:  # an empty carrier has no nullary operation
        return None
    n, read = len(dst.carrier), itemgetter(*h)
    for op, arity in src.signature.ops:
        table, starts = dst._flat[op], [0]
        for _ in range(arity - 1):
            starts = [(s + x) * n for s in starts for x in h]
        lhs = [read(table[s:s + n]) for s in starts] if arity else [table[0]]
        rhs = [r(h) for r in src._readers[op]]
        if lhs != rhs:
            if arity and len(h) > 1:
                lhs, rhs = [v for row in lhs for v in row], [v for row in rhs for v in row]
            return op, arity, lhs, rhs
    return None


def _maps_action(h: Sequence, lower: Sequence, f: Representation,
                 g: Representation) -> bool:
    """h(f(a)(m)) = g(lower(a))(h(m)) for index rows h of the acted carrier
    and lower of the acting one: g's row of lower(a) read through
    itemgetter(*h) is f's reader of a's row applied to h."""
    rows = g._rows
    return not h or (list(map(itemgetter(*h), map(rows.__getitem__, lower)))
                     == [r(h) for r in f._readers])


def _is_level_endomorphism(rep: Representation, h: Sequence, lower: Sequence) -> bool:
    """The index row h is an endomorphism of the acted algebra with
    h(a m) = lower(a) h(m), lower an index row of the acting carrier."""
    return _op_break(h, rep.acted, rep.acted) is None and _maps_action(h, lower, rep, rep)


def _is_endomorphism(reps: Sequence, maps: Sequence) -> bool:
    """maps[k] maps level k + 2 and passes the level check through the
    map below it, the identity under level 2.  A map that is not total on
    its level's carrier, or that leaves it, is none."""
    rows = [_index_row(h, rep.acted, rep.acted) for rep, h in zip(reps, maps)]
    if len(maps) != len(reps) or None in rows:
        return False
    lowers = [range(len(reps[0].acting.carrier)), *rows]
    return all(map(_is_level_endomorphism, reps, rows, lowers))


def _coordinates(reps: Sequence, generators: Sequence, word_tables: Sequence,
                 maps: Sequence, verified: bool) -> tuple:
    """Per level, each generator mapped to the closure word of its image;
    `verified=True` skips the endomorphism check."""
    if any(len(w) < len(rep.acted.carrier) for rep, w in zip(reps, word_tables)):
        raise NotGenerating("the generators do not generate every level")
    if not verified and not _is_endomorphism(reps, maps):
        raise NotRepEndomorphism("maps fail the endomorphism conditions")
    return tuple([_Coordinates({x: words[h[x]] for x in gens})
                  for gens, words, h in zip(generators, word_tables, maps)])


def _search(rep: Representation) -> tuple:
    """rep's basis as acted-carrier indices and the _rounds steps of its closure, kept on rep."""
    if rep._search is None:
        gens = tuple([rep.acted._index[x] for x in _basis((rep,), [rep.acted.carrier])[0]])
        rep._search = gens, tuple([s for f in _rounds(rep, range(len(rep.acting.carrier)), gens) for s in f])
    return rep._search


def _endomorphisms(reps: Sequence) -> list:
    """All endomorphisms (h_2, .., h_n), ordered by the basis images of the
    lowest level first, each level's images in carrier-lexicographic order.

    An endomorphism is determined by its images of a basis: h_k(m) is the
    value of the closure word of m when the basis of every level j <= k
    takes its images under h_j.  Each level's closure of its basis is
    compiled into a straight-line program over indices, one step per
    derived member in word-table order: (m, flat table, argument slots) for
    an operation, (m, actor row, slot) for an action, with the row of
    h_{k-1}(actor) for the index map h_{k-1} chosen one level down (the
    identity under level 2).  A basis is minimal under the whole level
    below, so a representation's basis and program, kept on it (_search),
    serve every tower it is a level of.  Each candidate runs the programs
    into index rows, kept as new dicts when they pass the row checks.
    """
    gens, programs = zip(*[_search(rep) for rep in reps])
    steps = [[(v, None, args[1:]) if op is None else (v, rep.acted._flat[op], args)
              for v, op, args in program] for rep, program in zip(reps, programs)]
    actions = [[(i, v, args[0], args[1:]) for i, (v, op, args) in enumerate(program)
                if op is None] for program in programs]
    out = []

    def extend(k, chosen, lower):
        if k == len(reps):
            out.append(tuple(chosen))
            return
        rep, level_gens, level_steps = reps[k], gens[k], steps[k]
        carrier, rows, n = rep.acted.carrier, rep._rows, len(rep.acted.carrier)
        for i, v, a, slots in actions[k]:  # the row of lower(a), one level down
            level_steps[i] = v, rows[lower[a]], slots
        for values in itertools.product(range(n), repeat=len(level_gens)):
            h = [0] * n
            for g, x in zip(level_gens, values):
                h[g] = x
            for v, table, slots in level_steps:
                p = 0
                for s in slots:
                    p = p * n + h[s]
                h[v] = table[p]
            if _is_level_endomorphism(rep, h, lower):
                extend(k + 1, chosen + [dict(zip(carrier, [carrier[i] for i in h]))], h)

    extend(0, [], range(len(reps[0].acting.carrier)))
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
    return _substitute(({0: word},), (table,))[0][0]


def superpose(coords: Mapping, endo_coords: Mapping) -> dict:
    """Substitute an endomorphism's generator words into a coordinate family.

    Both families must be relative to the same generating set.  Evaluating
    the result at the generators equals evaluating `coords` at the
    endomorphism's image of the generators; for two endomorphism families
    this composes contravariantly (coordinates of S superposed with
    coordinates of R are coordinates of R after S).

    Each result is a `Sub` node holding the coordinate word and a snapshot
    of `endo_coords` (see towers.tower_superpose); no tree is copied.  A
    generator that a coordinate word reaches and `endo_coords` lacks raises
    GeneratorMismatch here, not at evaluation.
    """
    return _substitute((coords,), (endo_coords,))[0]


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
    return [maps[0] for maps in _endomorphisms((rep,))]


def enumerate_rep_automorphisms(rep: Representation) -> list:
    return [r for r in enumerate_rep_endomorphisms(rep) if len(set(r.values())) == len(r)]


# ---------------------------------------------------------------------------
# morphisms and their decomposition


def is_homomorphism(h: Mapping, src: FiniteOmegaAlgebra,
                    dst: FiniteOmegaAlgebra) -> bool:
    """h: src -> dst, total on src's carrier and into dst's, respecting
    every operation of src."""
    row = _index_row(h, src, dst)
    return row is not None and _op_break(row, src, dst) is None


def check_morphism(r: Mapping, big_r: Mapping, f: Representation,
                   g: Representation) -> bool:
    """(r, R) is a morphism of representations from f into g:
    R(f(a)(m)) = g(r(a))(R(m)) for every actor a and element m."""
    lower, row = _index_row(r, f.acting, g.acting), _index_row(big_r, f.acted, g.acted)
    return (lower is not None and row is not None
            and _op_break(lower, f.acting, g.acting) is None
            and _op_break(row, f.acted, g.acted) is None and _maps_action(row, lower, f, g))


def _kernel_partition(h: Mapping, carrier: Sequence) -> dict:
    """Map each element, in carrier order, to the canonical representative
    (first in carrier order) of its kernel class."""
    first = {}
    return {x: first.setdefault(h[x], x) for x in carrier}


def _inclusion(h: Mapping, src: FiniteOmegaAlgebra, dst: FiniteOmegaAlgebra) -> dict:
    """The identity on h's image of src's carrier, in dst's carrier order."""
    image = {h[x] for x in src.carrier}
    return {y: y for y in dst.carrier if y in image}


def _derived_algebra(alg: FiniteOmegaAlgebra, signature: Signature, read: Mapping,
                     name: str) -> FiniteOmegaAlgebra:
    """The algebra on the fixed points of the idempotent map read, with the
    operations of signature taken from alg and each value read through read:
    a kernel partition gives the quotient, an inclusion the image."""
    labels = [x for x in read if read[x] == x]
    tables = {op: lambda *args, op=op: read[alg.apply(op, args)] for op, _ in signature.ops}
    return FiniteOmegaAlgebra(labels, signature, tables, name=name,
                              carrier_bound=max(len(labels), 1))


def _derived_rep(acting: FiniteOmegaAlgebra, acted: FiniteOmegaAlgebra,
                 rep: Representation, read: Mapping) -> Representation:
    """acting on acted by rep's action, each value read through read."""
    return Representation(acting, acted, lambda a, m: read[rep.act(a, m)], rep_kind="raw")


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
    # r and R respect every operation of f's signature and
    # R(f(a)(m)) = g(r(a))(R(m)), so their kernels are congruences the action
    # respects and their images are closed under those operations and the
    # action; the images carry f's signature, which g may extend
    j = _kernel_partition(r, f.acting.carrier)
    big_j = _kernel_partition(big_r, f.acted.carrier)
    i = _inclusion(r, f.acting, g.acting)
    big_i = _inclusion(big_r, f.acted, g.acted)
    acting_q = _derived_algebra(f.acting, f.acting.signature, j, "A/ker")
    acted_q = _derived_algebra(f.acted, f.acted.signature, big_j, "M/ker")
    acting_im = _derived_algebra(g.acting, f.acting.signature, i, "im r")
    acted_im = _derived_algebra(g.acted, f.acted.signature, big_i, "im R")
    quotient_rep = _derived_rep(acting_q, acted_q, f, big_j)
    image_rep = _derived_rep(acting_im, acted_im, g, big_i)
    t = {cls: r[cls] for cls in acting_q.carrier}
    big_t = {cls: big_r[cls] for cls in acted_q.carrier}
    t_inv = {v: k for k, v in t.items()}
    big_t_inv = {v: k for k, v in big_t.items()}
    checks = {
        "j_J_morphism": check_morphism(j, big_j, f, quotient_rep),
        "t_T_morphism": check_morphism(t, big_t, quotient_rep, image_rep),
        "t_T_inverse_morphism": check_morphism(t_inv, big_t_inv, image_rep,
                                               quotient_rep),
        "i_I_morphism": check_morphism(i, big_i, image_rep, g),
        "composition_r": all(i[t[j[a]]] == r[a] for a in f.acting.carrier),
        "composition_R": all(big_i[big_t[big_j[m]]] == big_r[m]
                             for m in f.acted.carrier),
    }
    if not all(checks.values()):
        raise NotMorphism(f"decomposition checks failed: {checks}")
    return MorphismDecomposition(
        j=j, J=big_j, t=t, T=big_t, i=i, I=big_i,
        acting_quotient=acting_q, acted_quotient=acted_q,
        acting_image=acting_im, acted_image=acted_im,
        quotient_rep=quotient_rep, image_rep=image_rep,
        checks=checks,
    )
