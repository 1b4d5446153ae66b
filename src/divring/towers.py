"""Towers of representations: chained algebras each acting on the next.

A tower holds algebras A_1 .. A_n and representations f_k of A_k in
A_{k+1}.  Levels are spoken of 1-based as in the accompanying docs;
indices into the `algebras` and `reps` tuples are plain 0-based Python.

The engine lives in `omega`: word evaluation and substitution, closure,
bases, endomorphism checks, coordinates and endomorphism enumeration are
written once there for towers of any height, a single representation being
the height-2 tower.  Closure proceeds level by level, each level saturated
with the closed level below as its pool of actors; words at level i >= 3
record the acting element as a level-(i-1) word.  This module wraps the
engine and adds what only towers have: tower morphisms, induced
representations and effectiveness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    ChainMismatch,
    GeneratorMismatch,
    NoIdentityPreimage,
    NotSingleTransitive,
)
from .omega import (
    Representation,
    _basis,
    _close,
    _coordinates,
    _endomorphisms,
    _env,
    _evaluate_at,
    _generates,
    _is_endomorphism,
    _saturate,
    _substitute,
    check_morphism,
    classify,
)


class Tower:
    """A validated chain of representations."""

    __slots__ = ("algebras", "reps")

    def __init__(self, reps: Sequence[Representation]):
        reps = tuple(reps)
        if not reps:
            raise ValueError("a tower needs at least one representation")
        for k in range(len(reps) - 1):
            if not reps[k].acted.same_structure(reps[k + 1].acting):
                raise ChainMismatch(k + 1)
        self.reps = reps
        self.algebras = (reps[0].acting,) + tuple(r.acted for r in reps)

    @property
    def height(self) -> int:
        return len(self.algebras)

    def __repr__(self):
        return f"Tower({' -> '.join(repr(a) for a in self.algebras)})"


def build_tower(reps: Sequence[Representation]) -> Tower:
    return Tower(reps)


# ---------------------------------------------------------------------------
# tower words


def eval_tower_word(tower: Tower, level: int, word, assignments: Mapping):
    """Evaluate a level-`level` word (1-based level, >= 2).

    `assignments` maps each level >= 2 to a generator assignment; actors in
    action nodes are bare level-1 elements at level 2 and lower-level words
    above that.  A generator that the word reaches and its level's
    assignment lacks raises MissingGenerator, whatever the memo holds.

    Evaluation is by value.  A `Sub` node evaluates the words substituted
    for the generators its body reaches, then its body under those values,
    and keeps its last value.  Every App and Act node is memoised under the
    tower, the node and the generator values, so a word shared by closure
    tables or by many superpositions is evaluated once per tuple of
    generator values.  The memo holds at most 4096 entries and the Sub
    nodes kept for reuse at most 1024 (`omega._VALUE_LIMIT`,
    `omega._SUB_LIMIT`); each is dropped whole when full.  Towers and
    representations are taken to be immutable.
    """
    return _evaluate_at(tower, tower.reps, level, word, assignments, True)


@dataclass(frozen=True)
class TowerClosure:
    """Per-level members and word tables of a layered closure.

    members[0] is always the full first algebra; word tables exist for
    levels 2..n and map members to their first-derivation words.
    """

    tower: Tower
    generators: tuple
    members: tuple
    word_of: tuple
    levels: tuple

    @property
    def is_full(self) -> bool:
        return _generates(self.tower.reps, self.word_of[1:])

    def identity_assignments(self) -> dict:
        return {
            level: {x: x for x in self.generators[level - 2]}
            for level in range(2, self.tower.height + 1)
        }


def tower_closure(tower: Tower, gens: Sequence[Iterable]) -> TowerClosure:
    """Layered fixpoint; `gens` holds one generating subset per level 2..n.
    Level 2 and the closure of a representation follow one order (see
    omega._close)."""
    generators, members, word_of, levels = _close(tower.reps, gens)
    return TowerClosure(
        tower=tower,
        generators=generators,
        members=(tuple(tower.algebras[0].carrier),) + members,
        word_of=(None,) + word_of,
        levels=(None,) + levels,
    )


def naive_tower_closure(tower: Tower, gens: Sequence[Iterable]) -> tuple:
    """Layered set-only saturation; the oracle for tower_closure."""
    members = [frozenset(tower.algebras[0].carrier)]
    for rep, level_gens in zip(tower.reps, gens):
        members.append(_saturate(rep, members[-1], level_gens))
    return tuple(members)


# ---------------------------------------------------------------------------
# tower endomorphisms, coordinates, superposition


def is_tower_endomorphism(tower: Tower, maps: Sequence[Mapping]) -> bool:
    """maps holds h_2 .. h_n; level 1 is fixed to the identity."""
    return _is_endomorphism(tower.reps, maps)


def tower_endo_coordinates(tower: Tower, gens: Sequence[Iterable],
                           maps: Sequence[Mapping],
                           clo: Optional[TowerClosure] = None,
                           verified: bool = False) -> tuple:
    """Per-level coordinate words of a tower endomorphism.

    As with the plain representation version, a precomputed closure and
    `verified=True` let bulk sweeps skip redundant work.  A generating tuple
    with maps that are no tower endomorphism raises NotRepEndomorphism.
    """
    if clo is None:
        clo = tower_closure(tower, gens)
    return _coordinates(tower.reps, clo.generators, clo.word_of[1:], maps, verified)


def _substitute_tower(coords: Sequence[Mapping], env) -> tuple:
    """The Sub node of every coordinate word, level by level.  Nodes
    already built on `env` are looked up here, not through _substitute:
    that is the common case in a sweep and it saves a call per word."""
    out = []
    for level, table in enumerate(coords, 2):
        subs = env.subs[level - 2]
        words = {}
        for key, w in table.items():
            sub = subs.get(id(w))
            words[key] = sub if sub is not None else _substitute(w, level, env)
        out.append(words)
    return tuple(out)


def tower_superpose(coords: Sequence[Mapping], endo_coords: Sequence[Mapping]) -> tuple:
    """Levelwise substitution of endomorphism words into coordinate words.

    Evaluating the result at the generating tuple equals evaluating
    `coords` at the endomorphism's image of the tuple; on endomorphism
    coordinate families this realizes the contravariant composition law.

    Each result word is a `Sub` node: the level-L coordinate word with one
    shared snapshot of `endo_coords`, whose table L serves the word's own
    generators and the lower tables its actor words; bare level-1 actors
    stay fixed because tower endomorphisms are the identity on the first
    algebra.  No tree is copied.
    GeneratorMismatch is raised here, not at evaluation, when the level
    counts differ or when a generator that a coordinate word reaches, at
    its own level or through an actor word, is missing from its table.
    """
    if len(coords) != len(endo_coords):
        raise GeneratorMismatch("coordinate families span different level counts")
    return _substitute_tower(coords, _env(endo_coords, tuple(endo_coords)))


def enumerate_tower_endomorphisms(tower: Tower) -> list:
    """All tower endomorphisms (h_2, .., h_n), level 1 fixed, determined by
    their images of a basis; omega._endomorphisms enumerates them for every
    height, a representation being the height-2 case."""
    return _endomorphisms(tower, tower.reps)


def enumerate_tower_automorphisms(tower: Tower) -> list:
    return [
        maps
        for maps in enumerate_tower_endomorphisms(tower)
        if all(len(set(h.values())) == len(h) for h in maps)
    ]


# ---------------------------------------------------------------------------
# basis


def tower_basis(tower: Tower, gens: Sequence[Iterable]) -> tuple:
    """Greedy layered minimization, lowest level first (see omega._basis)."""
    return _basis(tower.reps, gens)


# ---------------------------------------------------------------------------
# morphisms, induced representations, effectiveness


def check_tower_morphism(maps: Sequence[Mapping], source: Tower,
                         target: Tower) -> bool:
    """maps holds h_1 .. h_n; true iff every adjacent pair is a morphism."""
    if source.height != target.height or len(maps) != source.height:
        return False
    return all(
        check_morphism(maps[k], maps[k + 1], source.reps[k], target.reps[k])
        for k in range(source.height - 1)
    )


def compose_tower_morphisms(first: Sequence[Mapping],
                            second: Sequence[Mapping]) -> tuple:
    """Componentwise composition, second after first."""
    if len(first) != len(second):
        raise ValueError("morphisms have different level counts")
    return tuple(
        {x: q[p[x]] for x in p} for p, q in zip(first, second)
    )


def induced_two_level(tower: Tower, i: int, a0, anchor=None) -> Representation:
    """Representation of A_i on A_{i+2} induced through the middle level.

    `a0` must be an element of A_{i+1} acting as the identity on A_{i+2}
    (NoIdentityPreimage otherwise), which pins the anchor inside the orbit
    picture: with f_{i+1,i+2} single transitive every y factors uniquely as
    b_y applied to the anchor, and

        f'(a)(y) = f_{i+1,i+2}( f_{i,i+1}(a)(b_y) )(anchor)

    The anchor defaults to the first carrier element of A_{i+2}; the
    induced structure genuinely depends on this choice.  When both input
    representations are effective the result is effective.
    """
    if not 1 <= i <= tower.height - 2:
        raise ValueError("level out of range")
    low = tower.reps[i - 1]
    high = tower.reps[i]
    identity = tuple(high.acted.carrier)
    if high.transformation(a0) != identity:
        raise NoIdentityPreimage(f"{a0!r} does not act as the identity")
    if not classify(high).single_transitive:
        raise NotSingleTransitive("middle representation must be single transitive")
    if anchor is None:
        anchor = high.acted.carrier[0]
    factor = {}
    for b in high.acting.carrier:
        factor[high.act(b, anchor)] = b
    action = {
        (a, y): high.act(low.act(a, factor[y]), anchor)
        for a in low.acting.carrier
        for y in high.acted.carrier
    }
    return Representation(low.acting, high.acted, action, rep_kind="raw",
                          handedness=low.handedness)


def effectiveness_chain(tower: Tower, i: int, k: int) -> bool:
    """Effectiveness of the composed action of A_i through k levels.

    The fingerprint of a is the full evaluation table of the chain
    a -> f(a)(b_{i+1}) -> f(..)(b_{i+2}) -> ...; the composed action is
    effective iff distinct actors give distinct tables.  When every step
    representation is effective this is guaranteed to hold.
    """
    if not (1 <= i and i + k <= tower.height and k >= 1):
        raise ValueError("invalid level range")
    chain = tower.reps[i - 1 : i - 1 + k]
    domains = [r.acted.carrier for r in chain]

    def fingerprint(a):
        rows = []
        for args in itertools.product(*domains):
            value = a
            for rep, x in zip(chain, args):
                value = rep.act(value, x)
            rows.append(value)
        return tuple(rows)

    prints = [fingerprint(a) for a in chain[0].acting.carrier]
    return len(set(prints)) == len(prints)
