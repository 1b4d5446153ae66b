"""Small ready-made finite objects used by demos and tests.

The cyclic-six objects realize the classic two-bases example; the mod-3
family builds the three-level toy affine tower (scalars acting on a vector
group acting on a point set) that exercises towers, transfer of structure
and the affine axioms on a finite carrier.
"""

from __future__ import annotations

from .omega import FiniteOmegaAlgebra, Representation, Signature
from .towers import Tower


def cyclic_group(n: int, op_name: str = "mul") -> FiniteOmegaAlgebra:
    return FiniteOmegaAlgebra(
        range(n),
        Signature([(op_name, 2)]),
        {op_name: lambda a, b: (a + b) % n},
        name=f"C{n}",
    )


def point_set(n: int, name=None) -> FiniteOmegaAlgebra:
    return FiniteOmegaAlgebra(range(n), Signature([]), {}, name=name or f"S{n}")


def trivial_monoid() -> FiniteOmegaAlgebra:
    return FiniteOmegaAlgebra(
        ["e"], Signature([("mul", 2)]), {"mul": {("e", "e"): "e"}}, name="1"
    )


def translation_rep(n: int) -> Representation:
    """C_n translating an n-point set; single transitive."""
    return Representation(
        cyclic_group(n),
        point_set(n),
        lambda a, m: (a + m) % n,
        rep_kind="monoid-action",
        name=f"C{n} translation",
    )


def generation_rep(n: int) -> Representation:
    """The trivial monoid on the cyclic group: closure sees only the group
    operation, which is the setting of the two-bases example."""
    return Representation(
        trivial_monoid(),
        cyclic_group(n, op_name="add"),
        lambda a, m: m,
        rep_kind="monoid-action",
        name=f"C{n} generation",
    )


def f3_field() -> FiniteOmegaAlgebra:
    return FiniteOmegaAlgebra(
        range(3),
        Signature([("add", 2), ("mul", 2)]),
        {"add": lambda a, b: (a + b) % 3, "mul": lambda a, b: (a * b) % 3},
        name="F3",
    )


def f3_vector_group() -> FiniteOmegaAlgebra:
    vectors = [(x, y) for x in range(3) for y in range(3)]
    return FiniteOmegaAlgebra(
        vectors,
        Signature([("add", 2)]),
        {"add": lambda u, v: ((u[0] + v[0]) % 3, (u[1] + v[1]) % 3)},
        name="F3^2",
    )


def f3_point_set() -> FiniteOmegaAlgebra:
    points = [(x, y) for x in range(3) for y in range(3)]
    return FiniteOmegaAlgebra(points, Signature([]), {}, name="F3^2 points")


def scalar_rep() -> Representation:
    """F3 acting on the vector group by scalar multiplication."""
    return Representation(
        f3_field(),
        f3_vector_group(),
        lambda d, v: ((d * v[0]) % 3, (d * v[1]) % 3),
        rep_kind="ring-on-abelian-group",
        name="F3 scalars",
    )


def translation_on_points() -> Representation:
    """The vector group translating the 9-point set; single transitive."""
    return Representation(
        f3_vector_group(),
        f3_point_set(),
        lambda v, p: ((v[0] + p[0]) % 3, (v[1] + p[1]) % 3),
        rep_kind="monoid-action",
        name="F3^2 translations",
    )


def toy_affine_tower() -> Tower:
    """Scalars on vectors on points: a finite affine plane as a tower."""
    return Tower([scalar_rep(), translation_on_points()])
