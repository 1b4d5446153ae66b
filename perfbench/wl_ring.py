"""`ring`: exact division-ring arithmetic and elimination.

Quaternion products and inverses, the two-sided equation, completion of
squares, basis changes and matrices over the ring (`algebra`, `ratlin`,
`forms`, `affine`).  No words and no polynomials: Fraction/Element work
and Gauss elimination dominate, so the rational kernel must move this
workload and the word engine must not.  Every kind runs in both
coefficient classes, small integers and large numerators over
non-trivial denominators, so a gain that only helps small rationals shows
as such.
"""

from __future__ import annotations

from fractions import Fraction

import oracle as O
from common import quaternion, require, stratified

KINDS = ("quat", "axxa", "diag", "basis", "affine_group", "affine_rank")
PATTERN = tuple((k, large) for large in (False, True) for k in KINDS)
POOL_SIZE = 480
QUAT_BATCH = 6
AXXA_BATCH = 6
# the large class stops one size short: coefficient growth makes its
# largest forms and matrices take seconds
DIAG_SIZES = {False: range(1, 6), True: range(1, 5)}
DIAG_POINTS = 6
BASIS_PAIRS = 4
AFFINE_SIZES = {False: range(2, 7), True: range(2, 6)}
PLANE_POINTS = 3


def expected_outcomes(lib) -> tuple:
    # a pivot equation without solution is a result of the completion of
    # squares, and a random linear part may be singular
    e = lib.errors
    return (e.PivotConditionFailed, e.SingularLinearPart)


# ---------------------------------------------------------------------------
# generators


def _elements(H, rng, count, large, nonzero=False):
    return [H.element(quaternion(rng, large, nonzero)) for _ in range(count)]


def _axxa_pair(H, rng, large):
    """A third of the a's are pure imaginary, where a x + x a = b is
    degenerate; half of those get a solvable right-hand side."""
    style = rng.randrange(6)
    a = list(quaternion(rng, large, nonzero=True))
    if style < 2:
        a[0] = Fraction(0)
        if not any(a):
            a[1] = Fraction(1)
    if style == 0:
        x = quaternion(rng, large)
        b = O.qadd(O.qmul(a, x), O.qmul(x, a))
    else:
        b = quaternion(rng, large)
    return H.element(a), H.element(b)


def _unit_triangular_product(rng, n, entry):
    """L U with unit diagonals: invertible by construction."""
    low = [[entry() if c < r else Fraction(int(c == r)) for c in range(n)] for r in range(n)]
    up = [[entry() if c > r else Fraction(int(c == r)) for c in range(n)] for r in range(n)]
    return [[sum(low[r][k] * up[k][c] for k in range(n)) for c in range(n)] for r in range(n)]


def _mix_rows(P, vec):
    """P v with rational P acting on a column of quaternion tuples."""
    return [tuple(sum(P[r][s] * vec[s][t] for s in range(len(vec))) for t in range(4))
            for r in range(len(P))]


def setup(lib, rng, size=POOL_SIZE) -> list:
    H = lib.algebra.quaternion_algebra()
    kinds = [PATTERN[i % len(PATTERN)] for i in range(size)]
    sizes = {key: stratified(rng, table[key[1]], kinds.count(key))
             for table, names in ((DIAG_SIZES, ("diag",)),
                                  (AFFINE_SIZES, ("affine_group", "affine_rank")))
             for key in ((k, large) for k in names for large in (False, True))}
    jobs = []
    for kind, large in kinds:
        if kind == "quat":
            inputs = (_elements(H, rng, QUAT_BATCH, large, nonzero=True),
                      [_elements(H, rng, 3, large) for _ in range(QUAT_BATCH)])
        elif kind == "axxa":
            inputs = [_axxa_pair(H, rng, large) for _ in range(AXXA_BATCH)]
        elif kind == "diag":
            n = sizes[kind, large].pop()
            grid = [[None] * n for _ in range(n)]
            for r in range(n):
                for c in range(r, n):
                    grid[r][c] = grid[c][r] = H.element(quaternion(rng, large))
            points = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                      for _ in range(DIAG_POINTS)]
            inputs = (lib.forms.QuadraticMatrix(grid), points)
        elif kind == "basis":
            matrix = _unit_triangular_product(rng, 4, lambda: Fraction(rng.randint(-3, 3)))
            pairs = [_elements(H, rng, 2, large) for _ in range(BASIS_PAIRS)]
            inputs = (H, matrix, pairs)
        elif kind == "affine_group":
            n = sizes[kind, large].pop()
            linear = [_elements(H, rng, n, large) for _ in range(n)]
            inputs = (linear, _elements(H, rng, n, large))
        else:
            inputs = _rank_inputs(lib, H, rng, sizes[kind, large].pop(), large)
        jobs.append((f"{kind}/{'large' if large else 'small'}", inputs))
    return jobs


def _rank_inputs(lib, H, rng, n, large):
    """A square matrix, a third of them rank-deficient by construction,
    plus a plane in D^n and points on and off it.

    The plane's span and the off-plane direction start in echelon form
    and are mixed by an invertible rational matrix, which keeps them
    independent; on-plane points add right combinations of the span.
    """
    rows = [[quaternion(rng, large) for _ in range(n)] for _ in range(n)]
    if rng.randrange(3) == 0:
        coeffs = [quaternion(rng) for _ in range(n - 1)]
        rows[-1] = [
            tuple(sum(c[t] for c in cs) for t in range(4))
            for cs in zip(*[[O.qmul(k, x) for x in row] for k, row in zip(coeffs, rows)])
        ]
    matrix = [[H.element(x) for x in row] for row in rows]
    k = 1 + rng.randrange(min(2, n - 1))
    cols = []
    for j in range(k + 1):
        cols.append([O.ZERO] * j + [O.ONE] + [quaternion(rng, large) for _ in range(n - j - 1)])
    mix = _unit_triangular_product(rng, n, lambda: Fraction(rng.randint(-2, 2)))
    cols = [_mix_rows(mix, col) for col in cols]
    span, extra = cols[:k], cols[k]
    anchor = [quaternion(rng, large) for _ in range(n)]
    points = []
    for _ in range(PLANE_POINTS):
        inside = list(anchor)
        for v in span:
            c = quaternion(rng)
            inside = [O.qadd(p, O.qmul(x, c)) for p, x in zip(inside, v)]
        points.append((inside, True))
        points.append(([O.qadd(p, x) for p, x in zip(inside, extra)], False))
    elt = H.element
    plane = lib.affine.Plane([elt(x) for x in anchor], [[elt(x) for x in v] for v in span])
    points = [([elt(x) for x in p], inside) for p, inside in points]
    return matrix, plane, points


# ---------------------------------------------------------------------------
# jobs


def run_quat(lib, inputs):
    alg = lib.algebra
    units, triples = inputs
    inverses = [alg.inverse(a) for a in units]
    products = [(alg.mul(alg.mul(a, b), c), alg.mul(a, alg.mul(b, c))) for a, b, c in triples]
    return inverses, products


def run_axxa(lib, inputs):
    return [lib.forms.solve_axxa(a, b) for a, b in inputs]


def run_diag(lib, inputs):
    forms = lib.forms
    form, points = inputs
    diag = forms.diagonalize(form)
    return diag, [(diag.evaluate(p), forms.eval_quadratic(form, p)) for p in points]


def run_basis(lib, inputs):
    alg = lib.algebra
    H, matrix, pairs = inputs
    bc = alg.BasisChange(matrix)
    new = alg.change_basis(H, bc)
    out = []
    for a, b in pairs:
        ta = alg.transform_vector(a, bc, new)
        tb = alg.transform_vector(b, bc, new)
        out.append((ta, alg.mul(ta, tb), alg.transform_vector(alg.mul(a, b), bc, new)))
    return out


def run_affine_group(lib, inputs):
    aff = lib.affine
    linear, shift = inputs
    m = aff.AffineMap(linear, shift)
    inv = aff.inverse_affine(m)
    return aff.compose_affine(m, inv), aff.compose_affine(inv, m)


def run_affine_rank(lib, inputs):
    aff = lib.affine
    matrix, plane, points = inputs
    return aff.nc_rank(matrix), [aff.plane_contains(plane, p) for p, _ in points]


# ---------------------------------------------------------------------------
# checks


def _c(e):
    return e.coords


def check_quat(lib, inputs, result):
    units, triples = inputs
    inverses, products = result
    for a, x in zip(units, inverses):
        require(O.qmul(_c(a), _c(x)) == O.ONE and O.qmul(_c(x), _c(a)) == O.ONE,
                "inverse is not two-sided")
    for (a, b, c), (left, right) in zip(triples, products):
        want = O.qprod(_c(a), _c(b), _c(c))
        require(_c(left) == want and _c(right) == want, "product is wrong or not associative")
    require(len(inverses) == len(units) and len(products) == len(triples), "missing results")


def check_axxa(lib, inputs, result):
    require(len(result) == len(inputs), "missing results")
    for (a, b), out in zip(inputs, result):
        a, b = _c(a), _c(b)
        cols = [O.qadd(O.qmul(a, e), O.qmul(e, a)) for e in O.BASIS]
        s = [[cols[j][k] for j in range(4)] for k in range(4)]
        r = O.rank(s)
        aug = O.rank([row + [x] for row, x in zip(s, b)])
        kind = "unique" if r == 4 else "infinite" if aug == r else "none"
        require(out.kind == kind, f"kind {out.kind}, rank oracle says {kind}")
        require(out.nullspace_dim == 4 - r, "wrong nullity")
        if kind == "none":
            require(out.witness is None, "witness for an unsolvable equation")
        else:
            w = _c(out.witness)
            require(O.qadd(O.qmul(a, w), O.qmul(w, a)) == b, "witness does not solve a x + x a = b")


def _form_value(form, a):
    acc = O.ZERO
    for i, ai in enumerate(a):
        for j, aj in enumerate(a):
            acc = O.qadd(acc, O.qscale(_c(form.entries[i][j]), ai * aj))
    return acc


def _squares_value(diag, a):
    acc = O.ZERO
    for d, cov in zip(diag.diagonal, diag.substitution):
        lin = O.ZERO
        for aj, h in zip(a, cov):
            lin = O.qadd(lin, O.qscale(_c(h), aj))
        acc = O.qadd(acc, O.qmul(_c(d), O.qmul(lin, lin)))
    return acc


def check_diag(lib, inputs, result):
    form, points = inputs
    diag, values = result
    require(len(diag.diagonal) == len(diag.substitution) == diag.residual_rank,
            "diagonal and substitution lengths differ")
    require(len(values) == len(points), "missing evaluations")
    for p, (by_squares, direct) in zip(points, values):
        want = _form_value(form, p)
        require(_squares_value(diag, p) == want, "sum of squares differs from the form")
        require(_c(by_squares) == want and _c(direct) == want, "evaluation differs from the form")


def check_basis(lib, inputs, result):
    H, matrix, pairs = inputs

    def back(e):  # old coordinates = new row vector . matrix
        x = _c(e)
        return tuple(sum(x[i] * matrix[i][j] for i in range(4)) for j in range(4))

    require(len(result) == len(pairs), "missing results")
    for (a, b), (ta, lhs, rhs) in zip(pairs, result):
        require(back(ta) == _c(a), "transform_vector is not the basis change")
        require(_c(lhs) == _c(rhs), "product law fails in the new basis")
        require(back(lhs) == O.qmul(_c(a), _c(b)), "product in the new basis is wrong")


def check_affine_group(lib, inputs, result):
    linear, _ = inputs
    n = len(linear)
    for comp in result:
        require(all(_c(comp.linear[r][c]) == (O.ONE if r == c else O.ZERO)
                    for r in range(n) for c in range(n)), "composite linear part is not the identity")
        require(all(_c(x) == O.ZERO for x in comp.shift), "composite shift is not zero")


def check_affine_rank(lib, inputs, result):
    matrix, _, points = inputs
    rank, memberships = result
    want = O.ring_rank([[_c(x) for x in row] for row in matrix])
    require(rank == want, f"nc_rank {rank}, regular-representation rank says {want}")
    require(memberships == [inside for _, inside in points], "plane membership is wrong")


JOBS = {
    "quat": (run_quat, check_quat),
    "axxa": (run_axxa, check_axxa),
    "diag": (run_diag, check_diag),
    "basis": (run_basis, check_basis),
    "affine_group": (run_affine_group, check_affine_group),
    "affine_rank": (run_affine_rank, check_affine_rank),
}
