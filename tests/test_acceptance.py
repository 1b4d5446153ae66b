"""Acceptance criteria, one test per criterion.

Every check is exact (zero tolerance); each test prints a PASS line with
its runtime and asserts the stated wall-clock budget.  Randomized data is
drawn from fixed seeds so the suite is reproducible.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from divring.affine import (
    AffineMap,
    Plane,
    apply_affine,
    compose_affine,
    identity_map,
    inverse_affine,
    nc_rank,
    plane_contains,
    shift,
    vec_between,
)
from divring.algebra import (
    Algebra,
    BasisChange,
    change_basis,
    inverse,
    mul,
    quaternion_algebra,
    transform_vector,
)
from divring.calculus import (
    Chart,
    chart_connection,
    express_constant_field,
    geodesic_residual,
    parallel_residual,
    pushforward_vector,
)
from divring.errors import AssociativityViolation, PivotConditionFailed, SingularBasisChange
from divring.forms import (
    QuadraticMatrix,
    diagonalize,
    eval_quadratic,
    solve_axxa,
)
from divring.ncpoly import NCPoly
from divring.omega import (
    closure,
    decompose_morphism,
    endo_coordinates,
    enumerate_rep_endomorphisms,
    eval_word,
    extract_basis,
    naive_closure,
    superpose,
)
from divring.samples import (
    generation_rep,
    scalar_rep,
    toy_affine_tower,
    translation_on_points,
    translation_rep,
)
from divring.towers import (
    enumerate_tower_endomorphisms,
    eval_tower_word,
    tower_closure,
    tower_endo_coordinates,
    tower_superpose,
)
from conftest import random_element, random_transformation_monoid

H = quaternion_algebra()
ONE, I, J, K = H.basis()
ZERO = H.zero


def budget(limit):
    """Context printing one PASS line and asserting the time budget."""

    class _Budget:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.perf_counter() - self.start
            self.elapsed = elapsed
            if exc_type is None:
                assert elapsed < limit, f"budget exceeded: {elapsed:.2f}s >= {limit}s"

    return _Budget()


def report(number, text, b):
    print(f"PASS criterion {number} [{b.elapsed:.2f}s < limit]: {text}")


def rnd_elt(rng, span=5, nonzero=False):
    return random_element(rng, H, span, nonzero)


# ---------------------------------------------------------------------------


def test_criterion_1_quaternion_table_validation():
    with budget(1.0) as b:
        constants = [
            [list(row) for row in plane] for plane in H.constants
        ]
        checked = 0
        for i, m, n, k in itertools.product(range(4), repeat=4):
            left = sum(constants[i][m][j] * constants[j][n][k] for j in range(4))
            right = sum(constants[m][n][j] * constants[i][j][k] for j in range(4))
            assert left == right
            checked += 1
        assert checked == 256
        Algebra(4, constants, 0)
        corrupted = [ [ [c for c in row] for row in plane] for plane in constants]
        corrupted[1][2][3] = Fraction(-1)
        with pytest.raises(AssociativityViolation):
            Algebra(4, corrupted, 0)
    report(1, "256-tuple table check passes; corruption detected", b)


def test_criterion_2_division_ring_laws():
    rng = random.Random(101)
    with budget(5.0) as b:
        for _ in range(1000):
            a = rnd_elt(rng, nonzero=True)
            x = inverse(a)
            assert mul(a, x) == H.unit
            assert mul(x, a) == H.unit
        for _ in range(500):
            a, bb, c = (rnd_elt(rng) for _ in range(3))
            assert mul(mul(a, bb), c) == mul(a, mul(bb, c))
    report(2, "1000 two-sided inverses and 500 associativity triples, exact", b)


def test_criterion_3_tensor_laws():
    rng = random.Random(102)
    with budget(10.0) as b:
        done = 0
        while done < 50:
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(4)]
                    for _ in range(4)]
            try:
                bc = BasisChange(rows)
            except SingularBasisChange:
                continue
            new = change_basis(H, bc)  # construction re-validates the tensor law
            for _ in range(50):
                a = rnd_elt(rng, 4)
                bb = rnd_elt(rng, 4)
                lhs = mul(transform_vector(a, bc, new), transform_vector(bb, bc, new))
                rhs = transform_vector(mul(a, bb), bc, new)
                assert lhs == rhs
            done += 1
    report(3, "50 random basis changes keep associativity and products", b)


def test_criterion_4_two_sided_equation_solver():
    rng = random.Random(103)

    def oracle_matrix(a):
        cols = [mul(a, e) + mul(e, a) for e in H.basis()]
        return [[cols[j].coords[k] for j in range(4)] for k in range(4)]

    def rref_rank(rows):
        m = [list(r) for r in rows]
        rank = 0
        for col in range(len(m[0])):
            piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            f = m[rank][col]
            m[rank] = [x / f for x in m[rank]]
            for r in range(len(m)):
                if r != rank and m[r][col] != 0:
                    g = m[r][col]
                    m[r] = [x - g * y for x, y in zip(m[r], m[rank])]
            rank += 1
        return rank

    with budget(5.0) as b:
        for _ in range(500):
            a = rnd_elt(rng, 4)
            bb = rnd_elt(rng, 4)
            out = solve_axxa(a, bb)
            s = oracle_matrix(a)
            rank = rref_rank(s)
            aug = rref_rank([row + [c] for row, c in zip(s, bb.coords)])
            expected = ("unique" if rank == 4
                        else "infinite" if rank == aug else "none")
            assert out.kind == expected
            assert out.nullspace_dim == 4 - rank
            if out.witness is not None:
                assert mul(a, out.witness) + mul(out.witness, a) == bb
        hand = solve_axxa(ONE, J)
        assert hand.kind == "unique" and hand.witness == J.scale(Fraction(1, 2))
        hand = solve_axxa(I, I.scale(2))
        assert hand.kind == "infinite" and hand.witness == ONE \
            and hand.nullspace_dim == 2
        hand = solve_axxa(I, J)
        assert hand.kind == "none"
    report(4, "500 random classifications match the rank oracle; hand cases", b)


def test_criterion_5_diagonalization():
    rng = random.Random(104)
    with budget(30.0) as b:
        completed = 0
        attempts = 0
        while completed < 100:
            attempts += 1
            nvars = rng.randint(1, 4)
            grid = [[None] * nvars for _ in range(nvars)]
            for r in range(nvars):
                for c in range(r, nvars):
                    e = rnd_elt(rng, 3)
                    grid[r][c] = e
                    grid[c][r] = e
            form = QuadraticMatrix(grid)
            try:
                diag = diagonalize(form)
            except PivotConditionFailed:
                continue
            for _ in range(50):
                a = [Fraction(rng.randint(-5, 5)) for _ in range(nvars)]
                assert diag.evaluate(a) == eval_quadratic(form, a)
            assert diag.residual_rank == len(diag.diagonal)
            completed += 1
        assert attempts < 4 * 100

        # proof case 1: complete the square against a cross coefficient
        case1 = QuadraticMatrix([[ONE, I], [I, ZERO]])
        diag = diagonalize(case1)
        assert diag.diagonal == (ONE, ONE)
        assert diag.substitution[0] == (ONE, I)

        # proof case 2: zero diagonal forces the mixing substitution, after
        # which the form reads 2 b1^2 - 2 b2^2
        case2 = QuadraticMatrix([[ZERO, ONE], [ONE, ZERO]])
        diag = diagonalize(case2)
        assert diag.extra_linear is not None
        p = diag.extra_linear
        mixed = {}
        for r in range(2):
            for c in range(2):
                acc = ZERO
                for x in range(2):
                    for y in range(2):
                        acc = acc + case2.entries[x][y].scale(p[x][r] * p[y][c])
                mixed[(r, c)] = acc
        assert mixed[(0, 0)] == ONE.scale(2)
        assert mixed[(1, 1)] == ONE.scale(-2)
        assert mixed[(0, 1)].is_zero() and mixed[(1, 0)].is_zero()
        for a1 in range(-3, 4):
            for a2 in range(-3, 4):
                assert diag.evaluate([a1, a2]) == eval_quadratic(case2, [a1, a2])
    report(5, "100 random forms re-evaluate exactly; both proof cases", b)


def test_criterion_6_closure_oracle_equivalence():
    rng = random.Random(105)
    with budget(10.0) as b:
        corpus = [
            generation_rep(6),
            generation_rep(3),
            translation_rep(6),
            translation_rep(3),
            scalar_rep(),
            translation_on_points(),
            random_transformation_monoid(rng, 4),
            random_transformation_monoid(rng, 5),
            random_transformation_monoid(rng, 6),
        ]
        for rep in corpus:
            na = len(rep.acting.carrier)
            nm = len(rep.acted.carrier)
            assert na * nm <= 576
            carrier = list(rep.acted.carrier)
            gen_sets = [[m] for m in carrier]
            gen_sets += [carrier[:2], carrier[-2:], carrier[::2]]
            for gens in gen_sets:
                assert set(closure(rep, gens).members) == \
                    set(naive_closure(rep, gens))
        c6 = generation_rep(6)
        assert extract_basis(c6, [1]) == (1,)
        assert extract_basis(c6, [2, 3]) == (2, 3)
        assert not closure(c6, [2]).is_full
        assert not closure(c6, [3]).is_full
        assert closure(c6, [2, 3]).is_full
    report(6, "closure equals saturation on the corpus; cyclic-six bases", b)


def test_criterion_7_superposition_laws():
    with budget(10.0) as b:
        c6 = generation_rep(6)
        clo = closure(c6, [1])
        endos = enumerate_rep_endomorphisms(c6)
        coords = [
            endo_coordinates(c6, [1], r, clo=clo, verified=True) for r in endos
        ]
        for r, wr in zip(endos, coords):
            for s, ws in zip(endos, coords):
                sup = superpose(ws, wr)
                assert eval_word(c6, sup[1], {1: 1}) == r[s[1]]

        tower = toy_affine_tower()
        gens = [[(1, 0), (0, 1)], [(0, 0)]]
        tclo = tower_closure(tower, gens)
        ids = tclo.identity_assignments()
        tendos = enumerate_tower_endomorphisms(tower)
        assert len(tendos) == 729
        tcoords = [
            tower_endo_coordinates(tower, gens, m, clo=tclo, verified=True)
            for m in tendos
        ]
        e1, e2, p0 = (1, 0), (0, 1), (0, 0)
        for r, wr in zip(tendos, tcoords):
            r2, r3 = r
            for s, ws in zip(tendos, tcoords):
                sup = tower_superpose(ws, wr)
                assert eval_tower_word(tower, 2, sup[0][e1], ids) == r2[s[0][e1]]
                assert eval_tower_word(tower, 2, sup[0][e2], ids) == r2[s[0][e2]]
                assert eval_tower_word(tower, 3, sup[1][p0], ids) == r3[s[1][p0]]
    report(7, "composition law for all 36 + 531441 endomorphism pairs", b)


def test_criterion_8_morphism_decomposition():
    with budget(2.0) as b:
        t6 = translation_rep(6)
        t3 = translation_rep(3)
        r = {a: a % 3 for a in range(6)}
        big_r = {m: m % 3 for m in range(6)}
        dec = decompose_morphism(r, big_r, t6, t3)
        assert dec.checks == {
            "j_J_morphism": True,
            "t_T_morphism": True,
            "t_T_inverse_morphism": True,
            "i_I_morphism": True,
            "composition_r": True,
            "composition_R": True,
        }
    report(8, "mod-3 reduction decomposes with all factor checks", b)


def test_criterion_9_affine_group():
    rng = random.Random(109)

    def random_map(n):
        while True:
            try:
                return AffineMap(
                    [[rnd_elt(rng, 3) for _ in range(n)] for _ in range(n)],
                    [rnd_elt(rng, 3) for _ in range(n)],
                )
            except Exception:
                continue

    with budget(10.0) as b:
        for n in (1, 2, 3):
            m1 = random_map(n)
            m2 = random_map(n)
            m3 = random_map(n)
            comp = compose_affine(m1, m2)
            for _ in range(100):
                pt = tuple(rnd_elt(rng) for _ in range(n))
                assert apply_affine(comp, pt) == \
                    apply_affine(m2, apply_affine(m1, pt))
            left = compose_affine(compose_affine(m1, m2), m3)
            right = compose_affine(m1, compose_affine(m2, m3))
            assert left.linear == right.linear and left.shift == right.shift
            ident = identity_map(H, n)
            inv = inverse_affine(m1)
            for prod in (compose_affine(m1, inv), compose_affine(inv, m1)):
                assert prod.linear == ident.linear
                assert prod.shift == ident.shift
            same = compose_affine(m1, ident)
            assert same.linear == m1.linear and same.shift == m1.shift
        for _ in range(200):
            a, bb, c = (tuple(rnd_elt(rng) for _ in range(2)) for _ in range(3))
            d = shift(c, vec_between(a, bb))
            assert vec_between(a, bb) == vec_between(c, d)
            assert vec_between(a, c) == vec_between(bb, d)
    report(9, "composites match pointwise, group axioms, parallelogram", b)


def test_criterion_10_plane_membership():
    rng = random.Random(110)

    def random_independent(count):
        while True:
            vs = [tuple(rnd_elt(rng, 3) for _ in range(3)) for _ in range(count)]
            cols = [[v[r] for v in vs] for r in range(3)]
            if nc_rank(cols) == count:
                return vs

    with budget(5.0) as b:
        for k in (1, 2):
            span = random_independent(k)
            anchor = tuple(rnd_elt(rng) for _ in range(3))
            plane = Plane(anchor, span)
            inside_count = 0
            false_count = 0
            while false_count < 50:
                coeffs = [rnd_elt(rng, 3) for _ in span]
                combo = tuple(
                    sum((mul(v[r], c) for v, c in zip(span, coeffs)), ZERO)
                    for r in range(3)
                )
                inside = shift(anchor, combo)
                assert plane_contains(plane, inside)
                inside_count += 1
                # perturb by a direction independent of the span
                extra = tuple(rnd_elt(rng, 3) for _ in range(3))
                cols = [[v[r] for v in span] + [extra[r]] for r in range(3)]
                if nc_rank(cols) != k + 1:
                    continue
                outside = shift(inside, extra)
                assert not plane_contains(plane, outside)
                false_count += 1
            assert inside_count >= 50
    report(10, "span combinations inside, independent perturbations outside", b)


def _mixing_chart(a, bb, c):
    return Chart([
        NCPoly.const(H, 2, a) * NCPoly.var(H, 2, 0) * NCPoly.const(H, 2, bb)
        + NCPoly.const(H, 2, a) * NCPoly.var(H, 2, 1) * NCPoly.const(H, 2, c),
        NCPoly.var(H, 2, 0) + NCPoly.var(H, 2, 1),
    ])


def test_criterion_11_linear_chart_round_trip():
    rng = random.Random(111)

    def parameters():
        while True:
            a = rnd_elt(rng, 3, nonzero=True)
            bb = rnd_elt(rng, 3)
            c = rnd_elt(rng, 3)
            try:
                a.inverse()
                (c - bb).inverse()
                return a, bb, c
            except Exception:
                continue

    with budget(5.0) as b:
        for _ in range(10):
            a, bb, c = parameters()
            chart = _mixing_chart(a, bb, c)
            assert chart.inverse is not None
            for _ in range(10):
                x = (rnd_elt(rng), rnd_elt(rng))
                assert chart.backward(chart.forward(x)) == x
        # the worked parameter choice, with its closed-form inverse
        a, bb, c = I, ONE, J
        chart = _mixing_chart(a, bb, c)
        cb = (c - bb).inverse()
        assert cb == (ONE + J).scale(Fraction(-1, 2))
        for _ in range(10):
            xp = (rnd_elt(rng), rnd_elt(rng))
            vp = (rnd_elt(rng), rnd_elt(rng))
            v = pushforward_vector(chart, xp, vp)
            v1 = -mul(mul(a.inverse(), vp[0]), cb) + mul(vp[1], ONE + mul(bb, cb))
            v2 = mul(mul(a.inverse(), vp[0]), cb) - mul(mul(vp[1], bb), cb)
            assert v == (v1, v2)
    report(11, "10 x 10 exact round trips; vector formulas reproduce", b)


def test_criterion_12_connection_properties():
    rng = random.Random(112)
    with budget(10.0) as b:
        # linear charts induce the zero connection
        for _ in range(3):
            while True:
                a = rnd_elt(rng, 3, nonzero=True)
                bb = rnd_elt(rng, 3)
                c = rnd_elt(rng, 3)
                try:
                    a.inverse()
                    (c - bb).inverse()
                    break
                except Exception:
                    continue
            gamma = chart_connection(_mixing_chart(a, bb, c))
            for _ in range(5):
                xp = (rnd_elt(rng), rnd_elt(rng))
                v = (rnd_elt(rng), rnd_elt(rng))
                aa = (rnd_elt(rng), rnd_elt(rng))
                assert gamma.apply(xp, v, aa) == (ZERO, ZERO)

        quad = Chart(
            [NCPoly.var(H, 2, 0),
             NCPoly.var(H, 2, 1) + NCPoly.var(H, 2, 0) * NCPoly.var(H, 2, 0)],
            [NCPoly.var(H, 2, 0),
             NCPoly.var(H, 2, 1) - NCPoly.var(H, 2, 0) * NCPoly.var(H, 2, 0)],
        )
        gamma = chart_connection(quad)
        field = express_constant_field(quad, (rnd_elt(rng), rnd_elt(rng)))
        for _ in range(100):
            xp = (rnd_elt(rng), rnd_elt(rng))
            aa = (rnd_elt(rng), rnd_elt(rng))
            u, w = rnd_elt(rng), rnd_elt(rng)
            for kk in (0, 1):
                for jj in (0, 1):
                    for ii in (0, 1):
                        assert gamma.coefficient(xp, kk, jj, ii, u, w) == \
                            gamma.coefficient(xp, kk, ii, jj, w, u)
            assert parallel_residual(gamma, field, xp, aa) == (ZERO, ZERO)

        t = NCPoly.var(H, 1, 0)
        for _ in range(10):
            start = (rnd_elt(rng), rnd_elt(rng))
            direction = (rnd_elt(rng), rnd_elt(rng))
            flat = [
                NCPoly.const(H, 1, start[i_]) + t * NCPoly.const(H, 1, direction[i_])
                for i_ in range(2)
            ]
            path = [comp.substitute(flat) for comp in quad.components]
            t0 = H.scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
            dt = H.scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
            assert geodesic_residual(gamma, path, t0, dt) == (ZERO, ZERO)
    report(12, "zero linear connection, symmetry, parallel and geodesic checks", b)
