"""Which library functions the traced run wraps, and the per-layer metrics
derived from their spans.  Each layer is one `src/divring` module."""

from __future__ import annotations

from tracer import Target, Tracer

LAYERS = ("algebra", "ratlin", "affine", "forms", "ncpoly", "calculus",
          "omega", "towers", "io", "cli")


def _poly_terms(args, result):
    polys = [a for a in args if hasattr(a, "terms")]
    if len(args) > 1 and isinstance(args[1], (list, tuple)):
        polys += [p for p in args[1] if hasattr(p, "terms")]
    return (("ncpoly.operand_terms", sum(len(p.terms) for p in polys)),
            ("ncpoly.operands", len(polys)))


def _closure_fill(args, result):
    return (("omega.closure.members", len(result.members)),
            ("omega.closure.carrier", len(args[0].acted.carrier)))


def _found(counter):
    return lambda args, result: ((counter, len(result)),)


T = Target
TARGETS = [
    T("algebra.mul", "algebra", "mul"),
    T("algebra.inverse", "algebra", "inverse"),
    T("algebra.change_basis", "algebra", "change_basis"),
    T("algebra.transform_vector", "algebra", "transform_vector"),
    T("algebra.basis_change", "algebra", "BasisChange.__init__"),
    T("ratlin.row_echelon", "ratlin", "row_echelon"),
    T("ratlin.solve", "ratlin", "solve"),
    T("ratlin.invert", "ratlin", "invert"),
    T("ratlin.rank", "ratlin", "rank"),
    T("ratlin.mat_mul", "ratlin", "mat_mul"),
    T("affine.nc_rank", "affine", "nc_rank"),
    T("affine.invert_matrix", "affine", "invert_matrix"),
    T("affine.matrix_mul", "affine", "matrix_mul"),
    T("affine.compose_affine", "affine", "compose_affine"),
    T("affine.inverse_affine", "affine", "inverse_affine"),
    T("affine.apply_affine", "affine", "apply_affine"),
    T("affine.apply_linear", "affine", "apply_linear"),
    T("affine.plane_contains", "affine", "plane_contains"),
    T("forms.diagonalize", "forms", "diagonalize"),
    T("forms.solve_axxa", "forms", "solve_axxa"),
    T("forms.two_sided_matrix", "forms", "two_sided_matrix"),
    T("forms.eval_quadratic", "forms", "eval_quadratic"),
    T("forms.diagonal_evaluate", "forms", "Diagonalization.evaluate"),
    T("ncpoly.mul", "ncpoly", "NCPoly.__mul__", _poly_terms),
    T("ncpoly.add", "ncpoly", "NCPoly.__add__"),
    T("ncpoly.substitute", "ncpoly", "NCPoly.substitute", _poly_terms),
    T("ncpoly.evaluate", "ncpoly", "NCPoly.evaluate", _poly_terms),
    T("ncpoly.gateaux", "ncpoly", "gateaux", _poly_terms),
    T("ncpoly.gateaux2", "ncpoly", "gateaux2", _poly_terms),
    T("calculus.chart_init", "calculus", "Chart.__init__"),
    T("calculus.forward", "calculus", "Chart.forward"),
    T("calculus.backward", "calculus", "Chart.backward"),
    T("calculus.gamma_apply", "calculus", "ConnectionCoefficients.apply"),
    T("calculus.chart_connection", "calculus", "chart_connection"),
    T("calculus.pushforward_vector", "calculus", "pushforward_vector"),
    T("calculus.express_constant_field", "calculus", "express_constant_field"),
    T("calculus.parallel_residual", "calculus", "parallel_residual"),
    T("calculus.covariant_derivative", "calculus", "covariant_derivative"),
    T("calculus.geodesic_residual", "calculus", "geodesic_residual"),
    T("omega.closure", "omega", "closure", _closure_fill),
    T("omega.extract_basis", "omega", "extract_basis"),
    T("omega.eval_word", "omega", "eval_word"),
    T("omega.substitute", "omega", "substitute"),
    T("omega.superpose", "omega", "superpose"),
    T("omega.endo_coordinates", "omega", "endo_coordinates"),
    T("omega.enumerate_rep_endomorphisms", "omega", "enumerate_rep_endomorphisms",
      _found("omega.endos")),
    T("omega.is_rep_endomorphism", "omega", "is_rep_endomorphism"),
    T("omega.is_endomorphism", "omega", "FiniteOmegaAlgebra.is_endomorphism"),
    T("towers.tower_closure", "towers", "tower_closure"),
    T("towers.tower_basis", "towers", "tower_basis"),
    T("towers.tower_superpose", "towers", "tower_superpose"),
    T("towers.substitute", "towers", "_substitute_tower"),
    T("towers.eval_tower_word", "towers", "eval_tower_word"),
    T("towers.tower_endo_coordinates", "towers", "tower_endo_coordinates"),
    T("towers.enumerate_tower_endomorphisms", "towers", "enumerate_tower_endomorphisms",
      _found("towers.endos")),
    T("towers.is_tower_endomorphism", "towers", "is_tower_endomorphism"),
    T("io.load", "io", "load_*"),
    T("io.parse", "io", "parse_*"),
    T("io.format", "io", "format_*"),
    T("cli.main", "cli", "main"),
    T("cli.build_parser", "cli", "build_parser"),
    T("cli.format_word", "cli", "format_word"),
]
LAYER_OF = {t.key: t.module for t in TARGETS}

# (name, unit, better): the per-layer metrics of BENCHMARK.json, per pass
# over the job pool of the traced run
_TIME, _CALLS, _RATIO = "s/pass", "calls/pass", "ratio"
PER_LAYER = [(f"{layer}.self_s", _TIME, "lower") for layer in LAYERS]
PER_LAYER += [(name, _CALLS, "lower") for name in (
    "algebra.mul.calls", "ratlin.row_echelon.calls", "ncpoly.evaluate.calls",
    "omega.closure.calls", "omega.eval_word.calls", "towers.tower_superpose.calls",
    "towers.eval_tower_word.calls", "cli.main.calls")]
PER_LAYER += [(name, _TIME, "lower") for name in (
    "algebra.mul.busy_s", "algebra.inverse.busy_s", "algebra.change_basis.busy_s",
    "ratlin.row_echelon.busy_s", "ratlin.solve.busy_s", "ratlin.invert.busy_s",
    "affine.nc_rank.busy_s", "affine.invert_matrix.busy_s", "affine.compose_affine.busy_s",
    "affine.plane_contains.busy_s",
    "forms.diagonalize.busy_s", "forms.solve_axxa.busy_s",
    "ncpoly.mul.busy_s", "ncpoly.substitute.busy_s", "ncpoly.evaluate.busy_s",
    "ncpoly.gateaux.busy_s",
    "calculus.chart_init.busy_s", "calculus.gamma_apply.busy_s",
    "calculus.pushforward_vector.busy_s", "calculus.parallel_residual.busy_s",
    "calculus.geodesic_residual.busy_s",
    "omega.closure.busy_s", "omega.extract_basis.busy_s", "omega.eval_word.busy_s",
    "omega.superpose.busy_s", "omega.enumerate_rep_endomorphisms.busy_s",
    "towers.tower_closure.busy_s", "towers.tower_superpose.busy_s",
    "towers.eval_tower_word.busy_s", "towers.enumerate_tower_endomorphisms.busy_s",
    "io.load.busy_s", "io.parse.busy_s", "io.format.busy_s",
    "cli.main.busy_s", "cli.build_parser.busy_s")]
PER_LAYER += [
    ("forms.diagonalize.accept_ratio", _RATIO, "higher"),
    ("ncpoly.terms_mean", "terms", "lower"),
    ("omega.closure.fill_ratio", _RATIO, "higher"),
    ("omega.endo_accept_ratio", _RATIO, "higher"),
    ("towers.endo_accept_ratio", _RATIO, "higher"),
    ("trace.overhead_frac", _RATIO, "lower"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(summary: dict, passes: int, overhead: float) -> dict:
    """Every PER_LAYER metric from a Tracer summary of `passes` passes."""
    calls, busy, failed = summary["calls"], summary["busy_ns"], summary["failed"]
    counters, spans = summary["counters"], summary["spans"]
    values = {}
    for name, unit, _ in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat == "self_s":
            values[name] = summary["self_ns"].get(base, 0) / 1e9 / passes
        elif stat == "calls":
            values[name] = calls.get(base, 0) / passes
        elif stat == "busy_s":
            values[name] = busy.get(base, 0) / 1e9 / passes
    diag = calls.get("forms.diagonalize", 0)
    values["forms.diagonalize.accept_ratio"] = _ratio(diag - failed.get("forms.diagonalize", 0), diag)
    values["ncpoly.terms_mean"] = _ratio(counters.get("ncpoly.operand_terms", 0),
                                         counters.get("ncpoly.operands", 0))
    values["omega.closure.fill_ratio"] = _ratio(counters.get("omega.closure.members", 0),
                                                counters.get("omega.closure.carrier", 0))
    # candidates: maps the enumeration put through its endomorphism test
    values["omega.endo_accept_ratio"] = _ratio(
        counters.get("omega.endos", 0),
        Tracer.count_under(spans, "omega.is_rep_endomorphism", "omega.enumerate_rep_endomorphisms"))
    values["towers.endo_accept_ratio"] = _ratio(
        counters.get("towers.endos", 0),
        Tracer.count_under(spans, "omega.is_endomorphism", "towers.enumerate_tower_endomorphisms"))
    values["trace.overhead_frac"] = overhead
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: (values[name], units[name]) for name, _, _ in PER_LAYER}
