"""Outside-in tracing of baryquad's public functions, and per-layer summaries of the spans.

:func:`install` wraps each function in :data:`TRACED` and rebinds every
``baryquad.*`` module attribute (and module-level dict value, such as the
CLI's builder table) that refers to the original function object, so calls
made inside the package are recorded too.  The package source is not
touched.  A span is ``[name, start, end, parent, command, note]``; spans stay
in memory until the worker writes them out at exit.
"""

from __future__ import annotations

import functools
import os
import resource
import sys
import time

TRACED = (
    "cli.main",
    "rules.gg_rule", "rules.lg_rule",
    "polynomials.gegenbauer_norm_leading", "polynomials.eta",
    "barycentric.lagrange_matrix",
    "gim.check_gg_condition", "gim.build_gim_gg", "gim.build_basis_gim", "gim.matrix_to_csv",
    "bench.reference_integrals",
    "optimal.optimize_alpha", "optimal.build_optimal_gim", "optimal.build_optimal_gim_symmetric",
    "solvers.newton_solve", "solvers.condition_number_2",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _count_residual(args, kwargs):
    # newton_solve(residual, x0, ...): count residual evaluations by wrapping the callable
    residual = _arg(args, kwargs, 0, "residual")
    counter = [0]

    def counted(x):
        counter[0] += 1
        return residual(x)

    if args:
        args = (counted,) + tuple(args[1:])
    else:
        kwargs = {**kwargs, "residual": counted}
    return args, kwargs, counter


def _check_note(args, kwargs, result, before):
    n = _arg(args, kwargs, 0, "n")
    # bytes of the (n+1) x (n+1) x (n//2+1) float64 array the check builds; computed from n
    return [_minflt() - before, 8 * (n + 1) ** 2 * (n // 2 + 1)]


def _csv_bytes(args, kwargs, result, ctx):
    target = _arg(args, kwargs, 1, "path_or_file")
    return os.path.getsize(target) if isinstance(target, str) else 0


#: per-function hooks (prepare, note): prepare(args, kwargs) -> (args, kwargs, ctx) runs
#: before the call, note(args, kwargs, result, ctx) after it, and the note joins the span
_HOOKS = {
    "rules.gg_rule": (None, lambda a, k, r, c: [_arg(a, k, 0, "n"), _arg(a, k, 1, "param").alpha]),
    "barycentric.lagrange_matrix": (None, lambda a, k, r, c: int(r.size)),
    "gim.check_gg_condition": (lambda a, k: (a, k, _minflt()), _check_note),
    "gim.matrix_to_csv": (None, _csv_bytes),
    "optimal.build_optimal_gim": (None, lambda a, k, r, c: int(r.entries.shape[0])),
    "optimal.build_optimal_gim_symmetric": (None, lambda a, k, r, c: int(r.entries.shape[0])),
    "solvers.newton_solve": (_count_residual, lambda a, k, r, c: c[0]),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.command = -1

    def wrap(self, name, fn):
        prepare, note = _HOOKS.get(name, (None, None))
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ctx = None
            if prepare is not None:
                args, kwargs, ctx = prepare(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result, ctx)
            return result

        return traced


def install(tracer: Tracer) -> None:
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "baryquad"]
    for qualified in TRACED:
        module_name, attr = qualified.split(".")
        original = getattr(sys.modules["baryquad." + module_name], attr)
        wrapped = tracer.wrap(qualified, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                elif isinstance(value, dict):
                    for dict_key, entry in value.items():
                        if entry is original:
                            value[dict_key] = wrapped


def summarize(spans) -> dict:
    """Per-layer metrics of one traced repetition."""
    child = [0.0] * len(spans)
    for name, start, end, parent, command, note in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_s, notes = {}, {}, {}
    for (name, start, end, parent, command, note), covered in zip(spans, child):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - covered
        notes.setdefault(name, []).append(note)

    def n_calls(name):
        return calls.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def total(name):
        return sum(note for note in notes.get(name, []) if note is not None)

    gg_keys = {tuple(note) for note in notes.get("rules.gg_rule", []) if note is not None}
    check = [note for note in notes.get("gim.check_gg_condition", []) if note is not None]
    optimal_rows = total("optimal.build_optimal_gim") + total("optimal.build_optimal_gim_symmetric")
    out = {}
    for name in ("rules.gg_rule", "rules.lg_rule", "gim.check_gg_condition",
                 "barycentric.lagrange_matrix", "gim.build_gim_gg", "bench.reference_integrals",
                 "optimal.optimize_alpha", "polynomials.eta", "solvers.newton_solve"):
        out[f"{name}.calls"] = n_calls(name)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("gim.build_basis_gim", "gim.matrix_to_csv", "solvers.condition_number_2",
                 "cli.main"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out.update({
        "rules.gg_rule.distinct_ratio": ratio(len(gg_keys), n_calls("rules.gg_rule")),
        "gim.check_gg_condition.minflt": sum(note[0] for note in check),
        "gim.check_gg_condition.temp_bytes": sum(note[1] for note in check),
        "barycentric.lagrange_matrix.entries": total("barycentric.lagrange_matrix"),
        "polynomials.gegenbauer_norm_leading.calls": n_calls("polynomials.gegenbauer_norm_leading"),
        "gim.matrix_to_csv.bytes": total("gim.matrix_to_csv"),
        "optimal.eta_per_optimize": ratio(n_calls("polynomials.eta"),
                                          n_calls("optimal.optimize_alpha")),
        "optimal.optimize_per_row": ratio(n_calls("optimal.optimize_alpha"), optimal_rows),
        "solvers.newton_solve.residual_evals": total("solvers.newton_solve"),
    })
    return out


def import_times(stderr_text: str) -> dict:
    """Self import time per top-level package from ``python -X importtime`` output."""
    totals = {"numpy": 0.0, "scipy": 0.0, "baryquad": 0.0}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        package = fields[2].strip().split(".")[0]
        if package in totals:
            totals[package] += int(fields[0]) * 1e-6
    return {f"import.{package}_s": seconds for package, seconds in totals.items()}


#: per-layer metric names and units, in reporting order.  The end-to-end metric each
#: should move, and where: import.* -> setup_s everywhere; rules.* and
#: gim.check_gg_condition.* -> wall_s, op_tail_ms and peak_rss_mb on scan (the check
#: runs nowhere else); lagrange_matrix and build_gim_gg -> wall_s on matrices and
#: nonlocal; build_basis_gim, gegenbauer_norm_leading, matrix_to_csv and
#: reference_integrals -> wall_s on matrices; optimize_alpha, eta and their ratios ->
#: wall_s and op_p50_ms on solve only; newton_solve -> wall_s on nonlocal;
#: condition_number_2 -> solve; cli.main -> every workload, slightly.
#: temp_bytes is computed from n, not measured.
PER_LAYER_UNITS = {
    **{f"import.{p}_s": "s" for p in ("numpy", "scipy", "baryquad")},
    "rules.gg_rule.calls": "count", "rules.gg_rule.self_s": "s",
    "rules.gg_rule.distinct_ratio": "ratio",
    "rules.lg_rule.calls": "count", "rules.lg_rule.self_s": "s",
    "gim.check_gg_condition.calls": "count", "gim.check_gg_condition.self_s": "s",
    "gim.check_gg_condition.minflt": "count", "gim.check_gg_condition.temp_bytes": "B",
    "barycentric.lagrange_matrix.calls": "count", "barycentric.lagrange_matrix.self_s": "s",
    "barycentric.lagrange_matrix.entries": "count",
    "gim.build_gim_gg.calls": "count", "gim.build_gim_gg.self_s": "s",
    "gim.build_basis_gim.self_s": "s",
    "polynomials.gegenbauer_norm_leading.calls": "count",
    "gim.matrix_to_csv.self_s": "s", "gim.matrix_to_csv.bytes": "B",
    "bench.reference_integrals.calls": "count", "bench.reference_integrals.self_s": "s",
    "optimal.optimize_alpha.calls": "count", "optimal.optimize_alpha.self_s": "s",
    "polynomials.eta.calls": "count", "polynomials.eta.self_s": "s",
    "optimal.eta_per_optimize": "ratio", "optimal.optimize_per_row": "ratio",
    "solvers.newton_solve.calls": "count", "solvers.newton_solve.self_s": "s",
    "solvers.newton_solve.residual_evals": "count",
    "solvers.condition_number_2.self_s": "s",
    "cli.main.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}
