"""In-memory span tracing of the program's layers, installed from outside.

`install` replaces public functions of the `elastic_schwarz` modules (and
the table writer `cli._write_table`) with thin wrappers that record one span per call: name, parent span, start,
end and a few attributes taken from the arguments or the result.  It also
replaces the `splu` that `schwarz` calls with a proxy whose factor object
times every `.solve` and records the number of right-hand-side columns and
the fill nnz(L) + nnz(U).  Nothing inside the package is edited; the spans
stay in memory and are written out once, by the caller, at the end.

`layer_metrics` turns one run's spans into the per-layer metrics.  Self
time is a span's duration minus the durations of its direct children; in
one thread the children of a span are disjoint and lie inside it.
"""

from __future__ import annotations

import functools
import time

# span record: [name, parent index or -1, start, end, attrs or None]
NAME, PARENT, START, END, ATTRS = range(5)

PROBE = "trace.probe"


class Tracer:
    """Parent-linked spans of one process, kept in a list."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} is open")

    def wrap(self, module, attr: str, name: str, attrs=None) -> None:
        """Replace ``module.attr`` by a wrapper recording a ``name`` span;
        ``attrs(args, kwargs, result)`` may attach a dict to the span."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if attrs is not None:
                self.spans[index][ATTRS] = attrs(args, kwargs, result)
            return result

        setattr(module, attr, traced)


class _TracedLU:
    """Factor object of `splu` whose `solve` calls are recorded."""

    def __init__(self, tracer: Tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, rhs, *args, **kwargs):
        index = self._tracer.open("schwarz.subsolve")
        try:
            result = self._lu.solve(rhs, *args, **kwargs)
        finally:
            self._tracer.close(index)
        self._tracer.spans[index][ATTRS] = {
            "cols": 1 if rhs.ndim == 1 else int(rhs.shape[1])
        }
        return result

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _traced_splu(tracer: Tracer, original):
    @functools.wraps(original)
    def splu(matrix, *args, **kwargs):
        index = tracer.open("schwarz.factor")
        try:
            lu = original(matrix, *args, **kwargs)
        finally:
            tracer.close(index)
        # Building L and U copies the factors; a probe span keeps that
        # cost out of every layer's time (it still shows in the overhead).
        probe = tracer.open(PROBE)
        fill = int(lu.L.nnz) + int(lu.U.nnz)
        tracer.close(probe)
        tracer.spans[index][ATTRS] = {"fill": fill, "nnz": int(matrix.nnz)}
        return _TracedLU(tracer, lu)

    return splu


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the per-layer metrics are taken from."""
    from elastic_schwarz import analysis, cli, fem, modesim, schwarz

    tracer.wrap(analysis, "sweep", "analysis.sweep")
    tracer.wrap(analysis, "max_rho", "analysis.max_rho")
    tracer.wrap(analysis, "eigenvalues_closed_form", "analysis.closed_form")
    tracer.wrap(modesim, "power_growth", "modesim.power_growth")
    tracer.wrap(modesim, "numeric_iteration_matrix", "modesim.oracle_matrix")
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "run_verification", "cli.verify")
    tracer.wrap(cli, "_write_table", "cli.table_write")
    tracer.wrap(
        fem, "assemble", "fem.assemble",
        lambda a, k, system: {"n_dofs": system.n_dofs, "nnz": system.matrix.nnz},
    )
    tracer.wrap(fem, "export_solution_csv", "fem.export")
    tracer.wrap(fem, "export_solution_binary", "fem.export")
    tracer.wrap(schwarz, "decompose", "schwarz.decompose")
    tracer.wrap(schwarz, "schwarz_iterate", "schwarz.iterate")
    tracer.wrap(schwarz, "ras_apply", "schwarz.ras")
    tracer.wrap(schwarz, "stationary_ras", "schwarz.ras")
    tracer.wrap(schwarz, "preconditioned_operator", "schwarz.operator")
    tracer.wrap(
        schwarz, "spectrum", "schwarz.spectrum",
        lambda a, k, eigs: {"n": int(eigs.size)},
    )
    tracer.wrap(
        schwarz, "gmres", "schwarz.gmres",
        lambda a, k, result: {"iters": int(result.iterations)},
    )
    schwarz.splu = _traced_splu(tracer, schwarz.splu)


# per-layer metric name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "analysis.sweep_s": "s",
    "analysis.max_rho_s": "s",
    "analysis.closed_form_s": "s",
    "analysis.closed_form_calls": "count",
    "modesim.power_growth_s": "s",
    "modesim.power_growth_calls": "count",
    "modesim.oracle_matrix_s": "s",
    "modesim.oracle_matrix_calls": "count",
    "cli.verify_self_s": "s",
    "cli.table_write_s": "s",
    "cli.output_bytes": "bytes",
    "fem.assemble_s": "s",
    "fem.n_dofs": "count",
    "fem.matrix_nnz": "count",
    "fem.export_s": "s",
    "schwarz.decompose_s": "s",
    "schwarz.factor_s": "s",
    "schwarz.factor_calls": "count",
    "schwarz.fill_nnz": "count",
    "schwarz.fill_ratio": "ratio",
    "schwarz.subsolve_s": "s",
    "schwarz.subsolve_cols": "count",
    "schwarz.gmres_self_s": "s",
    "schwarz.gmres_iters": "count",
    "schwarz.ras_self_s": "s",
    "schwarz.iterate_self_s": "s",
    "schwarz.operator_self_s": "s",
    "schwarz.eig_s": "s",
    "schwarz.eig_n": "count",
    "schwarz.operator_bytes": "bytes",
}


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def check_nesting(spans: list[list]) -> list[str]:
    """Problems with the span tree: a child outside its parent, a parent
    recorded after its child, or a negative self time."""
    problems = []
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if span[END] < span[START]:
            problems.append(f"span {i} {span[NAME]} ends before it starts")
        if parent >= i:
            problems.append(f"span {i} {span[NAME]} has a later parent {parent}")
        elif parent >= 0:
            outer = spans[parent]
            if span[START] < outer[START] or span[END] > outer[END]:
                problems.append(f"span {i} {span[NAME]} lies outside its parent {parent}")
    for i, value in enumerate(self_times(spans)):
        if value < 0.0:
            problems.append(f"span {i} {spans[i][NAME]} has self time {value:.3e}")
    return problems


def layer_metrics(spans: list[list], output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (zero where the layer never ran).

    Times named ``*_self_s`` and ``eig_s`` are self times; the other times
    include the layer's traced children.  Work counts are summed over the
    run; sizes (``n_dofs``, ``matrix_nnz``, ``eig_n``) are the largest
    seen.  ``operator_bytes`` is computed as 8 n^2 of the largest dense
    operator, not measured."""
    own = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    attr_sum: dict[str, int] = {}
    attr_max: dict[str, int] = {}
    for span, own_s in zip(spans, own):
        name = span[NAME]
        total[name] = total.get(name, 0.0) + span[END] - span[START]
        self_total[name] = self_total.get(name, 0.0) + own_s
        calls[name] = calls.get(name, 0) + 1
        for key, value in (span[ATTRS] or {}).items():
            tag = f"{name}.{key}"
            attr_sum[tag] = attr_sum.get(tag, 0) + value
            attr_max[tag] = max(attr_max.get(tag, 0), value)

    factored_nnz = attr_sum.get("schwarz.factor.nnz", 0)
    eig_n = attr_max.get("schwarz.spectrum.n", 0)
    return {
        "analysis.sweep_s": total.get("analysis.sweep", 0.0),
        "analysis.max_rho_s": total.get("analysis.max_rho", 0.0),
        "analysis.closed_form_s": total.get("analysis.closed_form", 0.0),
        "analysis.closed_form_calls": calls.get("analysis.closed_form", 0),
        "modesim.power_growth_s": total.get("modesim.power_growth", 0.0),
        "modesim.power_growth_calls": calls.get("modesim.power_growth", 0),
        "modesim.oracle_matrix_s": total.get("modesim.oracle_matrix", 0.0),
        "modesim.oracle_matrix_calls": calls.get("modesim.oracle_matrix", 0),
        "cli.verify_self_s": self_total.get("cli.verify", 0.0),
        "cli.table_write_s": total.get("cli.table_write", 0.0),
        "cli.output_bytes": output_bytes,
        "fem.assemble_s": total.get("fem.assemble", 0.0),
        "fem.n_dofs": attr_max.get("fem.assemble.n_dofs", 0),
        "fem.matrix_nnz": attr_max.get("fem.assemble.nnz", 0),
        "fem.export_s": total.get("fem.export", 0.0),
        "schwarz.decompose_s": total.get("schwarz.decompose", 0.0),
        "schwarz.factor_s": total.get("schwarz.factor", 0.0),
        "schwarz.factor_calls": calls.get("schwarz.factor", 0),
        "schwarz.fill_nnz": attr_sum.get("schwarz.factor.fill", 0),
        "schwarz.fill_ratio": (
            attr_sum.get("schwarz.factor.fill", 0) / factored_nnz
            if factored_nnz else 0.0
        ),
        "schwarz.subsolve_s": total.get("schwarz.subsolve", 0.0),
        "schwarz.subsolve_cols": attr_sum.get("schwarz.subsolve.cols", 0),
        "schwarz.gmres_self_s": self_total.get("schwarz.gmres", 0.0),
        "schwarz.gmres_iters": attr_sum.get("schwarz.gmres.iters", 0),
        "schwarz.ras_self_s": self_total.get("schwarz.ras", 0.0),
        "schwarz.iterate_self_s": self_total.get("schwarz.iterate", 0.0),
        "schwarz.operator_self_s": self_total.get("schwarz.operator", 0.0),
        "schwarz.eig_s": self_total.get("schwarz.spectrum", 0.0),
        "schwarz.eig_n": eig_n,
        "schwarz.operator_bytes": 8 * eig_n * eig_n,
    }
