"""Outside-in tracer: spans recorded by wrapping module-level names.

Callers in the package resolve names such as ``spmv`` or ``cg_solve`` in
their own module's globals at call time, so replacing
``mixedwave.scheme.cg_solve`` with a wrapper makes every call from the
scheme module pass through it without touching the package. A hook whose
target does not exist (renamed or inlined by a later change) is not an
error: the layer metrics that depend on it are reported as missing and the
run goes on. A hook that resolves but is never called reads 0.

Spans are kept in memory as parallel lists (name, start, end, parent) and
turned into per-layer metrics, or written out, when tracing ends.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, attribute path, span name). Several targets may feed one span name:
# every module that calls a function holds its own reference to it. Every
# span name here feeds at least one metric of Tracer.layer_metrics.
HOOKS = (
    ("mixedwave.scheme", "initialize", "scheme.initialize"),
    ("mixedwave.scheme", "step", "scheme.step"),
    ("mixedwave.scheme", "discrete_energy", "scheme.discrete_energy"),
    ("mixedwave.scheme", "schur_matrix", "linalg.schur_matrix"),
    ("mixedwave.scheme", "cg_solve", "linalg.cg_solve"),
    ("mixedwave.verify", "cg_solve", "linalg.cg_solve"),
    ("mixedwave.linalg", "spmv", "linalg.spmv"),
    ("mixedwave.scheme", "spmv", "linalg.spmv"),
    ("mixedwave.verify", "spmv", "linalg.spmv"),
    ("mixedwave.linalg", "CsrMatrix.diagonal", "linalg.diagonal"),
    ("mixedwave.scheme", "assemble_operators", "spaces.assemble_operators"),
    ("mixedwave.verify", "assemble_operators", "spaces.assemble_operators"),
    ("mixedwave.scheme", "project_velocity_pi_h", "spaces.project"),
    ("mixedwave.scheme", "project_pressure_p_h", "spaces.project"),
    ("mixedwave.scheme", "assemble_load", "spaces.assemble_load"),
    ("mixedwave.scheme", "velocity_l2_error", "spaces.velocity_l2_error"),
    ("mixedwave.scheme", "pressure_l2_error", "spaces.pressure_l2_error"),
    ("mixedwave.spaces", "edge_classify", "mesh.edge_classify"),
    ("mixedwave.verify", "run", "verify.run"),
    ("mixedwave.verify", "estimate_inverse_constant", "verify.estimate_inverse_constant"),
    ("mixedwave.cli", "estimate_inverse_constant", "verify.estimate_inverse_constant"),
    ("mixedwave.cli", "emit_reports", "cli.emit_reports"),
)

# spmv traffic model, 8-byte values and int64 indices: values and column
# indices once per stored entry, x and y once per element, row offsets once
# per row. Computed from nnz and n; nothing here is a measured bandwidth.
def spmv_bytes(nnz, n_rows, n_cols):
    return 16 * nnz + 8 * n_cols + 8 * n_rows + 8 * (n_rows + 1)


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.cg = []            # (span index, iterations, relative residual)
        self.spmv_bytes = 0
        self.spmv_flops = 0
        self.bytes_written = 0
        self.missing_targets = []
        self._stack = [-1]
        self._restore = []

    # --- installation ------------------------------------------------------

    def __enter__(self):
        self.missing_targets = []
        for module_name, path, span in self.hooks:
            owner, attr = _resolve(module_name, path)
            if owner is None or not callable(getattr(owner, attr, None)):
                self.missing_targets.append(f"{module_name}.{path}")
                continue
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(getattr(owner, attr), span))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def available_spans(self):
        """Span names with at least one installed target."""
        missing = set(self.missing_targets)
        return {span for module_name, path, span in self.hooks if f"{module_name}.{path}" not in missing}

    def _wrap(self, fn, span):
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        observe = {
            "linalg.cg_solve": self._observe_cg,
            "linalg.spmv": self._observe_spmv,
            "cli.emit_reports": self._observe_reports,
        }.get(span)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(span)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(idx, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_cg(self, idx, args, kwargs, result):
        norm_b = float(np.linalg.norm(args[1] if len(args) > 1 else kwargs["b"]))
        self.cg.append((idx, int(result.iterations), result.residual / norm_b if norm_b else 0.0))

    def _observe_spmv(self, idx, args, kwargs, result):
        M = args[0] if args else kwargs["M"]
        self.spmv_bytes += spmv_bytes(M.nnz, M.shape[0], M.shape[1])
        self.spmv_flops += 2 * M.nnz

    def _observe_reports(self, idx, args, kwargs, result):
        self.bytes_written += sum(Path(p).stat().st_size for p in result)

    # --- results -----------------------------------------------------------

    def write_spans(self, path):
        """Spans as CSV: index, name, start and end in seconds since the first span, parent."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, s, e, p) in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
                fh.write(f"{i},{name},{s - t0:.9f},{e - t0:.9f},{p}\n")

    def layer_metrics(self, units):
        """Per-layer metrics averaged over ``units`` traced units of work.

        Returns (metrics, missing): metrics maps name -> (value, unit);
        missing names the metrics whose hooks found no target.
        """
        durations = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        names = np.asarray(self.names, dtype=object)
        child_time = np.zeros(len(durations) + 1)
        np.add.at(child_time, parents, durations)  # parent -1 lands in the spare slot
        total, count, self_time = defaultdict(float), defaultdict(int), defaultdict(float)
        for name in set(self.names):
            sel = names == name
            total[name] = float(durations[sel].sum())
            count[name] = int(sel.sum())
            self_time[name] = float((durations[sel] - child_time[:-1][sel]).sum())

        spmv_in_cg = int(((names == "linalg.spmv") & _parent_is(names, parents, "linalg.cg_solve")).sum())
        in_power = _parent_is(names, parents, "verify.estimate_inverse_constant")
        power_solves = sum(1 for idx, _, _ in self.cg if in_power[idx])
        iters = [it for _, it, _ in self.cg]
        residuals = [r for _, _, r in self.cg]
        spmv_s = total["linalg.spmv"]

        def ms(name):
            return 1e3 * total[name] / units

        table = {
            "linalg.schur_matrix.ms": (["linalg.schur_matrix"], lambda: ms("linalg.schur_matrix"), "ms"),
            "linalg.spmv.us_per_call": (["linalg.spmv"], lambda: 1e6 * spmv_s / max(count["linalg.spmv"], 1), "us"),
            "linalg.spmv.calls": (["linalg.spmv"], lambda: count["linalg.spmv"] / units, "count"),
            "linalg.spmv.bytes_computed": (["linalg.spmv"], lambda: self.spmv_bytes / units, "B"),
            "linalg.spmv.flops_computed": (["linalg.spmv"], lambda: self.spmv_flops / units, "flop"),
            "linalg.spmv.gbps_computed": (["linalg.spmv"], lambda: self.spmv_bytes / spmv_s / 1e9 if spmv_s else 0.0, "GB/s"),
            "linalg.cg.solves": (["linalg.cg_solve"], lambda: len(iters) / units, "count"),
            "linalg.cg.iters": (["linalg.cg_solve"], lambda: sum(iters) / units, "count"),
            "linalg.cg.iters_per_solve_mean": (["linalg.cg_solve"], lambda: float(np.mean(iters)) if iters else 0.0, "count"),
            "linalg.cg.iters_per_solve_max": (["linalg.cg_solve"], lambda: max(iters, default=0), "count"),
            "linalg.cg.rel_residual_max": (["linalg.cg_solve"], lambda: max(residuals, default=0.0), "ratio"),
            "linalg.cg_solve.self_ms": (["linalg.cg_solve"], lambda: 1e3 * self_time["linalg.cg_solve"] / units, "ms"),
            "linalg.spmv_per_cg_iter": (["linalg.cg_solve", "linalg.spmv"], lambda: spmv_in_cg / sum(iters) if sum(iters) else 0.0, "ratio"),
            "linalg.diagonal.ms": (["linalg.diagonal"], lambda: ms("linalg.diagonal"), "ms"),
            "spaces.velocity_l2_error.ms": (["spaces.velocity_l2_error"], lambda: ms("spaces.velocity_l2_error"), "ms"),
            "spaces.pressure_l2_error.ms": (["spaces.pressure_l2_error"], lambda: ms("spaces.pressure_l2_error"), "ms"),
            "spaces.assemble_operators.ms": (["spaces.assemble_operators"], lambda: ms("spaces.assemble_operators"), "ms"),
            "spaces.project.ms": (["spaces.project"], lambda: ms("spaces.project"), "ms"),
            "spaces.assemble_load.ms": (["spaces.assemble_load"], lambda: ms("spaces.assemble_load"), "ms"),
            "spaces.assemble_load.calls": (["spaces.assemble_load"], lambda: count["spaces.assemble_load"] / units, "count"),
            "mesh.edge_classify.calls": (["mesh.edge_classify"], lambda: count["mesh.edge_classify"] / units, "count"),
            "scheme.step.self_ms": (["scheme.step"], lambda: 1e3 * self_time["scheme.step"] / units, "ms"),
            "scheme.discrete_energy.ms": (["scheme.discrete_energy"], lambda: ms("scheme.discrete_energy"), "ms"),
            "scheme.initialize.ms": (["scheme.initialize"], lambda: ms("scheme.initialize"), "ms"),
            "verify.estimate_inverse_constant.ms": (["verify.estimate_inverse_constant"], lambda: ms("verify.estimate_inverse_constant"), "ms"),
            "verify.power_iters": (["verify.estimate_inverse_constant", "linalg.cg_solve"], lambda: power_solves / units, "count"),
            "verify.run.calls": (["verify.run"], lambda: count["verify.run"] / units, "count"),
            "verify.run.ms": (["verify.run"], lambda: ms("verify.run"), "ms"),
            "cli.emit_reports.ms": (["cli.emit_reports"], lambda: ms("cli.emit_reports"), "ms"),
            "cli.bytes_written": (["cli.emit_reports"], lambda: self.bytes_written / units, "B"),
        }
        available = self.available_spans()
        metrics, missing = {}, []
        for name, (needs, value, unit) in table.items():
            if all(span in available for span in needs):
                metrics[name] = (float(value()), unit)
            else:
                missing.append(name)
        return metrics, missing


def _parent_is(names, parents, span):
    out = np.zeros(len(names), dtype=bool)
    has = parents >= 0
    out[has] = names[parents[has]] == span
    return out


def _resolve(module_name, path):
    """(owner, attribute) for 'Class.method' or 'function' paths; owner None when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, attr
