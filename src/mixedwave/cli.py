"""Command-line front end: flat key=value config, CSV reports, CI-style exit codes.

Usage:  mixedwave <command> [--config FILE] [--key value ...]

Commands: run (single simulation), energy (conservation study), stability
(CFL sweep), converge (spatial refinement study), estimate-c0 (inverse
constant and CFL bound). Command-line --key value pairs override file
values. Exit codes: 0 all verdicts pass, 1 a study failed or ran out of
memory, 2 usage error.

Usage errors come from two places. Each key's caster rejects a value no
command can take (not a number, theta outside [0, 1], a forced case that
fails its residual check). The library rejects inputs no run can take (a dt
that does not divide T, too many steps, overflowing products, a mesh the
study cannot use), before the first run, with an InputError that names its
parameter; PARAMETER_KEYS maps it to the keys the message names.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .linalg import InputError, IterationCap, NonConvergence, SolverConfig
from .scheme import BLOWUP_THRESHOLD, ThetaConfig, run
from .spaces import stiffness_bound
from .verify import (
    BLOWUP,
    STABLE,
    cfl_max_dt,
    check_mesh_width,
    convergence_study,
    energy_drift,
    error_linf_l2,
    estimate_inverse_constant,
    make_problem,
    mms_forced,
    mms_standing_wave,
    relative_drifts,
    residual_check,
    stability_sweep,
)

COMMANDS = ("run", "energy", "stability", "converge", "estimate-c0")

ENERGY_DRIFT_PASS = 1e-10
RATE_WINDOW = (0.85, 1.15)
SWEEP_MULTIPLIERS = (0.5, 0.9, 0.99, 1.5)
SWEEP_STEPS = 500


class ConfigError(ValueError):
    """Base for configuration problems; exits with the usage-error code."""


class UnknownKeyError(ConfigError):
    pass


class ValueTypeError(ConfigError):
    pass


class MissingCommandError(ConfigError):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    nx: int = 16
    ny: int = 16
    theta: float = 0.25
    dt: float = 0.0078125  # 1/128
    T: float = 1.0
    case: str = "standing-wave"
    tol: float = 1e-12
    max_iter: int = 0  # 0 means the solver default cap
    out_dir: str = "out"


def _parse_case(raw: str) -> str:
    if raw == "standing-wave":
        return raw
    if raw.startswith("forced:"):
        omega = float(raw.split(":", 1)[1])
        residual_check(mms_forced(omega))  # ValueError for an omega it cannot run
        return f"forced:{omega:.17g}"
    raise ValueError("expected 'standing-wave' or 'forced:<omega>'")


def _positive_int(raw: str) -> int:
    v = int(raw)
    if v < 1:
        raise ValueError("must be a positive integer")
    return v


def _positive_float(raw: str) -> float:
    v = float(raw)
    if not (math.isfinite(v) and v > 0):
        raise ValueError("must be positive and finite")
    return v


def _theta_value(raw: str) -> float:
    v = float(raw)
    if not 0.0 <= v <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    return v


def _nonnegative_int(raw: str) -> int:
    v = int(raw)
    if v < 0:
        raise ValueError("must be nonnegative")
    return v


# key -> (RunConfig field, caster)
KEY_SPECS = {
    "mesh.nx": ("nx", _positive_int),
    "mesh.ny": ("ny", _positive_int),
    "scheme.theta": ("theta", _theta_value),
    "time.dt": ("dt", _positive_float),
    "time.T": ("T", _positive_float),
    "problem.case": ("case", _parse_case),
    "solver.tol": ("tol", _positive_float),
    "solver.max_iter": ("max_iter", _nonnegative_int),
    "output.dir": ("out_dir", str),
}

# library parameter named by an InputError -> the keys that set it
PARAMETER_KEYS = {
    "theta": ("scheme.theta",),
    "dt": ("time.dt",),
    "final_time": ("time.T",),
    "f": ("problem.case",),
    "mesh": ("mesh.nx", "mesh.ny"),
}


def _apply(cfg: RunConfig, key: str, raw: str, where: str) -> RunConfig:
    if key not in KEY_SPECS:
        raise UnknownKeyError(f"{where}: unknown key '{key}'")
    field, caster = KEY_SPECS[key]
    try:
        value = caster(raw)
    except ValueError as exc:
        raise ValueTypeError(f"{where}: invalid value for '{key}': {raw!r} ({exc})") from None
    return replace(cfg, **{field: value})


def parse_config(text: str, overrides=None, command: str | None = None) -> RunConfig:
    """Build a validated RunConfig from file text plus command-line overrides.

    The file format is line-oriented ``key = value`` with ``#`` comments.
    Unknown keys are rejected with their line number, as are values of the
    wrong type; a missing or unknown command is an error as well.
    """
    if command not in COMMANDS:
        what = "missing command" if command is None else f"unknown command '{command}'"
        raise MissingCommandError(f"{what}; expected one of {', '.join(COMMANDS)}")
    cfg = RunConfig(command=command)
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueTypeError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        cfg = _apply(cfg, key.strip(), raw.strip(), f"line {lineno}")
    for key, raw in (overrides or {}).items():
        cfg = _apply(cfg, key, str(raw), "command line")
    return cfg


def format_config(cfg: RunConfig) -> str:
    """Canonical key=value block; parse_config(format_config(c), {}, c.command) == c."""
    lines = []
    for key, (field, _) in KEY_SPECS.items():
        lines.append(f"{key} = {fmt(getattr(cfg, field))}")
    return "\n".join(lines) + "\n"


def parse_args(argv):
    """Split argv into (command, config path, override dict)."""
    if not argv:
        raise MissingCommandError(f"missing command; expected one of {', '.join(COMMANDS)}")
    command, rest = argv[0], list(argv[1:])
    config_path = None
    overrides = {}
    i = 0
    while i < len(rest):
        token = rest[i]
        if not token.startswith("--"):
            raise ValueTypeError(f"command line: expected '--key value', got {token!r}")
        if i + 1 >= len(rest):
            raise ValueTypeError(f"command line: missing value for '{token}'")
        if token == "--config":
            config_path = rest[i + 1]
        else:
            overrides[token[2:]] = rest[i + 1]
        i += 2
    return command, config_path, overrides


def fmt(value) -> str:
    """Round-trip-exact text: floats at 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


@dataclass
class StudyReport:
    config: RunConfig
    verdicts: list  # (name, passed, detail)
    tables: dict    # filename -> (header, rows)
    notes: list

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.verdicts)


def emit_reports(report: StudyReport, out_dir) -> list:
    """Write the study's CSV tables and summary.txt; returns the paths written."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        written = []
        for name, (header, rows) in report.tables.items():
            path = out / name
            lines = [",".join(header)]
            lines += [",".join(fmt(cell) for cell in row) for row in rows]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            written.append(path)
        summary = out / "summary.txt"
        body = [f"command = {report.config.command}", ""]
        body.append(format_config(report.config).rstrip())
        if report.notes:
            body.append("")
            body.extend(report.notes)
        body.append("")
        for name, ok, detail in report.verdicts:
            body.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        summary.write_text("\n".join(body) + "\n", encoding="utf-8")
        written.append(summary)
        return written
    except OSError as exc:
        raise OSError(f"cannot write reports under '{out}': {exc}") from exc


def _mms_for(cfg: RunConfig):
    if cfg.case == "standing-wave":
        return mms_standing_wave()
    return mms_forced(float(cfg.case.split(":", 1)[1]))


def _solver(cfg: RunConfig) -> SolverConfig:
    return SolverConfig(rel_tolerance=cfg.tol, max_iterations=cfg.max_iter)


def _where(cfg: RunConfig, parameter: str) -> str:
    """The keys behind a library parameter with their values, e.g. 'time.dt' = 0.5."""
    return ", ".join(f"'{key}' = {fmt(getattr(cfg, KEY_SPECS[key][0]))}" for key in PARAMETER_KEYS[parameter])


def _energy_table(result):
    drifts = relative_drifts(result.energies)
    rows = [[s.n, s.t_half, s.value, drift] for s, drift in zip(result.energies, drifts)]
    return ["step", "t_half", "energy", "rel_drift"], rows


def _steps_table(result, energy_rows):
    """One row per level: the CG iterations, final residual and defect norm
    of the solve that produced it, the energy sample that step completed
    (between levels n-1 and n, a row of ``_energy_table``), its relative
    drift, and the errors when the run recorded them. Level 0 has no solve
    and no energy sample, so those cells are blank."""
    header = ["level", "t", "cg_iterations", "cg_residual", "defect_norm", "energy", "rel_drift"]
    errors = result.error_u is not None
    if errors:
        header += ["err_u", "err_p"]
    rows = []
    for level in range(len(result.cg_iterations) + 1):
        row = [level, level * result.config.dt, None, None, None, None, None]
        if level > 0:
            solve = level - 1
            row[2:] = [
                int(result.cg_iterations[solve]), result.cg_residuals[solve], result.defect_norms[solve],
                *energy_rows[solve][2:],
            ]
        if errors:
            row += [result.error_u[level], result.error_p[level]]
        rows.append(row)
    return header, rows


def _run_case(cfg: RunConfig):
    """Run the configured case once: the ``RunResult``, its ``energy.csv``
    and ``steps.csv`` tables, and the status and solver notes that ``run``
    and ``energy`` both report."""
    mms = _mms_for(cfg)  # _parse_case has residual-checked a forced case
    time_cfg = ThetaConfig.from_dt(cfg.theta, cfg.T, cfg.dt)  # checked before the mesh is built
    result = run(make_problem(mms, cfg.nx, cfg.ny), time_cfg, solver=_solver(cfg))
    energy = _energy_table(result)
    tables = {"energy.csv": energy, "steps.csv": _steps_table(result, energy[1])}
    iterations = result.cg_iterations
    notes = [
        f"status = {result.status}",
        f"cg_iterations total = {int(iterations.sum())}, max = {int(iterations.max())}",
        f"preconditioner = {result.preconditioner}",
    ]
    return result, tables, notes


def cmd_run(cfg: RunConfig) -> StudyReport:
    result, tables, notes = _run_case(cfg)
    if result.error_u is not None:
        eu, ep = error_linf_l2(result)
        notes.append(f"err_u_linf_l2 = {fmt(eu)}")
        notes.append(f"err_p_linf_l2 = {fmt(ep)}")
    return StudyReport(cfg, [("simulation completed", result.completed, f"status {result.status}")], tables, notes)


def cmd_energy(cfg: RunConfig) -> StudyReport:
    check_mesh_width(cfg.nx, cfg.ny)
    result, tables, notes = _run_case(cfg)
    drift = energy_drift(result) if result.completed else math.inf
    ok = result.completed and drift <= ENERGY_DRIFT_PASS
    return StudyReport(
        cfg,
        [("energy conservation", ok,
          f"max relative drift {fmt(drift)} (tolerance {fmt(ENERGY_DRIFT_PASS)})")],
        tables,
        notes,
    )


def cmd_stability(cfg: RunConfig) -> StudyReport:
    mms = _mms_for(cfg)
    rows = stability_sweep(
        mms, [cfg.theta], SWEEP_MULTIPLIERS, cfg.nx, cfg.ny,
        num_steps=SWEEP_STEPS, solver=_solver(cfg),
    )
    table_rows = [[r.theta, r.dt, r.dt_over_dtmax, r.status, r.final_energy] for r in rows]
    # the bound is sufficient only: below it we demand stability, at 1.5x we
    # demand blow-up (theta < 1/4); the gap in between is reported untested
    problems = []
    for r in rows:
        if r.multiplier <= 0.99 or cfg.theta >= 0.25:
            if r.status != STABLE:
                problems.append(f"m={r.multiplier:g} expected Stable, got {r.status}")
        elif r.multiplier >= 1.5 and cfg.theta < 0.25:
            if r.status != BLOWUP:
                problems.append(f"m={r.multiplier:g} expected BlowUp, got {r.status}")
    detail = "; ".join(problems) if problems else ", ".join(
        f"m={r.multiplier:g}:{r.status}" for r in rows
    )
    # a BlowUp row's final_energy is nan; the note says where the run stopped
    notes = [f"m={r.multiplier:g}: BlowUp at level {r.blowup_level} of {SWEEP_STEPS} "
             f"(max |U| above {BLOWUP_THRESHOLD:g})" for r in rows if r.status == BLOWUP]
    return StudyReport(
        cfg,
        [("stability boundary", not problems, detail)],
        {"stability.csv": (["theta", "dt", "dt_over_dtmax", "status", "final_energy"], table_rows)},
        notes,
    )


def cmd_converge(cfg: RunConfig) -> StudyReport:
    mms = _mms_for(cfg)
    # nx doubled 3 times, dt = h/4
    mesh_sizes = [cfg.nx, 2 * cfg.nx, 4 * cfg.nx, 8 * cfg.nx]
    table = convergence_study(mms, cfg.theta, mesh_sizes, lambda h: h / 4.0, cfg.T, solver=_solver(cfg))
    rows = [[r.nx, r.h, r.dt, r.err_u, r.err_p, r.rate_u, r.rate_p] for r in table.rows]
    ru, rp = table.finest_rates
    lo, hi = RATE_WINDOW
    ok = lo <= ru <= hi and lo <= rp <= hi
    return StudyReport(
        cfg,
        [("first-order spatial convergence", ok,
          f"finest-pair rates u={fmt(ru)}, p={fmt(rp)} (window [{lo}, {hi}])")],
        {"converge.csv": (["nx", "h", "dt", "err_u", "err_p", "rate_u", "rate_p"], rows)},
        [],
    )


def cmd_estimate_c0(cfg: RunConfig) -> StudyReport:
    mms = _mms_for(cfg)
    spec = make_problem(mms, cfg.nx, cfg.ny)
    C0 = estimate_inverse_constant(spec.mesh, spec.bc)
    dtmax = cfl_max_dt(cfg.theta, stiffness_bound(spec.mesh, spec.bc, spec.material))
    notes = [
        f"C0 = {fmt(C0)}",
        f"h = {fmt(spec.mesh.h)}",
        f"dt_max(theta={fmt(cfg.theta)}) = {fmt(dtmax)}",
    ]
    return StudyReport(
        cfg,
        [("inverse constant estimate", True, f"C0 = {fmt(C0)}, dt_max = {fmt(dtmax)}")],
        {},
        notes,
    )


_DISPATCH = {
    "run": cmd_run,
    "energy": cmd_energy,
    "stability": cmd_stability,
    "converge": cmd_converge,
    "estimate-c0": cmd_estimate_c0,
}


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    print("usage: mixedwave <command> [--config FILE] [--key value ...]", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0
    try:
        command, config_path, overrides = parse_args(argv)
        text = Path(config_path).read_text(encoding="utf-8") if config_path else ""
        cfg = parse_config(text, overrides, command)
    except ConfigError as exc:
        return _usage_error(str(exc))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = _DISPATCH[cfg.command](cfg)
        emit_reports(report, cfg.out_dir)
    except InputError as exc:  # the library raises these before any run starts
        return _usage_error(f"{_where(cfg, exc.parameter)}: {exc}")
    except MemoryError:
        print(f"error: {_where(cfg, 'mesh')}: out of memory; the mesh is too large", file=sys.stderr)
        return 1
    except (NonConvergence, RuntimeError, ValueError, OSError) as exc:
        if isinstance(exc, IterationCap):
            where = f"'solver.max_iter' = {cfg.max_iter}: "
        elif isinstance(exc, NonConvergence):
            where = f"'solver.tol' = {fmt(cfg.tol)}: "  # stagnation or underflow: a tolerance below rounding level
        else:
            where = ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return 1
    for name, ok, detail in report.verdicts:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    print(f"reports written to {Path(cfg.out_dir).resolve()}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
