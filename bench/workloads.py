"""The three benchmark workloads: input generation, one unit of work, gates.

A unit is one operation: one ``run()`` call for the stepping workloads, one
CLI study for ``cli-studies``. ``parts`` names the units of one pass over a
workload and ``unit(part)`` runs one of them. Every unit returns a
``UnitResult`` with its timings and the list of correctness gates that
failed, so a failed gate never raises.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mixedwave.cli
import mixedwave.scheme
import mixedwave.verify
from mixedwave.linalg import spmv
from mixedwave.mesh import BoundaryKind, BoundaryPartition, build_rect_mesh
from mixedwave.scheme import CompatibilityWarning, ProblemSpec, ThetaConfig
from mixedwave.spaces import MaterialField
from mixedwave.verify import energy_drift, error_linf_l2, make_problem, mms_standing_wave

DRIFT_GATE = 1e-10            # the CLI's energy-conservation verdict threshold
ERROR_GATE_RTOL = 1e-6        # room for summation-order changes, not for a wrong step
CONSTRAINT_GATE_RTOL = 1e-10  # max|C P - D U| relative to max|D U|
C0_GATE_RTOL = 1e-5           # power iteration against the closed form


@dataclass
class UnitResult:
    """Timings and gate outcomes of one unit of work."""

    wall_s: float
    part: str = "run"
    setups_s: list = field(default_factory=list)     # entry of run() to its level-0 probe
    intervals_ms: list = field(default_factory=list)  # probe-to-probe, levels 1..N
    failures: list = field(default_factory=list)
    fingerprint: object = None  # compared bit for bit between plain and traced units
    reference_s: float = 0.0  # reference kernel time around this unit (plain runs)


class LevelClock:
    """Probe for ``run(probes=...)`` that timestamps every retained level."""

    def __init__(self):
        self.entered = time.perf_counter()
        self.stamps = []

    def __call__(self, level, t, U, P):
        self.stamps.append(time.perf_counter())

    def setup_s(self):
        return self.stamps[0] - self.entered

    def intervals_ms(self):
        # level 0 and level 1 are observed back to back after initialize, so
        # the first interval that contains a step ends at level 2
        return [1e3 * (b - a) for a, b in zip(self.stamps[1:], self.stamps[2:])]


# --- standing-wave-128 ----------------------------------------------------------

# (nx, steps) -> velocity and pressure errors: max over levels (error_linf_l2),
# then at the final level. The max sits at level 0, before any step, so the
# final-level pair is what catches a wrong step. Recorded once from these
# inputs; a correct step reproduces them up to summation order.
STANDING_WAVE_ERRORS = {
    (128, 40): (0.015739570394671436, 0.09889041801707975, 0.01480094680558608, 0.09299290134371628),
    (8, 12): (0.25308367098537254, 1.5731688368418963, 0.02807256399288954, 0.16859674027404076),
}


class StandingWave:
    """README workhorse: manufactured standing wave, theta = 1/4, dt = h/(4 sqrt 2)."""

    parts = ("run",)

    def __init__(self, seed, toy=False, scratch=None):
        self.nx, self.steps = (8, 12) if toy else (128, 40)
        self.spec = make_problem(mms_standing_wave(), self.nx)
        dt = 1.0 / (4 * self.nx)  # 0.177 h on the unit square
        self.cfg = ThetaConfig.from_steps(0.25, self.steps * dt, self.steps)
        self.reference = STANDING_WAVE_ERRORS.get((self.nx, self.steps))

    def unit(self, part="run"):
        clock = LevelClock()
        result = mixedwave.scheme.run(self.spec, self.cfg, probes=(clock,))
        out = UnitResult(time.perf_counter() - clock.entered, setups_s=[clock.setup_s()], intervals_ms=clock.intervals_ms())
        out.failures = stepping_gates(result)
        if result.completed:
            errors = (*error_linf_l2(result), result.error_u[-1], result.error_p[-1])
            if self.reference is None:
                out.failures.append(f"no reference errors for nx={self.nx}, steps={self.steps}: {errors!r}")
            elif not np.allclose(errors, self.reference, rtol=ERROR_GATE_RTOL, atol=0.0):
                out.failures.append(f"errors (max u, max p, final u, final p) {errors!r} differ from {self.reference!r}")
        out.fingerprint = [s.value for s in result.energies]
        return out


# --- hetero-largestep-64 --------------------------------------------------------

class HeteroLargeStep:
    """Seeded element-wise material, mixed sides, theta = 1 at dt = 2.83 h.

    rho and lambda are log-uniform in [1/4, 4] per element. The initial
    velocity is a seeded sum of smooth modes whose normal component vanishes
    on the NEUMANN_U sides (bottom, top); p0 = lambda div u0 makes the data
    compatible, v0 = 0. No exact fields, so no error recording.
    """

    parts = ("run",)
    MODES = 3
    BOUNDS = (0.25, 4.0)

    def __init__(self, seed, toy=False, scratch=None):
        self.nx, self.steps = (8, 12) if toy else (64, 16)
        rng = np.random.default_rng(seed)
        mesh = build_rect_mesh(self.nx, self.nx)
        lo, hi = self.BOUNDS
        rho, lam = np.exp(rng.uniform(math.log(lo), math.log(hi), (2, mesh.n_elements)))
        u0, div_u0 = _smooth_velocity(rng, self.MODES)

        def p0(x, y):
            i = np.clip(((x - mesh.x0) // mesh.hx).astype(np.int64), 0, mesh.nx - 1)
            j = np.clip(((y - mesh.y0) // mesh.hy).astype(np.int64), 0, mesh.ny - 1)
            return lam[j * mesh.nx + i] * div_u0(x, y)

        dirichlet, neumann = BoundaryKind.DIRICHLET_P, BoundaryKind.NEUMANN_U
        self.spec = ProblemSpec(
            mesh=mesh,
            bc=BoundaryPartition(left=dirichlet, right=dirichlet, bottom=neumann, top=neumann),
            material=MaterialField(rho, lam, lo, hi, lo, hi),
            u0=u0,
            v0=lambda x, y: (0.0, 0.0),
            p0=p0,
        )
        dt = 4.0 / self.nx  # 2.83 h on the unit square
        self.cfg = ThetaConfig.from_steps(1.0, self.steps * dt, self.steps)

    def unit(self, part="run"):
        clock = LevelClock()
        with warnings.catch_warnings():
            warnings.simplefilter("error", CompatibilityWarning)
            result = mixedwave.scheme.run(self.spec, self.cfg, probes=(clock,))
        out = UnitResult(time.perf_counter() - clock.entered, setups_s=[clock.setup_s()], intervals_ms=clock.intervals_ms())
        out.failures = stepping_gates(result)
        ops, state = result.operators, result.state
        DU = spmv(ops.D, state.U_curr)
        defect = np.abs(ops.Cdiag * state.P_curr - DU).max()
        if not defect <= CONSTRAINT_GATE_RTOL * max(np.abs(DU).max(), 1e-300):
            out.failures.append(f"constraint defect max|C P - D U| = {defect:.3e} at level {state.n}")
        out.fingerprint = [s.value for s in result.energies]
        return out


def _smooth_velocity(rng, modes):
    """Seeded smooth u0 = (ux, uy) with uy = 0 on y = 0 and y = 1, and its divergence."""
    a, b = rng.standard_normal((2, modes))
    m, n, p, q = rng.integers(1, 4, (4, modes))
    phi, psi = rng.uniform(0.0, 2.0, (2, modes))
    pi = math.pi

    def columns(x, y):
        return np.asarray(x, dtype=np.float64)[..., None], np.asarray(y, dtype=np.float64)[..., None]

    def u0(x, y):
        x, y = columns(x, y)
        ux = a * np.sin(pi * (m * x + phi)) * np.cos(pi * n * y)
        uy = b * np.cos(pi * (p * x + psi)) * np.sin(pi * q * y)
        return ux.sum(-1), uy.sum(-1)

    def div_u0(x, y):
        x, y = columns(x, y)
        div = a * pi * m * np.cos(pi * (m * x + phi)) * np.cos(pi * n * y) + b * pi * q * np.cos(
            pi * (p * x + psi)
        ) * np.cos(pi * q * y)
        return div.sum(-1)

    return u0, div_u0


def stepping_gates(result):
    if not result.completed:
        return [f"status {result.status}"]
    drift = energy_drift(result)
    if not drift <= DRIFT_GATE:
        return [f"energy drift {drift:.3e} > {DRIFT_GATE:g}"]
    return []


# --- cli-studies ----------------------------------------------------------------

class CliStudies:
    """Three CLI studies in-process, each into a fresh output directory.

    The studies' inner run() calls are timed through a probe added to the
    module-level ``mixedwave.verify.run`` that the study drivers call; the
    probe only reads the clock. Every run() call's set-up counts, but step
    intervals come from the stability study alone: its four explicit runs
    step one mesh, while converge steps four meshes whose step times differ
    by about 20x, and percentiles over that mixture were not repeatable.
    """

    STEPS_FROM = "stability_s"

    def __init__(self, seed, toy=False, scratch=None):
        n_c0, n_stab, n_conv = (8, 4, 2) if toy else (64, 32, 8)
        self.argv = {
            "estimate_c0_s": ["estimate-c0", "--mesh.nx", str(n_c0), "--mesh.ny", str(n_c0)],
            "stability_s": ["stability", "--scheme.theta", "0", "--mesh.nx", str(n_stab), "--mesh.ny", str(n_stab)],
            "converge_s": ["converge", "--mesh.nx", str(n_conv), "--problem.case", "forced:1"],
        }
        self.parts = tuple(self.argv)
        self.c0_mesh = n_c0
        self.scratch = Path(scratch)

    def unit(self, part):
        """One study; wall_s is its cli.main call, report writing included."""
        clocks = []
        inner = mixedwave.verify.run

        def timed_run(*args, **kwargs):
            clock = LevelClock()
            clocks.append(clock)
            kwargs["probes"] = tuple(kwargs.get("probes", ())) + (clock,)
            return inner(*args, **kwargs)

        out_dir = Path(tempfile.mkdtemp(dir=self.scratch))
        mixedwave.verify.run = timed_run
        try:
            stdout, stderr = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = mixedwave.cli.main(self.argv[part] + ["--output.dir", str(out_dir)])
            out = UnitResult(time.perf_counter() - start, part)
            out.failures = self._gates(part, code, stderr.getvalue(), out_dir)
            out.fingerprint = {p.name: p.read_bytes().replace(bytes(out_dir), b"<out>") for p in sorted(out_dir.iterdir())}
        finally:
            mixedwave.verify.run = inner
            shutil.rmtree(out_dir, ignore_errors=True)
        for clock in clocks:
            out.setups_s.append(clock.setup_s())
            if part == self.STEPS_FROM:
                out.intervals_ms += clock.intervals_ms()
        return out

    def _gates(self, name, code, stderr, out_dir):
        if code != 0:
            return [f"{name}: exit code {code}: {stderr.strip()}"]
        summary = (out_dir / "summary.txt").read_text(encoding="utf-8")
        verdicts = [line for line in summary.splitlines() if line.startswith(("PASS ", "FAIL "))]
        failures = [f"{name}: {line}" for line in verdicts if not line.startswith("PASS ")]
        if not verdicts:
            failures.append(f"{name}: summary.txt holds no verdict")
        if name == "estimate_c0_s":
            line = next((line for line in summary.splitlines() if line.startswith("C0 = ")), None)
            c0 = float(line.split("=")[1]) if line else math.nan
            exact = closed_form_c0(self.c0_mesh, self.c0_mesh)
            if not abs(c0 - exact) <= C0_GATE_RTOL * exact:
                failures.append(f"{name}: C0 {c0!r} vs closed form {exact!r}")
        return failures


def closed_form_c0(nx, ny):
    """C0 on the unit square with every side NEUMANN_U (the CLI's standing wave).

    The generalized eigenproblem separates by axis; with both ends of an axis
    pinned, mu_1(n, s) = (6/s^2)(1-c)/(2+c) with c = cos((n-1) pi / n), and
    C0 = h sqrt(mu_1(nx, hx) + mu_1(ny, hy)).
    """

    def mu(n, s):
        c = math.cos((n - 1) * math.pi / n)
        return 6.0 / s**2 * (1.0 - c) / (2.0 + c)

    hx, hy = 1.0 / nx, 1.0 / ny
    return math.hypot(hx, hy) * math.sqrt(mu(nx, hx) + mu(ny, hy))


WORKLOADS = {
    "standing-wave-128": StandingWave,
    "hetero-largestep-64": HeteroLargeStep,
    "cli-studies": CliStudies,
}
