"""Acceptance suite: one test per criterion, each printing its verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Tolerances are fixed here, not tuned: energy drift 1e-10 at
solver tolerance 1e-12, spatial rates in [0.85, 1.15], temporal order in
[1.8, 2.2], oracle agreement 1e-10, eigenvalue agreement 1e-6.
"""

import math
import time

import numpy as np
import pytest

from mixedwave.linalg import SolverConfig
from mixedwave.mesh import BoundaryPartition, build_rect_mesh
from mixedwave.scheme import (
    BLOWUP,
    COMPLETED,
    SchemeState,
    StepSolver,
    ThetaConfig,
    discrete_energy,
    initialize,
    run,
    step,
    step_matrix,
)
from mixedwave.spaces import assemble_operators, material_field, stiffness_bound
from mixedwave.verify import (
    DRIFT,
    STABLE,
    cfl_max_dt,
    convergence_study,
    energy_drift,
    estimate_inverse_constant,
    make_problem,
    mms_standing_wave,
    stability_sweep,
    temporal_study,
)

from oracles import (
    dense_inverse_constant,
    dense_operators,
    dense_step_matrix,
    dense_theta_step,
    random_consistent_state,
    todense,
)

SOLVER = SolverConfig(rel_tolerance=1e-12)


def verdict(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def mms():
    return mms_standing_wave()


def test_criterion_1_energy_conservation(mms):
    spec = make_problem(mms, 16)
    mu = stiffness_bound(spec.mesh, spec.bc, spec.material)
    cases = [(theta, ThetaConfig.from_dt(theta, 1.0, 1 / 128)) for theta in (0.25, 0.5, 1.0)]
    for theta in (0.0, 0.125):
        dt_max = cfl_max_dt(theta, mu)
        n = math.ceil(1.0 / (0.9 * dt_max))
        cases.append((theta, ThetaConfig.from_steps(theta, 1.0, n)))
    drifts = {}
    for theta, cfg in cases:
        t0 = time.perf_counter()
        result = run(spec, cfg, solver=SOLVER, record_errors=False)
        elapsed = time.perf_counter() - t0
        assert result.status == COMPLETED, f"theta={theta} blew up"
        assert elapsed <= 10.0, f"theta={theta} took {elapsed:.1f}s"
        drifts[theta] = energy_drift(result)
    worst = max(drifts.values())
    verdict(
        1,
        worst <= 1e-10,
        "max relative energy drift "
        + ", ".join(f"theta={t:g}: {d:.2e}" for t, d in drifts.items())
        + " (tolerance 1e-10)",
    )


def test_criterion_2_energy_matches_continuous_value(mms):
    spec = make_problem(mms, 32)
    cfg = ThetaConfig.from_dt(0.25, 1.0, 1 / 256)
    ops = assemble_operators(spec.mesh, spec.bc, spec.material)
    sample = discrete_energy(initialize(StepSolver(spec, ops, cfg, SOLVER)), ops, cfg)
    target = np.pi**4 / 2
    rel = abs(sample.value - target) / target
    verdict(2, rel <= 0.01, f"E_h(1/2) = {sample.value:.6f} vs pi^4/2 = {target:.6f} (rel {rel:.2e})")


def test_criterion_3_unconditional_stability(mms):
    spec = make_problem(mms, 16)
    dt = 10.0 * spec.mesh.h
    result = run(spec, ThetaConfig(0.5, dt, 200), solver=SOLVER, record_errors=False)
    drift = energy_drift(result) if result.completed else math.inf
    verdict(
        3,
        result.status == COMPLETED and drift <= 1e-8,
        f"theta=1/2, dt=10h: status {result.status}, drift {drift:.2e} (tolerance 1e-8)",
    )


def test_criterion_4_cfl_boundary(mms):
    rows = stability_sweep(mms, [0.0], (0.99, 1.2, 1.5), 16, num_steps=500, solver=SOLVER)
    by_mult = {r.multiplier: r for r in rows}
    ok = by_mult[0.99].status == STABLE and by_mult[1.5].status == BLOWUP
    # the bound is sufficient only; the gap multiplier is reported, never asserted
    verdict(
        4,
        ok,
        f"theta=0: 0.99*dt_max -> {by_mult[0.99].status}, "
        f"1.5*dt_max -> {by_mult[1.5].status} "
        f"(unasserted gap 1.2*dt_max -> {by_mult[1.2].status})",
    )


def test_criterion_5_spatial_convergence(mms):
    t0 = time.perf_counter()
    table = convergence_study(mms, 0.25, (8, 16, 32, 64), lambda h: h / 4, 0.5, solver=SOLVER)
    elapsed = time.perf_counter() - t0
    ru, rp = table.finest_rates
    ok = 0.85 <= ru <= 1.15 and 0.85 <= rp <= 1.15 and elapsed <= 120.0
    verdict(
        5,
        ok,
        f"finest-pair rates u: {ru:.3f}, p: {rp:.3f} (window [0.85, 1.15]), {elapsed:.1f}s",
    )


def test_criterion_6_temporal_convergence(mms):
    table = temporal_study(mms, 0.25, 32, 0.5, divisors=(25, 50, 100), ref_divisor=800)
    ru, rp = table.finest_rates
    verdict(6, 1.8 <= ru <= 2.2 and 1.8 <= rp <= 2.2,
            f"observed temporal orders u: {ru:.3f}, p: {rp:.3f} (window [1.8, 2.2])")


def test_criterion_7_commuting_projection():
    from test_spaces import SMOOTH_FIELDS, commuting_residual

    worst = 0.0
    for nx in (2, 4):
        mesh = build_rect_mesh(nx, nx)
        for z, div_z in SMOOTH_FIELDS:
            worst = max(worst, commuting_residual(mesh, z, div_z))
    verdict(7, worst <= 1e-10,
            f"max commuting residual over 5 fields on 2x2 and 4x4: {worst:.2e} (tolerance 1e-10)")


def test_criterion_8_oracle_equivalence():
    mesh = build_rect_mesh(2, 2)
    worst = 0.0
    for bc in (BoundaryPartition.all_dirichlet(), BoundaryPartition.all_neumann()):
        material = material_field(mesh, 1.3, 0.8)
        ops = assemble_operators(mesh, bc, material)
        A_ref, C_ref, D_ref = dense_operators(mesh, bc, material)
        worst = max(worst, np.abs(todense(ops.A) - A_ref).max())
        worst = max(worst, np.abs(ops.Cdiag - C_ref).max())
        worst = max(worst, np.abs(todense(ops.D) - D_ref).max())

        theta, dt = 0.25, 0.05
        cfg = ThetaConfig(theta, dt, 10)
        S = step_matrix(ops, cfg)
        S_ref = dense_step_matrix(A_ref, D_ref, C_ref, theta * dt**2)
        worst = max(worst, np.abs(todense(S) - S_ref).max())

        rng = np.random.default_rng(17)
        U_prev, U_curr, P_prev, P_curr = random_consistent_state(ops, rng)
        spec = make_problem(mms_standing_wave(), 2)
        spec.bc = bc
        out = step(SchemeState(1, U_prev, U_curr, P_prev, P_curr),
                   StepSolver(spec, ops, cfg, SolverConfig(1e-13)))
        U_ref, P_ref = dense_theta_step(
            A_ref, C_ref, D_ref, U_prev, U_curr, P_prev, P_curr, theta, dt,
            np.zeros(ops.n_velocity),
        )
        worst = max(worst, np.abs(out.U_curr - U_ref).max())
        worst = max(worst, np.abs(out.P_curr - P_ref).max())
    verdict(8, worst <= 1e-10,
            f"max deviation from dense brute-force references: {worst:.2e} (tolerance 1e-10)")


def test_criterion_9_inverse_constant(mms):
    worst_dense = 0.0
    for nx in (2, 4):
        for bc in (BoundaryPartition.all_dirichlet(), BoundaryPartition.all_neumann()):
            mesh = build_rect_mesh(nx, nx)
            got = estimate_inverse_constant(mesh, bc)
            ref = dense_inverse_constant(mesh, bc)
            worst_dense = max(worst_dense, abs(got - ref))
    # h-independence on the unconstrained space family
    vals = [
        estimate_inverse_constant(build_rect_mesh(nx, nx), BoundaryPartition.all_dirichlet())
        for nx in (4, 8, 16)
    ]
    spread = (max(vals) - min(vals)) / min(vals)
    verdict(
        9,
        worst_dense <= 1e-6 and spread <= 0.02,
        f"closed form vs dense eigensolve: {worst_dense:.2e} (tolerance 1e-6); "
        f"C0 spread over 4x4..16x16: {spread:.2e} (tolerance 2e-2)",
    )
