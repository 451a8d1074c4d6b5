"""Property tests of the invariants over random meshes, sides, material and steps,
and of the studies' input checks over random small calls.

Meshes are small (nx, ny in 1..12) so the dense oracles stay cheap. The
coarsest multigrid grid is lowered to 16 dofs here, so that large steps on
even meshes take the multigrid path as they do on the fine meshes of a real
run.
"""

import copy
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mixedwave.multigrid as multigrid
import mixedwave.verify as verify
from mixedwave.linalg import SolverConfig
from mixedwave.mesh import BoundaryKind, BoundaryPartition, EdgeClassification, build_rect_mesh
from mixedwave.scheme import (
    CompatibilityWarning,
    ProblemSpec,
    SchemeState,
    StepSolver,
    ThetaConfig,
    discrete_energy,
    run,
    step,
    step_matrix,
)
from mixedwave.spaces import MaterialField, assemble_operators, stiffness_bound
from mixedwave.verify import (
    cfl_max_dt,
    convergence_study,
    make_problem,
    mms_forced,
    mms_standing_wave,
    stability_sweep,
    temporal_study,
)

from oracles import dense_theta_step, random_consistent_state, todense
from test_verify import assert_same

TOL = 1e-12         # the solver default, for the energy drift
ORACLE_TOL = 1e-14  # the oracle check measures the scheme, not the CG error
STEPS = 8
DRIFT_PER_STEP = 10.0  # relative drift per step, in units of the CG tolerance
SETTINGS = settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def cases(draw, max_cells=12):
    """(spec, cfg, rng): a mesh, a boundary partition, material and a stable step."""
    nx, ny = draw(st.integers(1, max_cells)), draw(st.integers(1, max_cells))
    bc = BoundaryPartition(*draw(st.tuples(*[st.sampled_from(tuple(BoundaryKind))] * 4)))
    if EdgeClassification.of(nx, ny, bc).n_free == 0:
        bc = BoundaryPartition.all_dirichlet()
    aspect = draw(st.floats(0.25, 4.0))
    mesh = build_rect_mesh(nx, ny, (0.0, 1.0, 0.0, aspect))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho, lam = np.exp(rng.uniform(math.log(0.25), math.log(4.0), (2, mesh.n_elements)))
    material = MaterialField(rho, lam, 0.25, 4.0, 0.25, 4.0)
    theta = draw(st.sampled_from((0.0, 0.25, 0.5, 1.0)) | st.floats(0.0, 1.0))
    if theta < 0.25:
        dt = draw(st.floats(0.1, 0.9)) * cfl_max_dt(theta, stiffness_bound(mesh, bc, material))
    else:
        dt = draw(st.floats(0.05, 10.0)) * mesh.h
    spec = ProblemSpec(mesh=mesh, bc=bc, material=material)
    return spec, ThetaConfig.from_steps(theta, STEPS * dt, STEPS), rng


@pytest.fixture(autouse=True)
def small_coarsest_grid():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multigrid, "COARSEST_DOFS", 16)
        yield


@SETTINGS
@given(cases())
def test_step_matrix_is_spd(case):
    spec, cfg, _ = case
    ops = assemble_operators(spec.mesh, spec.bc, spec.material)
    S = todense(step_matrix(ops, cfg))
    assert np.abs(S - S.T).max() <= 1e-14 * np.abs(S).max()
    assert np.linalg.eigvalsh(S).min() > 0


@SETTINGS
@given(cases())
def test_energy_drift_is_bounded_by_the_solver_tolerance(case):
    spec, cfg, rng = case
    ops = assemble_operators(spec.mesh, spec.bc, spec.material)
    stepper = StepSolver(spec, ops, cfg, SolverConfig(TOL))
    state = SchemeState(1, *random_consistent_state(ops, rng))
    energies = [discrete_energy(state, ops, cfg).value]
    for _ in range(STEPS):
        state = step(state, stepper)
        energies.append(discrete_energy(state, ops, cfg).value)
    drift = np.abs(np.array(energies) / energies[0] - 1.0).max()
    assert drift <= DRIFT_PER_STEP * STEPS * TOL


@SETTINGS
@given(cases())
def test_one_step_matches_the_dense_oracle(case):
    spec, cfg, rng = case
    ops = assemble_operators(spec.mesh, spec.bc, spec.material)
    U_prev, U_curr, P_prev, P_curr = random_consistent_state(ops, rng)
    out = step(SchemeState(1, U_prev, U_curr, P_prev, P_curr), StepSolver(spec, ops, cfg, SolverConfig(ORACLE_TOL)))
    U_ref, P_ref = dense_theta_step(
        todense(ops.A), ops.Cdiag, todense(ops.D),
        U_prev, U_curr, P_prev, P_curr, cfg.theta, cfg.dt, np.zeros(ops.n_velocity),
    )
    assert np.abs(out.U_curr - U_ref).max() <= 1e-10 * max(1.0, np.abs(U_ref).max())
    assert np.abs(out.P_curr - P_ref).max() <= 1e-10 * max(1.0, np.abs(P_ref).max())


@st.composite
def recorded_runs(draw):
    """(spec, cfg): a ``cases`` draw on at most 8 x 8 elements with the forced
    manufactured data and its exact solution, so that ``run`` records errors."""
    spec, cfg, _ = draw(cases(max_cells=8))
    data = make_problem(mms_forced(1.0), 1)
    return replace(data, mesh=spec.mesh, bc=spec.bc, material=spec.material), cfg


@SETTINGS
@given(recorded_runs())
def test_run_leaves_its_inputs_unchanged(case):
    spec, cfg = case
    before = copy.deepcopy(spec)
    with warnings.catch_warnings():
        # random lambda makes p0 incompatible with u0; the run does not care
        warnings.simplefilter("ignore", CompatibilityWarning)
        res = run(spec, cfg, record_errors=True)
    assert len(res.error_u) == len(res.error_p) == res.state.n + 1
    assert_same(before, spec)


@SETTINGS
@given(cases(max_cells=8))
def test_assemble_operators_leaves_its_inputs_unchanged(case):
    spec, _, _ = case
    before = copy.deepcopy(spec)
    assemble_operators(spec.mesh, spec.bc, spec.material)
    assert_same(before, spec)


def quarter_h(h):
    return h / 4


@st.composite
def study_calls(draw):
    """(study, args, kwargs): one small call of a study, at most 4 x 4 elements
    and 10 steps per run, with no fault or one fault the study must reject. A
    faulty entry of a list goes at a random place, so valid runs may come
    before it."""
    study = draw(st.sampled_from(["stability", "convergence", "temporal"]))

    def with_entry(values, bad):
        values = list(values)
        values.insert(draw(st.integers(0, len(values))), bad)
        return values

    if study == "stability":
        fault = draw(st.sampled_from([None, None, None, "theta", "forced", "mesh", "multiplier"]))
        mms = mms_forced(1.0) if fault == "forced" else mms_standing_wave()
        thetas = draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 1.0]), min_size=1, max_size=2))
        multipliers = draw(st.lists(st.sampled_from([0.5, 0.99, 1.5]), min_size=1, max_size=2))
        nx, ny = draw(st.integers(2, 4)), draw(st.none() | st.integers(2, 4))
        if fault == "theta":
            thetas = with_entry(thetas, draw(st.sampled_from([-0.1, 1.5])))
        elif fault == "mesh":
            nx, ny = draw(st.sampled_from([(1, 1), (1, None), (1, 3), (3, 1)]))
        elif fault == "multiplier":
            multipliers = with_entry(multipliers, draw(st.sampled_from([-1.0, 0.0, 1e60])))  # 1e60: Courant number
        return stability_sweep, (mms, thetas, multipliers, nx), {"ny": ny, "num_steps": draw(st.integers(1, 10))}
    theta = draw(st.sampled_from([0.25, 1.0] + ([0.0] if study == "convergence" else [])))
    if study == "convergence":
        fault = draw(st.sampled_from([None, None, None, "theta", "cap", "repeat"]))
        mms = draw(st.sampled_from([mms_standing_wave, lambda: mms_forced(1.0)]))()
        sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))
        final_time = draw(st.sampled_from([0.25, 0.5]))  # at most 8 steps at nx 4
        if fault == "theta":
            theta = draw(st.sampled_from([-0.1, 1.5]))
        elif fault == "cap":
            final_time = 1e7  # at least 4e7 steps
        elif fault == "repeat":
            sizes = with_entry(sizes, draw(st.sampled_from(sizes)))
        return convergence_study, (mms, theta, sizes, quarter_h, final_time), {}
    fault = draw(st.sampled_from([None, None, None, "theta", "mesh", "divisor", "repeat"]))
    nx = 1 if fault == "mesh" else draw(st.integers(2, 4))
    divisors = draw(st.lists(st.sampled_from([1, 2, 4]), min_size=1, max_size=3, unique=True))
    if fault == "theta":
        theta = draw(st.sampled_from([-0.1, 1.5]))
    elif fault == "divisor":
        divisors = with_entry(divisors, draw(st.sampled_from([3, 8])))  # 3 does not divide 8; 8 is the reference
    elif fault == "repeat":
        divisors = with_entry(divisors, draw(st.sampled_from(divisors)))
    return temporal_study, (mms_standing_wave(), theta, nx, 0.25), {"divisors": divisors, "ref_divisor": 8}


@SETTINGS
@given(study_calls())
def test_studies_fail_before_their_first_run_and_leave_their_inputs_alone(call):
    study, args, kwargs = call
    before = copy.deepcopy((args, kwargs))
    runs = []

    def counted_run(spec, cfg, *run_args, **run_kwargs):
        assert cfg.num_steps <= 10  # the draws are small
        runs.append(None)
        return run(spec, cfg, *run_args, **run_kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "run", counted_run)
        try:
            study(*args, **kwargs)
        except ValueError:
            assert runs == []
    for was, now in zip((*before[0], before[1]), (*args, kwargs)):
        assert_same(was, now)
