"""Tests for the fixed-point driver and field evaluation utilities."""

import gc
import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

from monoiga import assembly, bspline, evaluate_field, solver, stabilization, tensorops
from monoiga.assembly import (
    IterateOnGrid,
    KroneckerOperator,
    SpatialQuadratureData,
    TimeQuadratureData,
    WeightedMass,
    field_on_grid,
    load_vector,
    reaction_mass,
    rhs_vectors,
    spatial_operators,
    time_matrices,
)
from monoiga.bspline import SplineSpace, SpaceTimeSpace
from monoiga.experiments import make_source
from monoiga.geometry import builtin_geometry
from monoiga.linalg import FastDiagPreconditioner, gmres
from monoiga.solver import (
    ETA_MAX,
    INDICATOR_FREEZE_TOL,
    FixedPointConfig,
    FixedPointDiverged,
    MonodomainProblem,
    _Workspace,
    fixed_point_solve,
    l2_error,
)
from monoiga.stabilization import (
    ResidualIndicator,
    assemble_stabilization,
    lowrank_factorize,
)
from oracles import field_derivatives, iterate_on_grid, kronecker_sparse
from test_stabilization import theta_of

RNG = np.random.default_rng(123)


def make_problem(d=1, p=2, elements=4, final_time=1.0, source=None, **kw):
    spatial = [SplineSpace.uniform(p, elements) for _ in range(d)]
    time = SplineSpace.uniform(p, elements)
    st = SpaceTimeSpace(spatial, time)
    names = {1: "unit_interval", 2: "unit_square", 3: "unit_cube"}
    geo = builtin_geometry(names[d], final_time=final_time)
    return MonodomainProblem(geometry=geo, space=st, source=source, **kw)


class TestFixedPoint:
    def test_zero_source_converges_immediately_to_zero(self):
        problem = make_problem(d=1, p=2, elements=3)
        result = fixed_point_solve(problem, FixedPointConfig(tolerance=1e-8))
        assert result.iterations == 1
        assert np.max(np.abs(result.u)) < 1e-12
        assert np.max(np.abs(result.w)) < 1e-12

    def test_linear_problem_converges_in_two_sweeps(self):
        problem = make_problem(
            d=1,
            p=2,
            elements=4,
            c1=0.0,
            c2=0.0,
            source=lambda x, t: np.sin(np.pi * t) * np.ones(t.shape),
        )
        config = FixedPointConfig(relaxation=1.0, tolerance=1e-10)
        result = fixed_point_solve(problem, config)
        assert result.iterations <= 2
        assert np.max(np.abs(result.u)) > 0

    def test_budget_exhaustion_raises_with_state(self):
        problem = make_problem(
            d=1, p=2, elements=4, source=lambda x, t: np.ones(t.shape)
        )
        with pytest.raises(FixedPointDiverged) as err:
            fixed_point_solve(
                problem, FixedPointConfig(tolerance=1e-14, max_iterations=2)
            )
        assert err.value.result.iterations == 2
        assert len(err.value.result.increments) == 2

    def test_fixed_point_is_relaxation_invariant(self):
        # One extra sweep from a converged state moves the coefficients by
        # no more than the linear-solver tolerance, for any relaxation.
        problem = make_problem(
            d=1, p=2, elements=4, source=lambda x, t: np.exp(-t)
        )
        tight = FixedPointConfig(
            relaxation=1.0, tolerance=1e-13, max_iterations=300, linear_tol=1e-13
        )
        res = fixed_point_solve(problem, tight)
        assert len(res.gmres_iterations) == res.iterations
        st = problem.space
        geo = problem.geometry
        sd = SpatialQuadratureData(st.spatial, geo)
        td = TimeQuadratureData(st, problem.final_time)
        W_t, M_t = time_matrices(td)
        M_s, K_s = spatial_operators(sd)
        on_grid = iterate_on_grid(st, res.u, res.w, sd, td)
        MR = reaction_mass(problem.reaction_constants(), on_grid, sd, td)
        f_vec = rhs_vectors(problem.source, sd, td)
        g_vec = problem.b * (sp.kron(M_t, M_s.toarray()) @ res.u)
        op = KroneckerOperator(
            st.num_time,
            st.num_space,
            [(problem.C_m, W_t, M_s), (problem.D, M_t, K_s)],
            correction=MR,
        )
        u_tilde = spla.spsolve(sp.csc_matrix(kronecker_sparse(op)), f_vec)
        L = sp.kron(W_t + problem.b * problem.d_e * M_t, M_s.toarray())
        w_tilde = spla.spsolve(sp.csc_matrix(L), g_vec)
        for alpha in (0.25, 0.5, 1.0):
            du = alpha * np.max(np.abs(u_tilde - res.u))
            dw = alpha * np.max(np.abs(w_tilde - res.w))
            assert du < 1e-10
            assert dw < 1e-10

    def test_each_sweep_logs_its_gmres_count(self, caplog):
        problem = make_problem(
            d=1,
            p=2,
            elements=4,
            source=lambda x, t: np.where(t < 0.5, 1.0, 0.0),
        )
        config = FixedPointConfig(tolerance=1e-6)
        with caplog.at_level(logging.INFO, logger="monoiga.solver"):
            result = fixed_point_solve(problem, config)
        records = [r for r in caplog.records if r.name == "monoiga.solver"]
        assert len(records) == result.iterations > 1
        assert [r.sweep for r in records] == list(range(1, result.iterations + 1))
        assert [r.gmres_iterations for r in records] == result.gmres_iterations
        assert [r.increment for r in records] == result.increments
        for record, nit in zip(records, result.gmres_iterations):
            assert "%d GMRES iterations" % nit in record.getMessage()
            assert "residual %.3e" % record.residual in record.getMessage()
        # The first residual is F(0) = -f, solved to linear_tol; later
        # forcing terms follow Eisenstat-Walker choice 2 on the residuals.
        sd = SpatialQuadratureData(problem.space.spatial, problem.geometry)
        td = TimeQuadratureData(problem.space, problem.final_time)
        f_vec = rhs_vectors(problem.source, sd, td)
        assert records[0].residual == pytest.approx(np.linalg.norm(f_vec), rel=1e-12)
        assert records[0].forcing == config.linear_tol
        for prev, rec in zip(records[:-1], records[1:]):
            ratio = rec.residual / prev.residual
            assert rec.forcing == min(ETA_MAX, 0.9 * ratio**2)

    def test_jacobian_matches_central_difference(self):
        # The matrix-free Jacobian, recovery coupling included, is the
        # derivative of the residual F(u) = A u + N(u, R u) - f.
        problem = make_problem(
            d=2,
            p=2,
            elements=3,
            b=0.5,
            source=lambda x, t: np.sin(np.pi * t) * np.ones(t.shape),
        )
        ws = _Workspace(problem, FixedPointConfig())
        rng = np.random.default_rng(11)
        u = 0.5 * rng.standard_normal(problem.space.num_dof)
        delta = rng.standard_normal(problem.space.num_dof)

        op = ws.system()[0]

        def residual(v):
            return ws.linearize(problem, v, op, ws.evaluate(v))[0]

        jd = ws.linearize(problem, u, op, ws.evaluate(u))[1].matvec(delta)
        h = 1e-5
        fd = (residual(u + h * delta) - residual(u - h * delta)) / (2 * h)
        assert np.linalg.norm(jd - fd) <= 1e-6 * np.linalg.norm(jd)
        assert np.any(ws.recover(u))

    def test_first_step_solves_the_zero_iterate_system(self):
        problem = make_problem(
            d=2,
            p=2,
            elements=3,
            source=lambda x, t: np.exp(-((t - 0.4) ** 2)) * np.ones(t.shape),
        )
        st = problem.space
        geo = problem.geometry
        with pytest.raises(FixedPointDiverged) as err:
            fixed_point_solve(problem, FixedPointConfig(tolerance=1e-14, max_iterations=1))
        first = err.value.result
        sd = SpatialQuadratureData(st.spatial, geo)
        td = TimeQuadratureData(st, problem.final_time)
        W_t, M_t = time_matrices(td)
        M_s, K_s = spatial_operators(sd)
        op = KroneckerOperator(
            st.num_time,
            st.num_space,
            [
                (1.0, problem.C_m * W_t + problem.c1 * problem.a * M_t, M_s),
                (problem.D, M_t, K_s),
            ],
        )
        precond = FastDiagPreconditioner.build(
            problem.C_m,
            problem.D,
            problem.a * problem.c1,
            sd,
            (M_s, K_s),
            (W_t, M_t),
        )
        f_vec = rhs_vectors(problem.source, sd, td)
        x, nit, _ = gmres(op, f_vec, precond=precond, tol=1e-8)
        assert first.gmres_iterations == [nit]
        assert np.array_equal(first.u, x)

    def test_linear_problem_second_step_is_empty(self):
        # The first step solves the linear system to linear_tol, so the
        # second step's residual meets the floor and GMRES accepts delta = 0.
        problem = make_problem(
            d=1,
            p=2,
            elements=4,
            c1=0.0,
            c2=0.0,
            source=lambda x, t: np.sin(np.pi * t) * np.ones(t.shape),
        )
        result = fixed_point_solve(problem, FixedPointConfig(tolerance=1e-10))
        assert result.iterations == 2
        assert result.increments[1] == 0.0
        assert result.gmres_iterations[1] == 0

    def test_recovery_follows_potential(self):
        problem = make_problem(
            d=1,
            p=2,
            elements=4,
            source=lambda x, t: np.where(t < 0.5, 1.0, 0.0),
        )
        result = fixed_point_solve(
            problem, FixedPointConfig(relaxation=0.5, tolerance=1e-8, max_iterations=200)
        )
        assert result.converged
        assert np.max(np.abs(result.w)) > 0

    def test_frozen_recovery_stays_zero(self):
        problem = make_problem(
            d=1, p=2, elements=4, source=lambda x, t: np.ones(t.shape), b=0.0
        )
        config = FixedPointConfig(relaxation=1.0, tolerance=1e-9, max_iterations=100)
        result = fixed_point_solve(problem, config)
        assert np.all(result.w == 0.0)
        # A field of -0.0 would be written as "-0" by the output files.
        assert not np.signbit(result.w).any()
        assert not np.any(_Workspace(problem, config).recovery)

    def test_potential_ignores_recovery_without_coupling(self):
        # With c2 = 0 the recovery does not feed back into the potential, so
        # the Jacobian's recovery term has zero weights and b = 0 (R = 0)
        # and b > 0 must give the same Newton steps.
        def solve(b):
            problem = make_problem(
                d=1,
                p=2,
                elements=4,
                source=lambda x, t: np.where(t < 0.5, 1.0, 0.0),
                c2=0.0,
                b=b,
            )
            return fixed_point_solve(problem, FixedPointConfig(tolerance=1e-10))

        plain, coupled = solve(0.0), solve(0.05)
        assert np.all(plain.w == 0.0)
        assert np.max(np.abs(coupled.w)) > 0
        assert coupled.iterations == plain.iterations
        assert coupled.gmres_iterations == plain.gmres_iterations
        assert_allclose(coupled.u, plain.u, rtol=0, atol=1e-12 * np.max(np.abs(plain.u)))

    def test_stabilized_with_zero_indicator_equals_galerkin(self, monkeypatch):
        problem = make_problem(
            d=1,
            p=2,
            elements=5,
            source=lambda x, t: np.exp(-5 * (t - 0.4) ** 2),
        )
        st = problem.space

        def zero_indicator(*args, **kwargs):
            return ResidualIndicator(
                np.zeros((st.num_time, st.num_space)),
                st.time_greville(),
                [s.greville() for s in st.spatial],
                st.spatial_shape,
            )

        monkeypatch.setattr(solver, "compute_theta", zero_indicator)
        base = FixedPointConfig(relaxation=0.5, tolerance=1e-9, max_iterations=200)
        su = FixedPointConfig(
            relaxation=0.5,
            tolerance=1e-9,
            max_iterations=200,
            stabilization="spline_upwind",
        )
        r_gal = fixed_point_solve(problem, base)
        r_su = fixed_point_solve(problem, su)
        assert np.max(np.abs(r_gal.u - r_su.u)) < 1e-8

    def test_rank_zero_indicator_gets_the_surrogate_preconditioner(self):
        # A stabilizer without terms leaves the Galerkin system: the
        # workspace's surrogate preconditioner and its ||P f||.
        problem = make_problem(
            d=2, p=2, elements=3, source=lambda x, t: np.sin(np.pi * t) * x[:, 0]
        )
        st = problem.space
        ws = _Workspace(problem, FixedPointConfig(stabilization="spline_upwind"))
        theta = ResidualIndicator(
            np.zeros((st.num_time, st.num_space)),
            st.time_greville(),
            [s.greville() for s in st.spatial],
            st.spatial_shape,
        )
        lowrank = lowrank_factorize(theta, 0.1)
        assert lowrank.rank == 0
        op, precond, pf_norm = ws.system(lowrank)
        galerkin_op, galerkin_precond, galerkin_pf_norm = ws.system()
        assert precond is galerkin_precond is ws.precond
        assert pf_norm == galerkin_pf_norm > 0.0
        assert len(op.terms) == len(galerkin_op.terms) == len(ws.operator.terms)
        x = RNG.standard_normal(st.num_dof)
        assert np.array_equal(op.matvec(x), galerkin_op.matvec(x))

    def test_inverts_only_applied_preconditioners(self, monkeypatch):
        # A preconditioner forms and inverts its per-mode stack on its first
        # apply. An every-sweep stabilized solve replaces the workspace's
        # before any apply, so it inverts one stack per assembled stabilizer
        # and the workspace's never forms its stack; an unstabilized solve
        # inverts the workspace's only.
        workspaces = []

        class RecordingWorkspace(solver._Workspace):
            def __init__(self, *args):
                super().__init__(*args)
                workspaces.append(self)

        monkeypatch.setattr(solver, "_Workspace", RecordingWorkspace)
        inversions = []
        inv = np.linalg.inv

        def counted_inv(a):
            # Only the per-mode stacks: ``generalized_eig`` inverts 2-D
            # Cholesky factors through the same function.
            if a.ndim == 3:
                inversions.append(a.shape)
            return inv(a)

        assembled = []
        assemble = solver.assemble_stabilization

        def counted_assemble(lowrank, *args):
            assert lowrank.rank > 0
            assembled.append(lowrank.rank)
            return assemble(lowrank, *args)

        monkeypatch.setattr(np.linalg, "inv", counted_inv)
        monkeypatch.setattr(solver, "assemble_stabilization", counted_assemble)
        problem = make_problem(
            d=2, p=2, elements=3, source=lambda x, t: np.sin(np.pi * t) * x[:, 0]
        )
        config = FixedPointConfig(stabilization="spline_upwind", tolerance=1e-6)
        result = fixed_point_solve(problem, config)
        assert result.converged and result.iterations > 1
        assert len(assembled) > 1
        assert len(inversions) == len(assembled)
        unapplied = vars(workspaces[-1].precond).values()
        assert not [v for v in unapplied if isinstance(v, np.ndarray)]
        inversions.clear()
        galerkin = replace(config, stabilization="off")
        assert fixed_point_solve(problem, galerkin).converged
        assert len(inversions) == 1
        assert "_inverse" in vars(workspaces[-1].precond)

    def test_stabilizer_switches_off_on_resolved_solution(self):
        from monoiga.experiments import make_source

        constants = {"C_m": 1.0, "D": 1e-4, "c1": 0.26, "a": 0.13}
        source = make_source("manufactured_1d", 1.0, constants)
        problem = make_problem(d=1, p=2, elements=32, source=source, D=1e-4, b=0.0)
        frozen = FixedPointConfig(
            relaxation=1.0,
            tolerance=1e-9,
            max_iterations=100,
            stabilization="spline_upwind",
            indicator_update="frozen",
        )
        result = fixed_point_solve(problem, frozen)
        theta = theta_of(problem, result.u, result.w)
        assert theta.max < 0.1
        # The stabilized sweeps start from the Galerkin pre-solve's iterate;
        # from the zero iterate they take 6.
        galerkin = fixed_point_solve(problem, replace(frozen, stabilization="off"))
        assert result.iterations - galerkin.iterations < 6
        # the coupled recomputation settles at a higher but still small level
        coupled = FixedPointConfig(
            relaxation=1.0,
            tolerance=1e-4,
            max_iterations=100,
            stabilization="spline_upwind",
        )
        result = fixed_point_solve(problem, coupled)
        assert result.indicator.max < 0.1

    @pytest.mark.parametrize("update", ["every_sweep", "frozen"])
    def test_one_quadrature_grid_per_rule(self, monkeypatch, update):
        # One default-rule grid serves the operator, the load vector and the
        # indicator (the frozen mode's Galerkin pre-solve included), and the
        # stabilizer adds its refined grid.
        built = []
        init = SpatialQuadratureData.__init__

        def counting_init(self, spaces, geo, npoints=None, extra_breaks=None):
            default = npoints is None and extra_breaks is None
            built.append("default" if default else "refined")
            init(self, spaces, geo, npoints=npoints, extra_breaks=extra_breaks)

        monkeypatch.setattr(SpatialQuadratureData, "__init__", counting_init)
        problem = make_problem(
            d=1,
            p=2,
            elements=4,
            source=lambda x, t: np.sin(np.pi * t) * np.ones(t.shape),
        )
        config = FixedPointConfig(
            stabilization="spline_upwind", indicator_update=update, tolerance=1e-6
        )
        assert fixed_point_solve(problem, config).converged
        assert sorted(built) == ["default", "refined"]

    @pytest.mark.parametrize(
        "stabilization, update",
        [("off", "every_sweep"), ("spline_upwind", "every_sweep"), ("spline_upwind", "frozen")],
    )
    def test_one_operator_per_stabilizer(self, monkeypatch, stabilization, update):
        # The workspace builds one operator, of the constant terms, and each
        # stabilizer extends it into one complete operator; an unstabilized
        # phase (a Galerkin solve or the frozen mode's pre-solve) uses the
        # constant operator itself.
        built = []
        extended = []
        assembled = []

        class CountingOperator(KroneckerOperator):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

            def plus(self, terms):
                extended.append(terms)
                return super().plus(terms)

        assemble = solver.assemble_stabilization

        def counting_assemble(*args):
            assembled.append(args)
            return assemble(*args)

        monkeypatch.setattr(solver, "KroneckerOperator", CountingOperator)
        monkeypatch.setattr(solver, "assemble_stabilization", counting_assemble)
        problem = make_problem(
            d=1, p=2, elements=4, source=lambda x, t: np.sin(np.pi * t) * np.ones(t.shape)
        )
        config = FixedPointConfig(
            stabilization=stabilization, indicator_update=update, tolerance=1e-6
        )
        result = fixed_point_solve(problem, config)
        assert result.converged
        assert len(built) == 1
        assert len(extended) == len(assembled)
        if stabilization == "off":
            assert not assembled
        elif update == "frozen":
            assert len(assembled) == 1
        else:
            assert 1 < len(assembled) <= result.iterations

    @pytest.mark.parametrize("update", ["every_sweep", "frozen"])
    def test_one_grid_evaluation_per_step(self, monkeypatch, update):
        # Each step contracts its iterate with the default grid's value
        # collocations once, for the indicator, the reaction mass and the
        # residual together (the frozen mode adds one for its indicator);
        # no other path evaluates the iterate on a grid.
        workspaces = []
        contractions = []
        evaluations = []

        class RecordingWorkspace(solver._Workspace):
            def __init__(self, *args):
                super().__init__(*args)
                workspaces.append(self)

        contract = assembly.contract_space

        def counting_contract(space_time, coeffs, space_collocs):
            contractions.append(space_collocs)
            return contract(space_time, coeffs, space_collocs)

        def counting_field(*args):
            evaluations.append(args)
            return field_on_grid(*args)

        monkeypatch.setattr(solver, "_Workspace", RecordingWorkspace)
        for module in (assembly, solver, stabilization):
            monkeypatch.setattr(module, "contract_space", counting_contract)
        monkeypatch.setattr(solver, "field_on_grid", counting_field)
        monkeypatch.setattr(assembly, "field_on_grid", counting_field)
        problem = make_problem(
            d=2, p=2, elements=3, source=lambda x, t: np.sin(np.pi * t) * x[:, 0]
        )
        config = FixedPointConfig(
            stabilization="spline_upwind", indicator_update=update, tolerance=1e-6
        )
        result = fixed_point_solve(problem, config)
        assert result.converged
        (ws,) = workspaces
        values = [c for c in contractions if c is ws.spatial_data.c0]
        # Steps recompute the indicator before it latches.
        assert update == "frozen" or not result.steps[1]["latched"]
        assert len(values) == result.iterations + int(update == "frozen")
        assert not evaluations

    def test_step_operator_equals_assembled_terms(self):
        # The constant operator plus one stabilizer's terms, applied from
        # the appended stacks, against the Kronecker products assembled
        # term by term; the constant operator itself is left as it was.
        from monoiga.experiments import make_source

        T = 40.0
        constants = {"C_m": 1.0, "D": 1e-4, "c1": 0.26, "a": 0.13}
        geo = builtin_geometry("ellipse_annulus", final_time=T)
        spatial = [SplineSpace.uniform(2, 6), SplineSpace.uniform(2, 2)]
        st = SpaceTimeSpace(spatial, SplineSpace.uniform(2, 4))
        source = make_source("gaussian_pulse_2d", T, constants)
        problem = MonodomainProblem(geometry=geo, space=st, source=source)
        ws = _Workspace(problem, FixedPointConfig(stabilization="spline_upwind"))
        theta = ResidualIndicator(
            np.random.default_rng(5).random((st.num_time, st.num_space)),
            st.time_greville(),
            [s.greville() for s in st.spatial],
            st.spatial_shape,
        )
        lowrank = lowrank_factorize(theta, 0.05)
        assert lowrank.rank >= 2
        op, _, _ = ws.system(lowrank)
        stab, _ = assemble_stabilization(
            lowrank, ws.stab_grid, problem.C_m, ws.precond.eigenvectors
        )
        terms = ws.operator.terms + stab
        ref = kronecker_sparse(KroneckerOperator(st.num_time, st.num_space, terms))
        x = np.random.default_rng(6).standard_normal(st.num_dof)
        assert np.linalg.norm(op.matvec(x) - ref @ x) <= 1e-13 * np.linalg.norm(ref @ x)
        assert len(op.terms) == len(terms)
        assert len(ws.operator.terms) == 2
        constant = KroneckerOperator(st.num_time, st.num_space, ws.operator.terms)
        assert np.array_equal(ws.operator.matvec(x), constant.matvec(x))

    @pytest.mark.parametrize(
        "geometry, p, elements",
        [("ellipse_annulus", 3, [4, 2]), ("unit_cube", 2, [2, 2, 2])],
    )
    def test_workspace_tabulates_each_space_once_per_point_set(
        self, monkeypatch, geometry, p, elements
    ):
        # One recursion per (space, point set) gives every derivative order
        # the build reads, the geometry's included.
        st = SpaceTimeSpace(
            [SplineSpace.uniform(p, n) for n in elements], SplineSpace.uniform(p, 4)
        )
        problem = MonodomainProblem(
            geometry=builtin_geometry(geometry, final_time=2.0),
            space=st,
            source=lambda x, t: np.sin(t) * x[:, 0],
        )
        tabulated = []
        recursion = bspline._basis_all_ders

        def counted(knots, degree, x, nders):
            tabulated.append((id(knots), np.asarray(x, dtype=float).tobytes()))
            return recursion(knots, degree, x, nders)

        monkeypatch.setattr(bspline, "_basis_all_ders", counted)
        _Workspace(problem, FixedPointConfig(stabilization="spline_upwind"))
        assert len(tabulated) > 2 * len(elements)
        assert len(set(tabulated)) == len(tabulated)

    def test_workspace_build_peak_is_a_multiple_of_what_it_holds(self):
        # The build's transients are slabs of the refined grid's Jacobians,
        # the weighted source sample and the assembly's contractions; the
        # workspace keeps the operator's stacks, not M_s and K_s themselves.
        spatial = [SplineSpace.uniform(2, 8)] * 3
        st = SpaceTimeSpace(spatial, SplineSpace.uniform(2, 16))
        problem = MonodomainProblem(
            geometry=builtin_geometry("unit_cube", final_time=2.0),
            space=st,
            source=lambda x, t: np.exp(-t) * x[:, 0],
        )
        config = FixedPointConfig(stabilization="spline_upwind")
        _Workspace(problem, config)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ws = _Workspace(problem, config)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 2 * (held - before)
        assert not hasattr(ws, "M_s") and not hasattr(ws, "K_s")
        ((stack, _),) = ws.operator._stacks
        for _, _, smat in ws.operator.terms:
            assert np.shares_memory(smat.data, stack)

    def test_step_holds_no_grid_evaluation_through_gmres(self, monkeypatch):
        # The step's IterateOnGrid is read by the indicator and the
        # linearization only, and is released before the linear solve.
        held = []

        def checked_gmres(*args, **kwargs):
            gc.collect()
            held.append(sum(isinstance(o, IterateOnGrid) for o in gc.get_objects()))
            return gmres(*args, **kwargs)

        monkeypatch.setattr(solver, "gmres", checked_gmres)
        problem = make_problem(
            d=2, p=2, elements=3, source=lambda x, t: np.sin(np.pi * t) * x[:, 0]
        )
        config = FixedPointConfig(stabilization="spline_upwind", tolerance=1e-6)
        result = fixed_point_solve(problem, config)
        assert result.converged
        assert held == [0] * result.iterations

    @pytest.mark.parametrize("b", [0.0, 0.5])
    def test_slabbed_linearization_matches_single_slab(self, monkeypatch, b):
        problem = make_problem(
            d=2,
            p=2,
            elements=4,
            b=b,
            source=lambda x, t: np.sin(np.pi * t) * np.ones(t.shape),
        )
        ws = _Workspace(problem, FixedPointConfig())
        rng = np.random.default_rng(12)
        u = 0.5 * rng.standard_normal(problem.space.num_dof)
        delta = rng.standard_normal(problem.space.num_dof)
        op = ws.system()[0]
        out = []
        for budget in (1, 2**40):
            monkeypatch.setattr(tensorops, "SLAB_POINTS", budget)
            residual, jac = ws.linearize(problem, u, op, ws.evaluate(u))
            out.append((residual, jac.matvec(delta)))
        assert len(ws.time_data.slabs(ws.spatial_data.measure.size)) == 1
        for slabbed, single in zip(*out):
            assert_allclose(slabbed, single, rtol=0, atol=1e-14 * np.max(np.abs(single)))

    @pytest.mark.parametrize("b", [0.0, 0.5])
    def test_linearization_over_the_evaluation_matches_a_separate_one(self, b):
        # The Jacobian's weights are written over the step's evaluation of u
        # and w; the same weights, residual and Jacobian come from grids of
        # their own, formed straight from the formulas.
        problem = make_problem(
            d=2,
            p=2,
            elements=4,
            b=b,
            source=lambda x, t: np.sin(np.pi * t) * np.ones(t.shape),
        )
        ws = _Workspace(problem, FixedPointConfig())
        rng = np.random.default_rng(13)
        u = 0.5 * rng.standard_normal(problem.space.num_dof)
        delta = rng.standard_normal(problem.space.num_dof)
        op = ws.system()[0]
        ku, kd = op.matvec(u), op.matvec(delta)
        on_grid = ws.evaluate(u)
        residual, jac = ws.linearize(problem, u, op, on_grid)
        weights = jac.correction.data
        assert weights is on_grid.stack

        sd, td = ws.spatial_data, ws.time_data
        ref = iterate_on_grid(problem.space, u, ws.recover(u), sd, td)
        uu, ww = ref.u, ref.w
        c1, a, c2 = problem.c1, problem.a, problem.c2
        measure = np.multiply.outer(td.weights, sd.measure)
        c = c1 * (uu - a) * (uu - 1.0) + c2 * ww
        j1 = (c - c1 * a + c1 * uu * (2.0 * uu - 1.0 - a)) * measure
        ref_weights = np.stack([j1, c2 * uu * measure])
        scale = np.max(np.abs(ref_weights))
        assert weights.shape == ref_weights.shape
        assert np.max(np.abs(weights - ref_weights)) <= 1e-14 * scale
        integrand = [(slice(None), (c - c1 * a) * uu * measure)]
        ref_residual = ku + load_vector(td.c0, sd.c0, integrand) - ws.f_vec
        scale = np.max(np.abs(ref_residual))
        assert_allclose(residual, ref_residual, rtol=0, atol=1e-14 * scale)
        ref_jac = WeightedMass(td.c0, sd.c0, ref_weights, ws.jacobian_trials)
        want = kd + ref_jac.matvec(delta)
        got = jac.matvec(delta)
        assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))

    def test_linearization_leaves_the_step_operator_unwritten(self):
        # The Jacobian is an operator of its own that shares the step
        # operator's stacks; the step operator is not written.
        problem = make_problem(
            d=2,
            p=2,
            elements=3,
            b=0.5,
            source=lambda x, t: np.sin(np.pi * t) * np.ones(t.shape),
        )
        ws = _Workspace(problem, FixedPointConfig())
        rng = np.random.default_rng(14)
        u = 0.5 * rng.standard_normal(problem.space.num_dof)
        delta = rng.standard_normal(problem.space.num_dof)
        op = ws.system()[0]
        before = op.matvec(delta)
        _, jac = ws.linearize(problem, u, op, ws.evaluate(u))
        assert jac is not op
        assert op.correction is None
        assert isinstance(jac.correction, WeightedMass)
        assert len(jac._stacks) == len(op._stacks)
        assert all(mine is shared for mine, shared in zip(jac._stacks, op._stacks))
        assert np.array_equal(op.matvec(delta), before)
        zero = np.zeros_like(u)
        assert ws.linearize(problem, zero, op, ws.evaluate(zero))[1] is op

    def test_stabilized_solve_peak_is_a_few_grid_arrays(self):
        # What a stabilized 8^3 x 16 solve holds at its peak, counted in
        # arrays on the default space-time quadrature grid: the workspace
        # (the source sample, the operator's stacks and the refined measure)
        # about 2.5, the step's evaluation, which becomes the Jacobian's
        # weights, 2, and the step's system, the Krylov basis and a
        # matvec's contractions.  With a grid of Jacobian weights of its own
        # and the refined grid's Jacobians tabulated as one slab, the solve
        # peaked at 9.4.
        spatial = [SplineSpace.uniform(2, 8)] * 3
        st = SpaceTimeSpace(spatial, SplineSpace.uniform(2, 16))
        problem = MonodomainProblem(
            geometry=builtin_geometry("unit_cube", final_time=80.0),
            space=st,
            source=make_source(
                "layer_pulse_3d",
                80.0,
                {},
                {"window_start": 44.5, "window_end": 59.5},
            ),
        )
        config = FixedPointConfig(stabilization="spline_upwind")
        tracemalloc.start()
        try:
            result = fixed_point_solve(problem, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.converged and max(step["rank"] for step in result.steps) > 0
        # Three Gauss points per element in every direction.
        grid_bytes = 8 * (3 * 16) * (3 * 8) ** 3
        assert peak <= 7.5 * grid_bytes

    def test_last_system_is_released_before_the_next_is_built(self, monkeypatch):
        # When the indicator is recomputed, the previous step's operator (its
        # stabilizer stack) is no longer referenced once the next one is
        # assembled.
        alive = []
        assemble = solver.assemble_stabilization

        def counting_assemble(*args):
            gc.collect()
            alive.append(
                sum(
                    isinstance(o, KroneckerOperator) and len(o._stacks) > 1
                    for o in gc.get_objects()
                )
            )
            return assemble(*args)

        monkeypatch.setattr(solver, "assemble_stabilization", counting_assemble)
        problem = make_problem(
            d=2, p=2, elements=3, source=lambda x, t: np.sin(np.pi * t) * x[:, 0]
        )
        config = FixedPointConfig(stabilization="spline_upwind", tolerance=1e-6)
        result = fixed_point_solve(problem, config)
        assert result.converged
        assert len(alive) > 1
        assert alive == [0] * len(alive)

    def test_refined_grid_builds_no_derivative_tables(self, monkeypatch):
        # The stabilizer integrates values only: its refined grid never
        # tabulates derivatives, the metric or the source's points.
        grids = []

        class RecordingGrid(solver.StabilizationGrid):
            def __init__(self, *args):
                super().__init__(*args)
                grids.append(self)

        monkeypatch.setattr(solver, "StabilizationGrid", RecordingGrid)
        problem = make_problem(
            d=2, p=2, elements=4, source=lambda x, t: np.sin(np.pi * t) * x[:, 0]
        )
        config = FixedPointConfig(stabilization="spline_upwind", tolerance=1e-6)
        assert fixed_point_solve(problem, config).converged
        (grid,) = grids
        built = vars(grid.spatial_data)
        assert "measure" in built
        # The metric and the Laplacian table are cached together; the
        # measure is the one grid the refined rule holds.
        for table in ("c1", "c2", "_pullback", "detj", "wgrid"):
            assert table not in built
        assert grid.spatial_data._sample is None

    def test_frozen_result_records_both_phases(self, caplog):
        problem = make_problem(
            d=1,
            p=2,
            elements=8,
            source=lambda x, t: np.sin(np.pi * t) * np.ones(t.shape),
        )
        config = FixedPointConfig(
            stabilization="spline_upwind", indicator_update="frozen", tolerance=1e-6
        )
        with caplog.at_level(logging.INFO, logger="monoiga.solver"):
            result = fixed_point_solve(problem, config)
        galerkin = fixed_point_solve(problem, replace(config, stabilization="off"))
        n = result.iterations
        assert n == len(result.steps) == len(result.increments)
        assert n == len(result.gmres_iterations)
        assert [step["sweep"] for step in result.steps] == list(range(1, n + 1))
        # The Galerkin pre-solve's records come first, then the stabilized ones.
        assert 0 < galerkin.iterations < n
        assert result.steps[: galerkin.iterations] == galerkin.steps
        records = [r for r in caplog.records if r.name == "monoiga.solver"]
        assert [r.args for r in records] == result.steps
        # Unstabilized steps record no stabilizer; the latched one serves
        # every stabilized step.
        for step in galerkin.steps:
            assert (step["rank"], step["theta_max"], step["latched"]) == (0, 0.0, False)
            assert (step["drift"], step["denominator_vanished"]) == (0.0, False)
        for step in result.steps[galerkin.iterations :]:
            assert step["rank"] >= 1 and step["latched"]
            assert step["theta_max"] == result.indicator.max > 0.0
            # The latched indicator is read from a nonzero iterate and never
            # recomputed.
            assert (step["drift"], step["denominator_vanished"]) == (0.0, False)

    def test_two_runs_give_equal_records(self):
        problem = make_problem(
            d=2, p=2, elements=3, source=lambda x, t: np.sin(np.pi * t) * x[:, 0]
        )
        config = FixedPointConfig(stabilization="spline_upwind", tolerance=1e-6)
        first = fixed_point_solve(problem, config)
        second = fixed_point_solve(problem, config)
        assert first.steps == second.steps
        assert {step["latched"] for step in first.steps} == {False, True}
        assert all(step["rank"] >= 1 for step in first.steps)
        # Only the first indicator, read from the zero iterate, has a
        # vanishing denominator; it has no predecessor to drift from.
        vanished = [step["denominator_vanished"] for step in first.steps]
        assert vanished == [True] + [False] * (len(first.steps) - 1)
        assert first.steps[0]["drift"] == 0.0
        # Each recomputed indicator drifts beyond the latch threshold until
        # the one that latches; latched steps recompute nothing.
        latch = [step["latched"] for step in first.steps].index(True)
        alpha = config.relaxation
        for step in first.steps[1:latch]:
            assert step["drift"] * alpha > INDICATOR_FREEZE_TOL
        assert 0.0 < first.steps[latch]["drift"] * alpha <= INDICATOR_FREEZE_TOL
        assert all(step["drift"] == 0.0 for step in first.steps[latch + 1 :])
        # GMRES's final relative residual: the first step meets its forcing
        # term, and a step that took no iteration records no reduction (or
        # 0.0 for a zero right-hand side).
        assert 0.0 < first.steps[0]["gmres_residual"] <= first.steps[0]["forcing"]
        for step in first.steps:
            if step["gmres_iterations"] == 0:
                assert step["gmres_residual"] in (0.0, 1.0)
            else:
                assert 0.0 < step["gmres_residual"] < 1.0

    def test_evaluate_matches_separate_contractions(self):
        # The solver's one evaluation per step reads w = R u from the same
        # temporal contraction as u ([C_t; C_t R_t]); contracting each field
        # on its own gives the same grids, on the annulus and on the cube.
        rng = np.random.default_rng(7)
        for geometry, spatial in [
            ("ellipse_annulus", [SplineSpace.uniform(2, 8), SplineSpace.uniform(2, 2)]),
            ("unit_cube", [SplineSpace.uniform(2, 3)] * 3),
        ]:
            geo = builtin_geometry(geometry, final_time=40.0)
            st = SpaceTimeSpace(spatial, SplineSpace.uniform(2, 4))
            problem = MonodomainProblem(geometry=geo, space=st)
            ws = _Workspace(problem, FixedPointConfig())
            u = rng.standard_normal(st.num_dof)
            w = ws.recover(u)
            assert np.any(w)
            ref = iterate_on_grid(st, u, w, ws.spatial_data, ws.time_data)
            for got, want in zip(ws.evaluate(u), ref):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestEvaluateField:
    def test_all_one_coefficients_beyond_initial_layer(self):
        problem = make_problem(d=2, p=2, elements=3)
        st = problem.space
        pts = np.column_stack([RNG.random(10), RNG.random(10), RNG.uniform(0.4, 1.0, 10)])
        vals = evaluate_field(st, np.ones(st.num_dof), pts)
        assert_allclose(vals, 1.0, atol=1e-13)

    def test_bilinear_reproduction(self):
        problem = make_problem(d=1, p=2, elements=4)
        st = problem.space
        gs = st.spatial[0].greville()
        gt = st.time_greville()
        coeffs = np.outer(gt, gs).reshape(-1)
        pts = np.column_stack([RNG.random(20), RNG.random(20)])
        vals = evaluate_field(st, coeffs, pts)
        assert np.max(np.abs(vals - pts[:, 0] * pts[:, 1])) < 1e-12

    def test_time_derivative_scaling(self):
        problem = make_problem(d=1, p=2, elements=4, final_time=5.0)
        st = problem.space
        gs = st.spatial[0].greville()
        gt = st.time_greville()
        coeffs = np.outer(gt, np.ones_like(gs)).reshape(-1)
        pts = np.column_stack([RNG.random(10), RNG.uniform(0.1, 0.9, 10)])
        out = field_derivatives(st, problem.geometry, coeffs, pts)
        # field is tau = t / T, so the physical time derivative is 1 / T
        assert_allclose(out["dt"], 1.0 / 5.0, atol=1e-12)

    def test_matches_residual_grid_fields(self):
        # At the tensor product of the default Gauss points the scattered
        # oracle gives the value, time derivative and Laplacian that
        # compute_theta builds from the shared quadrature data.
        geo = builtin_geometry("ellipse_annulus", final_time=3.0)
        spatial = [SplineSpace.uniform(3, 6), SplineSpace.uniform(3, 2)]
        st = SpaceTimeSpace(spatial, SplineSpace.uniform(3, 3))
        sdata = SpatialQuadratureData(st.spatial, geo)
        tdata = TimeQuadratureData(st, geo.final_time)
        u = RNG.standard_normal(st.num_dof)
        mesh = np.meshgrid(
            tdata.points, *[r.points for r in reversed(sdata.rules)], indexing="ij"
        )
        pts = np.column_stack([m.reshape(-1) for m in reversed(mesh)])
        out = field_derivatives(st, geo, u, pts)
        collocs = (sdata.c0, sdata.c1, sdata.c2)

        def field(orders):
            tmat = tdata.c1 if orders[-1] == 1 else tdata.c0
            smats = [collocs[o][l] for l, o in enumerate(orders[:-1])]
            return field_on_grid(st, u, tmat, smats)

        ref = {
            "value": field([0, 0, 0]),
            "dt": field([0, 0, 1]) / geo.final_time,
            "laplacian": sum(
                c * field(list(orders) + [0]) for orders, c in sdata.laplacian
            ),
        }
        for key, val in ref.items():
            scale = np.max(np.abs(val))
            assert np.max(np.abs(out[key] - val.reshape(-1))) <= 1e-12 * scale, key

    def test_point_outside_box_raises(self):
        problem = make_problem(d=1, p=2, elements=3)
        st = problem.space
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            evaluate_field(st, np.zeros(st.num_dof), [[0.5, 1.2]])


class TestL2Error:
    def test_exact_spline_solution(self):
        problem = make_problem(d=1, p=2, elements=4, final_time=2.0)
        st = problem.space
        gs = st.spatial[0].greville()
        gt = st.time_greville()
        coeffs = np.outer(gt, gs).reshape(-1)

        def exact(x, t):
            return x[:, 0] * (t / 2.0)

        assert l2_error(st, problem.geometry, coeffs, exact) < 1e-12

    def test_zero_field_gives_unit_relative_error(self):
        problem = make_problem(d=1, p=2, elements=3)
        st = problem.space

        def exact(x, t):
            return np.ones(t.shape)

        err = l2_error(st, problem.geometry, np.zeros(st.num_dof), exact)
        assert_allclose(err, 1.0, atol=1e-12)

    def test_zero_reference_returns_absolute_with_warning(self):
        problem = make_problem(d=1, p=2, elements=3)
        st = problem.space
        coeffs = np.ones(st.num_dof)
        with pytest.warns(RuntimeWarning, match="zero norm"):
            err = l2_error(st, problem.geometry, coeffs, lambda x, t: np.zeros(t.shape))
        assert err > 0
