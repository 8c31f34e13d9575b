"""Tests for the spectral initializer, the incoherence projection and the
regularized Wirtinger descent loop."""

import dataclasses
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import moddemix
import moddemix.solver as solver_module
from conftest import make_instance, random_pair
from moddemix.instances import relative_error
from moddemix.objective import DegenerateInputError, PenaltyParams, coherences, evaluate
from moddemix.operators import BlockFactorPair, Dimensions, ObservationVector, dft_basis
from moddemix.solver import (
    NumericalFailureError,
    SolverConfig,
    initialize,
    leading_singular_triple,
    project_incoherent,
    solve,
)

EASY = Dimensions(L=64, Q=64, M=3, K=3, N=1)
TWO = Dimensions(L=128, Q=128, M=4, K=4, N=2)
DESK = Dimensions(L=320, Q=320, M=8, K=8, N=2)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert [f.name for f in dataclasses.fields(cfg)] == ["max_iters", "start"]

    @pytest.mark.parametrize("kwargs", [
        dict(max_iters=-1), dict(max_iters=0.5), dict(max_iters=0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestLeadingSingularTriple:
    @pytest.mark.parametrize("shape", [(6, 4), (4, 6), (8, 8), (1, 5)])
    def test_matches_svd(self, shape, rng):
        A = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        d, u, v = leading_singular_triple(A)
        s = np.linalg.svd(A, compute_uv=False)
        assert d == pytest.approx(s[0], rel=1e-10)
        # u, v reproduce the rank-1 action: A v = d u
        np.testing.assert_allclose(A @ v, d * u, atol=1e-8 * s[0])
        assert np.linalg.norm(u) == pytest.approx(1.0)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_rank_one_exact(self, rng):
        a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        A = np.outer(a, b)
        d, u, v = leading_singular_triple(A)
        assert d == pytest.approx(np.linalg.norm(a) * np.linalg.norm(b), rel=1e-12)

    def test_leading_value_not_at_dominant_column(self):
        """The largest column (norm 2.2) is an eigenvector of A^H A, but not
        the leading one: a power iteration started there stays at 2.2."""
        A = np.array([[2.2, 0, 0], [0, 1.5, 1.5], [0, 1.5, 1.5]])
        d, u, v = leading_singular_triple(A)
        assert d == pytest.approx(3.0, rel=1e-12)
        np.testing.assert_allclose(A @ v, d * u, atol=1e-12)

    def test_zero_matrix_raises(self):
        with pytest.raises(DegenerateInputError):
            leading_singular_triple(np.zeros((3, 3)))


class TestProjectIncoherent:
    def _feasible(self, z, basis, bound):
        return np.sqrt(basis.shape[0]) * np.max(np.abs(basis @ z)) <= bound * (1 + 1e-12)

    @pytest.mark.parametrize("rows,cols", [(16, 16), (16, 5), (32, 7)])
    @pytest.mark.filterwarnings("ignore:incoherence projection:RuntimeWarning")
    def test_result_feasible(self, rows, cols, rng):
        basis = np.linalg.qr(rng.standard_normal((rows, cols))
                             + 1j * rng.standard_normal((rows, cols)))[0]
        g = 5.0 * (rng.standard_normal(cols) + 1j * rng.standard_normal(cols))
        z = project_incoherent(g, basis, bound=1.0)
        assert self._feasible(z, basis, 1.0)

    def test_identity_on_feasible_point(self, rng):
        basis = dft_basis(16, 5)
        g = 0.01 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
        np.testing.assert_allclose(project_incoherent(g, basis, bound=1.0), g,
                                   atol=1e-10)

    def test_unitary_case_closed_form(self, rng):
        basis = dft_basis(8, 8)
        g = 3.0 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        z = project_incoherent(g, basis, bound=1.0)
        # spectral magnitudes clipped at bound / sqrt(rows), phases kept
        u = basis @ z
        mags = np.abs(u)
        assert np.max(mags) <= 1.0 / np.sqrt(8) + 1e-12
        ref = basis @ g
        keep = np.abs(ref) <= 1.0 / np.sqrt(8)
        np.testing.assert_allclose(u[keep], ref[keep], atol=1e-12)

    @pytest.mark.filterwarnings("ignore:incoherence projection:RuntimeWarning")
    def test_optimality_against_perturbations(self, rng):
        basis = dft_basis(24, 7)
        g = 2.0 * (rng.standard_normal(7) + 1j * rng.standard_normal(7))
        z = project_incoherent(g, basis, bound=1.0, tol=1e-12, max_iters=5000)
        best = np.linalg.norm(z - g)
        for _ in range(200):
            trial = z + 0.01 * (rng.standard_normal(7) + 1j * rng.standard_normal(7))
            attained = np.sqrt(24) * np.max(np.abs(basis @ trial))
            if attained > 1.0:
                trial *= 1.0 / attained
            assert np.linalg.norm(trial - g) >= best - 1e-8

    def test_zero_input(self):
        z = project_incoherent(np.zeros(4), dft_basis(8, 4), bound=1.0)
        assert np.all(z == 0)

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            project_incoherent(np.ones(4), dft_basis(8, 4), bound=0.0)


class TestInitialize:
    def test_constraints_hold(self):
        ens, truth, obs = make_instance(TWO, seed=5)
        rep = coherences(ens, truth)
        init = initialize(ens, obs, rep.mu, rep.nu)
        d = ens.dims
        fm = dft_basis(d.L, d.M)
        for n in range(d.N):
            root = np.sqrt(init.d_n[n])
            u, v = init.start.channels[n], init.start.coefficients[n]
            assert np.sqrt(d.L) * np.max(np.abs(fm @ u)) <= 2 * root * rep.mu * (1 + 1e-8)
            assert np.sqrt(d.Q) * np.max(np.abs(ens.coding[n] @ v)) \
                <= 2 * root * rep.nu * (1 + 1e-8)

    def test_close_to_truth_noiseless(self):
        ens, truth, obs = make_instance(TWO, seed=5)
        rep = coherences(ens, truth)
        init = initialize(ens, obs, rep.mu, rep.nu)
        assert relative_error(init.start, truth) < 0.6

    def test_singular_values_near_energies(self):
        ens, truth, obs = make_instance(TWO, seed=5)
        rep = coherences(ens, truth)
        init = initialize(ens, obs, rep.mu, rep.nu)
        d_n0 = (np.linalg.norm(truth.channels, axis=1)
                * np.linalg.norm(truth.coefficients, axis=1))
        np.testing.assert_allclose(init.d_n, d_n0, rtol=0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e100, 1e150])
    def test_scale_equivariant(self, scale):
        """The model is homogeneous: scaling y by s scales d_n by s and the
        start by sqrt(s), without warnings, overflow or underflow."""
        ens, truth, obs = make_instance(TWO, seed=5)
        rep = coherences(ens, truth)
        ref = initialize(ens, obs, rep.mu, rep.nu)
        init = initialize(ens, ObservationVector(scale * obs.samples), rep.mu, rep.nu)
        np.testing.assert_allclose(init.d_n, scale * ref.d_n, rtol=1e-12)
        for got, want in [(init.start.channels, ref.start.channels),
                          (init.start.coefficients, ref.start.coefficients)]:
            assert np.linalg.norm(got - np.sqrt(scale) * want) \
                <= 1e-12 * np.sqrt(scale) * np.linalg.norm(want)

    def test_zero_observation_raises(self):
        ens, truth, _ = make_instance(TWO, seed=5)
        obs = ObservationVector(np.zeros(TWO.L))
        with pytest.raises(DegenerateInputError):
            initialize(ens, obs, 1.0, 1.0)


class TestSolve:
    def test_recovers_noiseless(self):
        ens, truth, obs = make_instance(EASY, seed=1)
        est, trace = solve(ens, obs, SolverConfig(), truth=truth)
        assert relative_error(est, truth) < 1e-3
        assert trace.stop_reason == "rel_err"

    def test_recovers_two_components(self):
        ens, truth, obs = make_instance(TWO, seed=2)
        est, trace = solve(ens, obs, SolverConfig(), truth=truth)
        assert relative_error(est, truth) < 1e-3

    def test_monotone_objective_backtracking(self):
        ens, truth, obs = make_instance(TWO, seed=3, snr_db=20.0)
        _, trace = solve(ens, obs, SolverConfig(max_iters=300), truth=truth)
        diffs = np.diff(trace.f_tilde)
        assert np.all(diffs <= 1e-12 * max(1.0, trace.f_tilde[0]))

    def test_trace_rows_consistent(self):
        ens, truth, obs = make_instance(EASY, seed=4)
        _, trace = solve(ens, obs, SolverConfig(), truth=truth)
        assert trace.t[0] == 0
        assert len(trace.t) == len(trace.f_tilde) == len(trace.rel_err)
        np.testing.assert_allclose(trace.f_tilde, trace.f + trace.g, atol=1e-12)
        assert trace.iterations == trace.t[-1]

    def test_non_finite_trial_is_rejected(self):
        """A backtracking trial whose point overflows fails the Armijo test
        and is halved like any other."""
        ens, truth, obs = make_instance(EASY, seed=1)
        obs = ObservationVector(1e12 * obs.samples)  # gradient entries near 1e16
        rep = coherences(ens, truth)
        init = initialize(ens, obs, rep.mu, rep.nu)
        d = float(np.linalg.norm(init.d_n))
        p = PenaltyParams(rho=d**2, d=d, d_n=init.d_n, mu=rep.mu, nu=rep.nu)
        z = init.start
        cur = evaluate(ens, z, obs, p, grad=True)
        g = cur.grad
        gn_sq = float(np.linalg.norm(g.channels) ** 2 + np.linalg.norm(g.coefficients) ** 2)
        with np.errstate(all="ignore"):
            trial = solver_module._apply_step(z, g, 1e308)
            assert not np.all(np.isfinite(trial.channels))
            new, ev, eta, evals = solver_module._backtrack(ens, z, obs, p, g, gn_sq, cur, 1e308)
        assert 0.0 < eta < 1e308 and evals > 1
        assert np.isfinite(ev.f_tilde) and ev.f_tilde < cur.f_tilde
        assert np.all(np.isfinite(new.channels)) and np.all(np.isfinite(new.coefficients))

    @pytest.mark.parametrize("dims,seed", [(EASY, 1), (TWO, 2)])
    def test_blind_recovery(self, dims, seed):
        """Without truth and with the default config the descent recovers
        the factors and stops on the gradient norm."""
        ens, truth, obs = make_instance(dims, seed=seed)
        est, trace = solve(ens, obs)
        assert trace.stop_reason == "grad_tol"
        assert np.all(np.isnan(trace.rel_err))
        assert relative_error(est, truth) < 1e-3

    @pytest.mark.parametrize("dims,seed,snr_db,max_iters", [
        *[(dims, seed, None, 5000) for dims in (EASY, TWO, DESK) for seed in range(3)],
        (TWO, 3, 20.0, 100),
    ])
    def test_truth_only_scores(self, dims, seed, snr_db, max_iters):
        """The truth and the noise change no iterate: a blind solve of the
        samples alone, capped at the truth-scored solve's iteration count,
        returns its estimate bit for bit."""
        ens, truth, obs = make_instance(dims, seed=seed, snr_db=snr_db)
        ref, ref_trace = solve(ens, obs, SolverConfig(max_iters=max_iters), truth=truth)
        est, trace = solve(ens, ObservationVector(obs.samples),
                           SolverConfig(max_iters=ref_trace.iterations))
        assert trace.iterations == ref_trace.iterations
        np.testing.assert_array_equal(est.channels, ref.channels)
        np.testing.assert_array_equal(est.coefficients, ref.coefficients)
        np.testing.assert_array_equal(trace.f_tilde, ref_trace.f_tilde)

    def test_zero_factor_start_raises(self):
        """A zero channel is a stationary point the descent cannot leave."""
        ens, truth, obs = make_instance(TWO, seed=2)
        channels = truth.channels.copy()
        channels[1] = 0.0
        start = BlockFactorPair(channels, truth.coefficients)
        with pytest.raises(DegenerateInputError):
            solve(ens, obs, SolverConfig(start=start), truth=truth)

    def test_warm_start(self):
        ens, truth, obs = make_instance(EASY, seed=1)
        cfg = SolverConfig(start=truth.copy())
        est, trace = solve(ens, obs, cfg, truth=truth)
        assert trace.iterations == 0
        assert relative_error(est, truth) < 1e-12

    def test_output_normalized(self):
        ens, truth, obs = make_instance(TWO, seed=2)
        est, _ = solve(ens, obs, SolverConfig(), truth=truth)
        h_norms = np.linalg.norm(est.channels, axis=1)
        x_norms = np.linalg.norm(est.coefficients, axis=1)
        np.testing.assert_allclose(h_norms, x_norms, rtol=1e-10)
        for n in range(TWO.N):
            lead = est.channels[n][np.nonzero(est.channels[n])[0][0]]
            assert abs(lead.imag) < 1e-10 * abs(lead)

    @pytest.mark.parametrize("dims,seed,iterations", [(TWO, 2, 12), (EASY, 1, 5)])
    def test_pinned_iteration_count(self, dims, seed, iterations):
        """Step acceptance and stopping are part of the contract: the same
        seeded solves take the same number of iterations."""
        ens, truth, obs = make_instance(dims, seed=seed)
        _, trace = solve(ens, obs, SolverConfig(), truth=truth)
        assert (trace.iterations, trace.stop_reason) == (iterations, "rel_err")

    def test_one_evaluation_per_step_trial(self, monkeypatch):
        """grad_total runs once, at the start point; every other evaluate is
        a backtracking trial, whose gradient is reused when it is accepted,
        so no accepted point is evaluated a second time."""
        points, grad_points, steps = [], [], []

        def spy(fn, seen):
            def wrapper(ens, z, *args, **kwargs):
                seen.append((z, kwargs.get("grad", False)))
                return fn(ens, z, *args, **kwargs)
            return wrapper

        apply_step = solver_module._apply_step
        monkeypatch.setattr(solver_module, "evaluate", spy(solver_module.evaluate, points))
        monkeypatch.setattr(solver_module, "grad_total",
                            spy(solver_module.grad_total, grad_points))
        monkeypatch.setattr(solver_module, "_apply_step",
                            lambda *args: steps.append(1) or apply_step(*args))
        ens, truth, obs = make_instance(TWO, seed=2)
        _, trace = solve(ens, obs, SolverConfig(), truth=truth)
        assert (trace.iterations, trace.stop_reason) == (12, "rel_err")
        assert len(grad_points) == 1 and grad_points[0][0] is points[0][0]
        assert len(points) + len(grad_points) == trace.evals.sum()
        assert len(points) == 1 + len(steps) and len(steps) >= trace.iterations
        assert [g for _, g in points] == [False] + [True] * len(steps)
        stacked = [np.concatenate([z.channels.ravel(), z.coefficients.ravel()])
                   for z, _ in points]
        assert len({a.tobytes() for a in stacked}) == len(points)

    @pytest.mark.parametrize("dims,seed,snr_db,max_iters",
                             [(TWO, 2, None, 5000), (EASY, 1, None, 5000),
                              (TWO, 3, 20.0, 30)])
    def test_trace_error_is_relative_error(self, dims, seed, snr_db, max_iters):
        """The trace's error, against the truth prepared once per solve,
        matches the public relative_error of the normalized estimate."""
        ens, truth, obs = make_instance(dims, seed=seed, snr_db=snr_db)
        est, trace = solve(ens, obs, SolverConfig(max_iters=max_iters), truth=truth)
        assert abs(trace.rel_err[-1] - relative_error(est, truth)) <= 1e-12

    def test_step_grows_from_the_bound(self):
        """TWO seed 2: steps grow past eta0 = 1/(2 N M d), and each search
        starts at twice the last accepted step after a first-trial accept,
        at that step after a halving, never above twice it.  A search's start
        is read back from the trace as eta * 2^(evals - 1)."""
        ens, truth, obs = make_instance(TWO, seed=2)
        rep = coherences(ens, truth)
        d = float(np.linalg.norm(initialize(ens, obs, rep.mu, rep.nu).d_n))
        eta0 = 1.0 / (2.0 * TWO.N * TWO.M * d)
        _, trace = solve(ens, obs, SolverConfig(), truth=truth)
        eta, evals = trace.eta[1:], trace.evals[1:]
        assert np.max(eta) > eta0
        starts = eta * 2.0 ** (evals - 1)
        previous = np.concatenate([[eta0], eta[:-1]])
        grew = np.concatenate([[True], evals[:-1] == 1])
        np.testing.assert_allclose(starts, np.where(grew, 2.0, 1.0) * previous, rtol=1e-12)
        assert np.all(starts <= 2.0 * previous * (1 + 1e-12))

    def test_grid_cell_converges_within_budget(self):
        """The desk phase-grid cell L=320, Q=160, K=M=18 recovers on all four
        seeds within 400 iterations; capped at 1/(2 ||A||^2 d) the step
        left every seed stopping on max_iters."""
        dims = Dimensions(L=320, Q=160, M=18, K=18, N=2)
        for seed in range(4):
            ens, truth, obs = make_instance(dims, seed=seed)
            est, trace = solve(ens, obs, SolverConfig(max_iters=400), truth=truth)
            assert trace.stop_reason == "rel_err", (seed, trace.stop_reason)
            assert relative_error(est, truth) < 1e-3

    def test_stall_stop(self, monkeypatch):
        """A descent that has not recovered stops on "stall" once f_tilde fell
        by at most _STALL_RTOL * f_init over the fixed 50-iteration window;
        with that tolerance infinite, the window alone decides."""
        monkeypatch.setattr(solver_module, "_STALL_RTOL", np.inf)
        ens, truth, obs = make_instance(Dimensions(L=320, Q=80, M=22, K=22, N=2), seed=0)
        _, trace = solve(ens, obs, SolverConfig(max_iters=400), truth=truth)
        assert (trace.stop_reason, trace.iterations) == ("stall", 50)

    def test_non_finite_start_objective_raises(self):
        ens, truth, obs = make_instance(EASY, seed=1)
        start = BlockFactorPair(1e100 * truth.channels, 1e100 * truth.coefficients)
        with np.errstate(all="ignore"), pytest.raises(NumericalFailureError):
            solve(ens, obs, SolverConfig(start=start), truth=truth)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e100, 1e150])
    def test_scale_equivariant(self, scale):
        """y * s takes the same path as y (TWO seed 5: 14 iterations to the
        rel_err stop) and returns sqrt(s) times its estimate and 1/s times
        its steps."""
        ens, truth, obs = make_instance(TWO, seed=5)
        ref, ref_trace = solve(ens, obs, SolverConfig(), truth=truth)
        root = np.sqrt(scale)
        est, trace = solve(ens, ObservationVector(scale * obs.samples), SolverConfig(),
                           truth=BlockFactorPair(root * truth.channels,
                                                 root * truth.coefficients))
        assert (ref_trace.iterations, ref_trace.stop_reason) == (14, "rel_err")
        assert (trace.iterations, trace.stop_reason) == (14, "rel_err")
        np.testing.assert_array_equal(trace.evals, ref_trace.evals)
        np.testing.assert_allclose(trace.eta, ref_trace.eta / scale, rtol=1e-9)
        for got, want in [(est.channels, ref.channels),
                          (est.coefficients, ref.coefficients)]:
            assert np.linalg.norm(got - root * want) <= 1e-12 * root * np.linalg.norm(want)
        np.testing.assert_allclose(trace.f_tilde, scale**2 * ref_trace.f_tilde, rtol=1e-9)
        np.testing.assert_allclose(trace.rel_err, ref_trace.rel_err, rtol=1e-9)

    def test_power_of_four_scale_is_exact(self):
        """Scaling y by a power of four is undone exactly: same path, bits
        and all."""
        ens, truth, obs = make_instance(TWO, seed=5)
        ref, ref_trace = solve(ens, obs, SolverConfig(), truth=truth)
        s, root = 4.0**-200, 2.0**-200
        est, trace = solve(ens, ObservationVector(s * obs.samples), SolverConfig(),
                           truth=BlockFactorPair(root * truth.channels,
                                                 root * truth.coefficients))
        np.testing.assert_array_equal(est.channels, root * ref.channels)
        np.testing.assert_array_equal(est.coefficients, root * ref.coefficients)
        np.testing.assert_array_equal(trace.rel_err, ref_trace.rel_err)
        np.testing.assert_array_equal(trace.f_tilde, s * s * ref_trace.f_tilde)

    def test_deterministic(self):
        ens, truth, obs = make_instance(TWO, seed=7)
        est1, tr1 = solve(ens, obs, SolverConfig(), truth=truth)
        est2, tr2 = solve(ens, obs, SolverConfig(), truth=truth)
        np.testing.assert_array_equal(est1.channels, est2.channels)
        np.testing.assert_array_equal(tr1.f_tilde, tr2.f_tilde)

    def test_solve_imports_no_scipy_linalg_or_sparse(self):
        """The step-size bound uses numpy.linalg only: importing scipy.linalg
        alone adds megabytes of resident memory to every solving process."""
        script = textwrap.dedent("""
            import sys
            from moddemix import SolverConfig, TrialSpec, solve, synthesize
            from moddemix.operators import Dimensions
            dims = Dimensions(L=16, Q=8, M=3, K=2, N=1)
            ens, truth, obs = synthesize(TrialSpec(dims, seed=0))
            solve(ens, obs, SolverConfig(), truth=truth)
            print(*(m for m in sys.modules if m.startswith(("scipy.linalg", "scipy.sparse"))))
            """)
        src = os.path.dirname(os.path.dirname(moddemix.__file__))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.split() == []
