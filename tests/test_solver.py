"""Tests for the spectral initializer, the incoherence projection and the
regularized Wirtinger descent loop."""

import dataclasses
import functools
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import moddemix
import moddemix.solver as solver_module
from conftest import make_instance, random_pair
from moddemix.instances import relative_error
from moddemix.objective import (
    DegenerateInputError,
    Evaluation,
    PenaltyParams,
    coherences,
    evaluate,
)
from moddemix.operators import (
    BlockFactorPair,
    Dimensions,
    ObservationVector,
    adjoint_component,
    dft_basis,
)
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


def _assert_rescaled(trace, ref, s, rtol):
    """trace is ref's solve on y * s: with r = s 4^-j, j the difference of
    their scale exponents, f_tilde is r^2 times ref's, grad_norm r^1.5 times
    and eta 1/r times, and rel_err is ref's."""
    r = math.ldexp(s, 2 * (ref.scale_exponent - trace.scale_exponent))
    np.testing.assert_allclose(trace.f_tilde, r**2 * ref.f_tilde, rtol=rtol)
    np.testing.assert_allclose(trace.grad_norm, r**1.5 * ref.grad_norm, rtol=rtol)
    np.testing.assert_allclose(trace.eta, ref.eta / r, rtol=rtol)
    np.testing.assert_allclose(trace.rel_err, ref.rel_err, rtol=rtol)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert [f.name for f in dataclasses.fields(cfg)] == ["max_iters"]

    @pytest.mark.parametrize("kwargs", [
        dict(max_iters=-1), dict(max_iters=0.5), dict(max_iters=0),
        dict(max_iters=3.5), dict(max_iters=True), dict(max_iters=np.float64(400.0)),
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
        with pytest.raises(DegenerateInputError):  # one zero matrix in a stack
            leading_singular_triple(np.stack([np.eye(3), np.zeros((3, 3))]))

    def test_stack_matches_each_matrix(self, rng):
        A = rng.standard_normal((3, 5, 4)) + 1j * rng.standard_normal((3, 5, 4))
        d, u, v = leading_singular_triple(A)
        assert d.shape == (3,) and u.shape == (3, 5) and v.shape == (3, 4)
        for n in range(3):
            dn, un, vn = leading_singular_triple(A[n])
            assert d[n] == pytest.approx(dn, rel=1e-12)
            np.testing.assert_allclose(np.outer(u[n], v[n].conj()),
                                       np.outer(un, vn.conj()), atol=1e-12)


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
    def test_optimality_against_perturbations(self, rng, monkeypatch):
        monkeypatch.setattr(solver_module, "_PROJECTION_TOL", 1e-12)
        monkeypatch.setattr(solver_module, "_PROJECTION_MAX_ITERS", 5000)
        basis = dft_basis(24, 7)
        g = 2.0 * (rng.standard_normal(7) + 1j * rng.standard_normal(7))
        z = project_incoherent(g, basis, bound=1.0)
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

    @pytest.mark.parametrize("dims", [
        Dimensions(L=32, Q=16, M=4, K=3, N=1),
        Dimensions(L=24, Q=16, M=5, K=8, N=2),   # K N = Q
        Dimensions(L=12, Q=12, M=12, K=4, N=3),  # M = L and K N = Q
    ], ids=str)
    def test_batched_start_matches_each_component(self, dims):
        """The start's d_n and rank-one blocks d_n u_n v_n^H, from one batched
        adjoint and one stacked SVD, are each component's own leading
        singular triple of A_n^*(y) to 1e-12 relative."""
        ens, _, obs = make_instance(dims, seed=4, snr_db=20.0)
        init = solver_module._spectral_start(ens, obs)
        for n in range(dims.N):
            d, u, v = leading_singular_triple(adjoint_component(ens, n, obs.samples))
            assert init.d_n[n] == pytest.approx(d, rel=1e-12)
            block = d * np.outer(u, v.conj())
            assert np.linalg.norm(init.start.lifted_block(n) - block) \
                <= 1e-12 * np.linalg.norm(block)


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

    def test_output_normalized(self):
        ens, truth, obs = make_instance(TWO, seed=2)
        est, _ = solve(ens, obs, SolverConfig(), truth=truth)
        h_norms = np.linalg.norm(est.channels, axis=1)
        x_norms = np.linalg.norm(est.coefficients, axis=1)
        np.testing.assert_allclose(h_norms, x_norms, rtol=1e-10)
        for n in range(TWO.N):
            lead = est.channels[n][np.nonzero(est.channels[n])[0][0]]
            assert abs(lead.imag) < 1e-10 * abs(lead)

    @pytest.mark.parametrize("dims,seed,iterations", [(TWO, 2, 10), (EASY, 1, 5)])
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
        assert (trace.iterations, trace.stop_reason) == (10, "rel_err")
        assert len(grad_points) == 1 and grad_points[0][0] is points[0][0]
        assert len(points) + len(grad_points) == trace.evals.sum()
        assert len(points) == 1 + len(steps) and len(steps) >= trace.iterations
        assert [g for _, g in points] == [False] + [True] * len(steps)
        stacked = [np.concatenate([z.channels.ravel(), z.coefficients.ravel()])
                   for z, _ in points]
        assert len({a.tobytes() for a in stacked}) == len(points)

    @pytest.mark.parametrize("dims", [EASY, TWO, Dimensions(L=48, Q=24, M=5, K=3, N=3)],
                             ids=str)
    def test_one_svd_per_solve(self, dims, monkeypatch):
        """The spectral start decomposes all N blocks in one stacked call."""
        calls = []
        triple = solver_module.leading_singular_triple
        monkeypatch.setattr(solver_module, "leading_singular_triple",
                            lambda A: calls.append(np.shape(A)) or triple(A))
        ens, _, obs = make_instance(dims, seed=1)
        solve(ens, obs, SolverConfig(max_iters=3))
        assert calls == [(dims.N, dims.M, dims.K)]

    @pytest.mark.filterwarnings("error")
    def test_normalize_output_keeps_zero_components(self, rng):
        """A component with an all-zero channel row, or coefficient row, is left
        as it is, with no warning; the others are balanced and phase-fixed,
        and every block h_n x_n^H is kept."""
        dims = Dimensions(L=16, Q=12, M=3, K=4, N=3)
        z = random_pair(dims, rng)
        z.channels[1] = 0.0
        z.coefficients[2] = 0.0
        out = solver_module._normalize_output(z)
        for n in (1, 2):
            np.testing.assert_array_equal(out.channels[n], z.channels[n])
            np.testing.assert_array_equal(out.coefficients[n], z.coefficients[n])
        assert np.linalg.norm(out.channels[0]) == pytest.approx(
            np.linalg.norm(out.coefficients[0]), rel=1e-12)
        lead = out.channels[0][0]
        assert lead.real > 0 and abs(lead.imag) <= 1e-12 * lead.real
        for n in range(dims.N):
            block = z.lifted_block(n)
            assert np.linalg.norm(out.lifted_block(n) - block) <= 1e-12 * np.linalg.norm(block)

    def test_evaluations_per_iteration(self):
        """Desk seeds 0-3 take 54 evaluations over 44 iterations (row 0's two
        included); starting each search at 2 eta or eta they took 76 over 50."""
        evals = iterations = 0
        for seed in range(4):
            ens, truth, obs = make_instance(DESK, seed=seed)
            _, trace = solve(ens, obs, SolverConfig(), truth=truth)
            evals += trace.evals.sum()
            iterations += trace.iterations
        assert evals / iterations < 1.25

    @pytest.mark.parametrize("dims,seed,snr_db,max_iters",
                             [(TWO, 2, None, 5000), (EASY, 1, None, 5000),
                              (TWO, 3, 20.0, 30)])
    def test_trace_error_is_relative_error(self, dims, seed, snr_db, max_iters):
        """The trace's error, against the truth prepared once per solve,
        matches the public relative_error of the normalized estimate."""
        ens, truth, obs = make_instance(dims, seed=seed, snr_db=snr_db)
        est, trace = solve(ens, obs, SolverConfig(max_iters=max_iters), truth=truth)
        assert abs(trace.rel_err[-1] - relative_error(est, truth)) <= 1e-12

    def test_search_starts_at_the_rounded_bb_step(self, monkeypatch):
        """TWO seed 2: the first search starts at 2 eta0, eta0 = 1/(2 N M d);
        every later one at the Barzilai-Borwein step Re<s, y> / ||y||^2
        (s = -eta g, y the change in the gradient) rounded to the nearest
        eta0 2^k.  A search's start is read back from the trace as
        eta * 2^(evals - 1)."""
        searches = []
        backtrack = solver_module._backtrack

        def spy(ens, z, y_hat, p, g, gn_sq, cur, eta):
            out = backtrack(ens, z, y_hat, p, g, gn_sq, cur, eta)
            searches.append((g, eta, out[2]))
            return out

        monkeypatch.setattr(solver_module, "_backtrack", spy)
        ens, truth, obs = make_instance(TWO, seed=2)
        rep = coherences(ens, truth)
        d = float(np.linalg.norm(initialize(ens, obs, rep.mu, rep.nu).d_n))
        eta0 = 1.0 / (2.0 * TWO.N * TWO.M * d)
        _, trace = solve(ens, obs, SolverConfig(), truth=truth)
        starts = trace.eta[1:] * 2.0 ** (trace.evals[1:] - 1)
        k = np.log2(starts / eta0)
        np.testing.assert_allclose(k, np.round(k), atol=1e-9)
        assert np.round(k[0]) == 1 and np.max(k) > 1
        # the same searches at the solve's own scale
        eta0 = searches[0][1] / 2.0
        for (g, _, eta), (g_new, start, _) in zip(searches, searches[1:]):
            y = np.concatenate([(g_new.channels - g.channels).ravel(),
                                (g_new.coefficients - g.coefficients).ravel()])
            s = -eta * np.concatenate([g.channels.ravel(), g.coefficients.ravel()])
            bb = np.vdot(s, y).real / np.vdot(y, y).real
            assert bb > 0.0
            assert np.log2(start / eta0) == np.round(np.log2(start / eta0))
            assert abs(np.log2(start / bb)) <= 0.5 + 1e-12

    def test_search_start_fallback(self, rng):
        """Where Re<s, y> <= 0 or y = 0 the next search starts at 2 eta after
        a first-trial accept and at eta after a halving."""
        g = random_pair(TWO, rng)
        for g_new in (g, BlockFactorPair(2.0 * g.channels, 2.0 * g.coefficients)):
            assert solver_module._next_start(g, g_new, 0.25, 1, 1e-3) == 0.5
            assert solver_module._next_start(g, g_new, 0.25, 3, 1e-3) == 0.25

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

    def test_non_finite_start_objective_raises(self, monkeypatch):
        """A non-finite objective at the spectral start raises
        NumericalFailureError before any step."""
        ens, truth, obs = make_instance(EASY, seed=1)
        monkeypatch.setattr(solver_module, "evaluate",
                            lambda *args, **kwargs: Evaluation(np.inf, 0.0))
        with pytest.raises(NumericalFailureError, match="start point"):
            solve(ens, obs, SolverConfig(), truth=truth)

    def test_no_decrease_stop(self, monkeypatch):
        """When every step trial is non-finite, the search halves from 2 eta0
        down to _MIN_ETA and gives up: TWO seed 5 stops on "no_decrease" at
        iteration 1, with eta 0, 63 trials and the start's rel_err."""
        ens, truth, obs = make_instance(TWO, seed=5)
        real = solver_module.evaluate

        def steps_fail(*args, grad=False):
            return Evaluation(np.inf, 0.0) if grad else real(*args)

        monkeypatch.setattr(solver_module, "evaluate", steps_fail)
        _, trace = solve(ens, obs, SolverConfig(), truth=truth)
        assert (trace.stop_reason, trace.iterations) == ("no_decrease", 1)
        assert (trace.eta[-1], trace.evals[-1]) == (0.0, 63)
        assert trace.rel_err[-1] == trace.rel_err[0]

    def test_zero_observation_raises(self):
        """y = 0 has scale exponent 0 and no spectral start."""
        ens, truth, _ = make_instance(TWO, seed=5)
        with pytest.raises(DegenerateInputError, match="zero observation"):
            solve(ens, ObservationVector(np.zeros(TWO.L)), SolverConfig(), truth=truth)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e100, 1e150])
    def test_scale_equivariant(self, scale):
        """y * s takes the same path as y (TWO seed 5: 11 iterations to the
        rel_err stop) and returns sqrt(s) times its estimate.  Its trace is
        at its own scale: with r = s 4^-j, f_tilde is r^2 times y's, grad_norm
        r^1.5 times and eta 1/r times."""
        ens, truth, obs = make_instance(TWO, seed=5)
        ref, ref_trace = solve(ens, obs, SolverConfig(), truth=truth)
        root = np.sqrt(scale)
        est, trace = solve(ens, ObservationVector(scale * obs.samples), SolverConfig(),
                           truth=BlockFactorPair(root * truth.channels,
                                                 root * truth.coefficients))
        assert (ref_trace.iterations, ref_trace.stop_reason) == (11, "rel_err")
        assert (trace.iterations, trace.stop_reason) == (11, "rel_err")
        np.testing.assert_array_equal(trace.evals, ref_trace.evals)
        for got, want in [(est.channels, ref.channels),
                          (est.coefficients, ref.coefficients)]:
            assert np.linalg.norm(got - root * want) <= 1e-12 * root * np.linalg.norm(want)
        _assert_rescaled(trace, ref_trace, scale, rtol=1e-9)

    def test_power_of_four_scale_is_exact(self):
        """Scaling y by a power of four is undone exactly: same path, bits
        and all, and the same trace with scale_exponent shifted."""
        ens, truth, obs = make_instance(TWO, seed=5)
        ref, ref_trace = solve(ens, obs, SolverConfig(), truth=truth)
        s, root = 4.0**-200, 2.0**-200
        est, trace = solve(ens, ObservationVector(s * obs.samples), SolverConfig(),
                           truth=BlockFactorPair(root * truth.channels,
                                                 root * truth.coefficients))
        np.testing.assert_array_equal(est.channels, root * ref.channels)
        np.testing.assert_array_equal(est.coefficients, root * ref.coefficients)
        assert trace.scale_exponent == ref_trace.scale_exponent - 200
        for name in ("t", "f", "g", "rel_err", "grad_norm", "eta", "evals"):
            np.testing.assert_array_equal(getattr(trace, name), getattr(ref_trace, name))

    @pytest.mark.filterwarnings("error")
    def test_subnormal_peak_takes_the_same_path(self):
        """y * 1e-310 has a subnormal peak and takes the same path as y, with
        no warning: its steps, 1e310 times y's, stay at the solve's scale."""
        ens, truth, obs = make_instance(TWO, seed=5)
        ref, ref_trace = solve(ens, obs, SolverConfig(), truth=truth)
        scale = 1e-310
        root = np.sqrt(scale)
        assert np.max(np.abs(scale * obs.samples)) < np.finfo(float).tiny
        est, trace = solve(ens, ObservationVector(scale * obs.samples), SolverConfig(),
                           truth=BlockFactorPair(root * truth.channels,
                                                 root * truth.coefficients))
        assert (trace.iterations, trace.stop_reason) == (ref_trace.iterations, "rel_err")
        np.testing.assert_array_equal(trace.evals, ref_trace.evals)
        _assert_rescaled(trace, ref_trace, scale, rtol=1e-9)
        for got, want in [(est.channels, ref.channels),
                          (est.coefficients, ref.coefficients)]:
            assert np.linalg.norm(got - root * want) <= 1e-9 * root * np.linalg.norm(want)

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


@functools.cache
def _two_seed5():
    """TWO seed 5 and its solve's trace at s = 1."""
    ens, truth, obs = make_instance(TWO, seed=5)
    return ens, truth, obs, solve(ens, obs, SolverConfig(), truth=truth)[1]


class TestScaleProperty:
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(e=st.floats(min_value=-320.0, max_value=300.0))
    @example(e=-320.0)
    @example(e=-310.0)
    @example(e=250.0)
    @example(e=300.0)
    def test_any_scale(self, e):
        """y * 10^e, e in [-320, 300], raises no warning and gives a finite
        trace (grad_norm from row 1).  Down to e = -300, where y * s is
        still normal, it takes y's path and its trace follows the r-powers
        of `_assert_rescaled`; below, y * s is subnormal and loses bits.
        About 1 s: 200 solves of 2.5 ms, plus hypothesis' own time."""
        ens, truth, obs, ref = _two_seed5()
        s = 10.0**e
        root = math.sqrt(s)
        _, trace = solve(ens, ObservationVector(s * obs.samples), SolverConfig(),
                         truth=BlockFactorPair(root * truth.channels,
                                               root * truth.coefficients))
        for col in (trace.f_tilde, trace.f, trace.g, trace.rel_err, trace.eta,
                    trace.grad_norm[1:]):
            assert np.all(np.isfinite(col))
        if e >= -300.0:
            assert (trace.iterations, trace.stop_reason) == (ref.iterations, ref.stop_reason)
            np.testing.assert_array_equal(trace.evals, ref.evals)
            _assert_rescaled(trace, ref, s, rtol=1e-9)
