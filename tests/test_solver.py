"""Tests for the spectral initializer, its rescale into the incoherent set and
the regularized Wirtinger descent loop."""

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
from moddemix import objective
from moddemix.harness import SUCCESS_THRESHOLD, SweepGrid, TrialSpec, _derive_seed
from moddemix.instances import relative_error, synthesize
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
    component_spectra,
    dft_basis,
)
from moddemix.solver import (
    NumericalFailureError,
    SolverConfig,
    initialize,
    leading_singular_triple,
    solve,
)

EASY = Dimensions(L=64, Q=64, M=3, K=3, N=1)
TWO = Dimensions(L=128, Q=128, M=4, K=4, N=2)
DESK = Dimensions(L=320, Q=320, M=8, K=8, N=2)
PAPER = Dimensions(L=3200, Q=3200, M=12, K=12, N=2)


def _assert_rescaled(trace, ref, s, rtol):
    """trace is ref's solve on y * s: with r = s 4^-j, j the difference of
    their scale exponents, f_tilde is r^2 times ref's, grad_norm r^1.5 times
    and eta 1/r times, and rel_err and err_est are ref's."""
    r = math.ldexp(s, 2 * (ref.scale_exponent - trace.scale_exponent))
    np.testing.assert_allclose(trace.f_tilde, r**2 * ref.f_tilde, rtol=rtol)
    np.testing.assert_allclose(trace.grad_norm, r**1.5 * ref.grad_norm, rtol=rtol)
    np.testing.assert_allclose(trace.eta, ref.eta / r, rtol=rtol)
    np.testing.assert_allclose(trace.rel_err, ref.rel_err, rtol=rtol)
    np.testing.assert_allclose(trace.err_est, ref.err_est, rtol=rtol)


def _assert_recovered(est, trace, truth, obs):
    """What the residual stop guarantees: the last row is the first whose
    err_est is below `_ERROR_TOL`; that err_est is r_T / sqrt(1 - q), r =
    sqrt(f) / ||y|| (both at the solve's scale) and q = (r_T / r_{T-w})^(1/w)
    over w = min(`_WINDOW`, T) rows; and the estimate is a success."""
    assert trace.stop_reason == "residual"
    norm = np.ldexp(np.linalg.norm(obs.samples), -2 * trace.scale_exponent)
    r = np.sqrt(trace.f) / norm
    t = trace.iterations
    w = min(solver_module._WINDOW, t)
    q = (r[t] / r[t - w]) ** (1.0 / w)
    assert trace.err_est[t] == pytest.approx(r[t] / math.sqrt(1.0 - q), rel=1e-12)
    assert trace.err_est[t] < solver_module._ERROR_TOL
    assert not np.any(trace.err_est[:t] < solver_module._ERROR_TOL)
    assert relative_error(est, truth) < SUCCESS_THRESHOLD


def _assert_truth_only_scores(dims, seed, snr_db, max_iters):
    """A blind solve of the samples alone returns the truth-scored solve's
    estimate, stop reason and trace bit for bit, but for the rel_err column
    (NaN without the truth)."""
    ens, truth, obs = make_instance(dims, seed=seed, snr_db=snr_db)
    ref, ref_trace = solve(ens, obs, SolverConfig(max_iters=max_iters), truth=truth)
    est, trace = solve(ens, ObservationVector(obs.samples), SolverConfig(max_iters=max_iters))
    np.testing.assert_array_equal(est.channels, ref.channels)
    np.testing.assert_array_equal(est.coefficients, ref.coefficients)
    for name in ("stop_reason", "iterations", "scale_exponent"):
        assert getattr(trace, name) == getattr(ref_trace, name)
    for name in ("f", "g", "err_est", "grad_norm", "eta", "evals"):
        np.testing.assert_array_equal(getattr(trace, name), getattr(ref_trace, name))
    assert np.all(np.isfinite(ref_trace.rel_err)) and np.all(np.isnan(trace.rel_err))


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

    def test_frozen(self):
        """A checked config cannot be changed into an unchecked one."""
        cfg = SolverConfig(max_iters=10)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.max_iters = -3
        assert cfg.max_iters == 10


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
    @pytest.mark.parametrize("scale,factor", [
        (1e-150, 1.0), (1e-100, 1.0), (1e100, 1.0), (1e150, 1.0), (1e150, 0.3),
    ], ids=["1e-150", "1e-100", "1e+100", "1e+150", "1e+150-binding"])
    def test_scale_equivariant(self, scale, factor):
        """The model is homogeneous: scaling y by s scales d_n by s and the
        start by sqrt(s), without warnings, overflow or underflow, also where
        factor times the truth's mu, nu binds every factor (at 0.3 here)."""
        ens, truth, obs = make_instance(TWO, seed=5)
        rep = coherences(ens, truth)
        mu, nu = factor * rep.mu, factor * rep.nu
        ref = initialize(ens, obs, mu, nu)
        init = initialize(ens, ObservationVector(scale * obs.samples), mu, nu)
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

    def test_nan_bounds_raise(self):
        """A mu or nu that is NaN, infinite, zero or negative is a ValueError,
        set on either bound alone: no bound / attained is formed from it."""
        ens, _, obs = make_instance(TWO, seed=5)
        for bad in (np.nan, np.inf, -np.inf, 0.0, -1.0):
            for mu, nu in ((bad, 1.0), (1.0, bad)):
                with pytest.raises(ValueError, match="bound must be positive"):
                    initialize(ens, obs, mu, nu)

    def test_idle_bound_leaves_the_start_bit_for_bit(self):
        """At criterion 9's mu, nu (the truth's coherences; L=Q=320, M=K=8,
        N=2, seed 0) no bound binds, and the start is the spectral start's
        bits."""
        ens, truth, obs = make_instance(DESK, seed=0)
        rep = coherences(ens, truth)
        ref = solver_module._spectral_start(ens, obs, BlockFactorPair)
        init = initialize(ens, obs, rep.mu, rep.nu)
        np.testing.assert_array_equal(init.d_n, ref.d_n)
        np.testing.assert_array_equal(init.start.channels, ref.start.channels)
        np.testing.assert_array_equal(init.start.coefficients, ref.start.coefficients)

    def test_binding_bound_rescales(self):
        """At 0.3 times criterion 9's mu, nu every bound binds: each factor is
        the spectral start's times bound / attained, with attained
        sqrt(rows) ||basis z||_inf, and the start is feasible to 1e-12."""
        ens, truth, obs = make_instance(DESK, seed=0)
        rep = coherences(ens, truth)
        mu, nu = 0.3 * rep.mu, 0.3 * rep.nu
        ref = solver_module._spectral_start(ens, obs, BlockFactorPair)
        init = initialize(ens, obs, mu, nu)
        d = ens.dims
        for n, root in enumerate(np.sqrt(init.d_n)):
            for got, start, basis, bound in (
                    (init.start.channels[n], ref.start.channels[n], dft_basis(d.L, d.M),
                     2 * root * mu),
                    (init.start.coefficients[n], ref.start.coefficients[n], ens.coding[n],
                     2 * root * nu)):
                sqrt_rows = np.sqrt(basis.shape[0])
                attained = sqrt_rows * np.max(np.abs(basis @ start))
                assert attained > bound
                np.testing.assert_allclose(got, start * (bound / attained), rtol=1e-12)
                assert sqrt_rows * np.max(np.abs(basis @ got)) <= bound * (1 + 1e-12)

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
        _assert_recovered(est, trace, truth, obs)

    def test_recovers_two_components(self):
        ens, truth, obs = make_instance(TWO, seed=2)
        est, trace = solve(ens, obs, SolverConfig(), truth=truth)
        _assert_recovered(est, trace, truth, obs)

    @pytest.mark.parametrize("samples", [np.zeros(0), np.ones(63), np.ones((64, 1))],
                             ids=["empty", "short", "2-D"])
    def test_observation_of_wrong_shape_rejected(self, samples):
        """The spectral start's one shape check names the samples' shape,
        an empty observation included."""
        ens, _, _ = make_instance(EASY, seed=1)
        with pytest.raises(ValueError, match=r"samples shape .* != \(64,\)"):
            solve(ens, ObservationVector(samples))

    @pytest.mark.parametrize("part", ["channels", "coefficients"])
    def test_mis_shaped_truth_fails_before_any_work(self, part, monkeypatch):
        """A truth with one tap or coefficient too few is a ValueError naming
        it before the spectral start: no objective is evaluated."""
        calls = _count_objective(monkeypatch)
        ens, truth, obs = make_instance(DESK, seed=1)
        cut = dataclasses.replace(truth, **{part: getattr(truth, part)[:, :7]})
        with pytest.raises(ValueError, match=rf"{part} shape \(2, 7\) != \(2, 8\)"):
            solve(ens, obs, truth=cut)
        assert calls == []

    def test_monotone_objective_backtracking(self):
        ens, truth, obs = make_instance(TWO, seed=3, snr_db=20.0)
        _, trace = solve(ens, obs, SolverConfig(max_iters=300), truth=truth)
        diffs = np.diff(trace.f_tilde)
        assert np.all(diffs <= 1e-12 * max(1.0, trace.f_tilde[0]))

    def test_trace_rows_consistent(self):
        ens, truth, obs = make_instance(EASY, seed=4)
        _, trace = solve(ens, obs, SolverConfig(), truth=truth)
        assert trace.t.dtype.kind == "i"
        np.testing.assert_array_equal(trace.t, np.arange(trace.iterations + 1))
        assert len(trace.t) == len(trace.f_tilde) == len(trace.rel_err) == len(trace.err_est)
        np.testing.assert_allclose(trace.f_tilde, trace.f + trace.g, atol=1e-12)
        assert trace.evals[0] == 2  # the start value and its gradient
        assert np.isnan(trace.err_est[0]) and np.all(trace.err_est[1:] > 0.0)

    def test_non_finite_trial_is_rejected(self, monkeypatch):
        """A search trial whose point overflows fails the Armijo test and is
        halved like any other: here the search starts at 1e308 in place of
        the quartic's minimiser."""
        ens, truth, obs = make_instance(EASY, seed=1)
        obs = ObservationVector(1e12 * obs.samples)  # gradient entries near 1e16
        rep = coherences(ens, truth)
        init = initialize(ens, obs, rep.mu, rep.nu)
        d = float(np.linalg.norm(init.d_n))
        p = PenaltyParams(rho=d**2, d=d, d_n=init.d_n, mu=rep.mu, nu=rep.nu)
        z = init.start
        cur = evaluate(ens, z, obs, p, grad=True)
        D = BlockFactorPair(-cur.grad.channels, -cur.grad.coefficients)
        slope = -float(np.linalg.norm(D.channels) ** 2 + np.linalg.norm(D.coefficients) ** 2)
        monkeypatch.setattr(solver_module, "_quartic_min", lambda *c: 1e308)
        with np.errstate(all="ignore"):
            assert not np.all(np.isfinite(z.channels + 1e308 * D.channels))
            new, ev, t, trials = solver_module._search(ens, p, z, cur, D, slope)
        assert 0.0 < t < 1e308 and trials > 1
        assert np.isfinite(ev.f_tilde) and ev.f_tilde < cur.f_tilde
        assert np.all(np.isfinite(new.channels)) and np.all(np.isfinite(new.coefficients))

    @pytest.mark.parametrize("dims,seed", [(EASY, 1), (TWO, 2)])
    def test_blind_recovery(self, dims, seed):
        """Without truth and with the default config the descent recovers
        the factors and stops on the residual."""
        ens, truth, obs = make_instance(dims, seed=seed)
        est, trace = solve(ens, obs)
        assert np.all(np.isnan(trace.rel_err))
        _assert_recovered(est, trace, truth, obs)

    @pytest.mark.parametrize("dims,seed,snr_db,max_iters", [
        *[(dims, seed, None, 5000) for dims in (EASY, TWO, DESK) for seed in range(3)],
        (TWO, 3, 20.0, 100),
    ])
    def test_truth_only_scores(self, dims, seed, snr_db, max_iters):
        """The truth and the noise change no iterate (see `_assert_truth_only_scores`)."""
        _assert_truth_only_scores(dims, seed, snr_db, max_iters)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(dims=st.sampled_from([EASY, TWO]), seed=st.integers(0, 2**32),
           snr_db=st.sampled_from([None, 20.0]), max_iters=st.integers(1, 400))
    def test_truth_only_scores_any_instance(self, dims, seed, snr_db, max_iters):
        """As `test_truth_only_scores`, over seeds, budgets and both noise
        levels.  About 0.5 s: 40 pairs of solves."""
        _assert_truth_only_scores(dims, seed, snr_db, max_iters)

    def test_truthful_solve_scores_once(self, monkeypatch):
        """At DESK, a solve given the truth scores its whole trace after the
        descent, in one call of the scorer, whatever its row count; a blind
        solve makes no call."""
        calls = []
        real = solver_module.relative_errors

        def counted(h, x, truth):
            calls.append(len(h))
            return real(h, x, truth)

        monkeypatch.setattr(solver_module, "relative_errors", counted)
        ens, truth, obs = make_instance(DESK)
        _, trace = solve(ens, obs, truth=truth)
        assert trace.iterations > 1 and calls == [trace.iterations + 1]
        solve(ens, obs)
        assert len(calls) == 1

    def test_truth_overflowing_at_the_descent_scale_is_rejected(self, monkeypatch):
        """The truth's copy at the descent's scale is checked before any
        work: a finite truth whose channels are 1e160 times too large for
        y * 1e-300 overflows there, and one a caller wrote a NaN into after
        checking is not finite either.  No objective is evaluated."""
        calls = _count_objective(monkeypatch)
        ens, truth, obs = make_instance(TWO, seed=5)
        tiny = ObservationVector(1e-300 * obs.samples)
        huge = BlockFactorPair(1e160 * truth.channels, truth.coefficients)
        nan = BlockFactorPair(truth.channels, truth.coefficients)
        nan.channels[0, 0] = np.nan
        for y, bad in ((tiny, huge), (obs, nan)):
            with (np.errstate(over="ignore"),
                  pytest.raises(ValueError, match="non-finite entries in factor pair")):
                solve(ens, y, SolverConfig(), truth=bad)
        assert calls == []

    def test_scale_back_is_folded_into_the_output(self, rng):
        """`_normalize_output` scales by a power of two in its last multiply:
        the values of 2^k times the unscaled output, for k = +-500; a
        non-finite estimate is a ValueError."""
        z = random_pair(TWO, rng)
        ref = solver_module._normalize_output(z)
        for k in (500, -500):
            out = solver_module._normalize_output(z, 2.0**k)
            np.testing.assert_array_equal(out.channels, 2.0**k * ref.channels)
            np.testing.assert_array_equal(out.coefficients, 2.0**k * ref.coefficients)
        z.coefficients[1, 0] = np.inf
        with (np.errstate(invalid="ignore"),
              pytest.raises(ValueError, match="non-finite entries in factor pair")):
            solver_module._normalize_output(z)

    def test_output_normalized(self):
        ens, truth, obs = make_instance(TWO, seed=2)
        est, _ = solve(ens, obs, SolverConfig(), truth=truth)
        h_norms = np.linalg.norm(est.channels, axis=1)
        x_norms = np.linalg.norm(est.coefficients, axis=1)
        np.testing.assert_allclose(h_norms, x_norms, rtol=1e-10)
        for n in range(TWO.N):
            lead = est.channels[n][np.nonzero(est.channels[n])[0][0]]
            assert abs(lead.imag) < 1e-10 * abs(lead)

    @pytest.mark.parametrize("dims,seed,iterations", [(TWO, 2, 6), (EASY, 1, 3)])
    def test_pinned_iteration_count(self, dims, seed, iterations):
        """Step acceptance and stopping are part of the contract: the same
        seeded solves take the same number of iterations."""
        ens, truth, obs = make_instance(dims, seed=seed)
        _, trace = solve(ens, obs, SolverConfig(), truth=truth)
        assert (trace.iterations, trace.stop_reason) == (iterations, "residual")

    def test_one_evaluation_per_step_trial(self, monkeypatch):
        """The start's spectra are formed once, for its coherences and its
        value (`_kernel`), and `grad_total` evaluates it again with its
        gradient; every other value is a search trial's, and no trial forms
        a gradient.  The descent forms each later gradient (`_gradient`) at
        an accepted point from that trial's own value, once per row it goes
        on from, so no point's value is formed twice.  Each search forms
        only its direction's spectra: one spectra product per search, none
        per trial."""
        formed, values, grad_points, gradients, spectra = [], [], [], [], []

        def spy(fn, seen):
            def wrapper(*args, **kwargs):
                seen.append((args, out := fn(*args, **kwargs)))
                return out
            return wrapper

        for name, seen in (("_formed", formed), ("_kernel", values), ("grad_total", grad_points),
                           ("_gradient", gradients), ("component_spectra", spectra)):
            monkeypatch.setattr(solver_module, name, spy(getattr(solver_module, name), seen))
        ens, truth, obs = make_instance(TWO, seed=2)
        _, trace = solve(ens, obs, SolverConfig(), truth=truth)
        assert (trace.iterations, trace.stop_reason) == (6, "residual")
        assert len(formed) == len(grad_points) == 1 and not np.any(trace.eta[1:] == 0.0)
        start = values[0][0]
        assert start[1] is formed[0][0][1] is grad_points[0][0][1]
        assert all(a is b for a, b in zip(start[3:], formed[0][1]))
        assert len(values) + len(grad_points) == trace.evals.sum()
        assert len(values) > trace.iterations and len(gradients) == trace.iterations - 1
        accepted = {id(ev): args[1] for args, ev in values[1:]}
        for (_, z, _, ev), _ in gradients:  # each at an accepted trial, from its own value
            assert accepted[id(ev)] is z and ev.grad is None
        assert len(spectra) == trace.iterations
        stacked = [np.concatenate([args[1].channels.ravel(), args[1].coefficients.ravel()])
                   for args, _ in values]
        assert len({a.tobytes() for a in stacked}) == len(stacked)

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
        """The exact-step searches of desk seeds 0-3 make 24 evaluations over
        24 iterations (32 with row 0's two); the former Barzilai-Borwein
        starts made 40 over 38, and starting each search at 2 eta or eta 62
        over 45."""
        evals = iterations = 0
        for seed in range(4):
            ens, truth, obs = make_instance(DESK, seed=seed)
            _, trace = solve(ens, obs, SolverConfig(), truth=truth)
            evals += trace.evals[1:].sum()
            iterations += trace.iterations
        assert evals / iterations < 1.1

    @pytest.mark.parametrize("dims,seed,snr_db,max_iters",
                             [(TWO, 2, None, 5000), (EASY, 1, None, 5000),
                              (TWO, 3, 20.0, 30), (PAPER, 0, None, 5000),
                              (PAPER, 0, 10.0, 5000)])
    def test_trace_error_is_relative_error(self, dims, seed, snr_db, max_iters):
        """The trace's error, against the truth prepared once per solve,
        matches the public relative_error of the normalized estimate; at
        paper scale the rows are scored in complex128 too."""
        ens, truth, obs = make_instance(dims, seed=seed, snr_db=snr_db)
        est, trace = solve(ens, obs, SolverConfig(max_iters=max_iters), truth=truth)
        assert abs(trace.rel_err[-1] - relative_error(est, truth)) <= 1e-12

    def test_search_start_fallback(self, monkeypatch):
        """Where the quartic's derivative has no positive root, where c4 is
        not positive, or where a coefficient of its monic cubic overflows,
        `_quartic_min` gives 0, and the search starts at eta0 instead."""
        for c in ((1.0, 1.0, 0.0, 1.0), (1.0, 0.5, 0.5, 2.0), (-1.0, 1.0, 0.0, 0.0),
                  (0.0, 0.0, 0.0, 0.0), (-1.0, np.nan, 0.0, 1.0), (-1.0, 1.0, 1e300, 1e-300)):
            assert solver_module._quartic_min(*c) == 0.0
        ens, obs, p, z, cur, D, slope = _desk_search_point()
        monkeypatch.setattr(solver_module, "_quartic_min", lambda *c: 0.0)
        _, _, t, trials = solver_module._search(ens, p, z, cur, D, slope)
        assert (t, trials) == (1.0 / (2.0 * DESK.N * DESK.M * p.d), 1)

    def test_grid_cell_converges_within_budget(self):
        """The desk phase-grid cell L=320, Q=160, K=M=18 recovers on all four
        seeds within 400 iterations; capped at 1/(2 ||A||^2 d) the step
        left every seed stopping on max_iters."""
        dims = Dimensions(L=320, Q=160, M=18, K=18, N=2)
        for seed in range(4):
            ens, truth, obs = make_instance(dims, seed=seed)
            est, trace = solve(ens, obs, SolverConfig(max_iters=400))
            _assert_recovered(est, trace, truth, obs)

    def test_non_finite_start_objective_raises(self, monkeypatch):
        """A non-finite objective at the spectral start raises
        NumericalFailureError before any step."""
        ens, truth, obs = make_instance(EASY, seed=1)
        _rebind_values(monkeypatch, start=lambda ev: Evaluation(np.inf, 0.0))
        with pytest.raises(NumericalFailureError, match="start point"):
            solve(ens, obs, SolverConfig(), truth=truth)

    def test_no_decrease_stop(self, monkeypatch):
        """When every search trial is non-finite, the search halves from the
        quartic's minimiser t* down to _MIN_ETA and gives up, after one trial
        per halving above it: TWO seed 5 stops on "no_decrease" at iteration
        1, with eta 0, 66 trials and the start's rel_err.  Its first search
        steps along -g, so no other direction is left to try."""
        ens, truth, obs = make_instance(TWO, seed=5)
        starts, quartic_min = [], solver_module._quartic_min
        monkeypatch.setattr(solver_module, "_quartic_min",
                            lambda *c: starts.append(quartic_min(*c)) or starts[-1])
        _rebind_values(monkeypatch, trials=lambda ev: Evaluation(np.inf, 0.0))
        _, trace = solve(ens, obs, SolverConfig(), truth=truth)
        assert (trace.stop_reason, trace.iterations) == ("no_decrease", 1)
        assert (trace.eta[-1], trace.evals[-1]) == (0.0, 66)
        assert trace.evals[-1] == 1 + math.floor(math.log2(starts[0] / solver_module._MIN_ETA))
        assert trace.rel_err[-1] == trace.rel_err[0]

    @pytest.mark.filterwarnings("error")
    def test_zero_residual_stops_on_any_row(self, monkeypatch):
        """f = 0 stops the descent at once, with err_est 0 and no 0/0: at the
        start, which has no window, and at row 1, whose window is one row."""
        ens, _, obs = make_instance(TWO, seed=5)

        def zero(ev):
            return dataclasses.replace(ev, f=0.0)

        for row, where in ((0, dict(start=zero)), (1, dict(trials=zero))):
            _rebind_values(monkeypatch, **where)
            _, trace = solve(ens, obs, SolverConfig())
            monkeypatch.undo()
            assert (trace.stop_reason, trace.iterations) == ("residual", row)
            assert trace.err_est[row] == 0.0

    def test_start_cannot_stop_on_a_small_residual(self, monkeypatch):
        """Row 0 has no window, so only f = 0 stops it: a start whose f is
        1e-30 of its own (err_est far below `_ERROR_TOL`, had it one) takes a
        step search, which finds no decrease from so low a value."""
        ens, _, obs = make_instance(TWO, seed=5)
        _rebind_values(monkeypatch, start=lambda ev: dataclasses.replace(ev, f=1e-30 * ev.f))
        _, trace = solve(ens, obs, SolverConfig())
        assert (trace.stop_reason, trace.iterations) == ("no_decrease", 1)
        assert np.isnan(trace.err_est[0]) and trace.err_est[1] == np.inf

    @pytest.mark.parametrize("dims,seed", [(EASY, 1), (TWO, 2), (TWO, 5), (DESK, 0), (DESK, 3)])
    def test_stop_is_scale_free(self, dims, seed):
        """err_est is a ratio of residuals at the solve's scale, so y * 4^k
        takes y's path bit for bit and y * 3 stops after as many iterations,
        for the same reason, with err_est equal to rounding."""
        ens, _, obs = make_instance(dims, seed=seed)
        _, ref = solve(ens, obs, SolverConfig())
        for s in (4.0**5, 4.0**-9, 3.0):
            _, trace = solve(ens, ObservationVector(s * obs.samples), SolverConfig())
            assert (trace.iterations, trace.stop_reason) == (ref.iterations, ref.stop_reason)
            if s == 3.0:
                np.testing.assert_allclose(trace.err_est, ref.err_est, rtol=1e-9)
            else:
                np.testing.assert_array_equal(trace.err_est, ref.err_est)

    def test_zero_observation_raises(self):
        """y = 0 has scale exponent 0 and no spectral start."""
        ens, truth, _ = make_instance(TWO, seed=5)
        with pytest.raises(DegenerateInputError, match="zero observation"):
            solve(ens, ObservationVector(np.zeros(TWO.L)), SolverConfig(), truth=truth)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e100, 1e150])
    def test_scale_equivariant(self, scale):
        """y * s takes the same path as y (TWO seed 5: 6 iterations to the
        residual stop) and returns sqrt(s) times its estimate.  Its trace is
        at its own scale: with r = s 4^-j, f_tilde is r^2 times y's, grad_norm
        r^1.5 times and eta 1/r times."""
        ens, truth, obs = make_instance(TWO, seed=5)
        ref, ref_trace = solve(ens, obs, SolverConfig(), truth=truth)
        root = np.sqrt(scale)
        est, trace = solve(ens, ObservationVector(scale * obs.samples), SolverConfig(),
                           truth=BlockFactorPair(root * truth.channels,
                                                 root * truth.coefficients))
        assert (ref_trace.iterations, ref_trace.stop_reason) == (6, "residual")
        assert (trace.iterations, trace.stop_reason) == (6, "residual")
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
        for name in ("t", "f", "g", "rel_err", "err_est", "grad_norm", "eta", "evals"):
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
        assert (trace.iterations, trace.stop_reason) == (ref_trace.iterations, "residual")
        np.testing.assert_array_equal(trace.evals, ref_trace.evals)
        _assert_rescaled(trace, ref_trace, scale, rtol=1e-9)
        for got, want in [(est.channels, ref.channels),
                          (est.coefficients, ref.coefficients)]:
            assert np.linalg.norm(got - root * want) <= 1e-9 * root * np.linalg.norm(want)

    @pytest.mark.filterwarnings("error")
    def test_peak_modulus_above_the_double_range(self):
        """A finite y whose largest modulus overflows (both parts of y[0] are
        1.5e308, the rest is below 2^1000) solves with no warning, contiguous
        or strided, the same bits both ways: the scale exponent reads the real
        and imaginary parts, which are finite."""
        ens, _, obs = make_instance(DESK, seed=0)
        peak = np.max(np.abs([obs.samples.real, obs.samples.imag]))
        y = np.ldexp(1.0, 1000 - math.frexp(peak)[1]) * obs.samples
        y[0] = 1.5e308 + 1.5e308j
        buf = np.zeros(2 * DESK.L, dtype=complex)
        buf[::2] = y
        runs = []
        for samples in (y, buf[::2]):
            obs = ObservationVector(samples)
            assert obs.samples.flags.c_contiguous == (samples is y)
            assert solver_module._scale_exponent(obs.samples) == 512
            runs.append(solve(ens, obs, SolverConfig()))
        for est, trace in runs:
            assert (trace.stop_reason, trace.scale_exponent) == ("grad_tol", 512)
            assert np.all(np.isfinite(est.channels)) and np.all(np.isfinite(est.coefficients))
        (ref, ref_trace), (est, trace) = runs
        np.testing.assert_array_equal(est.channels, ref.channels)
        np.testing.assert_array_equal(est.coefficients, ref.coefficients)
        np.testing.assert_array_equal(trace.f_tilde, ref_trace.f_tilde)

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


def _count_objective(monkeypatch) -> list:
    """Rebind the solver's `_formed` and `_kernel` so each call appends to
    the returned list: the start's spectra and every value a solve takes but
    `grad_total`'s."""
    calls = []
    for name in ("_formed", "_kernel"):
        monkeypatch.setattr(solver_module, name, lambda *args, real=getattr(
            solver_module, name): calls.append(1) or real(*args))
    return calls


def _rebind_values(monkeypatch, start=None, trials=None) -> None:
    """Rebind the solver's `_kernel` so the value of the start (its first
    call) is mapped by start and every search trial's by trials; None keeps
    it.  `grad_total` still reads the real objective."""
    real, calls = solver_module._kernel, []

    def spy(*args):
        calls.append(args)
        fn = start if len(calls) == 1 else trials
        return real(*args) if fn is None else fn(real(*args))

    monkeypatch.setattr(solver_module, "_kernel", spy)


def _kernel_spy(monkeypatch, fail_single_trials=False) -> list:
    """Rebind the objective's value kernel, in objective and in the solver,
    so each call appends its point's dtype to the returned list: every value
    of a solve, the start's and `grad_total`'s included.  With
    fail_single_trials, every complex64 search trial is non-finite."""
    real, seen = objective._kernel, []

    def spy(ens, z, p, spectra, coded_spectra, residual):
        seen.append(z.channels.dtype)
        if fail_single_trials and z.channels.dtype == np.complex64 and len(seen) > 2:
            return Evaluation(np.inf, 0.0)
        return real(ens, z, p, spectra, coded_spectra, residual)

    monkeypatch.setattr(objective, "_kernel", spy)
    monkeypatch.setattr(solver_module, "_kernel", spy)
    return seen


class TestSinglePrecision:
    """At paper scale (L=Q=3200, M=K=12, N=2) the coded spectra and basis
    take 1.76 MiB in complex128, above `_SINGLE_BYTES`, so the descent
    starts in complex64."""

    def test_paper_scale_takes_the_single_path_and_desk_does_not(self, monkeypatch):
        """The size test reads the input: 16 L (N K + M) bytes in complex128.
        The criterion-6 grid's largest cell (L=320, K=M=22) stays complex128.
        The working copies come first: the spectral start's adjoint and
        `coherences`, which reads the start's spectra, run on them too, at
        paper scale on the cached complex64 basis, and no solve casts the
        ensemble's own basis."""
        seen = _kernel_spy(monkeypatch)
        starts, bases = [], []
        adjoint, coherence = solver_module._adjoint_blocks, solver_module._coherences

        def adjoint_spy(ens, w, *args):
            starts.append(("adjoint", ens.coded_spectra.dtype, ens.basis.dtype, w.dtype))
            bases.append(ens.basis)
            return adjoint(ens, w, *args)

        def coherence_spy(ens, z, spectra):
            starts.append(("coherences", ens.basis.dtype, z.channels.dtype, z.coefficients.dtype,
                           spectra.dtype))
            bases.append(ens.basis)
            return coherence(ens, z, spectra)

        monkeypatch.setattr(solver_module, "_adjoint_blocks", adjoint_spy)
        monkeypatch.setattr(solver_module, "_coherences", coherence_spy)
        for dims, single in ((PAPER, True), (DESK, False),
                             (Dimensions(L=320, Q=320, M=22, K=22, N=2), False)):
            for spied in (seen, starts, bases):
                spied.clear()
            ens, _, obs = make_instance(dims, seed=0)
            assert (ens.coded_spectra.nbytes + ens.basis.nbytes
                    == 16 * dims.L * (dims.N * dims.K + dims.M))
            est, _ = solve(ens, obs, SolverConfig(max_iters=3))
            dt = np.dtype(np.complex64 if single else np.complex128)
            assert set(seen) == {dt}
            assert starts == [("adjoint", dt, dt, dt), ("coherences", dt, dt, dt, dt)]
            basis = solver_module._single_basis(dims.L, dims.M) if single else ens.basis
            assert bases[0] is bases[1] is basis
            assert est.channels.dtype == est.coefficients.dtype == np.complex128

    def test_noiseless_matches_complex128(self, monkeypatch):
        """Seeds 0-3 stop after as many iterations, for the same reason, as
        a solve forced to complex128, with rel_err within 1e-6; none
        switches precision."""
        runs = []
        for single_bytes in (solver_module._SINGLE_BYTES, math.inf):
            monkeypatch.setattr(solver_module, "_SINGLE_BYTES", single_bytes)
            runs.append([])
            for seed in range(4):
                ens, truth, obs = make_instance(PAPER, seed=seed)
                est, trace = solve(ens, obs, SolverConfig(), truth=truth)
                runs[-1].append((trace, relative_error(est, truth)))
        for (single, err), (double, ref_err) in zip(*runs):
            assert (single.iterations, single.stop_reason) == (double.iterations, "residual")
            assert single.stop_reason == double.stop_reason
            assert single.switch_row is None and double.switch_row is None
            assert abs(err - ref_err) <= 1e-6 and err < SUCCESS_THRESHOLD
            assert abs(single.rel_err[-1] - err) <= 1e-6

    def test_complex64_start_tracks_complex128(self, monkeypatch):
        """On seeds 0-2 the penalty a solve takes from its complex64 start (the
        SVD's d_n, mu and nu from `coherences`) agrees within 1e-6 relative
        with the one from the complex128 start of a solve forced to complex128,
        but is not the same bits: the start did run in complex64."""
        params, real = [], solver_module.PenaltyParams

        def spy(**kwargs):
            params.append(real(**kwargs))
            return params[-1]

        monkeypatch.setattr(solver_module, "PenaltyParams", spy)
        sizes = (solver_module._SINGLE_BYTES, math.inf)
        for seed in range(3):
            ens, _, obs = make_instance(PAPER, seed=seed)
            for single_bytes in sizes:
                monkeypatch.setattr(solver_module, "_SINGLE_BYTES", single_bytes)
                solve(ens, obs, SolverConfig(max_iters=1))
            single, double = params[-2:]
            np.testing.assert_allclose(single.d_n, double.d_n, rtol=1e-6)
            assert single.mu == pytest.approx(double.mu, rel=1e-6)
            assert single.nu == pytest.approx(double.nu, rel=1e-6)
            assert single.mu != double.mu and single.nu != double.nu
            assert not np.array_equal(single.d_n, double.d_n)

    def test_noisy_q800_switches_and_stops_on_grad_tol(self):
        """At 10 dB on L=3200, Q=800, M=K=22 seeds 0-3 switch to complex128
        and stop on "grad_tol" within 40 iterations (they take 21-23).  A
        switch point of 1e-5 d^2 fails all four: two run 2,000 iterations in
        complex64 and two stop on "no_decrease" after the switch."""
        for seed in range(4):
            ens, _, obs = make_instance(Dimensions(L=3200, Q=800, M=22, K=22, N=2),
                                        seed=seed, snr_db=10.0)
            _, trace = solve(ens, obs, SolverConfig(max_iters=40))
            assert trace.switch_row is not None and trace.stop_reason == "grad_tol"

    def test_noisy_solve_switches_and_stays_monotone(self, monkeypatch):
        """At 10 dB float32 cannot reach `_GRAD_TOL` d^2: seeds 0-2 switch to
        complex128, every evaluation up to and including the switch row's
        search is complex64 and every later one complex128, they stop on
        "grad_tol", and f_tilde does not rise by more than criterion 8's slack
        of 1e-12 max(1, f_tilde[0])."""
        seen = _kernel_spy(monkeypatch)
        for seed in range(3):
            seen.clear()
            ens, truth, obs = make_instance(PAPER, seed=seed, snr_db=10.0)
            _, trace = solve(ens, obs, SolverConfig(), truth=truth)
            assert trace.stop_reason == "grad_tol" and trace.switch_row is not None
            slack = 1e-12 * max(1.0, float(trace.f_tilde[0]))
            assert np.max(np.diff(trace.f_tilde)) <= slack
            single = int(trace.evals[:trace.switch_row + 1].sum())
            assert seen == [np.complex64] * single + [np.complex128] * (len(seen) - single)
            assert len(seen) == trace.evals.sum()
            assert np.all(np.isfinite(trace.rel_err))

    @pytest.mark.parametrize("seed,snr_db", [(0, 10.0), (1, None)])
    def test_kernel_reads_complex64_before_the_switch(self, monkeypatch, seed, snr_db):
        """Every evaluation before the switch row's successor, search trials
        included, reads a complex64 point, complex64 spectra and a complex64
        residual: the step t and the direction's beta are Python floats, as a
        numpy float64 would promote the iterate to complex128.  Noisy seed 0
        switches; noiseless seed 1 never does."""
        real, seen = objective._kernel, []

        def spy(ens, z, p, *formed):
            seen.append({a.dtype for a in (z.channels, z.coefficients, *formed)})
            return real(ens, z, p, *formed)

        monkeypatch.setattr(objective, "_kernel", spy)
        monkeypatch.setattr(solver_module, "_kernel", spy)
        ens, _, obs = make_instance(PAPER, seed=seed, snr_db=snr_db)
        _, trace = solve(ens, obs, SolverConfig())
        assert (trace.switch_row is None) == (snr_db is None)
        rows = trace.iterations + 1 if trace.switch_row is None else trace.switch_row + 1
        single = int(trace.evals[:rows].sum())
        assert single >= rows + 1 and len(seen) == trace.evals.sum()
        assert seen[:single] == [{np.dtype(np.complex64)}] * single
        assert all(dt == {np.dtype(np.complex128)} for dt in seen[single:])

    def test_first_complex128_search_accepts_nothing_above_the_row(self, monkeypatch):
        """The switch is a cast: the first complex128 search steps from the
        switch row's point, cast to complex128, along minus the complex64
        gradient formed at that point, the last one formed, and tests
        sufficient decrease against the row's own value, with spectra and
        residual formed anew from the cast point."""
        searches, gradients = [], []
        search, gradient = solver_module._search, solver_module._gradient

        def spy(ens, p, z, cur, D, slope):
            out = search(ens, p, z, cur, D, slope)
            searches.append((z.channels.dtype, z, D, cur, out[1], p, len(gradients)))
            return out

        def gradient_spy(ens, z, p, ev):
            gradients.append((z, out := gradient(ens, z, p, ev)))
            return out

        monkeypatch.setattr(solver_module, "_search", spy)
        monkeypatch.setattr(solver_module, "_gradient", gradient_spy)
        ens, _, obs = make_instance(PAPER, seed=0, snr_db=10.0)
        _, trace = solve(ens, obs, SolverConfig())
        k = trace.switch_row
        assert k is not None and k >= 1
        # search i makes row i + 1, so row k's evaluation is search k - 1's
        assert [dt for dt, *_ in searches] == [np.complex64] * k + [np.complex128] * (
            len(searches) - k)
        _, z, D, first, _, p, formed = searches[k]
        row = searches[k - 1][4]
        assert first.f_tilde == trace.f_tilde[k] == row.f_tilde
        at, g = gradients[formed - 1]
        assert g.channels.dtype == g.coefficients.dtype == np.complex64
        for got, want in ((z.channels, at.channels), (z.coefficients, at.coefficients),
                          (D.channels, -g.channels), (D.coefficients, -g.coefficients)):
            np.testing.assert_array_equal(got, want)
        fresh = evaluate(ens, z, ObservationVector(obs.samples * 4.0**-trace.scale_exponent), p)
        for name in ("spectra", "coded_spectra", "residual"):
            assert getattr(first, name).dtype == np.complex128
            np.testing.assert_array_equal(getattr(first, name), getattr(fresh, name))
        assert trace.f_tilde[k + 1] <= trace.f_tilde[k]

    def test_failed_search_switches(self, monkeypatch):
        """A complex64 search that finds no decrease (here every complex64
        trial is non-finite) is a row with eta 0 and its own trials as evals;
        the descent goes on in complex128 from its point and recovers."""
        calls = _kernel_spy(monkeypatch, fail_single_trials=True)
        ens, truth, obs = make_instance(PAPER, seed=1)
        est, trace = solve(ens, obs, SolverConfig(), truth=truth)
        # the start's value and gradient are complex64 too
        trials = calls.count(np.complex64) - 2
        assert trace.switch_row == 1 and trace.eta[1] == 0.0
        assert trace.evals[1] == trials == 66
        assert trace.f_tilde[1] == trace.f_tilde[0]
        assert set(calls[trials + 2:]) == {np.dtype(np.complex128)}
        assert trace.stop_reason == "residual" and relative_error(est, truth) < SUCCESS_THRESHOLD
        assert trace.evals.sum() == len(calls)

    @pytest.mark.parametrize("seed,snr_db,fail", [(0, 10.0, False), (1, 10.0, False),
                                                  (2, 10.0, False), (1, None, True)])
    def test_evals_count_each_rows_own_search(self, monkeypatch, seed, snr_db, fail):
        """Every row after row 0 counts only its own search's evaluations,
        the switch row too, and no solve stops at its switch row, where the
        gradient norm is a complex64 one: noisy switching solves and the
        forced-failure solve of `test_failed_search_switches`."""
        counts = []
        search = solver_module._search

        def spy(*args):
            out = search(*args)
            counts.append(out[3])
            return out

        monkeypatch.setattr(solver_module, "_search", spy)
        if fail:
            _kernel_spy(monkeypatch, fail_single_trials=True)
        ens, _, obs = make_instance(PAPER, seed=seed, snr_db=snr_db)
        _, trace = solve(ens, obs, SolverConfig())
        assert trace.switch_row is not None and trace.iterations > trace.switch_row
        assert trace.evals[1:].tolist() == counts

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_extreme_scales_give_a_finite_complex128_estimate(self, scale):
        """The estimate is cast to complex128 before it is scaled back: 2^j
        times a complex64 estimate would overflow float32."""
        ens, truth, obs = make_instance(PAPER, seed=2)
        _, ref = solve(ens, obs, SolverConfig())
        est, trace = solve(ens, ObservationVector(scale * obs.samples), SolverConfig())
        for part in (est.channels, est.coefficients):
            assert part.dtype == np.complex128 and np.all(np.isfinite(part))
        root = math.sqrt(scale)
        err = relative_error(BlockFactorPair(est.channels / root, est.coefficients / root), truth)
        assert trace.stop_reason == ref.stop_reason == "residual"
        assert err < SUCCESS_THRESHOLD


class TestErrorEstimate:
    """`_error_estimate` on hand-made relative residuals r_0 ... r_t."""

    def test_contraction_rate_over_the_window(self):
        """q = (r_t / r_{t-w})^(1/w), w = min(_WINDOW, t): rows before the
        window do not enter, and a short history is its own window."""
        est = solver_module._error_estimate
        assert solver_module._WINDOW == 10
        r = [7.0, 3.0] + [0.9**k for k in range(11)]  # t = 12: the window starts at r_2
        assert est(r) == pytest.approx(0.9**10 / math.sqrt(0.1), rel=1e-12)
        assert est([1.0, 0.25]) == pytest.approx(0.25 / math.sqrt(0.75), rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_guards(self):
        """r_t = 0 reads 0 on any row; otherwise row 0 has no window (NaN,
        which no stop passes), and q >= 1 reads inf."""
        est = solver_module._error_estimate
        for r in ([0.0], [0.5, 0.0], [1.0] * 20 + [0.0]):
            assert est(r) == 0.0
        assert math.isnan(est([1e-300]))
        for r in ([1e-3, 1e-3], [1e-3, 2e-3], [1e-9] * 12):
            assert est(r) == math.inf
        assert not est([1e-300]) < solver_module._ERROR_TOL


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


def _desk_search_point(seed=0):
    """The desk instance's spectral start in complex128, solve's penalty
    at it (G = 0 there), its evaluation with gradient, and a descent
    direction D = -g + a random pair, with its slope Re<g, D> < 0."""
    ens, _, obs = make_instance(DESK, seed=seed)
    init = solver_module._spectral_start(ens, obs)
    z, d = init.start, float(np.linalg.norm(init.d_n))
    rep = coherences(ens, z)
    p = PenaltyParams(rho=d**2, d=d, d_n=init.d_n, mu=1.5 * rep.mu, nu=1.5 * rep.nu)
    cur = evaluate(ens, z, obs, p, grad=True)
    g, rand = cur.grad, random_pair(DESK, np.random.default_rng(seed), scale=0.1)
    D = BlockFactorPair(rand.channels - g.channels, rand.coefficients - g.coefficients)
    slope = float(np.vdot(g.channels, D.channels).real + np.vdot(g.coefficients, D.coefficients).real)
    assert cur.g == 0.0 and slope < 0.0
    return ens, obs, p, z, cur, D, slope


def _along(z, D, t):
    return BlockFactorPair(z.channels + t * D.channels, z.coefficients + t * D.coefficients)


class TestExactStep:
    """The search's step along a direction D, in complex128 on the desk
    instance (L=Q=320, M=K=8, N=2): F(z + t D) is the quartic
    f + c1 t + c2 t^2 + c3 t^3 + c4 t^4, and the search starts at its
    positive minimiser."""

    def _coefficients(self, monkeypatch):
        ens, obs, p, z, cur, D, slope = _desk_search_point()
        seen, quartic_min = [], solver_module._quartic_min
        monkeypatch.setattr(solver_module, "_quartic_min",
                            lambda *c: seen.append(c) or quartic_min(*c))
        solver_module._search(ens, p, z, cur, D, slope)
        return ens, obs, p, z, cur, D, seen[0]

    def test_quartic_is_the_loss_along_the_direction(self, monkeypatch):
        """With G = 0, the quartic's f(t) is evaluate's f at z + t D to 1e-12
        relative at three steps, and c1 = 2 Re<g, D>, the slope."""
        ens, obs, p, z, cur, D, c = self._coefficients(monkeypatch)
        g = cur.grad
        slope = np.vdot(g.channels, D.channels).real + np.vdot(g.coefficients, D.coefficients).real
        assert all(type(ci) is float for ci in c)
        assert c[0] == pytest.approx(2 * slope, rel=1e-10)
        for t in (0.05, 0.4, 1.3):
            quartic = cur.f + sum(ci * t ** (i + 1) for i, ci in enumerate(c))
            assert quartic == pytest.approx(evaluate(ens, _along(z, D, t), obs, p).f, rel=1e-12)

    def test_start_is_the_positive_minimiser(self, monkeypatch):
        """t* > 0 is a root of the quartic's derivative, and evaluate's
        f at t* (1 +- 1e-3) is no lower than at t*."""
        ens, obs, p, z, cur, D, c = self._coefficients(monkeypatch)
        t = solver_module._quartic_min(*c)
        assert type(t) is float and t > 0.0
        c1, c2, c3, c4 = c
        assert abs(c1 + 2 * c2 * t + 3 * c3 * t**2 + 4 * c4 * t**3) <= 1e-9 * abs(c1)
        f = [evaluate(ens, _along(z, D, s * t), obs, p).f for s in (1.0, 1 - 1e-3, 1 + 1e-3)]
        assert f[0] <= f[1] and f[0] <= f[2]

    @pytest.mark.parametrize("c,t", [((-6.0, 0.0, 0.0, 1.0), 1.5 ** (1 / 3)),
                                     ((-32.0, 28.0, -28 / 3, 1.0), 4.0)])
    def test_closed_form_roots(self, c, t):
        """-6 t + t^4 has one real critical point, t^3 = 1.5.  The
        derivative 4 (t - 1)(t - 2)(t - 4) has three: the quartic has local
        minima at 1 and 4, and the lower, at 4, is taken."""
        assert solver_module._quartic_min(*c) == pytest.approx(t, rel=1e-12)

    def test_search_writes_no_operand(self, monkeypatch):
        """The search reads the evaluation it starts from and writes none of
        its spectra or residual: they may be read-only."""
        ens, obs, p, z, cur, D, slope = _desk_search_point()
        for a in (cur.spectra, cur.coded_spectra, cur.residual):
            a.setflags(write=False)
        new, ev, t, trials = solver_module._search(ens, p, z, cur, D, slope)
        assert t > 0.0 and trials == 1 and ev.f_tilde < cur.f_tilde

    def test_carried_residual_matches_a_fresh_one(self, monkeypatch):
        """After 400 iterations (the criterion-6 cell L=320, Q=80, K=22, M=22,
        base seed 0, trial 2, which runs to max_iters), the residual the
        descent carried by linearity agrees with one formed afresh at the
        last point to 1e-10 relative."""
        cells = SweepGrid().cells()
        ci = next(i for i, d in enumerate(cells) if (d.Q, d.K, d.M) == (80, 22, 22))
        ens, _, obs = synthesize(TrialSpec(cells[ci], seed=_derive_seed(0, ci, 2)))
        last, real = [], solver_module._kernel

        def spy(ens, z, p, spectra, coded_spectra, residual):
            last[:] = [z, p, residual]
            return real(ens, z, p, spectra, coded_spectra, residual)

        monkeypatch.setattr(solver_module, "_kernel", spy)
        _, trace = solve(ens, obs, SolverConfig(max_iters=400))
        assert (trace.iterations, trace.stop_reason, trace.switch_row) == (400, "max_iters", None)
        z, p, carried = last
        y = ObservationVector(obs.samples * 4.0**-trace.scale_exponent)
        fresh = evaluate(ens, z, y, p).residual
        assert np.linalg.norm(carried - fresh) <= 1e-10 * np.linalg.norm(fresh)


def _gradient_spy(monkeypatch) -> list:
    """Rebind `_gradient`, in objective and in the solver, so each call
    appends its (point, penalty, gradient) to the returned list: the start's,
    which `grad_total` forms, included."""
    real, seen = objective._gradient, []

    def spy(ens, z, p, ev):
        seen.append((z, p, out := real(ens, z, p, ev)))
        return out

    monkeypatch.setattr(objective, "_gradient", spy)
    monkeypatch.setattr(solver_module, "_gradient", spy)
    return seen


def _eager_search(ens, p, z, cur, D, slope):
    """`solver._search` as first written, the reference for the value-first
    one: each trial's spectra and residual are new sums, and each finite
    trial forms its gradient along with its value."""
    sd, cd = component_spectra(ens, D)
    s, c, r = cur.spectra, cur.coded_spectra, cur.residual
    a1, a2 = (sd * c + s * cd).sum(axis=1), (sd * cd).sum(axis=1)
    r1, r2, g11, g12, g22 = (float(np.vdot(u, v).real) for u, v in
                             ((r, a1), (r, a2), (a1, a1), (a1, a2), (a2, a2)))
    t = (solver_module._quartic_min(2 * r1, g11 + 2 * r2, 2 * g12, g22)
         or 0.5 / (ens.dims.N * ens.dims.M * p.d))
    trials = 0
    while t > solver_module._MIN_ETA:
        trial = BlockFactorPair.unchecked(z.channels + t * D.channels,
                                          z.coefficients + t * D.coefficients)
        ev = objective._kernel(ens, trial, p, s + t * sd, c + t * cd, r + t * (a1 + t * a2))
        if math.isfinite(ev.f_tilde):
            ev = dataclasses.replace(ev, grad=objective._gradient(ens, trial, p, ev))
        trials += 1
        if ev.f_tilde <= cur.f_tilde + 0.05 * t * slope:
            return trial, ev, t, trials
        t *= 0.5
    return z, cur, 0.0, trials


class TestValueFirstSearch:
    """A search accepts a step on its value alone, and the descent forms a
    gradient only at the start and at each row it goes on from."""

    @pytest.mark.parametrize("dims,trials,gradients", [(DESK, 64, 374), (PAPER, 16, 51)],
                             ids=["desk-recovery", "paper-scale"])
    def test_one_gradient_per_row_the_descent_goes_on_from(self, monkeypatch, dims, trials,
                                                           gradients):
        """On the benchmark's seed-1 instances (64 desk solves, 16 at paper
        scale, each stopping on "residual" with no failed search) a solve
        forms one gradient at its start and one at each later row but its
        last: as many as its iterations, 374 and 51.  Forming one at every
        search trial, as the first search did, made 438 and 67."""
        seen = _gradient_spy(monkeypatch)
        iterations = searched = 0
        for i in range(trials):
            seed = int(np.random.SeedSequence([1, i]).generate_state(1)[0])
            ens, truth, obs = make_instance(dims, seed=seed)
            _, trace = solve(ens, obs, SolverConfig(), truth=truth)
            assert trace.stop_reason == "residual" and np.all(trace.eta[1:] > 0.0)
            iterations += trace.iterations
            searched += int(trace.evals[1:].sum())
        assert len(seen) == iterations == gradients
        assert trials + searched == {374: 438, 51: 67}[gradients]

    def test_rejected_trials_form_no_gradient(self, monkeypatch):
        """Started at 2^10 times the quartic's minimiser, a desk search
        rejects trials on their values and forms no gradient, not even at
        the point it accepts."""
        ens, obs, p, z, cur, D, slope = _desk_search_point()
        quartic_min = solver_module._quartic_min
        monkeypatch.setattr(solver_module, "_quartic_min", lambda *c: 1024.0 * quartic_min(*c))
        seen = _gradient_spy(monkeypatch)
        new, ev, t, trials = solver_module._search(ens, p, z, cur, D, slope)
        assert trials > 1 and t > 0.0 and ev.f_tilde < cur.f_tilde
        assert ev.grad is None and seen == []

    def test_grad_tol_stop_forms_its_last_rows_gradient(self, monkeypatch):
        """TWO seed 0 at 20 dB stops on "grad_tol" after 13 iterations: it
        forms a gradient at each of its 14 rows, the last at the last row's
        point, and that gradient's norm is the one below `_GRAD_TOL` d^2."""
        seen = _gradient_spy(monkeypatch)
        points = []
        search = solver_module._search
        monkeypatch.setattr(solver_module, "_search",
                            lambda *args: points.append((out := search(*args))[0]) or out)
        ens, _, obs = make_instance(TWO, seed=0, snr_db=20.0)
        _, trace = solve(ens, obs, SolverConfig())
        assert (trace.stop_reason, trace.iterations) == ("grad_tol", 13)
        assert len(seen) == trace.iterations + 1
        z, p, g = seen[-1]
        assert z is points[-1]
        norm = math.sqrt(sum(np.vdot(a, a).real for a in (g.channels, g.coefficients)))
        assert norm < solver_module._GRAD_TOL * p.d**2
        assert all(gn >= solver_module._GRAD_TOL * p.d**2 for gn in trace.grad_norm[1:])

    @pytest.mark.parametrize("dims,seed,snr_db", [
        (DESK, 0, None), (PAPER, 1, None), (PAPER, 0, 10.0),
        (Dimensions(L=320, Q=40, M=18, K=6, N=2), 2923139944, None)],
        ids=["desk", "paper", "paper-10dB", "hinge-active"])
    def test_eager_gradients_give_the_same_bits(self, monkeypatch, dims, seed, snr_db):
        """With `_eager_search` in place of the search, and the descent reading
        the gradient each accepted trial formed, a whole solve gives the same
        estimate and trace, bit for bit: on desk and noiseless paper-scale
        instances, on a noisy one that switches precision, and on the
        small-Q solve whose hinge is active (see
        `test_hinge_active_solve_matches_the_exact_path`)."""
        ens, truth, obs = make_instance(dims, seed=seed, snr_db=snr_db)
        runs = [solve(ens, obs, SolverConfig(), truth=truth)]
        monkeypatch.setattr(solver_module, "_search", _eager_search)
        monkeypatch.setattr(solver_module, "_gradient", lambda ens, z, p, ev: ev.grad)
        runs.append(solve(ens, obs, SolverConfig(), truth=truth))
        (est, trace), (eager, eager_trace) = runs
        assert (trace.switch_row is not None) == (snr_db is not None)
        np.testing.assert_array_equal(est.channels, eager.channels)
        np.testing.assert_array_equal(est.coefficients, eager.coefficients)
        for field in dataclasses.fields(trace):
            np.testing.assert_array_equal(getattr(trace, field.name),
                                          getattr(eager_trace, field.name), err_msg=field.name)
