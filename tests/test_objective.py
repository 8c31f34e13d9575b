"""Tests of the coherence measures, the regularized loss and its Wirtinger
gradient: the `evaluate` kernel against dense and direct transcriptions,
and its gradient against central finite differences."""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SMALL_DIMS, make_instance, random_pair
from moddemix import objective
from moddemix.objective import (
    CoherenceReport,
    DegenerateInputError,
    PenaltyParams,
    coherences,
    evaluate,
    grad_total,
    loss_total,
)
from moddemix.operators import (
    BlockFactorPair,
    Dimensions,
    MeasurementEnsemble,
    ObservationVector,
    _adjoint_blocks,
    _single_basis,
    adjoint_component,
    component_spectra,
    dense_oracle,
    dft_basis,
    forward_map,
)
from moddemix.solver import SolverConfig, solve


def oracle_params(ens, truth, rho=None) -> PenaltyParams:
    rep = coherences(ens, truth)
    return PenaltyParams(rho=rho if rho is not None else rep.d0**2,
                         d=rep.d0, d_n=rep.d_n, mu=rep.mu, nu=rep.nu)


class TestCoherences:
    @pytest.mark.parametrize("dims", SMALL_DIMS, ids=str)
    def test_bounds(self, dims, rng):
        ens, truth, _ = make_instance(dims)
        rep = coherences(ens, truth)
        assert 1.0 - 1e-12 <= rep.mu_sq <= dims.L + 1e-9
        assert 1.0 - 1e-12 <= rep.nu_sq <= dims.Q + 1e-9
        assert rep.d0 == pytest.approx(np.sqrt(np.sum(rep.d_n**2)))

    def test_direct_formulas(self, rng):
        dims = Dimensions(L=32, Q=16, M=4, K=3, N=2)
        ens, _, _ = make_instance(dims)
        z = random_pair(dims, rng)
        rep = coherences(ens, z)
        mu_sq = max(
            np.max(np.abs(np.fft.fft(z.channels[n], n=dims.L))) ** 2  # L |F h|^2
            / np.linalg.norm(z.channels[n]) ** 2 for n in range(dims.N))
        nu_sq = max(
            dims.Q * np.max(np.abs(ens.coding[n] @ z.coefficients[n])) ** 2
            / np.linalg.norm(z.coefficients[n]) ** 2 for n in range(dims.N))
        assert rep.mu_sq == pytest.approx(mu_sq, rel=1e-12)
        assert rep.nu_sq == pytest.approx(nu_sq, rel=1e-12)

    @pytest.mark.parametrize("dims", [Dimensions(L=320, Q=320, M=8, K=8, N=2),
                                      Dimensions(L=3200, Q=3200, M=12, K=12, N=2)], ids=str)
    def test_equals_one_product_form(self, dims, rng):
        """mu^2 equals the axis-0 maxima of component_spectra's (L, N)
        channel spectra bit for bit: one product forms the spectra."""
        ens, _, _ = make_instance(dims)
        z = random_pair(dims, rng)
        h_sq = np.vecdot(z.channels, z.channels).real
        spectra = component_spectra(ens, z)[0]
        mu_sq = dims.L * np.max(np.max(np.abs(spectra), axis=0) ** 2 / h_sq)
        assert coherences(ens, z).mu_sq == float(mu_sq)

    def test_impulse_channel_has_unit_mu(self):
        dims = Dimensions(L=16, Q=8, M=3, K=2, N=1)
        ens, _, _ = make_instance(dims)
        z = BlockFactorPair(np.array([[1.0, 0, 0]]), np.ones((1, 2)))
        assert coherences(ens, z).mu_sq == pytest.approx(1.0)

    def test_zero_factor_raises(self):
        dims = Dimensions(L=16, Q=8, M=3, K=2, N=1)
        ens, _, _ = make_instance(dims)
        z = BlockFactorPair(np.zeros((1, 3)), np.ones((1, 2)))
        with pytest.raises(DegenerateInputError):
            coherences(ens, z)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype,scales", [
        (np.complex128, (1e-170, 1e-161, 1e-100, 1e100, 1e160)),
        (np.complex64, (1e-25, 1e-18, 1e18, 1e25))], ids=["complex128", "complex64"])
    def test_any_scale(self, dtype, scales):
        """mu^2 and nu^2 do not see the scale s of both factors, and d_n, d0
        (float64) are s^2 times the unit-scale ones, 0 below the double range
        and inf above it, with no warning.  On the desk instance the entries'
        squares are out of the factors' range at 1e-161 and 1e160 (complex64:
        1e-25 and 1e25), and d_n^2 at 1e-100 and 1e100 (float32: 1e-18, 1e18)."""
        ens, truth, _ = make_instance(Dimensions(L=320, Q=320, M=8, K=8, N=2))

        def at(s):
            return coherences(ens, BlockFactorPair.unchecked(
                (s * truth.channels).astype(dtype), (s * truth.coefficients).astype(dtype)))

        ref, rtol = at(1.0), 1e-14 if dtype == np.complex128 else 1e-6
        for s in scales:
            rep = at(s)
            assert rep.mu_sq == pytest.approx(ref.mu_sq, rel=rtol)
            assert rep.nu_sq == pytest.approx(ref.nu_sq, rel=rtol)
            np.testing.assert_allclose(rep.d_n, (s * s) * ref.d_n, rtol=rtol, atol=1e-323)
            assert rep.d0 == pytest.approx((s * s) * ref.d0, rel=rtol, abs=1e-323)

    def test_report_properties(self):
        rep = CoherenceReport(mu_sq=4.0, nu_sq=9.0, d_n=np.ones(1), d0=1.0)
        assert rep.mu == 2.0 and rep.nu == 3.0


class TestPenaltyParams:
    def test_rejects_nonpositive(self):
        """Zero, a negative value, NaN (for which `x <= 0` is False) and inf
        (which makes an idle hinge's rho * 0 NaN) are each rejected in every
        field."""
        good = dict(rho=1.0, d=1.0, d_n=np.ones(2), mu=1.0, nu=1.0)
        for name in good:
            for bad in (0.0, -1.0, np.nan, np.inf):
                value = np.array([1.0, bad]) if name == "d_n" else bad
                with pytest.raises(ValueError, match="must be positive"):
                    PenaltyParams(**{**good, name: value})


class TestLoss:
    @pytest.mark.parametrize("dims", SMALL_DIMS, ids=str)
    def test_zero_at_truth_noiseless(self, dims):
        ens, truth, obs = make_instance(dims)
        p = oracle_params(ens, truth)
        assert evaluate(ens, truth, obs, p).f == pytest.approx(0.0, abs=1e-20)

    def test_equals_noise_energy_at_truth(self):
        dims = Dimensions(L=64, Q=32, M=4, K=4, N=2)
        ens, truth, obs = make_instance(dims, snr_db=20.0)
        noise = obs.samples - forward_map(ens, truth)
        expected = float(np.vdot(noise, noise).real)
        p = oracle_params(ens, truth)
        assert evaluate(ens, truth, obs, p).f == pytest.approx(expected, rel=1e-10)

    def test_penalty_zero_inside_region(self):
        dims = Dimensions(L=32, Q=16, M=4, K=3, N=2)
        ens, truth, obs = make_instance(dims)
        p = oracle_params(ens, truth)
        # truth sits at hinge arguments <= 1/2 < 1 for the norm terms and
        # exactly at the coherence bounds / 8 for the sup terms
        assert evaluate(ens, truth, obs, p).g == 0.0

    def test_penalty_activates_when_scaled(self, rng):
        dims = Dimensions(L=32, Q=16, M=4, K=3, N=2)
        ens, truth, obs = make_instance(dims)
        p = oracle_params(ens, truth)
        big = BlockFactorPair(3.0 * truth.channels, 3.0 * truth.coefficients)
        assert evaluate(ens, big, obs, p).g > 0.0

    def test_scalar_ambiguity_invariance(self, rng):
        dims = Dimensions(L=32, Q=16, M=4, K=3, N=2)
        ens, truth, obs = make_instance(dims)
        z = random_pair(dims, rng)
        alpha = np.exp(1j * rng.uniform(0, 2 * np.pi, dims.N))  # unit modulus
        z2 = BlockFactorPair(z.channels * alpha[:, None],
                             z.coefficients * (1.0 / np.conj(alpha))[:, None])
        p = oracle_params(ens, truth)
        assert evaluate(ens, z2, obs, p).f == pytest.approx(
            evaluate(ens, z, obs, p).f, rel=1e-12)


class TestGradients:
    @pytest.mark.parametrize("dims", SMALL_DIMS, ids=str)
    @pytest.mark.parametrize("scale", [1.0, 1.6])
    def test_total_gradient_finite_difference(self, dims, scale, rng):
        ens, truth, obs = make_instance(dims, snr_db=30.0)
        p = oracle_params(ens, truth)
        z = random_pair(dims, rng, scale=scale)
        dz = random_pair(dims, rng)
        g = grad_total(ens, z, obs, p)
        fd = _directional_fd(lambda zz: loss_total(ens, zz, obs, p), z, dz, eps=1e-5)
        assert fd == pytest.approx(_directional(g, dz), rel=1e-6, abs=1e-10)

    def test_measurement_gradient_zero_at_truth(self):
        dims = Dimensions(L=32, Q=16, M=4, K=3, N=2)
        ens, truth, obs = make_instance(dims)
        g = grad_total(ens, truth, obs, oracle_params(ens, truth))
        assert np.linalg.norm(g.channels) < 1e-12
        assert np.linalg.norm(g.coefficients) < 1e-12

    def test_penalty_gradient_zero_inside_region(self):
        # inside the region every hinge derivative is exactly zero, so the
        # penalty weight cannot change the gradient, even with noisy data
        dims = Dimensions(L=32, Q=16, M=4, K=3, N=2)
        ens, truth, obs = make_instance(dims, snr_db=20.0)
        p = oracle_params(ens, truth)
        heavy = oracle_params(ens, truth, rho=1e6 * p.rho)
        g = grad_total(ens, truth, obs, p)
        g_heavy = grad_total(ens, truth, obs, heavy)
        assert np.linalg.norm(g.channels) > 0.0
        np.testing.assert_array_equal(g.channels, g_heavy.channels)
        np.testing.assert_array_equal(g.coefficients, g_heavy.coefficients)


def _hinge(z):
    return max(z - 1.0, 0.0) ** 2


FAMILIES = ("channel_norm", "coefficient_norm", "spectral", "coded")


def _direct_loss(ens, z, obs) -> float:
    """F from the dense oracle."""
    lifted = sum(dense_oracle(ens, n) @ z.lifted_block(n).reshape(-1)
                 for n in range(ens.dims.N))
    residual = lifted - obs.samples
    return np.vdot(residual, residual).real


def _direct_penalty(ens, z, p) -> np.ndarray:
    """G / rho term by term, one entry per hinge family (see FAMILIES)."""
    dims = ens.dims
    fm = dft_basis(dims.L, dims.M)
    fam = np.zeros(len(FAMILIES))
    for n in range(dims.N):
        dn = p.d_n[n]
        h, x = z.channels[n], z.coefficients[n]
        fam[0] += _hinge(np.linalg.norm(h) ** 2 / (2 * dn))
        fam[1] += _hinge(np.linalg.norm(x) ** 2 / (2 * dn))
        fam[2] += sum(_hinge(dims.L * abs(fm[l] @ h) ** 2 / (8 * dn * p.mu**2))
                      for l in range(dims.L))
        fam[3] += sum(_hinge(dims.Q * abs(ens.coding[n][q] @ x) ** 2 / (8 * dn * p.nu**2))
                      for q in range(dims.Q))
    return fam


def _placed(ens, z, peaks, rho):
    """z with its channel and coefficient blocks rescaled, and penalty
    parameters with unit d_n, that put the largest hinge argument of each
    family (see FAMILIES) at the matching entry of peaks."""
    dims = ens.dims
    h = z.channels * np.sqrt(2 * peaks[0] / np.max(np.sum(np.abs(z.channels) ** 2, axis=1)))
    x = z.coefficients * np.sqrt(
        2 * peaks[1] / np.max(np.sum(np.abs(z.coefficients) ** 2, axis=1)))
    spec = dims.L * np.max(np.abs(dft_basis(dims.L, dims.M) @ h.T)) ** 2
    coded = dims.Q * np.max(np.abs(np.einsum("nqk,nk->qn", ens.coding, x))) ** 2
    p = PenaltyParams(rho=rho, d=1.0, d_n=np.ones(dims.N),
                      mu=np.sqrt(spec / (8 * peaks[2])), nu=np.sqrt(coded / (8 * peaks[3])))
    return BlockFactorPair(h, x), p


def _directional_fd(value, z, dz, eps=1e-6) -> float:
    """Central difference of value along dz at z."""
    def at(s):
        return value(BlockFactorPair(z.channels + s * dz.channels,
                                     z.coefficients + s * dz.coefficients))
    return (at(eps) - at(-eps)) / (2 * eps)


def _directional(grad, dz) -> float:
    """The derivative along dz of a real function with Wirtinger gradient grad."""
    return 2.0 * (np.vdot(grad.channels, dz.channels)
                  + np.vdot(grad.coefficients, dz.coefficients)).real


_FAR_PEAK = 1e-3
_NEAR_PEAKS = (1.0 - 1e-6, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.5)


@st.composite
def _certificate_cases(draw):
    """A small geometry, a seed and one placed peak per hinge family: a set
    of families (possibly none) peak near 1, the others far below it."""
    L = draw(st.integers(4, 40))
    Q = draw(st.integers(2, L))
    N = draw(st.integers(1, min(Q, 3)))
    dims = Dimensions(L=L, Q=Q, M=draw(st.integers(1, L)), K=draw(st.integers(1, Q // N)), N=N)
    peaks = np.full(len(FAMILIES), _FAR_PEAK)
    for family in draw(st.sets(st.integers(0, len(FAMILIES) - 1))):
        peaks[family] = draw(st.sampled_from(_NEAR_PEAKS))
    return dims, draw(st.integers(0, 2**16)), peaks


def _count_coded_messages(mp) -> list:
    """Record each call of objective._coded_messages in the returned list."""
    calls, coded_messages = [], objective._coded_messages
    mp.setattr(objective, "_coded_messages", lambda *a: calls.append(1) or coded_messages(*a))
    return calls


class TestIdleCertificate:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(case=_certificate_cases())
    @example(case=(Dimensions(L=32, Q=16, M=6, K=4, N=2), 0, np.full(4, _FAR_PEAK)))
    @example(case=(Dimensions(L=32, Q=16, M=6, K=4, N=2), 1, np.full(4, 1.0 - 1e-12)))
    def test_matches_the_exact_path(self, case):
        """evaluate(grad=True) gives the same f, g and gradient bit for bit
        with the certificate as without it, and certifies G = 0 (forms no
        coded messages) only where every direct hinge term is zero; with
        every peak far below 1 it certifies.  About 0.3 s."""
        dims, seed, peaks = case
        ens, _, obs = make_instance(dims, seed=seed)
        z, p = _placed(ens, random_pair(dims, np.random.default_rng(seed)), peaks, rho=100.0)
        with pytest.MonkeyPatch.context() as mp:
            calls = _count_coded_messages(mp)
            ev = evaluate(ens, z, obs, p, grad=True)
            certified = not calls
            mp.setattr(objective, "_IDLE_BOUND", -np.inf)
            exact = evaluate(ens, z, obs, p, grad=True)
        assert calls  # the certificate is off: the exact path ran
        assert (ev.f, ev.g) == (exact.f, exact.g)
        np.testing.assert_array_equal(ev.grad.channels, exact.grad.channels)
        np.testing.assert_array_equal(ev.grad.coefficients, exact.grad.coefficients)
        if certified:
            assert ev.g == 0.0 and not np.any(_direct_penalty(ens, z, p))
        if np.all(peaks == _FAR_PEAK):
            assert certified

    @pytest.mark.parametrize("dims", [Dimensions(L=320, Q=320, M=8, K=8, N=2),
                                      Dimensions(L=3200, Q=3200, M=12, K=12, N=2)],
                             ids=["desk", "paper"])
    def test_solve_forms_coded_messages_once(self, dims, monkeypatch):
        """The certificate holds throughout a solve at both benchmark sizes:
        the coded messages are formed once, by coherences at the start, and
        in no evaluation, so the exact hinge sum never runs."""
        ens, truth, obs = make_instance(dims)
        calls = _count_coded_messages(monkeypatch)
        _, trace = solve(ens, obs, truth=truth)
        assert trace.stop_reason == "residual" and trace.rel_err[-1] < 1e-2
        assert len(calls) == 1

    def test_hinge_active_solve_matches_the_exact_path(self):
        """A whole solve in which the certificate declines: of the small-Q
        sweep, SweepGrid(Q_values=(20, 40, 60, 80), K_values=(2, 6, 10)),
        base seed 0, at max_iters 5000, the solve with the most evaluations
        on the exact hinge sum, cell (Q, K, M) = (40, 6, 18), trial 3.  It
        stops on "grad_tol" after 638 iterations; 221 of its evaluations,
        search trials whose spectra are formed by linearity among them, take
        the exact hinge sum, and G > 0 on 219 of its 639 rows.  With the
        certificate off, the estimate and every trace column are the same
        bits.  About 0.3 s."""
        ens, truth, obs = make_instance(Dimensions(L=320, Q=40, M=18, K=6, N=2),
                                        seed=2923139944)
        cfg = SolverConfig(max_iters=5000)
        with pytest.MonkeyPatch.context() as mp:
            calls = _count_coded_messages(mp)
            est, trace = solve(ens, obs, cfg, truth=truth)
            exact_path = len(calls) - 1  # coherences forms them once at the start
            mp.setattr(objective, "_IDLE_BOUND", -np.inf)
            exact_est, exact_trace = solve(ens, obs, cfg, truth=truth)
        assert (trace.iterations, trace.stop_reason) == (638, "grad_tol")
        assert np.count_nonzero(trace.g > 0) == 219 and exact_path == 221
        np.testing.assert_array_equal(est.channels, exact_est.channels)
        np.testing.assert_array_equal(est.coefficients, exact_est.coefficients)
        for field in dataclasses.fields(trace):
            np.testing.assert_array_equal(getattr(trace, field.name),
                                          getattr(exact_trace, field.name), err_msg=field.name)

    def test_row_peak_formed_once_per_stack(self, monkeypatch):
        """rho = max_{n, q} ||C_n[q, :]||^2 is formed once per coding stack,
        when the first ensemble on it is set up, and kept on the ensemble as
        a float: a later ensemble on the stack shares it, and neither that
        set-up nor any evaluation forms it again."""
        dims = Dimensions(L=32, Q=16, M=6, K=4, N=2)
        ens, truth, obs = make_instance(dims)
        assert type(ens.row_peak) is float
        np.testing.assert_allclose(ens.row_peak, max(np.max(np.linalg.norm(c, axis=1) ** 2)
                                                     for c in ens.coding), rtol=1e-15)
        ndims, vecdot = [], np.vecdot

        def spy(a, b, **kwargs):
            ndims.append(a.ndim)
            return vecdot(a, b, **kwargs)

        monkeypatch.setattr(np, "vecdot", spy)
        other, _, _ = make_instance(dims, seed=1)
        for e in (ens, other):
            evaluate(e, truth, obs, oracle_params(e, truth), grad=True)
        assert 2 in ndims and 3 not in ndims  # (N, Q, K) is where rho is formed
        assert other.coding is ens.coding and other.row_peak is ens.row_peak


class TestEvaluate:
    @pytest.mark.parametrize("dims", SMALL_DIMS, ids=str)
    def test_matches_dense_and_direct_transcription(self, dims, rng):
        ens, truth, obs = make_instance(dims, snr_db=30.0)
        p = oracle_params(ens, truth)
        z = random_pair(dims, rng, scale=1.6)
        ev = evaluate(ens, z, obs, p)
        assert ev.f == pytest.approx(_direct_loss(ens, z, obs), rel=1e-10)
        g = np.sum(_direct_penalty(ens, z, p))
        assert g > 0.0
        assert ev.g == pytest.approx(p.rho * g, rel=1e-10)
        assert ev.grad is None

    @pytest.mark.parametrize("family", range(len(FAMILIES)), ids=FAMILIES)
    def test_one_hinge_family_at_a_time(self, family, rng):
        dims = Dimensions(L=32, Q=16, M=6, K=4, N=2)
        ens, _, obs = make_instance(dims, snr_db=30.0)
        peaks = np.full(len(FAMILIES), 0.5)
        peaks[family] = 1.5
        z, p = _placed(ens, random_pair(dims, rng), peaks, rho=100.0)
        fam = _direct_penalty(ens, z, p)
        assert fam[family] > 0.0 and np.count_nonzero(fam) == 1
        ev = evaluate(ens, z, obs, p, grad=True)
        assert ev.f == pytest.approx(_direct_loss(ens, z, obs), rel=1e-10)
        assert ev.g == pytest.approx(p.rho * fam[family], rel=1e-10)
        dz = random_pair(dims, rng)
        fd = _directional_fd(lambda zz: loss_total(ens, zz, obs, p), z, dz)
        assert fd == pytest.approx(_directional(ev.grad, dz), rel=1e-6)
        # the penalty's own gradient: the same point with the hinge switched off
        # keeps the measurement gradient bit for bit, so the difference is grad G
        off = evaluate(ens, z, obs, dataclasses.replace(p, d_n=np.full(dims.N, 1e12)),
                       grad=True)
        assert off.g == 0.0 and off.f == ev.f
        grad_g = BlockFactorPair(ev.grad.channels - off.grad.channels,
                                 ev.grad.coefficients - off.grad.coefficients)
        fd = _directional_fd(lambda zz: evaluate(ens, zz, obs, p).g, z, dz)
        assert fd == pytest.approx(_directional(grad_g, dz), rel=1e-6)

    def test_hinge_idle_at_or_below_one(self, rng):
        dims = Dimensions(L=32, Q=16, M=6, K=4, N=2)
        ens, _, obs = make_instance(dims, snr_db=30.0)
        z, p = _placed(ens, random_pair(dims, rng), np.full(len(FAMILIES), 1.0 - 1e-9),
                       rho=100.0)
        assert not np.any(_direct_penalty(ens, z, p))
        ev = evaluate(ens, z, obs, p, grad=True)
        assert ev.g == 0.0
        # the measurement-only gradient: no argument anywhere near the hinge
        far = evaluate(ens, z, obs, dataclasses.replace(p, d_n=np.full(dims.N, 1e12)),
                       grad=True)
        assert ev.f == far.f
        np.testing.assert_array_equal(ev.grad.channels, far.grad.channels)
        np.testing.assert_array_equal(ev.grad.coefficients, far.grad.coefficients)
        dz = random_pair(dims, rng)
        fd = _directional_fd(lambda zz: evaluate(ens, zz, obs, p).f, z, dz)
        assert fd == pytest.approx(_directional(ev.grad, dz), rel=1e-6)

    @pytest.mark.parametrize("dims", SMALL_DIMS, ids=str)
    def test_gradient_evaluation_agrees(self, dims, rng):
        ens, truth, obs = make_instance(dims, snr_db=30.0)
        p = oracle_params(ens, truth)
        z = random_pair(dims, rng, scale=1.6)
        plain = evaluate(ens, z, obs, p)
        full = evaluate(ens, z, obs, p, grad=True)
        assert (full.f, full.g) == (plain.f, plain.g)
        assert full.f_tilde == loss_total(ens, z, obs, p)
        g = grad_total(ens, z, obs, p)
        np.testing.assert_array_equal(full.grad.channels, g.channels)
        np.testing.assert_array_equal(full.grad.coefficients, g.coefficients)

    def test_bounds_follow_the_ensemble(self, rng):
        """The certificate's caps come from the ensemble at hand.  With one
        p, a point that the DCT coding certifies idle (coded bound 0.28) has
        a coded argument of 1.5 under a coding of unit rows (rho = 1): there
        G > 0, bit for bit as with a fresh p."""
        dims = Dimensions(L=32, Q=16, M=4, K=2, N=2)
        ens, _, obs = make_instance(dims)
        unit_rows = MeasurementEnsemble(dims=dims, modulation=ens.modulation, coding=np.stack(
            [np.eye(dims.Q)[:, n * dims.K:(n + 1) * dims.K] for n in range(dims.N)]))
        x = np.zeros((dims.N, dims.K), dtype=complex)
        x[:, 0] = np.sqrt(0.2)  # C_n x_n of unit rows has one entry of size^2 0.2
        z = BlockFactorPair(0.1 * random_pair(dims, rng).channels, x)
        p = PenaltyParams(rho=1.0, d=1.0, d_n=np.ones(dims.N), mu=10.0,
                          nu=np.sqrt(dims.Q * 0.2 / (8 * 1.5)))
        with pytest.MonkeyPatch.context() as mp:
            calls = _count_coded_messages(mp)
            assert evaluate(ens, z, obs, p).g == 0.0 and not calls
        ev = evaluate(unit_rows, z, obs, p, grad=True)
        fresh = evaluate(unit_rows, z, obs, dataclasses.replace(p), grad=True)
        assert ev.g == fresh.g == pytest.approx(2 * (1.5 - 1.0) ** 2)
        np.testing.assert_array_equal(ev.grad.coefficients, fresh.grad.coefficients)

    @pytest.mark.parametrize("dims", SMALL_DIMS, ids=str)
    @pytest.mark.parametrize("scale", [1.0, 1.6], ids=["truth", "hinge"])
    def test_complex64_operands(self, dims, scale, rng):
        """complex64 copies of the coded spectra, y and z, and the cached
        `_single_basis`, as `solve` starts and descends on at paper scale:
        the gradient is complex64, also where the hinge (formed in float64)
        is active, and agrees with complex128; F sums the complex64 residual
        in float64.  The start's adjoint blocks agree with complex128 to
        float32 rounding, and `adjoint_component` is block n bit for bit."""
        ens, truth, obs = make_instance(dims, snr_db=30.0)
        p = oracle_params(ens, truth)
        z = truth if scale == 1.0 else random_pair(dims, rng, scale=scale)
        ens32, obs32 = copy.copy(ens), copy.copy(obs)
        vars(ens32).update(coded_spectra=ens.coded_spectra.astype(np.complex64),
                           basis=_single_basis(dims.L, dims.M))
        vars(obs32).update(samples=obs.samples.astype(np.complex64))
        z32 = z.astype(np.complex64)
        assert ens32.basis.dtype == np.complex64
        blocks = _adjoint_blocks(ens32, obs32.samples)
        ref_blocks = _adjoint_blocks(ens, obs.samples)
        assert blocks.dtype == np.complex64
        assert np.linalg.norm(blocks - ref_blocks) <= 1e-6 * np.linalg.norm(ref_blocks)
        for n in range(dims.N):
            np.testing.assert_array_equal(adjoint_component(ens, n, obs.samples), ref_blocks[n])
            np.testing.assert_array_equal(_adjoint_blocks(ens32, obs32.samples, n), blocks[n])
        assert ens.coded_spectra.dtype == obs.samples.dtype == np.complex128
        ev, ref = evaluate(ens32, z32, obs32, p, grad=True), evaluate(ens, z, obs, p, grad=True)
        assert (ev.g > 0.0) == (ref.g > 0.0) == (scale > 1.0)
        spectra, coded = component_spectra(ens32, z32)
        residual = ((spectra * coded).sum(axis=1) - obs32.samples).astype(complex)
        assert ev.f == float(np.vdot(residual, residual).real)
        y_sq = np.vdot(obs.samples, obs.samples).real
        assert ev.f == pytest.approx(ref.f, rel=1e-5, abs=1e-6 * y_sq)
        assert ev.g == pytest.approx(ref.g, rel=1e-4, abs=1e-12)
        for got, want in [(ev.grad.channels, ref.grad.channels),
                          (ev.grad.coefficients, ref.grad.coefficients)]:
            assert got.dtype == np.complex64
            assert np.linalg.norm(got - want) <= 1e-4 * np.linalg.norm(want) + 1e-6

    def test_no_gradient_at_non_finite_point(self):
        """At 1e100 x truth F + G overflows: evaluate reports it and forms no
        gradient, rather than raising on the gradient's non-finite entries."""
        ens, truth, obs = make_instance(Dimensions(L=64, Q=64, M=3, K=3, N=1), seed=1)
        p = oracle_params(ens, truth)
        z = BlockFactorPair(1e100 * truth.channels, 1e100 * truth.coefficients)
        with np.errstate(all="ignore"):
            ev = evaluate(ens, z, obs, p, grad=True)
        assert not np.isfinite(ev.f_tilde)
        assert not np.isfinite(ev.g)
        assert ev.grad is None

    def test_nan_point_takes_the_full_hinge_path(self):
        """A NaN hinge argument is not <= 1, so G is summed and is NaN too,
        never a silent 0: for a NaN channel entry, and for a NaN coefficient
        entry, which leaves the channel families finite, so that a test that
        let a finite maximum outrank a NaN one (a Python max over the family
        maxima) would report G = 0."""
        ens, truth, obs = make_instance(Dimensions(L=32, Q=16, M=4, K=3, N=2))
        p = oracle_params(ens, truth)
        for factor in (0, 1):
            h, x = truth.channels.copy(), truth.coefficients.copy()
            (h, x)[factor][1, 2] = np.nan
            ev = evaluate(ens, BlockFactorPair.unchecked(h, x), obs, p, grad=True)
            assert np.isnan(ev.g) and np.isnan(ev.f_tilde)
            assert ev.grad is None

    @pytest.mark.parametrize("dims", SMALL_DIMS, ids=str)
    def test_no_fft_calls(self, dims, rng, monkeypatch):
        """The channel transform is a product with the cached, read-only
        partial DFT, built once per (L, M): component_spectra and evaluate
        make no np.fft call."""
        ens, truth, obs = make_instance(dims)
        p = oracle_params(ens, truth)
        z = random_pair(dims, rng, scale=1.6)
        basis = dft_basis(dims.L, dims.M)
        assert dft_basis(dims.L, dims.M) is basis
        with pytest.raises(ValueError):
            basis[0, 0] = 0.0
        calls = []

        def counted(name):
            fn = getattr(np.fft, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in np.fft.__all__:
            if callable(getattr(np.fft, name)):
                monkeypatch.setattr(np.fft, name, counted(name))
        component_spectra(ens, z)
        assert evaluate(ens, z, obs, p).g > 0.0  # the hinge path runs too
        evaluate(ens, z, obs, p, grad=True)
        assert calls == []

    def test_transform_matches_fft_at_largest_paper_cell(self, rng):
        """At L=3200, M=24 (the paper grid's largest M) the basis products
        agree with the zero-padded FFT and the truncated inverse FFT."""
        dims = Dimensions(L=3200, Q=800, M=24, K=24, N=2)
        ens, _, obs = make_instance(dims)
        z = random_pair(dims, rng)
        spectra, coded = component_spectra(ens, z)
        fft_spectra = np.fft.fft(z.channels.T, n=dims.L, axis=0) / np.sqrt(dims.L)
        assert np.linalg.norm(spectra - fft_spectra) <= 1e-12 * np.linalg.norm(fft_spectra)
        idle = PenaltyParams(rho=1.0, d=1.0, d_n=np.full(dims.N, 1e12), mu=1.0, nu=1.0)
        ev = evaluate(ens, z, obs, idle, grad=True)
        assert ev.g == 0.0
        residual = np.sum(fft_spectra * coded, axis=1) - obs.samples
        fft_gh = (np.sqrt(dims.L) * np.fft.ifft(residual[:, None] * np.conj(coded), axis=0))
        fft_gh = fft_gh[:dims.M].T
        assert np.linalg.norm(ev.grad.channels - fft_gh) <= 1e-12 * np.linalg.norm(fft_gh)

    def test_shape_mismatch_raises(self, rng):
        dims = Dimensions(L=32, Q=16, M=4, K=3, N=2)
        ens, truth, obs = make_instance(dims)
        bad = random_pair(Dimensions(L=32, Q=16, M=5, K=3, N=2), rng)
        p = oracle_params(ens, truth)
        with pytest.raises(ValueError):
            evaluate(ens, bad, obs, p)
        with pytest.raises(ValueError):
            evaluate(ens, truth, ObservationVector(np.ones(31)), p)

    @pytest.mark.parametrize("d_n", [1.0, (1.0,), (1.0, 1.0, 1e-9)], ids=["0-d", "short", "long"])
    def test_d_n_of_another_length_raises(self, d_n):
        """`PenaltyParams` cannot know N, so `evaluate` checks d_n: the idle
        certificate zipped over it and stopped at the shorter, so a short or
        long d_n gave G = 0 where the hinge is active (a 0-d one a TypeError)."""
        ens, truth, obs = make_instance(Dimensions(L=64, Q=64, M=4, K=4, N=2))
        z = BlockFactorPair(truth.channels * np.array([[1.0], [5.0]]), truth.coefficients)
        rep = coherences(ens, truth)

        def at(d_n):
            return evaluate(ens, z, obs, PenaltyParams(rho=1.0, d=1.0, d_n=d_n,
                                                        mu=rep.mu, nu=rep.nu))

        assert at((1.0, 1.0)).g == pytest.approx(175.46, abs=0.01)
        with pytest.raises(ValueError, match="d_n shape"):
            at(d_n)
