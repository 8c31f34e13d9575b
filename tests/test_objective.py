"""Tests of the coherence measures, the regularized loss and its Wirtinger
gradient: the `evaluate` kernel against dense and direct transcriptions,
and its gradient against central finite differences."""

import numpy as np
import pytest

from conftest import SMALL_DIMS, make_instance, random_pair
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
    ObservationVector,
    dense_oracle,
    dft_basis,
    partial_dft_apply,
)


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
        assert rep.kappa >= 1.0
        assert rep.d0 == pytest.approx(np.sqrt(np.sum(rep.d_n**2)))

    def test_direct_formulas(self, rng):
        dims = Dimensions(L=32, Q=16, M=4, K=3, N=2)
        ens, _, _ = make_instance(dims)
        z = random_pair(dims, rng)
        rep = coherences(ens, z)
        mu_sq = max(
            dims.L * np.max(np.abs(partial_dft_apply(dims.L, z.channels[n]))) ** 2
            / np.linalg.norm(z.channels[n]) ** 2 for n in range(dims.N))
        nu_sq = max(
            dims.Q * np.max(np.abs(ens.coding[n] @ z.coefficients[n])) ** 2
            / np.linalg.norm(z.coefficients[n]) ** 2 for n in range(dims.N))
        assert rep.mu_sq == pytest.approx(mu_sq, rel=1e-12)
        assert rep.nu_sq == pytest.approx(nu_sq, rel=1e-12)

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

    def test_report_properties(self):
        rep = CoherenceReport(mu_sq=4.0, nu_sq=9.0, nu_max_sq=2.0, kappa=1.0,
                              d_n=np.ones(1), d0=1.0)
        assert rep.mu == 2.0 and rep.nu == 3.0


class TestPenaltyParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PenaltyParams(rho=0.0, d=1.0, d_n=np.ones(1), mu=1.0, nu=1.0)
        with pytest.raises(ValueError):
            PenaltyParams(rho=1.0, d=1.0, d_n=np.zeros(1), mu=1.0, nu=1.0)
        with pytest.raises(ValueError):
            PenaltyParams(rho=1.0, d=1.0, d_n=np.ones(1), mu=-1.0, nu=1.0)


class TestLoss:
    @pytest.mark.parametrize("dims", SMALL_DIMS, ids=str)
    def test_zero_at_truth_noiseless(self, dims):
        ens, truth, obs = make_instance(dims)
        p = oracle_params(ens, truth)
        assert evaluate(ens, truth, obs, p).f == pytest.approx(0.0, abs=1e-20)

    def test_equals_noise_energy_at_truth(self):
        dims = Dimensions(L=64, Q=32, M=4, K=4, N=2)
        ens, truth, obs = make_instance(dims, snr_db=20.0)
        expected = float(np.vdot(obs.noise, obs.noise).real)
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
        eps = 1e-5

        def val(s):
            zz = BlockFactorPair(z.channels + s * dz.channels,
                                 z.coefficients + s * dz.coefficients)
            return loss_total(ens, zz, obs, p)

        fd = (val(eps) - val(-eps)) / (2 * eps)
        an = 2.0 * (np.vdot(g.channels, dz.channels)
                    + np.vdot(g.coefficients, dz.coefficients)).real
        assert fd == pytest.approx(an, rel=1e-6, abs=1e-10)

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


class TestEvaluate:
    @pytest.mark.parametrize("dims", SMALL_DIMS, ids=str)
    def test_matches_dense_and_direct_transcription(self, dims, rng):
        ens, truth, obs = make_instance(dims, snr_db=30.0)
        p = oracle_params(ens, truth)
        z = random_pair(dims, rng, scale=1.6)
        ev = evaluate(ens, z, obs, p)

        lifted = sum(dense_oracle(ens, n) @ z.lifted_block(n).reshape(-1)
                     for n in range(dims.N))
        residual = lifted - obs.samples
        assert ev.f == pytest.approx(np.vdot(residual, residual).real, rel=1e-10)

        fm = dft_basis(dims.L, dims.M)
        g = 0.0
        for n in range(dims.N):
            dn = p.d_n[n]
            h, x = z.channels[n], z.coefficients[n]
            g += _hinge(np.linalg.norm(h) ** 2 / (2 * dn))
            g += _hinge(np.linalg.norm(x) ** 2 / (2 * dn))
            g += sum(_hinge(dims.L * abs(fm[l] @ h) ** 2 / (8 * dn * p.mu**2))
                     for l in range(dims.L))
            g += sum(_hinge(dims.Q * abs(ens.coding[n][q] @ x) ** 2 / (8 * dn * p.nu**2))
                     for q in range(dims.Q))
        assert g > 0.0
        assert ev.g == pytest.approx(p.rho * g, rel=1e-10)
        assert ev.grad is None

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

    @pytest.mark.parametrize("dims", SMALL_DIMS, ids=str)
    def test_fft_calls_independent_of_components(self, dims, rng, monkeypatch):
        ens, truth, obs = make_instance(dims)
        p = oracle_params(ens, truth)
        z = random_pair(dims, rng)
        calls = []

        def counted(name):
            fn = getattr(np.fft, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counted(name))
        evaluate(ens, z, obs, p)
        assert calls == ["fft"]
        calls.clear()
        evaluate(ens, z, obs, p, grad=True)
        assert calls == ["fft", "ifft"]

    def test_shape_mismatch_raises(self, rng):
        dims = Dimensions(L=32, Q=16, M=4, K=3, N=2)
        ens, truth, obs = make_instance(dims)
        bad = random_pair(Dimensions(L=32, Q=16, M=5, K=3, N=2), rng)
        p = oracle_params(ens, truth)
        with pytest.raises(ValueError):
            evaluate(ens, bad, obs, p)
        with pytest.raises(ValueError):
            evaluate(ens, truth, ObservationVector(np.ones(31)), p)
