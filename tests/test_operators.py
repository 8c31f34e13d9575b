"""Operator-level tests: the partial-DFT basis, forward/adjoint maps and the dense
matrix oracle they must agree with."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SMALL_DIMS, make_instance, random_pair, small_dimensions
from moddemix.instances import _coding_stack
from moddemix.objective import PenaltyParams, coherences, evaluate
from moddemix.operators import (
    _CODING_FACTS,
    BlockFactorPair,
    Dimensions,
    MeasurementEnsemble,
    ObservationVector,
    _adjoint_blocks,
    _coding_facts,
    _single_basis,
    _unit_scaled,
    adjoint_component,
    component_spectra,
    dense_oracle,
    dft_basis,
    forward_map,
)


class TestPartialDft:
    @pytest.mark.parametrize("L,W", [(8, 8), (16, 5), (64, 1), (33, 20)])
    def test_matches_dense_dft_slice(self, L, W, rng):
        v = rng.standard_normal(W) + 1j * rng.standard_normal(W)
        F = np.exp(-2j * np.pi * np.outer(np.arange(L), np.arange(W)) / L) / np.sqrt(L)
        np.testing.assert_allclose(dft_basis(L, W), F, atol=1e-12)
        np.testing.assert_allclose(dft_basis(L, W) @ v, F @ v, atol=1e-12)

    @pytest.mark.parametrize("L,W", [(16, 5), (32, 32), (48, 7)])
    def test_adjoint_identity(self, L, W, rng):
        # the package's forward F @ v and adjoint conj(conj(w) @ F) share one basis
        v = rng.standard_normal(W) + 1j * rng.standard_normal(W)
        w = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        F = dft_basis(L, W)
        lhs = np.vdot(w, F @ v)
        rhs = np.vdot(np.conj(np.conj(w) @ F), v)
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)

    def test_columns_orthonormal(self):
        B = dft_basis(24, 10)
        np.testing.assert_allclose(B.conj().T @ B, np.eye(10), atol=1e-12)

    def test_batched_columns(self, rng):
        """F_W V is the zero-padded unitary FFT of each column of V."""
        V = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        np.testing.assert_allclose(dft_basis(16, 5) @ V,
                                   np.fft.fft(V, n=16, axis=0) / 4.0, atol=1e-12)

    def test_length_validation(self):
        """W > L is rejected."""
        with pytest.raises(ValueError, match="exceeds L"):
            dft_basis(8, 9)

    @pytest.mark.parametrize("L,W", [(3200, 12), (320, 8), (33, 20)])
    def test_single_basis_is_a_cached_row_major_copy(self, L, W):
        """The complex64 basis a paper-scale solve reads is cast once per
        (L, W), read-only, and row-major like `dft_basis`, so every product
        reads it as it reads the complex128 basis; its entries are the
        complex128 basis's, rounded."""
        basis = _single_basis(L, W)
        assert _single_basis(L, W) is basis
        assert basis.dtype == np.complex64 and not basis.flags.writeable
        assert basis.flags.c_contiguous and dft_basis(L, W).flags.c_contiguous
        with pytest.raises(ValueError):
            basis[0, 0] = 0.0
        np.testing.assert_array_equal(basis, dft_basis(L, W).astype(np.complex64))


class TestUnitScaled:
    """`_unit_scaled`, the one power-of-two rule every binary scale is read through."""

    @staticmethod
    def peak(a):
        return max(np.max(np.abs(a.real), initial=0.0), np.max(np.abs(a.imag), initial=0.0))

    @pytest.mark.parametrize("dtype,least", [(np.complex128, -1022), (np.complex64, -126)])
    @pytest.mark.parametrize("shape", [(2, 3), (0,)], ids=["zero", "empty"])
    def test_zero_or_empty_takes_the_least_normal_exponent(self, dtype, least, shape):
        scaled, e = _unit_scaled(np.zeros(shape, dtype=dtype))
        assert e == least and scaled.dtype == dtype and not np.any(scaled)

    @pytest.mark.filterwarnings("error")
    def test_subnormal_peak_is_floored(self):
        a = np.array([[1e-310 + 0j, -3e-311j], [0, 2e-320]])
        scaled, e = _unit_scaled(a)
        assert e == -1022
        assert np.all(np.isfinite(scaled)) and np.array_equal(scaled, np.ldexp(1.0, 1022) * a)

    @pytest.mark.filterwarnings("error")
    def test_part_whose_modulus_overflows(self):
        a = np.array([1.5e308 + 1.5e308j, -1.0, 2j])
        with np.errstate(over="ignore"):
            assert np.isinf(np.abs(a[0]))
        scaled, e = _unit_scaled(a)
        assert e == 1024 and np.all(np.isfinite(scaled.view(float)))
        assert 0.5 <= self.peak(scaled) < 1.0

    def test_strided_view_equals_a_contiguous_copy(self, rng):
        a = rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))
        view = a[::2, 1::3]
        (scaled, e), (ref, e_ref) = _unit_scaled(view), _unit_scaled(view.copy())
        assert e == e_ref and np.array_equal(scaled, ref)

    @pytest.mark.parametrize("dtype,scale", [
        *((np.complex128, s) for s in (1e-300, 1e-30, 0.5, 1.0, 1e30, 1e300)),
        *((np.complex64, s) for s in (1e-30, 1e-3, 1.0, 1e3, 1e30))])
    def test_normal_peak_lands_in_half_to_one(self, dtype, scale, rng):
        a = (scale * (rng.standard_normal(7) + 1j * rng.standard_normal(7))).astype(dtype)
        scaled, e = _unit_scaled(a)
        assert 0.5 <= self.peak(scaled) < 1.0 and scaled.dtype == dtype
        assert np.array_equal(scaled, np.ldexp(1.0, -e) * a.astype(complex))


class TestDimensions:
    def test_valid(self):
        d = Dimensions(L=32, Q=16, M=4, K=4, N=2)
        assert (d.L, d.Q, d.M, d.K, d.N) == (32, 16, 4, 4, 2)
        assert Dimensions(*np.array([32, 16, 4, 4, 2])).L == 32

    @pytest.mark.parametrize("kwargs", [
        dict(L=8, Q=16, M=4, K=4, N=1),   # Q > L
        dict(L=16, Q=8, M=4, K=9, N=1),   # K > Q
        dict(L=16, Q=8, M=17, K=4, N=1),  # M > L
        dict(L=16, Q=8, M=4, K=4, N=0),   # N < 1
        dict(L=16, Q=8, M=4, K=0, N=1),   # K < 1
        dict(L=64.5, Q=8, M=4, K=4, N=1),  # not an integer
        dict(L=16, Q=8.0, M=4, K=4, N=1),
        dict(L=16, Q=8, M=4, K=4, N=True),
        dict(L=16, Q=8, M=4, K=5, N=2),   # K <= Q < K * N
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            Dimensions(**kwargs)

    def test_builds_exactly_when_the_geometry_fits(self):
        """Every L, Q, M, K, N in 1..6: a geometry builds exactly when
        Q <= L, M <= L and K * N <= Q, and is a ValueError otherwise."""
        for L, Q, M, K, N in itertools.product(range(1, 7), repeat=5):
            fits = Q <= L and M <= L and K * N <= Q
            try:
                Dimensions(L=L, Q=Q, M=M, K=K, N=N)
            except ValueError:
                assert not fits, (L, Q, M, K, N)
            else:
                assert fits, (L, Q, M, K, N)


class TestEnsemble:
    def test_rejects_bad_modulation(self):
        d = Dimensions(L=8, Q=4, M=2, K=2, N=1)
        coding = np.eye(4)[None, :, :2]
        with pytest.raises(ValueError, match="modulation"):
            MeasurementEnsemble(d, np.full((1, 4), 0.5), coding)

    def test_rejects_complex_arrays(self):
        """A complex modulation or coding is a ValueError naming it, even
        with a zero imaginary part, not a cast that keeps the real part."""
        d = Dimensions(L=8, Q=4, M=2, K=2, N=1)
        modulation, coding = np.ones((1, 4)), np.eye(4)[None, :, :2]
        for name, bad in (("modulation", (1 + 0.5j) * modulation),
                          ("coding", coding.astype(complex))):
            arrays = {"modulation": modulation, "coding": coding, name: bad}
            with pytest.raises(ValueError, match=f"{name} must be real"):
                MeasurementEnsemble(d, **arrays)

    def test_rejects_nonorthonormal_coding(self):
        """The batched check names the first bad component; a non-finite
        coding matrix is not orthonormal either."""
        d = Dimensions(L=8, Q=4, M=2, K=2, N=2)
        for bad in (np.ones((4, 2)), np.full((4, 2), np.nan)):
            coding = np.stack([np.eye(4)[:, :2], bad])
            with pytest.raises(ValueError, match="coding matrix 1 not orthonormal"):
                MeasurementEnsemble(d, np.ones((2, 4)), coding)

    def test_shape_validation(self):
        d = Dimensions(L=8, Q=4, M=2, K=2, N=2)
        with pytest.raises(ValueError, match="modulation shape"):
            MeasurementEnsemble(d, np.ones((1, 4)), np.zeros((2, 4, 2)))
        with pytest.raises(ValueError, match="coding shape"):
            MeasurementEnsemble(d, np.ones((2, 4)), np.zeros((2, 4, 3)))

    def test_arrays_read_only(self):
        ens, _, _ = make_instance(Dimensions(L=16, Q=8, M=3, K=2, N=2))
        for arr in (ens.modulation, ens.coding, ens.coded_spectra):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_caller_arrays_stay_writeable(self):
        """The ensemble keeps read-only copies: the caller's own arrays stay
        writeable, and later writes to them do not reach the ensemble."""
        d = Dimensions(L=8, Q=4, M=2, K=2, N=1)
        modulation, coding = np.ones((1, 4)), np.eye(4)[None, :, :2].copy()
        ens = MeasurementEnsemble(d, modulation, coding)
        assert modulation.flags.writeable and coding.flags.writeable
        kept = [arr.copy() for arr in (ens.modulation, ens.coding, ens.coded_spectra)]
        modulation[0, 1] = -1.0
        coding[0] = np.eye(4)[:, 2:]
        for arr, want in zip((ens.modulation, ens.coding, ens.coded_spectra), kept):
            np.testing.assert_array_equal(arr, want)

    def test_broadcast_modulation_is_copied(self):
        """A read-only view of writable memory, np.broadcast_to of the
        caller's row, is copied: a later write to that row reaches neither
        the modulation nor the coded spectra."""
        d = Dimensions(L=8, Q=4, M=2, K=2, N=2)
        r = np.ones((1, 4))
        ens = MeasurementEnsemble(d, np.broadcast_to(r, (2, 4)),
                                  np.stack([np.eye(4)[:, :2], np.eye(4)[:, 2:]]))
        spectra = ens.coded_spectra.copy()
        r[0, 0] = 5.0
        assert ens.modulation.flags.owndata
        np.testing.assert_array_equal(ens.modulation, np.ones((2, 4)))
        np.testing.assert_array_equal(ens.coded_spectra, spectra)

    def test_coded_spectra_definition(self):
        """At an even and an odd L: the rfft mirror is exact for both."""
        for d in (Dimensions(L=16, Q=8, M=3, K=2, N=2), Dimensions(L=15, Q=9, M=3, K=2, N=2)):
            ens, _, _ = make_instance(d)
            for n in range(d.N):
                B = np.sqrt(d.L) * dft_basis(d.L, d.Q) @ (
                    ens.modulation[n][:, None] * ens.coding[n])
                np.testing.assert_allclose(ens.coded_spectra[n], np.conj(B), atol=1e-12)


def _spy_checks(monkeypatch) -> list:
    """Record the stack shape of each batched orthonormality check, the one
    norm taken over axes (1, 2)."""
    calls, norm = [], np.linalg.norm

    def spy(a, *args, **kwargs):
        if kwargs.get("axis") == (1, 2):
            calls.append(a.shape)
        return norm(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", spy)
    return calls


class TestCodingFacts:
    """`_coding_facts` checks a read-only stack that owns its data once and
    keeps its row peak while the stack lives; any other coding is checked
    anew.  Each ensemble holds its stack's peak as `row_peak`."""

    @staticmethod
    def _penalty(dims: Dimensions) -> PenaltyParams:
        return PenaltyParams(rho=1.0, d=1.0, d_n=np.ones(dims.N), mu=1.0, nu=1.0)

    def test_synthesized_ensembles_share_one_check(self, monkeypatch):
        """Ensembles that `synthesize` builds on one cached stack run the
        check and form the row peak once, in the first set-up, share that
        float as `row_peak` and check nothing in an evaluation."""
        dims = Dimensions(L=40, Q=21, M=3, K=4, N=3)
        _coding_stack.cache_clear()  # a new stack, so no earlier test's entry is found
        checks = _spy_checks(monkeypatch)
        instances = [make_instance(dims, seed=seed) for seed in range(3)]
        for ens, truth, obs in instances:
            evaluate(ens, truth, obs, self._penalty(dims), grad=True)
        assert checks == [(dims.N, dims.K, dims.K)]
        assert len({id(ens.coding) for ens, _, _ in instances}) == 1
        peaks = [ens.row_peak for ens, _, _ in instances]
        assert all(peak is peaks[0] for peak in peaks) and type(peaks[0]) is float
        assert peaks[0] == np.max(np.vecdot(instances[0][0].coding, instances[0][0].coding))
        assert checks == [(dims.N, dims.K, dims.K)]

    def test_rejection_is_never_kept(self, monkeypatch):
        """A non-orthonormal stack is rejected by every ensemble built on it,
        also a read-only one that owns its data, which would be kept if it
        passed."""
        d = Dimensions(L=8, Q=4, M=2, K=2, N=2)
        coding = np.stack([np.eye(4)[:, :2], np.ones((4, 2))])
        coding.setflags(write=False)
        checks = _spy_checks(monkeypatch)
        for _ in range(3):
            with pytest.raises(ValueError, match="coding matrix 1 not orthonormal"):
                MeasurementEnsemble(d, np.ones((2, 4)), coding)
        assert len(checks) == 3 and id(coding) not in _CODING_FACTS

    def test_caller_coding_is_copied_and_checked_per_ensemble(self, monkeypatch, rng):
        """A writable caller coding is copied, so each ensemble checks its own
        copy; later writes to the caller's array change neither the copy,
        its `row_peak` nor an evaluation."""
        d = Dimensions(L=8, Q=4, M=2, K=2, N=1)
        coding = np.eye(4)[None, :, :2].copy()
        checks = _spy_checks(monkeypatch)
        first, second = (MeasurementEnsemble(d, np.ones((1, 4)), coding) for _ in range(2))
        assert len(checks) == 2
        assert first.coding is not coding and first.coding is not second.coding
        z, y = random_pair(d, rng), ObservationVector(np.ones(d.L))
        before = evaluate(first, z, y, self._penalty(d), grad=True)
        assert first.row_peak == second.row_peak == 1.0
        coding[0] = 1.0  # rows of squared norm 2 in the caller's array
        np.testing.assert_array_equal(first.coding, np.eye(4)[None, :, :2])
        assert first.row_peak == second.row_peak == 1.0
        after = evaluate(first, z, y, self._penalty(d), grad=True)
        assert (after.f, after.g) == (before.f, before.g)
        np.testing.assert_array_equal(after.grad.coefficients, before.grad.coefficients)
        assert len(checks) == 2

    def test_kept_only_for_a_live_stack_that_owns_its_data(self):
        """An entry goes with its stack.  A read-only view, whose base may be
        writeable, reaches `_coding_facts` only as the ensemble's own copy,
        whose entry goes with that ensemble."""
        stack = np.eye(6)[None, :, :3].copy()
        stack.setflags(write=False)
        key = id(stack)
        _coding_facts(stack)
        assert key in _CODING_FACTS
        del stack
        assert key not in _CODING_FACTS
        view = np.eye(6)[None, :, :3]
        view.setflags(write=False)
        ens = MeasurementEnsemble(Dimensions(L=8, Q=6, M=2, K=3, N=1), np.ones((1, 6)), view)
        assert ens.coding is not view and ens.coding.flags.owndata
        key = id(ens.coding)
        assert id(view) not in _CODING_FACTS and key in _CODING_FACTS
        del ens
        assert key not in _CODING_FACTS

    def test_read_only_view_of_a_writable_coding_is_copied(self, rng):
        """Zeroing the writable base of a read-only coding view after the
        ensemble is built changes none of its coding, row_peak, coherences
        (nu^2 stays in [1, Q]) or an evaluation."""
        d = Dimensions(L=8, Q=4, M=2, K=2, N=2)
        base = np.stack([np.eye(4)[:, :2], np.eye(4)[:, 2:]])
        view = base.view()
        view.setflags(write=False)
        ens = MeasurementEnsemble(d, np.array([[1.0, -1, 1, 1], [-1, 1, 1, -1]]), view)
        z, y, p = random_pair(d, rng), ObservationVector(np.ones(d.L)), self._penalty(d)
        coding, peak = ens.coding.copy(), ens.row_peak
        rep, ev = coherences(ens, z), evaluate(ens, z, y, p, grad=True)
        base[:] = 0.0
        np.testing.assert_array_equal(ens.coding, coding)
        assert ens.row_peak == peak
        after = coherences(ens, z)
        assert (after.mu_sq, after.nu_sq) == (rep.mu_sq, rep.nu_sq) and 1.0 <= after.nu_sq <= d.Q
        again = evaluate(ens, z, y, p, grad=True)
        assert (again.f, again.g) == (ev.f, ev.g)
        np.testing.assert_array_equal(again.grad.coefficients, ev.grad.coefficients)


class TestCodedSpectraProperty:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(d=small_dimensions(), seed=st.integers(0, 2**32 - 1))
    @example(d=Dimensions(L=15, Q=12, M=3, K=4, N=3), seed=0)  # odd L, Q < L, K N = Q
    @example(d=Dimensions(L=16, Q=16, M=2, K=8, N=2), seed=0)  # even L, Q = L, K N = Q
    @example(d=Dimensions(L=1, Q=1, M=1, K=1, N=1), seed=0)
    @example(d=Dimensions(L=2, Q=1, M=1, K=1, N=1), seed=0)
    def test_mirrored_rfft_is_the_full_fft(self, d, seed):
        """The rfft-plus-mirror spectra equal conj(fft(r * C)) to 1e-13
        relative, and the in-place ihfft rows are the conjugated rfft bit
        for bit.  About 0.3 s."""
        ens, _, _ = make_instance(d, seed)
        modulated = ens.modulation[:, :, None] * ens.coding
        ref = np.conj(np.fft.fft(modulated, n=d.L, axis=1))
        assert ens.coded_spectra.shape == (d.N, d.L, d.K)
        assert np.linalg.norm(ens.coded_spectra - ref) <= 1e-13 * np.linalg.norm(ref)
        np.testing.assert_array_equal(ens.coded_spectra[:, :d.L // 2 + 1],
                                      np.conj(np.fft.rfft(modulated, n=d.L, axis=1)))


class TestForwardAdjoint:
    @pytest.mark.parametrize("dims", SMALL_DIMS, ids=str)
    def test_forward_component_matches_oracle(self, dims, rng):
        """Column n of the batched spectra product is A_n(h_n x_n^*)."""
        ens, _, _ = make_instance(dims)
        z = random_pair(dims, rng)
        spectra, coded = component_spectra(ens, z)
        for n in range(dims.N):
            via_matrix = dense_oracle(ens, n) @ z.lifted_block(n).ravel()
            np.testing.assert_allclose(spectra[:, n] * coded[:, n], via_matrix, atol=1e-12)

    @pytest.mark.parametrize("dims", SMALL_DIMS, ids=str)
    def test_forward_map_sums_components(self, dims, rng):
        ens, _, _ = make_instance(dims)
        z = random_pair(dims, rng)
        total = sum(dense_oracle(ens, n) @ z.lifted_block(n).ravel() for n in range(dims.N))
        np.testing.assert_allclose(forward_map(ens, z), total, atol=1e-12)

    @pytest.mark.parametrize("dims", SMALL_DIMS, ids=str)
    def test_adjoint_identity(self, dims, rng):
        ens, _, _ = make_instance(dims)
        z = random_pair(dims, rng)
        w = rng.standard_normal(dims.L) + 1j * rng.standard_normal(dims.L)
        lhs = np.vdot(forward_map(ens, z), w)
        rhs = sum(np.vdot(z.lifted_block(n), adjoint_component(ens, n, w))
                  for n in range(dims.N))
        assert abs(lhs - rhs) < 1e-11 * abs(lhs)

    @pytest.mark.parametrize("dims", SMALL_DIMS, ids=str)
    def test_adjoint_matches_oracle(self, dims, rng):
        ens, _, _ = make_instance(dims)
        w = rng.standard_normal(dims.L) + 1j * rng.standard_normal(dims.L)
        for n in range(dims.N):
            dense = (dense_oracle(ens, n).conj().T @ w).reshape(dims.M, dims.K)
            np.testing.assert_allclose(adjoint_component(ens, n, w), dense, atol=1e-12)

    def test_dense_oracle_guard(self):
        dims = Dimensions(L=128, Q=128, M=128, K=64, N=1)
        ens, _, _ = make_instance(dims)
        with pytest.raises(ValueError, match="guard"):
            dense_oracle(ens, 0)

    def test_input_shape_checks(self):
        dims = Dimensions(L=16, Q=8, M=3, K=2, N=1)
        ens, _, _ = make_instance(dims)
        with pytest.raises(ValueError):
            forward_map(ens, BlockFactorPair(np.ones((1, 4)), np.ones((1, 2))))
        with pytest.raises(ValueError):
            adjoint_component(ens, 0, np.ones(15))
        with pytest.raises(ValueError):
            adjoint_component(ens, 1, np.ones(16))

    @pytest.mark.parametrize("n", [True, False, 1.5, 0.0, -1, 2, "0"], ids=repr)
    def test_component_index_is_an_integer_in_range(self, n):
        """Each is a ValueError for the adjoint and the oracle alike: a bool
        (as an index, True would add an axis), a float, even a whole one, a
        string, and an integer outside [0, N).  numpy integers are indices."""
        ens, _, _ = make_instance(Dimensions(L=16, Q=8, M=3, K=2, N=2))
        with pytest.raises(ValueError, match="component index"):
            adjoint_component(ens, n, np.ones(16))
        with pytest.raises(ValueError, match="component index"):
            dense_oracle(ens, n)
        for index in (1, np.int64(1)):
            assert adjoint_component(ens, index, np.ones(16)).shape == (3, 2)


# the desk and paper geometries of the benchmark
PRODUCT_DIMS = [Dimensions(L=320, Q=320, M=8, K=8, N=2),
                Dimensions(L=3200, Q=3200, M=12, K=12, N=2)]


class TestProductForms:
    """The spectral start's batched adjoint and the matvec coded spectra
    equal their one-product forms bit for bit, and `adjoint_component` is
    block n of the start's product."""

    @pytest.mark.parametrize("dims", PRODUCT_DIMS + SMALL_DIMS, ids=str)
    def test_adjoint_blocks_equal_one_product_form(self, dims, rng):
        ens, _, obs = make_instance(dims)
        w = obs.samples + rng.standard_normal(dims.L)
        scaled = np.conj(w)[:, None] * dft_basis(dims.L, dims.M)
        blocks = _adjoint_blocks(ens, w)
        np.testing.assert_array_equal(blocks, np.conj(scaled.T @ ens.coded_spectra))
        for n in range(dims.N):
            np.testing.assert_array_equal(adjoint_component(ens, n, w), blocks[n])

    @pytest.mark.parametrize("dims", PRODUCT_DIMS, ids=str)
    def test_component_spectra_equal_one_product_form(self, dims, rng):
        ens, _, _ = make_instance(dims)
        z = random_pair(dims, rng)
        coded = (ens.coded_spectra @ np.conj(z.coefficients)[:, :, None])[:, :, 0].T
        np.testing.assert_array_equal(component_spectra(ens, z)[1], coded)

    def test_adjoint_blocks_form_no_stacked_temporary(self):
        """At paper scale the spectral start's batched product peaks below one
        (N, L, K) complex array, 1.2 MB: its only temporary is the (L, M)
        scaled basis, 0.6 MB."""
        dims = PRODUCT_DIMS[1]
        ens, _, obs = make_instance(dims)
        _adjoint_blocks(ens, obs.samples)  # the cached basis is built outside the count
        tracemalloc.start()
        try:
            _adjoint_blocks(ens, obs.samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dims.N * dims.L * dims.K * 16


class TestOperatorNorm:
    # SMALL_DIMS has two entries with L >= NMK and two with L < NMK; the desk
    # case with seed 2 is where a 100-step power iteration once stopped 2.2e-3 low
    @pytest.mark.parametrize(
        "dims,seed",
        [pytest.param(dims, 0, id=str(dims)) for dims in SMALL_DIMS]
        + [pytest.param(Dimensions(L=320, Q=320, M=8, K=8, N=2), 2, id="desk-seed2")])
    def test_matches_dense_svd(self, dims, seed):
        """The matrix-free adjoint attains the dense SVD's top singular value:
        A^* u_1 = sigma_1 v_1 for the top singular pair of the stacked oracle."""
        ens, _, _ = make_instance(dims, seed=seed)
        A = np.hstack([dense_oracle(ens, n) for n in range(dims.N)])
        U, s, Vh = np.linalg.svd(A, full_matrices=False)
        back = np.concatenate([adjoint_component(ens, n, U[:, 0]).ravel()
                               for n in range(dims.N)])
        assert np.linalg.norm(back) == pytest.approx(s[0], rel=1e-12)
        np.testing.assert_allclose(back, s[0] * Vh[0].conj(), atol=1e-10 * s[0])


class TestOperatorNormBound:
    @pytest.mark.parametrize(
        "dims,seed",
        [pytest.param(dims, 0, id=str(dims)) for dims in SMALL_DIMS]
        + [pytest.param(Dimensions(L=320, Q=320, M=8, K=8, N=2), 2, id="desk-seed2")])
    def test_norm_squared_at_most_NM(self, dims, seed):
        """||A||^2 <= N M, the bound the solver's first step rests on; the
        largest singular value comes from the stacked dense oracle blocks."""
        ens, _, _ = make_instance(dims, seed=seed)
        A = np.hstack([dense_oracle(ens, n) for n in range(dims.N)])
        assert np.linalg.svd(A, compute_uv=False)[0] ** 2 <= dims.N * dims.M * (1 + 1e-12)


class TestBlockFactorPair:
    def test_lifted_block(self, rng):
        z = random_pair(Dimensions(L=8, Q=4, M=3, K=2, N=2), rng)
        block = z.lifted_block(1)
        np.testing.assert_allclose(
            block, np.outer(z.channels[1], np.conj(z.coefficients[1])))

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockFactorPair(np.ones((2, 3)), np.ones((3, 2)))
        with pytest.raises(ValueError):
            BlockFactorPair(np.ones(3), np.ones(3))
        with pytest.raises(ValueError):
            BlockFactorPair(np.full((1, 2), np.nan), np.ones((1, 2)))


class TestObservationVector:
    def test_dims_check(self):
        obs = ObservationVector(np.ones(8))
        with pytest.raises(ValueError):
            obs.check_dims(Dimensions(L=16, Q=8, M=2, K=2, N=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite(self, bad):
        samples = np.ones(8, dtype=complex)
        samples[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ObservationVector(samples)
