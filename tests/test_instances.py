"""Tests of seeded instance generation, the relative-error metric and the
JSON snapshot format."""

import dataclasses
import functools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import dct

from conftest import small_dimensions, strict_json
from moddemix.cli import EXIT_OK, main
from moddemix.instances import (
    TrialSpec,
    _coding_stack,
    make_ground_truth,
    make_modulation,
    relative_error,
    relative_errors,
    snapshot_from_json,
    snapshot_to_json,
    synthesize,
)
from moddemix.operators import BlockFactorPair, Dimensions, ObservationVector, forward_map
from moddemix.solver import solve

DIMS = Dimensions(L=32, Q=16, M=4, K=3, N=2)


def _dense_columns(Q: int, K: int, N: int) -> np.ndarray:
    """(N, Q, K): columns {n, n+N, ..., n+(K-1)N} of the full Q x Q
    orthonormal DCT-II, for each n."""
    dense = dct(np.eye(Q), norm="ortho", axis=0)
    return np.stack([dense[:, n + N * np.arange(K)] for n in range(N)])


@st.composite
def _coding_shapes(draw) -> tuple[int, int, int]:
    """Any small (Q, K, N) with K * N <= Q."""
    Q = draw(st.integers(1, 64))
    N = draw(st.integers(1, min(Q, 4)))
    return Q, draw(st.integers(1, Q // N)), N


class TestCodingMatrix:
    """C_n = `_coding_stack(Q, K, N)[n]`: the DCT-II columns {n, n+N, ...}."""

    @pytest.mark.parametrize("Q,K,n,stride", [(16, 4, 0, 1), (16, 3, 1, 2),
                                              (32, 8, 2, 3), (8, 8, 0, 1)])
    def test_orthonormal(self, Q, K, n, stride):
        C = _coding_stack(Q, K, stride)[n]
        assert C.shape == (Q, K)
        np.testing.assert_allclose(C.T @ C, np.eye(K), atol=1e-12)

    @pytest.mark.parametrize("Q,K,n,stride", [(8, 2, 1, 2), (24, 3, 2, 3),
                                              (320, 8, 1, 2), (3200, 12, 1, 2)])
    def test_equals_dense_dct_columns(self, Q, K, n, stride):
        """Bit-identical to the columns of the full Q x Q orthonormal DCT-II."""
        dense = dct(np.eye(Q), norm="ortho", axis=0)[:, n + stride * np.arange(K)]
        assert np.array_equal(_coding_stack(Q, K, stride)[n], dense)

    def test_components_use_disjoint_columns(self):
        N, Q, K = 3, 24, 5
        cols = _coding_stack(Q, K, N)
        # pairwise orthogonal because the DCT column subsets are disjoint
        for i in range(N):
            for j in range(i + 1, N):
                assert np.max(np.abs(cols[i].T @ cols[j])) < 1e-12

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(shape=_coding_shapes())
    @example(shape=(1, 1, 1))
    @example(shape=(16, 8, 2))  # K N = Q
    @example(shape=(24, 8, 3))  # K N = Q
    @example(shape=(320, 8, 2))
    @example(shape=(3200, 12, 2))
    def test_is_disjoint_dense_dct_columns(self, shape):
        """C_n is bit for bit the dense DCT-II columns {n, n+N, ...}; the
        stack is read-only and C-contiguous, and its N K columns together
        are orthonormal, so the components' columns are disjoint.  About
        0.6 s, most of it the dense basis at Q = 3200."""
        Q, K, N = shape
        stack = _coding_stack(Q, K, N)
        assert np.array_equal(stack, _dense_columns(Q, K, N))
        assert not stack.flags.writeable and stack.flags.c_contiguous
        columns = stack.transpose(1, 0, 2).reshape(Q, N * K)
        np.testing.assert_allclose(columns.T @ columns, np.eye(N * K), atol=1e-12)


class TestModulation:
    def test_entries_pm_one(self):
        r = make_modulation(64, 0, seed=3)
        assert r.shape == (64,)
        assert set(np.unique(r)) <= {-1.0, 1.0}

    def test_streams_independent(self):
        a = make_modulation(64, 0, seed=3)
        b = make_modulation(64, 1, seed=3)
        assert not np.array_equal(a, b)

    def test_deterministic(self):
        np.testing.assert_array_equal(make_modulation(64, 0, 3),
                                      make_modulation(64, 0, 3))

    @pytest.mark.parametrize("seed", [1.5, True, -1, "1", None],
                             ids=["1.5", "True", "-1", "str", "None"])
    def test_invalid_seed_rejected(self, seed):
        """A seed is an integer >= 0, never coerced: 1.5 and True would run
        as seed 1."""
        with pytest.raises(ValueError, match="seed must be >= 0 and an integer"):
            make_modulation(8, 0, seed)
        with pytest.raises(ValueError, match="seed must be >= 0 and an integer"):
            TrialSpec(DIMS, seed=seed)


class TestGroundTruth:
    def test_component_energies(self):
        """Every true factor is complex with unit norm."""
        truth = make_ground_truth(TrialSpec(DIMS, seed=0))
        for factor in (truth.channels, truth.coefficients):
            np.testing.assert_allclose(np.linalg.norm(factor, axis=1), 1.0, rtol=1e-12)
            assert np.all(np.any(factor.imag != 0, axis=1))


class TestSynthesize:
    def test_deterministic(self):
        e1, t1, o1 = synthesize(TrialSpec(DIMS, seed=9, snr_db=15.0))
        e2, t2, o2 = synthesize(TrialSpec(DIMS, seed=9, snr_db=15.0))
        np.testing.assert_array_equal(e1.modulation, e2.modulation)
        np.testing.assert_array_equal(t1.channels, t2.channels)
        np.testing.assert_array_equal(o1.samples, o2.samples)

    def test_seeds_differ(self):
        _, t1, _ = synthesize(TrialSpec(DIMS, seed=1))
        _, t2, _ = synthesize(TrialSpec(DIMS, seed=2))
        assert not np.array_equal(t1.channels, t2.channels)

    def test_noiseless_observation_is_forward_map(self):
        ens, truth, obs = synthesize(TrialSpec(DIMS, seed=4))
        np.testing.assert_array_equal(obs.samples, forward_map(ens, truth))

    @pytest.mark.parametrize("snr", [0.0, 10.0, 37.5, np.float32(12.5), np.int64(20), 7])
    def test_exact_snr(self, snr):
        """The noise e = y - A(Z0) realizes the SNR exactly."""
        ens, truth, obs = synthesize(TrialSpec(DIMS, seed=4, snr_db=snr))
        clean = forward_map(ens, truth)
        realized = 10.0 * np.log10(np.linalg.norm(clean) ** 2
                                   / np.linalg.norm(obs.samples - clean) ** 2)
        assert realized == pytest.approx(snr, abs=1e-10)

    def test_infinite_snr_is_noiseless(self):
        """+inf dB is stored as None, the one spelling of noiseless."""
        for inf in (math.inf, np.float32(np.inf)):
            spec = TrialSpec(DIMS, seed=4, snr_db=inf)
            assert spec == TrialSpec(DIMS, seed=4) and spec.snr_db is None

    def test_shares_one_read_only_coding_stack(self):
        """Trials with the same (Q, K, N), whatever their L, M and seed, share
        one read-only stack of the dense DCT-II columns {n, n+N, ...}."""
        e1, _, _ = synthesize(TrialSpec(DIMS, seed=1))
        e2, _, _ = synthesize(TrialSpec(dataclasses.replace(DIMS, L=DIMS.Q, M=2), seed=2))
        assert e1.coding is e2.coding
        assert np.array_equal(e1.coding, _dense_columns(DIMS.Q, DIMS.K, DIMS.N))
        with pytest.raises(ValueError, match="read-only"):
            e1.coding[0, 0, 0] = 0.0

    def test_coding_that_does_not_fit_is_rejected(self):
        """K * N > Q is no geometry: `Dimensions` raises the error every
        sweep gives, so no TrialSpec reaches `synthesize` with it."""
        with pytest.raises(ValueError, match=r"Q=16, K=9, M=4: N=2 codings need K \* N <= Q"):
            Dimensions(L=32, Q=16, M=4, K=9, N=2)

    @pytest.mark.parametrize("snr", [math.nan, -math.inf, True, np.True_, "20", 1j],
                             ids=["nan", "-inf", "True", "np.True_", "str", "complex"])
    def test_nan_or_minus_inf_snr_rejected(self, snr):
        """An SNR of NaN or -inf dB is no instance (+inf is noiseless), nor
        is a bool (not 1 dB) or anything but a real number."""
        with pytest.raises(ValueError, match="snr_db must be above -inf and not NaN"):
            TrialSpec(DIMS, seed=4, snr_db=snr)


class TestRelativeError:
    def test_zero_at_truth(self):
        _, truth, _ = synthesize(TrialSpec(DIMS, seed=0))
        assert relative_error(truth, truth) == 0.0

    def test_zero_at_tiny_truth(self):
        """At 1e-100 per factor the truth still scores exact 0.  This case
        scored 2.3e-16 while a_n = <h0_n, h_n> / ||h0_n||^2 was a complex
        division, which missed 1 by an ulp; its parts are now divided apart."""
        d = Dimensions(L=13, Q=1, M=13, K=1, N=1)
        _, truth, _ = synthesize(TrialSpec(d, seed=7100765))
        tiny = BlockFactorPair(1e-100 * truth.channels, 1e-100 * truth.coefficients)
        assert relative_error(tiny, tiny) == 0.0
        assert relative_errors(tiny.channels[None], tiny.coefficients[None], tiny)[0] == 0.0

    def test_one_at_zero_estimate(self):
        _, truth, _ = synthesize(TrialSpec(DIMS, seed=0))
        zero = BlockFactorPair(np.zeros_like(truth.channels),
                               np.zeros_like(truth.coefficients))
        assert relative_error(zero, truth) == pytest.approx(1.0)

    def test_matches_dense_definition(self):
        rng = np.random.default_rng(0)
        _, truth, _ = synthesize(TrialSpec(DIMS, seed=0))
        est = BlockFactorPair(
            truth.channels + 0.1 * rng.standard_normal(truth.channels.shape),
            truth.coefficients + 0.1 * rng.standard_normal(truth.coefficients.shape))
        num = sum(np.linalg.norm(est.lifted_block(n) - truth.lifted_block(n)) ** 2
                  for n in range(DIMS.N))
        den = sum(np.linalg.norm(truth.lifted_block(n)) ** 2 for n in range(DIMS.N))
        assert relative_error(est, truth) == pytest.approx(np.sqrt(num / den),
                                                           rel=1e-12)

    @pytest.mark.parametrize("t", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9])
    def test_small_errors_match_dense_blocks(self, t):
        """At desk scale, the truth plus t times a complex Gaussian scores its
        dense lifted-block distance to 1e-7 relative down to an error of
        5e-9.  The dense difference h x^* - h0 x0^* is summed from the exact
        factor differences Dh = h - h0, Dx = x - x0 as Dh x0^* + h0 Dx^* +
        Dh Dx^*, so the reference itself cancels nothing.  The Gram identity
        ||h x^*||^2 + ||h0 x0^*||^2 - 2 Re<.,.> read 0.0 at t = 1e-9."""
        dims = Dimensions(L=320, Q=320, M=8, K=8, N=2)
        _, truth, _ = synthesize(TrialSpec(dims, seed=0))
        rng = np.random.default_rng(0)
        h0, x0 = truth.channels, truth.coefficients
        est = BlockFactorPair(
            h0 + t * (rng.standard_normal(h0.shape) + 1j * rng.standard_normal(h0.shape)),
            x0 + t * (rng.standard_normal(x0.shape) + 1j * rng.standard_normal(x0.shape)))
        dh, dx = est.channels - h0, est.coefficients - x0
        num = sum(np.linalg.norm(np.outer(dh[n], x0[n].conj()) + np.outer(h0[n], dx[n].conj())
                                 + np.outer(dh[n], dx[n].conj())) ** 2 for n in range(dims.N))
        den = sum(np.linalg.norm(truth.lifted_block(n)) ** 2 for n in range(dims.N))
        assert relative_error(est, truth) == pytest.approx(np.sqrt(num / den), rel=1e-7)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(d=small_dimensions(), seed=st.integers(0, 2**32 - 1))
    @example(d=Dimensions(L=24, Q=12, M=5, K=4, N=3), seed=0)  # K N = Q
    @example(d=Dimensions(L=16, Q=16, M=16, K=8, N=2), seed=0)  # M = L and K N = Q
    @example(d=Dimensions(L=1, Q=1, M=1, K=1, N=1), seed=0)
    def test_ambiguity_invariance(self, d, seed):
        """Scaling each component of a perturbed estimate by (alpha_n,
        1/conj(alpha_n)), |alpha_n| in [1e-3, 1e3], leaves its score
        unchanged to 1e-12 relative, and the truth so scaled scores below
        1e-12.  103 examples in about 0.3 s."""
        _, truth, _ = synthesize(TrialSpec(d, seed=seed))
        rng = np.random.default_rng(seed)
        alpha = 10.0 ** rng.uniform(-3, 3, d.N) * np.exp(2j * np.pi * rng.uniform(size=d.N))

        def ambiguous(z):
            return BlockFactorPair(z.channels * alpha[:, None],
                                   z.coefficients / np.conj(alpha)[:, None])

        def perturbed(a):
            return a + 0.1 * (rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape))

        est = BlockFactorPair(perturbed(truth.channels), perturbed(truth.coefficients))
        assert relative_error(ambiguous(est), truth) == pytest.approx(
            relative_error(est, truth), rel=1e-12)
        assert relative_error(ambiguous(truth), truth) < 1e-12

    @pytest.mark.parametrize("s", [1e-200, 1e-160, 1e160, 1e200])
    def test_extreme_scales_match_unit_scale(self, s):
        """Scaling every factor by s leaves the error unchanged, without
        overflowing ||h||^2 ||x||^2 (nan) or underflowing it (zero truth)."""
        _, truth, _ = synthesize(TrialSpec(DIMS, seed=0))
        est = BlockFactorPair(1.01 * truth.channels, truth.coefficients)
        with np.errstate(all="raise"):
            scaled = relative_error(BlockFactorPair(s * est.channels, s * est.coefficients),
                                    BlockFactorPair(s * truth.channels, s * truth.coefficients))
        assert scaled == pytest.approx(relative_error(est, truth), abs=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s", [1e-300, 1e-200, 1e-160, 1e160, 1e200, 1e300])
    def test_sides_at_different_scales(self, s):
        """An estimate s times the truth, or the truth s times the estimate,
        is scored exactly whatever the scale gap between the two sides."""
        _, truth, _ = synthesize(TrialSpec(DIMS, seed=0))
        scaled = BlockFactorPair(s * truth.channels, truth.coefficients)
        assert relative_error(scaled, truth) == pytest.approx(abs(s - 1.0), rel=1e-12)
        assert relative_error(truth, scaled) == pytest.approx(abs(1.0 - s) / s, rel=1e-12)

    def test_zero_truth_raises(self):
        _, truth, _ = synthesize(TrialSpec(DIMS, seed=0))
        zero = BlockFactorPair(np.zeros_like(truth.channels),
                               np.zeros_like(truth.coefficients))
        with pytest.raises(ValueError, match="degenerate"):
            relative_error(truth, zero)

    def test_shape_mismatch(self):
        _, truth, _ = synthesize(TrialSpec(DIMS, seed=0))
        other = BlockFactorPair(np.ones((2, 5)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            relative_error(other, truth)


    # per-factor scales of a stacked row: the last three put a sum out of the
    # double range (an inf, or 0 * inf), so their rows take `_rescaled_error`
    _ROW_SCALES = [(1.0, 1.0), (1e-200, 1.0), (1e200, 1e-200), (1e-200, 1e200), (1e200, 1.0)]

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(d=small_dimensions(), seed=st.integers(0, 2**32 - 1),
           rows=st.lists(st.sampled_from(range(len(_ROW_SCALES))), min_size=1, max_size=6),
           tiny_truth=st.booleans())
    @example(d=DIMS, seed=0, rows=list(range(len(_ROW_SCALES))), tiny_truth=False)
    def test_stack_scores_each_row_alone(self, d, seed, rows, tiny_truth):
        """The stacked scorer gives every row of a stack exactly the score
        `relative_error` gives it alone: ordinary rows, rows at 1e+-200,
        which take the fallback, and a truth whose energy is near underflow
        (1e-100 per factor), where every row takes it.  A row whose blocks
        are a unit row's scores as that row does, and the truth's own row
        scores exact 0 (`_distance_sq`).  61 examples in about 0.4 s."""
        _, truth, _ = synthesize(TrialSpec(d, seed=seed))
        if tiny_truth:
            truth = BlockFactorPair(1e-100 * truth.channels, 1e-100 * truth.coefficients)
        rng = np.random.default_rng(seed)

        def perturbed(a):
            return a + 0.1 * np.abs(a).max() * (rng.standard_normal(a.shape)
                                                + 1j * rng.standard_normal(a.shape))

        base = [(perturbed(truth.channels), perturbed(truth.coefficients)) for _ in rows]
        scales = [self._ROW_SCALES[r] for r in rows]
        h = np.stack([sh * bh for (sh, _), (bh, _) in zip(scales, base)] + [truth.channels])
        x = np.stack([sx * bx for (_, sx), (_, bx) in zip(scales, base)] + [truth.coefficients])
        errs = relative_errors(h, x, truth)
        assert errs.shape == (len(rows) + 1,) and errs[-1] == 0.0
        for t in range(len(rows) + 1):
            assert errs[t] == relative_error(BlockFactorPair(h[t], x[t]), truth)
        for (sh, sx), (bh, bx), err in zip(scales, base, errs):
            if sh * sx == 1.0:
                assert err == pytest.approx(relative_error(BlockFactorPair(bh, bx), truth),
                                            rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s", [1.0, 1e-100, 1e-160, 1e-200, 1e200])
    def test_zero_factor_scores_one(self, s):
        """An estimate with a zero factor has zero blocks, so it scores
        exactly 1 against a truth at any scale.  The fallback once read a zero
        factor's exponent as 0 and scored 0.0 against a truth at 1e-100."""
        _, truth, _ = synthesize(TrialSpec(DIMS, seed=0))
        truth = BlockFactorPair(s * truth.channels, s * truth.coefficients)
        zero_h = BlockFactorPair(np.zeros_like(truth.channels), truth.coefficients)
        zero_x = BlockFactorPair(truth.channels, np.zeros_like(truth.coefficients))
        for est in (zero_h, zero_x, BlockFactorPair(zero_h.channels, zero_x.coefficients)):
            assert relative_error(est, truth) == 1.0

    def test_stack_zero_truth_raises(self):
        _, truth, _ = synthesize(TrialSpec(DIMS, seed=0))
        zero = BlockFactorPair(np.zeros_like(truth.channels),
                               np.zeros_like(truth.coefficients))
        with pytest.raises(ValueError, match="degenerate"):
            relative_errors(np.stack([truth.channels] * 3), np.stack([truth.coefficients] * 3),
                            zero)


class TestSnapshot:
    def test_round_trip_exact(self):
        spec = TrialSpec(DIMS, seed=11, snr_db=25.0)
        ens, truth, obs = synthesize(spec)
        text = snapshot_to_json(spec, ens, truth, obs)
        spec2, ens2, truth2, obs2 = snapshot_from_json(text)
        assert spec2.dims == DIMS and spec2.seed == 11 and spec2.snr_db == 25.0
        np.testing.assert_array_equal(ens2.modulation, ens.modulation)
        np.testing.assert_array_equal(ens2.coding, ens.coding)
        np.testing.assert_array_equal(truth2.channels, truth.channels)
        np.testing.assert_array_equal(obs2.samples, obs.samples)

    def test_noiseless_round_trip(self):
        """A noiseless snapshot, +inf dB included, is strict JSON with
        snr_db null."""
        spec = TrialSpec(DIMS, seed=11, snr_db=math.inf)
        ens, truth, obs = synthesize(spec)
        text = snapshot_to_json(spec, ens, truth, obs)
        assert strict_json(text)["snr_db"] is None
        spec2, _, _, obs2 = snapshot_from_json(text)
        assert spec2 == spec
        np.testing.assert_array_equal(obs2.samples, obs.samples)

    def test_replay_reproduces_the_trial(self, tmp_path):
        """A `moddemix trial --dump-instance` snapshot, loaded and solved
        blind, gives the trial's record exactly: iterations, stop reason,
        evaluations and rel_err."""
        rec_path, inst_path = tmp_path / "rec.json", tmp_path / "inst.json"
        assert main(["trial", "--L", "64", "--Q", "64", "--M", "3", "--K", "3", "--N", "2",
                     "--seed", "3", "--snr-db", "30", "--out", str(rec_path),
                     "--dump-instance", str(inst_path)]) == EXIT_OK
        rec = strict_json(rec_path.read_text(encoding="utf-8"))
        _, ens, truth, obs = snapshot_from_json(inst_path.read_text(encoding="utf-8"))
        est, trace = solve(ens, obs)
        replay = {"iterations": trace.iterations, "stop_reason": trace.stop_reason,
                  "evaluations": int(trace.evals.sum()), "rel_err": relative_error(est, truth)}
        assert replay == {k: rec[k] for k in replay}

    def test_ignores_noise_of_older_snapshots(self):
        """A snapshot written with the simulation's noise beside the samples
        still loads; the noise is not read."""
        spec = TrialSpec(DIMS, seed=11, snr_db=25.0)
        ens, truth, obs = synthesize(spec)
        doc = json.loads(snapshot_to_json(spec, ens, truth, obs))
        doc["noise"] = doc["samples"]
        spec2, _, _, obs2 = snapshot_from_json(json.dumps(doc))
        assert spec2 == spec
        np.testing.assert_array_equal(obs2.samples, obs.samples)

    def test_format_is_versioned_json(self):
        spec = TrialSpec(DIMS, seed=11)
        doc = json.loads(snapshot_to_json(spec, *synthesize(spec)))
        assert doc["format"] == "moddemix-instance-v1"
        assert doc["dims"] == {"L": 32, "Q": 16, "M": 4, "K": 3, "N": 2}

    def test_rejects_perturbed_coding(self):
        """A coding matrix read from outside is checked, even though the one
        `synthesize` shares is orthonormal by construction."""
        spec = TrialSpec(DIMS, seed=11)
        ens, truth, obs = synthesize(spec)
        coding = ens.coding.copy()
        coding[1, 0, 0] += 1e-6
        text = snapshot_to_json(spec, SimpleNamespace(modulation=ens.modulation,
                                                      coding=coding), truth, obs)
        with pytest.raises(ValueError, match="coding matrix 1 not orthonormal"):
            snapshot_from_json(text)

    @pytest.mark.parametrize("field", ["modulation", "coding"])
    def test_rejects_complex_ensemble_arrays(self, field):
        """A complex modulation or coding read from outside is a ValueError
        naming it; its imaginary part is not dropped."""
        spec = TrialSpec(DIMS, seed=11)
        ens, truth, obs = synthesize(spec)
        arrays = {"modulation": ens.modulation, "coding": ens.coding}
        arrays[field] = (1 + 0.5j) * arrays[field]
        text = snapshot_to_json(spec, SimpleNamespace(**arrays), truth, obs)
        with pytest.raises(ValueError, match=f"{field} must be real"):
            snapshot_from_json(text)

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            snapshot_from_json(json.dumps({"format": "other"}))

    @pytest.mark.parametrize("field", ["samples", "channels", "coefficients"])
    def test_rejects_arrays_that_contradict_dims(self, field):
        """An array of the wrong length for the snapshot's own dims is a
        ValueError naming it."""
        spec = TrialSpec(DIMS, seed=11)
        ens, truth, obs = synthesize(spec)
        arrays = {"samples": obs.samples, "channels": truth.channels,
                  "coefficients": truth.coefficients}
        arrays[field] = np.concatenate([arrays[field], arrays[field]], axis=-1)
        text = snapshot_to_json(spec, ens,
                                BlockFactorPair(arrays["channels"], arrays["coefficients"]),
                                ObservationVector(arrays["samples"]))
        with pytest.raises(ValueError, match=f"{field} shape"):
            snapshot_from_json(text)

    @pytest.mark.parametrize("path", [("dims",), ("seed",), ("coding",), ("samples",),
                                      ("dims", "L"), ("coding", "dtype"), ()])
    def test_rejects_malformed_snapshot(self, path):
        """A snapshot missing a field, at the top or inside one, or a JSON
        list (path ()) is a ValueError naming what is wrong."""
        spec = TrialSpec(DIMS, seed=11)
        doc = json.loads(snapshot_to_json(spec, *synthesize(spec)))
        if not path:
            text, match = json.dumps([doc]), "format"
        else:
            del functools.reduce(dict.get, path[:-1], doc)[path[-1]]
            text, match = json.dumps(doc), f"'{path[-1]}'"
        with pytest.raises(ValueError, match=match):
            snapshot_from_json(text)
