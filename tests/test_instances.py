"""Tests of seeded instance generation, the relative-error metric and the
JSON snapshot format."""

import functools
import json

import numpy as np
import pytest
from scipy.fft import dct

from moddemix.instances import (
    TrialSpec,
    make_coding_matrix,
    make_ground_truth,
    make_modulation,
    relative_error,
    snapshot_from_json,
    snapshot_to_json,
    synthesize,
)
from moddemix.operators import BlockFactorPair, Dimensions, forward_map

DIMS = Dimensions(L=32, Q=16, M=4, K=3, N=2)


class TestCodingMatrix:
    @pytest.mark.parametrize("Q,K,n,stride", [(16, 4, 0, 1), (16, 3, 1, 2),
                                              (32, 8, 2, 3), (8, 8, 0, 1)])
    def test_orthonormal(self, Q, K, n, stride):
        C = make_coding_matrix(Q, K, n, stride)
        assert C.shape == (Q, K)
        np.testing.assert_allclose(C.T @ C, np.eye(K), atol=1e-12)

    @pytest.mark.parametrize("Q,K,n,stride", [(8, 2, 1, 2), (24, 3, 2, 3),
                                              (320, 8, 1, 2), (3200, 12, 1, 2)])
    def test_equals_dense_dct_columns(self, Q, K, n, stride):
        """Bit-identical to the columns of the full Q x Q orthonormal DCT-II."""
        dense = dct(np.eye(Q), norm="ortho", axis=0)[:, n + stride * np.arange(K)]
        assert np.array_equal(make_coding_matrix(Q, K, n, stride), dense)

    def test_components_use_disjoint_columns(self):
        N, Q, K = 3, 24, 5
        cols = [make_coding_matrix(Q, K, n, stride=N) for n in range(N)]
        # pairwise orthogonal because the DCT column subsets are disjoint
        for i in range(N):
            for j in range(i + 1, N):
                assert np.max(np.abs(cols[i].T @ cols[j])) < 1e-12

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            make_coding_matrix(8, 9, 0)
        with pytest.raises(ValueError):
            make_coding_matrix(8, 4, 2, stride=3)  # column 2+3*3=11 >= Q
        with pytest.raises(ValueError):
            make_coding_matrix(8, 4, -1)
        with pytest.raises(ValueError, match="1 <= K"):
            make_coding_matrix(8, 0, 0)
        with pytest.raises(ValueError, match="1 <= K"):
            make_coding_matrix(8, -1, 0)


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
        assert obs.noise is None
        np.testing.assert_allclose(obs.samples, forward_map(ens, truth), atol=1e-14)

    @pytest.mark.parametrize("snr", [0.0, 10.0, 37.5])
    def test_exact_snr(self, snr):
        ens, truth, obs = synthesize(TrialSpec(DIMS, seed=4, snr_db=snr))
        clean = forward_map(ens, truth)
        realized = 10.0 * np.log10(np.linalg.norm(clean) ** 2
                                   / np.linalg.norm(obs.noise) ** 2)
        assert realized == pytest.approx(snr, abs=1e-10)

    def test_infinite_snr_is_noiseless(self):
        _, _, obs = synthesize(TrialSpec(DIMS, seed=4, snr_db=np.inf))
        assert obs.noise is None


class TestRelativeError:
    def test_zero_at_truth(self):
        _, truth, _ = synthesize(TrialSpec(DIMS, seed=0))
        assert relative_error(truth, truth) == 0.0

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

    def test_ambiguity_invariance(self):
        rng = np.random.default_rng(1)
        _, truth, _ = synthesize(TrialSpec(DIMS, seed=0))
        alpha = rng.standard_normal(DIMS.N) + 1j * rng.standard_normal(DIMS.N)
        est = BlockFactorPair(truth.channels * alpha[:, None],
                              truth.coefficients / np.conj(alpha)[:, None])
        assert relative_error(est, truth) < 1e-12

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
        np.testing.assert_array_equal(obs2.noise, obs.noise)

    def test_noiseless_round_trip(self):
        spec = TrialSpec(DIMS, seed=11)
        ens, truth, obs = synthesize(spec)
        _, _, _, obs2 = snapshot_from_json(snapshot_to_json(spec, ens, truth, obs))
        assert obs2.noise is None

    def test_format_is_versioned_json(self):
        spec = TrialSpec(DIMS, seed=11)
        doc = json.loads(snapshot_to_json(spec, *synthesize(spec)))
        assert doc["format"] == "moddemix-instance-v1"
        assert doc["dims"] == {"L": 32, "Q": 16, "M": 4, "K": 3, "N": 2}

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            snapshot_from_json(json.dumps({"format": "other"}))

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
