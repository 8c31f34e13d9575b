"""Synthetic problem generation and the success metric.

Every random draw is keyed off a 64-bit trial seed through numpy's
SeedSequence, with fixed integer stream tags per purpose (modulation,
channels, coefficients, noise), so a TrialSpec reproduces its instance
bit-for-bit.  Coding matrices are deterministic DCT column subsets and do
not consume randomness.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct

from .operators import (
    BlockFactorPair,
    Dimensions,
    MeasurementEnsemble,
    ObservationVector,
    forward_map,
)

__all__ = [
    "TrialSpec",
    "make_coding_matrix",
    "make_modulation",
    "make_ground_truth",
    "synthesize",
    "relative_error",
    "snapshot_to_json",
    "snapshot_from_json",
]

# stream tags for seed splitting
_STREAM_MODULATION = 1
_STREAM_CHANNELS = 2
_STREAM_COEFFICIENTS = 3
_STREAM_NOISE = 4


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *tags]))


@dataclass(frozen=True)
class TrialSpec:
    """One reproducible experiment instance: geometry, seed and optional SNR
    in dB (None = noiseless)."""

    dims: Dimensions
    seed: int
    snr_db: float | None = None


def make_coding_matrix(Q: int, K: int, n: int, stride: int = 1) -> np.ndarray:
    """Q x K orthonormal coding matrix for component n.

    Columns are the DCT-II (orthonormal) columns {n, n+stride, n+2*stride,
    ...}; with stride = N the column sets of distinct components are
    disjoint, keeping components distinguishable.
    """
    if K > Q:
        raise ValueError(f"need K <= Q, got K={K}, Q={Q}")
    if n < 0 or stride < 1:
        raise ValueError("component index must be >= 0 and stride >= 1")
    idx = n + stride * np.arange(K)
    if idx[-1] >= Q:
        raise ValueError(
            f"column subset {{{n}, {n}+{stride}, ...}} needs {idx[-1] + 1} DCT columns "
            f"but Q={Q}")
    # DCT of the K selected unit vectors: the same columns as the full Q x Q
    # basis, without forming it
    select = np.zeros((Q, K))
    select[idx, np.arange(K)] = 1.0
    return dct(select, norm="ortho", axis=0)


def make_modulation(Q: int, n: int, seed: int) -> np.ndarray:
    """Length-Q iid +-1 sequence; independent stream per (seed, n)."""
    rng = _rng(seed, _STREAM_MODULATION, n)
    return rng.integers(0, 2, size=Q) * 2.0 - 1.0


def make_ground_truth(spec: TrialSpec) -> BlockFactorPair:
    """Complex Gaussian factors, each rescaled to unit norm."""
    d = spec.dims
    rng_h = _rng(spec.seed, _STREAM_CHANNELS)
    rng_x = _rng(spec.seed, _STREAM_COEFFICIENTS)
    h = rng_h.standard_normal((d.N, d.M)) + 1j * rng_h.standard_normal((d.N, d.M))
    x = rng_x.standard_normal((d.N, d.K)) + 1j * rng_x.standard_normal((d.N, d.K))
    h *= (1.0 / np.linalg.norm(h, axis=1))[:, None]
    x *= (1.0 / np.linalg.norm(x, axis=1))[:, None]
    return BlockFactorPair(h, x)


def synthesize(spec: TrialSpec) -> tuple[MeasurementEnsemble, BlockFactorPair, ObservationVector]:
    """Build the ensemble, ground truth and observation for a trial.

    Noise is a complex Gaussian draw rescaled so the realized
    10*log10(||y_clean||^2 / ||e||^2) matches snr_db exactly.
    """
    d = spec.dims
    modulation = np.stack([make_modulation(d.Q, n, spec.seed) for n in range(d.N)])
    coding = np.stack([make_coding_matrix(d.Q, d.K, n, stride=d.N) for n in range(d.N)])
    ens = MeasurementEnsemble(dims=d, modulation=modulation, coding=coding)
    truth = make_ground_truth(spec)
    clean = forward_map(ens, truth)
    if spec.snr_db is None or np.isinf(spec.snr_db):
        obs = ObservationVector(samples=clean, noise=None)
    else:
        rng = _rng(spec.seed, _STREAM_NOISE)
        e = rng.standard_normal(d.L) + 1j * rng.standard_normal(d.L)
        target = np.linalg.norm(clean) * 10.0 ** (-spec.snr_db / 20.0)
        e *= target / np.linalg.norm(e)
        obs = ObservationVector(samples=clean + e, noise=e)
    return ens, truth, obs


def relative_error(est: BlockFactorPair, truth: BlockFactorPair) -> float:
    """Normalized Frobenius distance between estimated and true lifted
    blocks, via the factored Gram identity (no M x K matrices formed).
    Invariant under the per-component (alpha, conj(alpha)^-1) ambiguity."""
    if est.channels.shape != truth.channels.shape or \
            est.coefficients.shape != truth.coefficients.shape:
        raise ValueError("estimate/truth shapes differ")
    h, x = est.channels, est.coefficients
    h0, x0 = truth.channels, truth.coefficients
    hh = np.linalg.norm(h, axis=1) ** 2 * np.linalg.norm(x, axis=1) ** 2
    tt = np.linalg.norm(h0, axis=1) ** 2 * np.linalg.norm(x0, axis=1) ** 2
    if not np.any(tt > 0):
        raise ValueError("degenerate zero truth")
    cross = np.einsum("nm,nm->n", np.conj(h0), h) * np.conj(
        np.einsum("nk,nk->n", np.conj(x0), x))
    num = np.sum(hh) + np.sum(tt) - 2.0 * np.sum(cross.real)
    return float(np.sqrt(max(num, 0.0) / np.sum(tt)))


def _encode(arr: np.ndarray) -> dict:
    a = np.ascontiguousarray(arr)
    le = a.astype(a.dtype.newbyteorder("<"))
    return {
        "dtype": str(a.dtype),
        "shape": list(a.shape),
        "data": base64.b64encode(le.tobytes()).decode("ascii"),
    }


def _decode(obj: dict) -> np.ndarray:
    dtype = np.dtype(obj["dtype"]).newbyteorder("<")
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype=dtype).reshape(obj["shape"]).astype(obj["dtype"])


def snapshot_to_json(spec: TrialSpec, ens: MeasurementEnsemble,
                     truth: BlockFactorPair, obs: ObservationVector) -> str:
    """Serialize an instance (dims, seed, arrays base64 little-endian) for
    cross-language replay."""
    d = spec.dims
    doc = {
        "format": "moddemix-instance-v1",
        "dims": {"L": d.L, "Q": d.Q, "M": d.M, "K": d.K, "N": d.N},
        "seed": spec.seed,
        "snr_db": spec.snr_db,
        "modulation": _encode(ens.modulation),
        "coding": _encode(ens.coding),
        "channels": _encode(truth.channels),
        "coefficients": _encode(truth.coefficients),
        "samples": _encode(obs.samples),
    }
    if obs.noise is not None:
        doc["noise"] = _encode(obs.noise)
    return json.dumps(doc)


def snapshot_from_json(text: str) -> tuple[TrialSpec, MeasurementEnsemble,
                                           BlockFactorPair, ObservationVector]:
    doc = json.loads(text)
    if doc.get("format") != "moddemix-instance-v1":
        raise ValueError("unrecognized instance snapshot format")
    dims = Dimensions(**doc["dims"])
    spec = TrialSpec(dims=dims, seed=doc["seed"], snr_db=doc["snr_db"])
    ens = MeasurementEnsemble(dims=dims, modulation=_decode(doc["modulation"]),
                              coding=_decode(doc["coding"]))
    truth = BlockFactorPair(_decode(doc["channels"]), _decode(doc["coefficients"]))
    noise = _decode(doc["noise"]) if "noise" in doc else None
    obs = ObservationVector(samples=_decode(doc["samples"]), noise=noise)
    return spec, ens, truth, obs
