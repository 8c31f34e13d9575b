"""Synthetic problem generation and the success metric.

Every random draw is keyed off a 64-bit trial seed through numpy's
SeedSequence, with fixed integer stream tags per purpose (modulation,
channels, coefficients, noise), so a TrialSpec reproduces its instance
bit-for-bit.  Coding matrices are deterministic DCT column subsets and do
not consume randomness; `synthesize` shares one cached read-only stack of
them per (Q, K, N).
"""

from __future__ import annotations

import base64
import functools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.fft import dct

from .operators import (
    BlockFactorPair,
    Dimensions,
    MeasurementEnsemble,
    ObservationVector,
    check_seeds,
    forward_map,
)

__all__ = [
    "TrialSpec",
    "check_coding_fits",
    "make_coding_matrix",
    "make_modulation",
    "make_ground_truth",
    "synthesize",
    "relative_error",
    "relative_error_to",
    "snapshot_to_json",
    "snapshot_from_json",
]

# stream tags for seed splitting
_STREAM_MODULATION = 1
_STREAM_CHANNELS = 2
_STREAM_COEFFICIENTS = 3
_STREAM_NOISE = 4


def _rng(seed: int, *tags: int) -> np.random.Generator:
    check_seeds(seed=seed)
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


@dataclass(frozen=True)
class TrialSpec:
    """One reproducible experiment instance: geometry, seed (an integer
    >= 0) and optional SNR in dB (None = noiseless)."""

    dims: Dimensions
    seed: int
    snr_db: float | None = None

    def __post_init__(self):
        check_seeds(seed=self.seed)


def check_coding_fits(dims: Dimensions) -> None:
    """Raise ValueError unless Q holds N disjoint K-column DCT subsets: K * N <= Q."""
    if dims.K * dims.N > dims.Q:
        raise ValueError(f"Q={dims.Q}, K={dims.K}, M={dims.M}: N={dims.N} codings need K * N <= Q")


def make_coding_matrix(Q: int, K: int, n: int, stride: int = 1) -> np.ndarray:
    """Q x K orthonormal coding matrix for component n, as a fresh array.

    Columns are the DCT-II (orthonormal) columns {n, n+stride, n+2*stride,
    ...}; with stride = N the column sets of distinct components are
    disjoint, keeping components distinguishable.  `synthesize` does not
    call this per trial: it shares one cached, read-only (N, Q, K) stack of
    these matrices per (Q, K, N).
    """
    if not 1 <= K <= Q:
        raise ValueError(f"need 1 <= K <= Q, got K={K}, Q={Q}")
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


@functools.lru_cache(maxsize=4)
def _coding_stack(Q: int, K: int, N: int) -> np.ndarray:
    """The (N, Q, K) stack of `make_coding_matrix(Q, K, n, stride=N)`,
    cached and read-only.  A sweep runs its cells in (Q, K, M) order, so one
    entry serves every M of a (Q, K) row; at the paper grid's largest cell
    (Q = 3200, K = 24, N = 2) an entry is 1.2 MB."""
    stack = np.stack([make_coding_matrix(Q, K, n, stride=N) for n in range(N)])
    stack.setflags(write=False)
    return stack


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
    ens = MeasurementEnsemble(dims=d, modulation=modulation, coding=_coding_stack(d.Q, d.K, d.N))
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
    Invariant under the per-component (alpha, conj(alpha)^-1) ambiguity, and
    exact at extreme scales of either side (see `_rescaled_error`)."""
    return relative_error_to(truth)(est)


def relative_error_to(truth: BlockFactorPair) -> Callable[[BlockFactorPair], float]:
    """`relative_error(est, truth)` as a function of est, with the truth's
    side (sum_n ||h0_n||^2 ||x0_n||^2) computed once."""
    h0, x0 = truth.channels, truth.coefficients
    with np.errstate(all="ignore"):
        energy = _energy(h0, x0)

    def error(est: BlockFactorPair) -> float:
        h, x = est.channels, est.coefficients
        if h.shape != h0.shape or x.shape != x0.shape:
            raise ValueError("estimate/truth shapes differ")
        with np.errstate(all="ignore"):  # an overflow or underflow is redone below
            num = _energy(h, x) + energy - 2.0 * _cross(h, x, h0, x0)
        if math.isfinite(num) and energy > 2.0 ** -600:
            return float(np.sqrt(max(num, 0.0) / energy))
        return _rescaled_error(h, x, h0, x0)  # overflow, or near underflow

    return error


def _energy(h: np.ndarray, x: np.ndarray) -> float:
    """Sum_n ||h_n x_n^*||_F^2 = sum_n ||h_n||^2 ||x_n||^2."""
    return float(np.dot(np.vecdot(h, h).real, np.vecdot(x, x).real))


def _cross(h, x, h0, x0) -> float:
    """Re sum_n <h0_n x0_n^*, h_n x_n^*>_F = Re sum_n conj(<h0_n, h_n>) <x0_n, x_n>;
    the squared distance of the blocks is _energy(h, x) + _energy(h0, x0) - 2 cross."""
    return np.vdot(np.vecdot(h0, h), np.vecdot(x0, x)).real


def _rescaled_error(h, x, h0, x0) -> float:
    """relative_error where an energy leaves the double range.  Each factor is
    scaled by its own power of two, so est's blocks are 2^k times the rescaled
    ones relative to the truth's.  With E, E0 the rescaled energies and C
    their cross term, the error is 2^k sqrt((E - 2 2^-k C + 4^-k E0) / E0) for
    k > 0, else sqrt((4^k E - 2 2^k C + E0) / E0): no term overflows."""
    # 2^-e, finite for e >= -1022, puts a factor's largest entry in [0.5, 1)
    e = [max(math.frexp(abs(a).max())[1], -1022) for a in (h, x, h0, x0)]
    h, x, h0, x0 = (a * 2.0 ** -ea for a, ea in zip((h, x, h0, x0), e))
    k = e[0] + e[1] - e[2] - e[3]
    energy0 = _energy(h0, x0)
    if not energy0 > 0:
        raise ValueError("degenerate zero truth")
    hi = max(k, 0)
    num = (math.ldexp(_energy(h, x), 2 * (k - hi))
           - 2.0 * math.ldexp(_cross(h, x, h0, x0), k - 2 * hi)
           + math.ldexp(energy0, -2 * hi))
    with np.errstate(over="ignore"):  # an error above the double range is inf
        return float(np.ldexp(math.sqrt(max(num, 0.0) / energy0), hi))


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
    """Rebuild an instance written by `snapshot_to_json`.  Raises ValueError
    for text that is not a snapshot, naming a missing or malformed field."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != "moddemix-instance-v1":
        raise ValueError("unrecognized instance snapshot format")
    try:
        dims = Dimensions(**doc["dims"])
        spec = TrialSpec(dims=dims, seed=doc["seed"], snr_db=doc["snr_db"])
        ens = MeasurementEnsemble(dims=dims, modulation=_decode(doc["modulation"]),
                                  coding=_decode(doc["coding"]))
        truth = BlockFactorPair(_decode(doc["channels"]), _decode(doc["coefficients"]))
        noise = _decode(doc["noise"]) if "noise" in doc else None
        obs = ObservationVector(samples=_decode(doc["samples"]), noise=noise)
    except (KeyError, TypeError) as exc:  # a field missing, or of the wrong JSON type
        raise ValueError(f"malformed instance snapshot: {exc!r}") from None
    return spec, ens, truth, obs
