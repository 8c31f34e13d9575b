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
import numbers
from dataclasses import dataclass

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
    "make_modulation",
    "make_ground_truth",
    "synthesize",
    "relative_error",
    "relative_errors",
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
    >= 0, kept as an int) and optional SNR in dB (kept as a float; None =
    noiseless, and +inf is stored as None; NaN, -inf and anything but a
    real, non-bool number are a ValueError)."""

    dims: Dimensions
    seed: int
    snr_db: float | None = None

    def __post_init__(self):
        check_seeds(seed=self.seed)
        s = self.snr_db
        if s is not None and (isinstance(s, bool) or not isinstance(s, numbers.Real)
                              or not s > -math.inf):
            raise ValueError(f"snr_db must be above -inf and not NaN (a real number, "
                             f"not a bool), got {s!r}")
        object.__setattr__(self, "seed", int(self.seed))  # JSON writes no numpy scalar
        object.__setattr__(self, "snr_db", None if s is None or s == math.inf else float(s))


@functools.lru_cache(maxsize=4)
def _coding_stack(Q: int, K: int, N: int) -> np.ndarray:
    """The (N, Q, K) stack of coding matrices, cached, read-only, C-contiguous
    (`evaluate`'s products would copy a strided view) and owning its data, so
    `_coding_facts` checks it once.  C_n is the orthonormal DCT-II columns
    {n, n+N, ...}, disjoint across components: one DCT of the first K*N <= Q
    unit vectors (`Dimensions`) gives column k of C_n as column k*N + n.  One
    entry serves every M of a (Q, K) row, at most 1.2 MB on the paper grid."""
    columns = dct(np.eye(Q, K * N), norm="ortho", axis=0)
    stack = columns.reshape(Q, K, N).transpose(2, 0, 1).copy()
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
    y = forward_map(ens, truth)
    if spec.snr_db is not None:
        rng = _rng(spec.seed, _STREAM_NOISE)
        e = rng.standard_normal(d.L) + 1j * rng.standard_normal(d.L)
        target = np.linalg.norm(y) * 10.0 ** (-float(spec.snr_db) / 20.0)
        y = y + e * (target / np.linalg.norm(e))
    return ens, truth, ObservationVector(y)


def relative_error(est: BlockFactorPair, truth: BlockFactorPair) -> float:
    """Normalized Frobenius distance between estimated and true lifted
    blocks, from the factors alone (no M x K matrices formed), as a sum of
    squares that cancels nothing at small errors (see `_distance_sq`).
    Invariant under the per-component (alpha, conj(alpha)^-1) ambiguity, and
    exact at extreme scales of either side (see `_rescaled_error`)."""
    return float(relative_errors(est.channels[None], est.coefficients[None], truth)[0])


def relative_errors(h: np.ndarray, x: np.ndarray, truth: BlockFactorPair) -> np.ndarray:
    """`relative_error` of each estimate of a stack, from their (T, N, M)
    channels and (T, N, K) coefficients: one vectorised pass, then
    `_rescaled_error` for each row that overflows, or for every row where
    the truth's energy nears underflow."""
    h0, x0 = truth.channels, truth.coefficients
    if h.shape[1:] != h0.shape or x.shape[1:] != x0.shape or len(h) != len(x):
        raise ValueError("estimate/truth shapes differ")
    with np.errstate(all="ignore"):  # an overflow or underflow is redone below
        h0_sq = np.vecdot(h0, h0).real
        energy = float(np.dot(h0_sq, np.vecdot(x0, x0).real))
        err = np.sqrt(_distance_sq(h, x, h0, x0, h0_sq) / energy)
    for t in np.flatnonzero(~np.isfinite(err) | (energy <= 2.0 ** -600)):
        err[t] = _rescaled_error(h[t], x[t], h0, x0)  # overflow, or near underflow
    return err


def _energy(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sum_n ||h_n x_n^*||_F^2 = sum_n ||h_n||^2 ||x_n||^2, per leading index."""
    return np.vecdot(np.vecdot(h, h).real, np.vecdot(x, x).real)


def _distance_sq(h, x, h0, x0, h0_sq) -> np.ndarray:
    """Sum_n ||h_n x_n^* - h0_n x0_n^*||_F^2 per leading index, h0_sq being
    ||h0_n||^2.  With a_n = <h0_n, h_n> / ||h0_n||^2 (0 where h0_n = 0),
    h_n - a_n h0_n is orthogonal to h0_n, which splits each block difference
    into two orthogonal terms: ||h0_n||^2 ||conj(a_n) x_n - x0_n||^2 +
    ||h_n - a_n h0_n||^2 ||x_n||^2.  Nothing cancels, and the truth scores
    exact 0: a_n's parts are divided apart (complex division can miss an ulp)."""
    a, norm = np.vecdot(h0, h), np.where(h0_sq > 0.0, h0_sq, 1.0)
    a.real, a.imag = a.real / norm, a.imag / norm
    dx = a.conj()[..., None] * x - x0
    return np.vecdot(h0_sq, np.vecdot(dx, dx).real) + _energy(h - a[..., None] * h0, x)


def _rescaled_error(h, x, h0, x0) -> float:
    """relative_error where an energy leaves the double range.  Each factor is
    scaled by its own power of two, so est's blocks are 2^k times the rescaled
    ones relative to the truth's.  The error is 2^hi times the distance
    between 2^(k - hi) times est's rescaled blocks and 2^-hi times the
    truth's, hi = max(k, 0), over sqrt(E0), E0 the truth's rescaled energy:
    no term overflows, and one that underflows is negligible."""
    # 2^-e, finite for e >= -1022, puts a factor's largest entry in [0.5, 1);
    # a zero factor takes the least e, as its blocks are zero at any scale
    e = [max(math.frexp(m)[1], -1022) if (m := abs(a).max()) else -1022 for a in (h, x, h0, x0)]
    h, x, h0, x0 = (a * 2.0 ** -ea for a, ea in zip((h, x, h0, x0), e))
    k = e[0] + e[1] - e[2] - e[3]
    h0_sq = np.vecdot(h0, h0).real
    energy0 = float(np.dot(h0_sq, np.vecdot(x0, x0).real))
    if not energy0 > 0:
        raise ValueError("degenerate zero truth")
    hi = max(k, 0)
    with np.errstate(under="ignore"):
        num = _distance_sq(h, math.ldexp(1.0, k - hi) * x, h0, math.ldexp(1.0, -hi) * x0,
                           h0_sq)
    with np.errstate(over="ignore"):  # an error above the double range is inf
        return float(np.ldexp(math.sqrt(num / energy0), hi))


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
    """Serialize an instance for cross-language replay: dims, seed, SNR and
    the ensemble, truth and samples as base64 little-endian arrays."""
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
    return json.dumps(doc)


def snapshot_from_json(text: str) -> tuple[TrialSpec, MeasurementEnsemble,
                                           BlockFactorPair, ObservationVector]:
    """Rebuild an instance written by `snapshot_to_json` (the `noise` key of
    older snapshots is ignored).  Raises ValueError for text that is not a
    snapshot, naming a missing or malformed field, or one whose arrays do not
    fit its dims."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != "moddemix-instance-v1":
        raise ValueError("unrecognized instance snapshot format")
    try:
        dims = Dimensions(**doc["dims"])
        spec = TrialSpec(dims=dims, seed=doc["seed"], snr_db=doc["snr_db"])
        ens = MeasurementEnsemble(dims=dims, modulation=_decode(doc["modulation"]),
                                  coding=_decode(doc["coding"]))
        truth = BlockFactorPair(_decode(doc["channels"]), _decode(doc["coefficients"]))
        obs = ObservationVector(_decode(doc["samples"]))
        truth.check_dims(dims)
        obs.check_dims(dims)
    except (KeyError, TypeError) as exc:  # a field missing, or of the wrong JSON type
        raise ValueError(f"malformed instance snapshot: {exc!r}") from None
    return spec, ens, truth, obs
