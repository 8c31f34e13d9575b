"""Partial-DFT plumbing and the rank-1 lifted measurement maps.

The observation model sums, over ``N`` transmitters, the elementwise product
of two length-``L`` spectra: the channel spectrum ``F_M h_n`` and the coded
spectrum of the modulated message.  The channel transform is a product
with the ensemble's `basis`, the cached partial DFT `dft_basis(L, M)`,
forward and adjoint alike: `component_spectra` forms all N channel and coded
spectra, and `_adjoint_blocks` all N adjoint blocks A_n^*(w) (`adjoint_component`: one).
A dense matrix oracle (`dense_oracle`) exists purely so tests can
cross-check these products.  The solver's first step size needs no norm
of A: ||A||^2 <= N M holds for every ensemble (see `moddemix.solver.solve`).

Conventions
-----------
* ``F_W`` is the first-``W``-column slice of the unitary ``L``-point DFT.
* The lifted unknown per component is the conjugate outer product
  ``Z_n = h_n x_n^*`` (``M x K``).  With that choice the measurement map is
  linear in ``Z_n`` but conjugate-linear in the coefficient vector ``x_n``;
  the per-component map reads

      A_n(h x^*) = (F_M h) * (conj(B_n) conj(x)),   B_n = sqrt(L) F_Q R_n C_n.

  The conjugated coded spectra ``conj(B_n)`` are cached on the ensemble.
  ``r_n * C_n`` is real, so its spectrum is Hermitian: they are built from
  one ``rfft`` (rows ``0..L//2``) and its conjugate mirror (the rest).
* Inner products are conjugate-linear in the first argument,
  ``<a, b> = a^H b``; the Frobenius pairing is ``<X, Y> = trace(X^H Y)``.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Dimensions",
    "MeasurementEnsemble",
    "BlockFactorPair",
    "ObservationVector",
    "component_spectra",
    "forward_map",
    "adjoint_component",
    "dense_oracle",
    "dft_basis",
    "check_counts",
    "check_seeds",
]

_ORTHO_TOL = 1e-12
_DENSE_GUARD = 4096
_CODING_FACTS: dict[int, float] = {}  # id of an ensemble's live coding stack -> its row peak


@dataclass(frozen=True)
class Dimensions:
    """Problem geometry: sample count L, modulation length Q, channel taps M,
    subspace dimension K and number of components N, with Q <= L, M <= L and
    K * N <= Q: the N codings are disjoint K-column slices of one Q-point DCT
    (and the paper's bound Q >= N^2 (B + M) admits no other geometry)."""

    L: int
    Q: int
    M: int
    K: int
    N: int

    def __post_init__(self):
        for name, value in zip(vars(self), check_counts(**vars(self))):
            object.__setattr__(self, name, value)
        if self.Q > self.L:
            raise ValueError(f"need Q <= L, got Q={self.Q}, L={self.L}")
        if self.K * self.N > self.Q:
            raise ValueError(f"Q={self.Q}, K={self.K}, M={self.M}: N={self.N} codings need "
                             "K * N <= Q")
        if self.M > self.L:
            raise ValueError(f"need M <= L, got M={self.M}, L={self.L}")


def check_counts(**counts) -> list[int]:
    """Raise ValueError for a count that is not an integer >= 1 (a bool is
    not a count); else return the counts as plain ints (JSON writes no np.integer)."""
    _check_integers(counts, 1)
    return [int(value) for value in counts.values()]


def check_seeds(**seeds) -> None:
    """Raise ValueError for a seed that is not an integer >= 0 (a bool is
    not a seed).  Seeds are never coerced: 1.5 and True are errors, not
    seed 1."""
    _check_integers(seeds, 0)


def _check_integers(values: dict, least: int) -> None:
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ValueError(f"{name} must be >= {least} and an integer, got {value!r}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _peak(a: np.ndarray) -> float:
    """a's largest |Re| or |Im|, finite where its largest modulus overflows."""
    return float(np.abs(np.ascontiguousarray(a).view(a.real.dtype)).max(initial=0.0))


def _unit_scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(a 2^-e, e): e puts a's largest |Re| or |Im| (finite where |a| overflows) in
    [0.5, 1), floored at the dtype's least normal exponent (-1022 complex128, -126
    complex64) so 2^-e is finite; a zero or empty a takes the floor."""
    least = np.finfo(a.dtype).minexp
    peak = _peak(a)
    e = max(math.frexp(peak)[1], least) if peak else least
    return a * math.ldexp(1.0, -e), e


@functools.lru_cache(maxsize=32)
def dft_basis(L: int, W: int) -> np.ndarray:
    """Dense row-major L x W matrix F_W: the first W columns of the unitary L-point
    DFT (a zero-padded FFT of the identity), cached and read-only like `_single_basis`
    (32 shapes hold the paper grid's 23 values of M at one L).  F_W v is
    ``np.matvec(F, v)`` and F_W^H w is ``conj(conj(w).T @ F)``.  Raises ValueError for W > L."""
    if W > L:
        raise ValueError(f"basis width {W} exceeds L={L}")
    return _frozen(np.fft.fft(np.eye(W), n=L, axis=0) / np.sqrt(L))


@functools.lru_cache(maxsize=32)
def _single_basis(L: int, W: int) -> np.ndarray:
    """`dft_basis(L, W)` cast to complex64, row-major like its source."""
    return _frozen(dft_basis(L, W).astype(np.complex64))


@dataclass(frozen=True)
class MeasurementEnsemble:
    """Fixed problem geometry: dimensions, +-1 modulation sequences r_n and
    real orthonormal Q x K coding matrices C_n.

    The conjugated coded spectra conj(sqrt(L) F_Q R_n C_n), shape (N, L, K),
    are precomputed once, from an rfft of the real r_n * C_n and its
    conjugate mirror, and shared read-only, as is basis, the cached F_M.
    `_coding_facts` checks each coding stack and forms its row_peak,
    max_{n, q} ||C_n[q, :]||^2, once.
    """

    dims: Dimensions
    modulation: np.ndarray  # (N, Q), entries exactly +-1
    coding: np.ndarray      # (N, Q, K), each slice orthonormal
    coded_spectra: np.ndarray = field(init=False, repr=False, compare=False)
    basis: np.ndarray = field(init=False, repr=False, compare=False)
    row_peak: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.dims
        modulation = _read_only(self.modulation, "modulation")
        coding = _read_only(self.coding, "coding")
        if modulation.shape != (d.N, d.Q):
            raise ValueError(f"modulation shape {modulation.shape} != {(d.N, d.Q)}")
        if coding.shape != (d.N, d.Q, d.K):
            raise ValueError(f"coding shape {coding.shape} != {(d.N, d.Q, d.K)}")
        if not np.all(np.abs(modulation) == 1.0):
            raise ValueError("modulation entries must be exactly +-1")
        object.__setattr__(self, "row_peak", _coding_facts(coding))
        spectra = _frozen(_conj_coded_spectra(modulation[:, :, None] * coding, d.L))
        vars(self).update(modulation=modulation, coding=coding, coded_spectra=spectra,
                          basis=dft_basis(d.L, d.M))  # bypasses the frozen __setattr__

    def _check_component(self, n: int) -> None:
        _check_integers({"component index": n}, 0)  # a bool or 1.5 is no index
        if not n < self.dims.N:
            raise ValueError(f"component index {n} out of range [0, {self.dims.N})")


def _coding_facts(coding: np.ndarray) -> float:
    """Row peak max_{n, q} ||C_n[q, :]||^2 of an (N, Q, K) coding stack whose
    C_n pass one batched C_n^T C_n orthonormality check (else a ValueError),
    kept while the stack lives (`_read_only` admits only read-only stacks
    that own their data)."""
    if (peak := _CODING_FACTS.get(id(coding))) is not None:
        return peak
    K = coding.shape[2]
    defects = np.linalg.norm(coding.transpose(0, 2, 1) @ coding - np.eye(K), axis=(1, 2))
    bad = np.flatnonzero(~(defects <= _ORTHO_TOL * max(1.0, K)))  # NaN is bad too
    if bad.size:
        raise ValueError(f"coding matrix {bad[0]} not orthonormal (defect {defects[bad[0]]:.2e})")
    peak = float(np.max(np.vecdot(coding, coding)))
    _CODING_FACTS[id(coding)] = peak  # dropped as the stack dies, before its id is reused
    weakref.finalize(coding, _CODING_FACTS.pop, id(coding))
    return peak


def _read_only(a, name: str) -> np.ndarray:
    """a as a read-only float array that owns its data: taken as it is if it
    is one already (as `synthesize`'s cached coding stack is), else a new
    copy, so no later write to the caller's array, or to the memory a
    read-only view of it reads, reaches the ensemble.  A complex a is a
    ValueError naming it, not a cast that drops its imaginary part."""
    if not (isinstance(a, np.ndarray) and a.dtype == float and a.flags.owndata
            and not a.flags.writeable):
        if np.iscomplexobj(a):
            raise ValueError(f"{name} must be real, got a complex array")
        a = _frozen(np.array(a, dtype=float))
    return a


def _conj_coded_spectra(modulated: np.ndarray, L: int) -> np.ndarray:
    """conj(B_n) for every n, shape (N, L, K), from the real (N, Q, K) stack
    r_n * C_n: B_n = sqrt(L) F_Q diag(r_n) C_n is its plain zero-padded FFT
    along Q.  A real input's FFT is Hermitian, X[L - k] = conj(X[k]), so the
    rfft gives rows 0..L//2 and the rest are their mirror.  The conjugated
    rfft is an unscaled ihfft, written in place."""
    half = L // 2 + 1
    spectra = np.empty((modulated.shape[0], L, modulated.shape[2]), dtype=complex)
    np.fft.ihfft(modulated, n=L, axis=1, norm="forward", out=spectra[:, :half])
    # row k >= half is conj(X[k]) = X[L - k] = conj(row L - k), L - k in [1, L - half]
    np.conjugate(spectra[:, L - half:0:-1], out=spectra[:, half:])
    return spectra


@dataclass
class BlockFactorPair:
    """The unknowns: per-component channels h_n (N x M) and coefficient
    vectors x_n (N x K).  The lifted block of component n is h_n x_n^*."""

    channels: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=complex)
        self.coefficients = np.asarray(self.coefficients, dtype=complex)
        if self.channels.ndim != 2 or self.coefficients.ndim != 2:
            raise ValueError("channels and coefficients must be 2-D (N x M, N x K)")
        if self.channels.shape[0] != self.coefficients.shape[0]:
            raise ValueError("channel/coefficient component counts differ")
        if not (np.all(np.isfinite(self.channels)) and np.all(np.isfinite(self.coefficients))):
            raise ValueError("non-finite entries in factor pair")

    @classmethod
    def unchecked(cls, channels: np.ndarray, coefficients: np.ndarray) -> "BlockFactorPair":
        """Pair of complex 2-D arrays derived from checked pairs, taken as
        they are (no finiteness scan): for the descent loop's own points."""
        z = object.__new__(cls)
        z.channels, z.coefficients = channels, coefficients
        return z

    def check_dims(self, dims: Dimensions) -> None:
        if self.channels.shape != (dims.N, dims.M):
            raise ValueError(f"channels shape {self.channels.shape} != {(dims.N, dims.M)}")
        if self.coefficients.shape != (dims.N, dims.K):
            raise ValueError(
                f"coefficients shape {self.coefficients.shape} != {(dims.N, dims.K)}")

    def astype(self, dtype) -> "BlockFactorPair":
        return self.unchecked(self.channels.astype(dtype), self.coefficients.astype(dtype))

    def lifted_block(self, n: int) -> np.ndarray:
        """Dense M x K outer product h_n x_n^* (tests and diagnostics only)."""
        return np.outer(self.channels[n], np.conj(self.coefficients[n]))


@dataclass(frozen=True)
class ObservationVector:
    """Fourier-domain observation: the length-L samples y, all a receiver sees."""

    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=complex))
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("non-finite observation samples")

    def check_dims(self, dims: Dimensions) -> None:
        if self.samples.shape != (dims.L,):
            raise ValueError(f"samples shape {self.samples.shape} != ({dims.L},)")


def component_spectra(ens: MeasurementEnsemble,
                      z: BlockFactorPair) -> tuple[np.ndarray, np.ndarray]:
    """Channel spectra F_M h_n and coded spectra conj(B_n) conj(x_n), both as
    (L, N) columns, each from one batched matvec.  Their product summed over
    n is A(Z(h, x)).  Dimensions are the caller's to check."""
    # column-major (L, N): summing over n, as the residual does, is then fast
    return (np.matvec(ens.basis, z.channels).T,
            np.matvec(ens.coded_spectra, np.conj(z.coefficients)).T)


def forward_map(ens: MeasurementEnsemble, z: BlockFactorPair) -> np.ndarray:
    """A(Z(h, x)) = sum_n A_n(h_n x_n^*); equals the noiseless observation."""
    z.check_dims(ens.dims)
    spectra, coded = component_spectra(ens, z)
    return np.sum(spectra * coded, axis=1)


def adjoint_component(ens: MeasurementEnsemble, n: int, w: np.ndarray) -> np.ndarray:
    """A_n^*(w) = conj((diag(conj(w)) F_M)^T conj(B_n)): the M x K adjoint
    block, satisfying <A_n(Z), w> = <Z, A_n^*(w)>_F exactly; block n of
    `_adjoint_blocks`, bit for bit."""
    ens._check_component(n)
    w = np.asarray(w, dtype=complex)
    if w.shape != (ens.dims.L,):
        raise ValueError(f"input length {w.shape} != ({ens.dims.L},)")
    return _adjoint_blocks(ens, w, n)


def _adjoint_blocks(ens: MeasurementEnsemble, w: np.ndarray, n=...) -> np.ndarray:
    """The (N, M, K) blocks A_n^*(w) of a checked complex w, or block n alone, from one
    product whose only temporary is the (L, M) scaled basis, column-major: read as (M, L)."""
    scaled = np.multiply(np.conj(w)[:, None], ens.basis, order="F")
    return np.conj(scaled.T @ ens.coded_spectra[n])


def dense_oracle(ens: MeasurementEnsemble, n: int) -> np.ndarray:
    """Explicit L x (M*K) matrix of A_n (row-major (m, k) column order).

    Test oracle only; refuses lifted dimensions above the allocation guard.
    """
    ens._check_component(n)
    d = ens.dims
    if d.M * d.K > _DENSE_GUARD:
        raise ValueError(f"M*K = {d.M * d.K} exceeds dense-oracle guard {_DENSE_GUARD}")
    return (ens.basis[:, :, None] * ens.coded_spectra[n][:, None, :]).reshape(d.L, d.M * d.K)

