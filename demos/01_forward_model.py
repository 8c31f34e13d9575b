"""Walk through the measurement model one piece at a time.

A transmitter takes a K-dimensional message x, codes it into Q samples with
an orthonormal matrix C, flips signs with a known +-1 modulation r, and
sends it through an unknown M-tap channel h via circular convolution over L
samples.  The receiver observes the Fourier-domain sum across transmitters.
This script builds that map explicitly and checks it against the package's
partial-DFT products.
"""

import numpy as np

from moddemix import TrialSpec, synthesize
from moddemix.operators import (
    Dimensions,
    adjoint_component,
    component_spectra,
    dense_oracle,
    forward_map,
)

dims = Dimensions(L=32, Q=16, M=4, K=3, N=2)
ens, truth, obs = synthesize(TrialSpec(dims, seed=0))

print(f"geometry: L={dims.L} samples, Q={dims.Q} coded, M={dims.M} taps, "
      f"K={dims.K} message dims, N={dims.N} transmitters")

# --- one component, built by hand -----------------------------------------
n = 0
h, x = truth.channels[n], truth.coefficients[n]

# channel spectrum: zero-pad h to L and take the unitary DFT
channel_spectrum = np.fft.fft(h, n=dims.L) / np.sqrt(dims.L)

# coded message spectrum: code, modulate, pad to L; the lifted convention
# pairs the channel spectrum with the *conjugate* coded spectrum
coded = ens.modulation[n] * (ens.coding[n] @ x)
message_spectrum = np.conj(np.fft.fft(coded, n=dims.L))

by_hand = channel_spectrum * message_spectrum
# the package forms every component's two spectra in one batch, (L, N): the
# channel spectra as one product with the cached partial DFT dft_basis(L, M)
spectra, coded_spectra = component_spectra(ens, truth)
parts = spectra * coded_spectra
fast = parts[:, n]
print(f"hand-built vs product form:    {np.max(np.abs(by_hand - fast)):.2e}")

# --- the full observation is the sum over transmitters --------------------
y = forward_map(ens, truth)
print(f"observation = sum of parts:    {np.max(np.abs(y - parts.sum(axis=1))):.2e}")
print(f"matches synthesize() output:   {np.max(np.abs(y - obs.samples)):.2e}")

# --- adjoint: one partial-DFT product per block, exact to machine precision
rng = np.random.default_rng(1)
w = rng.standard_normal(dims.L) + 1j * rng.standard_normal(dims.L)
lhs = np.vdot(forward_map(ens, truth), w)
rhs = sum(np.vdot(truth.lifted_block(m), adjoint_component(ens, m, w))
          for m in range(dims.N))
print(f"adjoint identity mismatch:     {abs(lhs - rhs) / abs(lhs):.2e}")

# --- and everything agrees with the dense matrix oracle -------------------
A0 = dense_oracle(ens, 0)
print(f"dense oracle vs forward:       "
      f"{np.max(np.abs(A0 @ truth.lifted_block(0).ravel() - fast)):.2e}")
