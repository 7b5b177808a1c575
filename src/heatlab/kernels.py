"""Band-limited resampling of periodic frames at off-grid points.

The only loop-bound kernel in this package: the Appell change of variables
evaluates the trigonometric interpolant of each stored frame at mapped
points, an O(N*M) mode sum per frame done here as one complex exponential
table times the Fourier coefficients.  Everything else is FFT- or BLAS-shaped
and lives with the code that uses it.
"""

from __future__ import annotations

import numpy as np


def resample_periodic(
    values: np.ndarray, targets: np.ndarray, half_width: float
) -> np.ndarray:
    """Evaluate the trigonometric interpolant of periodic samples at ``targets``.

    ``values`` are samples at x_j = -L + 2Lj/N; the interpolant is the usual
    band-limited one with the Nyquist mode folded into a cosine so real data
    interpolate to real values.  Targets may lie anywhere in [-L, L).
    """
    values = np.asarray(values, dtype=complex)
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    n = values.size
    if n & (n - 1) != 0:
        raise ValueError("sample count must be a power of two")
    if np.any(np.abs(targets) > half_width * (1.0 + 1e-12)):
        raise ValueError("resample target outside the periodic box")
    coeffs = np.fft.fft(values) / n
    freqs = 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * half_width / n)
    nyq = n // 2
    phases = targets + half_width
    keep = np.arange(n) != nyq
    out = np.exp(1j * np.outer(phases, freqs[keep])) @ coeffs[keep]
    out += coeffs[nyq] * np.cos(abs(freqs[nyq]) * phases)
    return out
