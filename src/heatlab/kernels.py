"""Band-limited resampling of periodic frames at evenly spaced off-grid points.

The Appell change of variables evaluates the trigonometric interpolant of each
stored frame at the affine points y = sqrt(ab) x / D.  On evenly spaced
targets y_k = y0 + k dy the mode sum sum_m c_m e^{i w m (y_k + L)} is a chirp
z-transform (Rabiner, Schafer & Rader 1969), which Bluestein's identity
m k = (m^2 + k^2 - (k - m)^2) / 2 turns into one convolution done with three
FFTs: O((N + M) log(N + M)) time and O(N + M) memory for N samples and M
targets.  The transform is exact only on evenly spaced targets, so any other
target set is refused.
"""

from __future__ import annotations

import numpy as np

# Targets farther than this times the box half-width from the line through
# their endpoints are not evenly spaced; affine grids miss it by a few ulps.
SPACING_TOL = 1e-13


def resample_periodic(
    values: np.ndarray, targets: np.ndarray, half_width: float
) -> np.ndarray:
    """Evaluate the trigonometric interpolant of periodic samples at ``targets``.

    ``values`` are samples at x_j = -L + 2Lj/N, N a power of two; the
    interpolant is the usual band-limited one with the Nyquist mode folded
    into a cosine so real data interpolate to real values.  ``targets`` must
    be evenly spaced and lie in [-L, L].
    """
    values = np.asarray(values, dtype=complex)
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    n, m = values.size, targets.size
    if n & (n - 1) != 0:
        raise ValueError("sample count must be a power of two")
    if not np.all(np.abs(targets) <= half_width * (1.0 + 1e-12)):
        raise ValueError("resample target outside the periodic box")
    y0 = targets[0]
    dy = (targets[-1] - y0) / max(m - 1, 1)
    k = np.arange(m)
    if not np.all(np.abs(targets - (y0 + dy * k)) <= SPACING_TOL * half_width):
        raise ValueError("resample targets must be evenly spaced")
    w = np.pi / half_width
    coeffs = np.fft.fft(values) / n
    nyq = n // 2
    # modes 1-nyq .. nyq-1 at p = 0 .. n-2, so the sum is z^{-(nyq-1)k} sum_p a_p z^{pk}
    p = np.arange(n - 1)
    a = np.fft.fftshift(coeffs)[1:] * np.exp(1j * w * (y0 + half_width) * (p - (nyq - 1)))
    half = 0.5 * w * dy  # z^{1/2} = e^{i half}
    size = 1 << (n + m - 3).bit_length()  # the smallest power of two >= n + m - 2
    lag = np.arange(size)
    lag[m:] -= size  # lags k - p run over -(n-2) .. m-1; the rest are never read
    chirped = np.zeros(size, dtype=complex)
    chirped[: n - 1] = a * np.exp(1j * half * p**2)
    conv = np.fft.ifft(np.fft.fft(chirped) * np.fft.fft(np.exp(-1j * half * lag**2)))[:m]
    out = conv * np.exp(1j * half * k * (k - 2 * (nyq - 1)))
    out += coeffs[nyq] * np.cos(w * nyq * (targets + half_width))
    return out
