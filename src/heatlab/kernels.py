"""Band-limited resampling of periodic frames at evenly spaced off-grid points.

The Appell change of variables evaluates the trigonometric interpolant of each
stored frame at the affine points y = sqrt(ab) x / D.  On evenly spaced
targets y_k = y0 + k dy the mode sum sum_m c_m e^{i w m (y_k + L)} is a chirp
z-transform (Rabiner, Schafer & Rader 1969), which Bluestein's identity
m k = (m^2 + k^2 - (k - m)^2) / 2 turns into one convolution done with three
FFTs: O((N + M) log(N + M)) time and O(N + M) memory for N samples and M
targets.  A stack of frames takes one chirp table per row, e^{i h j^2} with
h = w dy / 2, which gives the chirp, the convolution kernel and the output
phase, and three FFTs per stack of rows.  The transform is exact only on
evenly spaced targets, so any other target row is refused.
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

    ``values`` are samples at x_j = -L + 2Lj/N, N >= 2 a power of two; the
    interpolant is the usual band-limited one with the Nyquist mode folded
    into a cosine so real data interpolate to real values.  ``targets`` must
    be evenly spaced and lie in [-L, L].  A ``(k, N)`` stack of frames takes
    ``(k, M)`` targets, one evenly spaced row per frame, and gives ``(k, M)``.
    """
    values = np.asarray(values, dtype=complex)
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    if targets.shape[:-1] != values.shape[:-1]:
        raise ValueError(f"targets {targets.shape} do not match values {values.shape}")
    n, m = values.shape[-1], targets.shape[-1]
    if n < 2 or n & (n - 1) != 0:
        raise ValueError(f"sample count must be a power of two >= 2, got {n}")
    shape, stack, targets = (*values.shape[:-1], m), values.reshape(-1, n), targets.reshape(-1, m)
    if not np.all(np.abs(targets) <= half_width * (1.0 + 1e-12)):
        reach, box = np.max(np.abs(targets)), f"[-{half_width:g}, {half_width:g}]"
        raise ValueError(f"resample targets reach |y| = {reach:.3g} outside the periodic box {box}")
    y0 = targets[:, :1]
    dy = (targets[:, -1:] - y0) / max(m - 1, 1)
    k = np.arange(m)
    if not np.all(np.abs(targets - (y0 + dy * k)) <= SPACING_TOL * half_width):
        raise ValueError("resample targets must be evenly spaced")
    w = np.pi / half_width
    coeffs = np.fft.fft(stack) / n
    nyq, q = n // 2, n // 2 - 1
    # modes 1-nyq .. nyq-1 at p = 0 .. n-2, so the sum is z^{-qk} sum_p a_p z^{pk}
    p = np.arange(n - 1)
    a = np.fft.fftshift(coeffs, axes=-1)[:, 1:] * np.exp(1j * w * (y0 + half_width) * (p - q))
    table = np.exp(0.5j * w * dy * np.arange(max(n - 1, m)) ** 2)  # z^{j^2/2}, z = e^{i w dy}
    size = 1 << (n + m - 3).bit_length()  # the smallest power of two >= n + m - 2
    chirped = np.zeros((len(stack), size), dtype=complex)
    chirped[:, : n - 1] = a * table[:, : n - 1]
    # kernel z^{-l^2/2} at lags l = k - p in -(n-2) .. m-1; the lags between are never read
    kernel = np.zeros_like(chirped)
    kernel[:, :m] = table[:, :m].conj()
    kernel[:, size + 2 - n :] = table[:, n - 2 : 0 : -1].conj()
    conv = np.fft.ifft(np.fft.fft(chirped) * np.fft.fft(kernel))[:, :m]
    out = conv * table[:, np.abs(k - q)] * table[:, q : q + 1].conj()  # z^{k(k-2q)/2}
    out += coeffs[:, nyq : nyq + 1] * np.cos(w * nyq * (targets + half_width))
    return out.reshape(shape)
