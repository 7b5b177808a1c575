import numpy as np
import pytest

from conftest import traced_peak
from heatlab.kernels import resample_periodic

L = 9.0


def dense_mode_sum(values, targets, half_width):
    """The band-limited interpolant by the direct O(N*M) sum, Nyquist mode as a cosine."""
    n = values.size
    coeffs = np.fft.fft(values) / n
    freqs = 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * half_width / n)
    phases = targets + half_width
    nyq = n // 2
    keep = np.arange(n) != nyq
    out = np.exp(1j * np.outer(phases, freqs[keep])) @ coeffs[keep]
    return out + coeffs[nyq] * np.cos(abs(freqs[nyq]) * phases)


def samples(n, seed, real=False):
    rng = np.random.default_rng(seed)
    x = -L + 2.0 * L / n * np.arange(n)
    smooth = np.exp(-(x**2) / 3.0) * np.exp(1j * 2.5 * x)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)  # reaches the Nyquist mode
    values = smooth + 0.1 * noise
    return values.real.copy() if real else values


def assert_round_off(got, expected, values):
    assert np.max(np.abs(got - expected)) <= 1e-11 * np.max(np.abs(values))


SPANS = {"box": (-L, L), "inner": (-0.6 * L, 0.35 * L), "reversed": (L, -L)}


@pytest.mark.parametrize("span", sorted(SPANS))
@pytest.mark.parametrize("m", [1, 300, 512, 2048])
@pytest.mark.parametrize("n", [256, 512, 1024, 2048])
def test_resample_matches_dense_mode_sum(n, m, span):
    values = samples(n, seed=n + m)
    targets = np.linspace(*SPANS[span], m)
    got = resample_periodic(values, targets, L)
    assert got.shape == (m,)
    assert_round_off(got, dense_mode_sum(values, targets, L), values)


@pytest.mark.parametrize("m", [257, 258, 259])
def test_resample_at_convolution_length_boundaries(m):
    # the chirp convolution needs n + m - 2 points: one below, at and one past 512
    values = samples(256, seed=m)
    targets = np.linspace(-L, L, m)
    assert_round_off(resample_periodic(values, targets, L), dense_mode_sum(values, targets, L), values)


@pytest.mark.parametrize("m", [1, 300, 2048])
@pytest.mark.parametrize("n", [256, 2048])
def test_real_data_resample_to_real_values(n, m):
    values = samples(n, seed=7 * n + m, real=True)
    got = resample_periodic(values, np.linspace(-L, L, m), L)
    assert_round_off(got.imag, 0.0, values)


def test_nyquist_mode_folds_into_a_cosine():
    n = 512
    values = (-1.0) ** np.arange(n)  # the Nyquist mode alone
    targets = np.linspace(-L, L, 777)
    expected = np.cos(np.pi * (n // 2) * (targets + L) / L)
    assert_round_off(resample_periodic(values, targets, L), expected, values)


def test_resample_reproduces_the_samples_on_the_grid():
    n = 1024
    values = samples(n, seed=3)
    grid = -L + 2.0 * L / n * np.arange(n)
    assert_round_off(resample_periodic(values, grid, L), values, values)


def target_stack(m):
    """One evenly spaced row per span: box, inner and reversed differ in spacing and direction."""
    return np.array([np.linspace(*SPANS[span], m) for span in sorted(SPANS)])


@pytest.mark.parametrize("m", [1, 257, 2048])
@pytest.mark.parametrize("n", [256, 2048])
def test_a_stack_resamples_as_its_rows_do(n, m):
    values = np.array([samples(n, seed=n + m + i) for i in range(len(SPANS))])
    targets = target_stack(m)
    got = resample_periodic(values, targets, L)
    assert got.shape == (len(SPANS), m)
    for row, (v, y) in enumerate(zip(values, targets)):
        assert_round_off(got[row], resample_periodic(v, y, L), v)


def test_a_stack_with_one_uneven_row_is_refused():
    targets = target_stack(300)
    targets[1, 150] += 1e-6
    with pytest.raises(ValueError, match="evenly spaced"):
        resample_periodic(np.array([samples(256, seed=i) for i in range(3)]), targets, L)


def test_a_stack_with_one_row_outside_the_box_is_refused():
    targets = target_stack(10)
    targets[2] = np.linspace(-L, 1.01 * L, 10)
    with pytest.raises(ValueError, match="outside the periodic box"):
        resample_periodic(np.array([samples(256, seed=i) for i in range(3)]), targets, L)


def test_targets_must_hold_one_row_per_frame():
    with pytest.raises(ValueError, match="do not match"):
        resample_periodic(np.array([samples(256, seed=i) for i in range(3)]), target_stack(10)[:2], L)


def test_uneven_targets_are_refused():
    targets = np.linspace(-L, L, 300)
    targets[150] += 1e-6
    with pytest.raises(ValueError, match="evenly spaced"):
        resample_periodic(samples(256, seed=0), targets, L)


def test_non_power_of_two_count_is_refused():
    with pytest.raises(ValueError, match="power of two"):
        resample_periodic(np.ones(1000), np.linspace(-L, L, 10), L)


def test_a_single_sample_is_refused():
    with pytest.raises(ValueError, match="power of two >= 2, got 1"):
        resample_periodic(np.ones(1), np.linspace(-L, L, 10), L)


@pytest.mark.parametrize("end", [1.01 * L, np.nan])
def test_targets_outside_the_box_are_refused(end):
    with pytest.raises(ValueError, match="outside the periodic box"):
        resample_periodic(samples(256, seed=0), np.linspace(-L, end, 10), L)


def test_nan_sample_never_resamples_to_a_finite_value():
    values = samples(512, seed=1)
    values[100] = np.nan
    got = resample_periodic(values, np.linspace(-L, L, 300), L)
    assert not np.any(np.isfinite(got))


def test_resample_memory_stays_linear():
    values = samples(2048, seed=2)
    targets = np.linspace(-L, L, 2048)
    # a dense 2048 x 2048 complex table alone would take 64 MiB
    assert traced_peak(lambda: resample_periodic(values, targets, L)) < 8 * 2**20
