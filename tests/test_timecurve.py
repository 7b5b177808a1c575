import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from heatlab.errors import GridError
from heatlab.grid import zero_potential
from heatlab.heat import evolve
from heatlab.timecurve import (
    STACK_CHUNK,
    TimeCurve,
    cumulative_integral,
    fd_derivative,
    interval_quadrature_weights,
    lagrange_sample,
    stack_rows,
    stencil_weights,
    time_derivative_chunks,
    uniform_grid,
    write_csv,
)
from heatlab.weights import first_family_rate


def sampled(fn, m, t0=0.0, t1=1.0):
    return TimeCurve(fn(uniform_grid(m, t0, t1)), t0, t1)


def poly_curve(coeffs, m=128):
    p = np.polynomial.Polynomial(coeffs)
    return p, TimeCurve(p(uniform_grid(m)))


@given(
    coeffs=st.lists(
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), min_size=1, max_size=5
    )
)
@settings(max_examples=30, deadline=None)
def test_derivative_exact_on_quartics(coeffs):
    p, curve = poly_curve(coeffs)
    t = curve.nodes
    scale = 1.0 + np.max(np.abs(curve.values))
    assert np.max(np.abs(fd_derivative(curve.values, curve.h, 1) - p.deriv()(t))) < 1e-10 * scale
    assert np.max(np.abs(fd_derivative(curve.values, curve.h, 2) - p.deriv(2)(t))) < 1e-8 * scale


@given(
    coeffs=st.lists(
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), min_size=1, max_size=5
    )
)
@settings(max_examples=30, deadline=None)
def test_antiderivative_exact_on_quartics(coeffs):
    p, curve = poly_curve(coeffs)
    t = curve.nodes
    exact = p.integ()(t) - p.integ()(0.0)
    scale = 1.0 + np.max(np.abs(exact))
    assert np.max(np.abs(cumulative_integral(curve.values, curve.h) - exact)) < 1e-12 * scale


def test_antiderivative_matches_adaptive_quadrature():
    # seed rate at delta = 3, accumulated from the right so the final value is 0
    delta = 3.0
    fn = lambda s: s / (delta + 2.0 - 2.0 * s) ** 2
    curve = sampled(fn, 512)
    acc = cumulative_integral(curve.values, curve.h)
    big_a = curve.with_values(acc - acc[-1])
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        oracle = -quad(fn, t, 1.0, epsabs=1e-13, epsrel=1e-13)[0]
        assert abs(float(lagrange_sample(big_a.values, big_a.nodes, t)) - oracle) < 1e-10


def test_derivative_fourth_order_convergence():
    fn = lambda x: np.exp(np.sin(3.0 * x))
    dfn = lambda x: 3.0 * np.cos(3.0 * x) * np.exp(np.sin(3.0 * x))
    errs = []
    for m in (64, 128, 256):
        c = sampled(fn, m)
        errs.append(np.max(np.abs(fd_derivative(c.values, c.h, 1) - dfn(c.nodes))))
    assert errs[0] / errs[1] > 12.0
    assert errs[1] / errs[2] > 12.0


def test_grid_too_coarse_rejected():
    with pytest.raises(GridError):
        TimeCurve(np.zeros(33))


def test_round_trip_derivative_of_antiderivative():
    c = sampled(lambda x: np.cos(2.0 * x) + x**2, 256)
    back = fd_derivative(cumulative_integral(c.values, c.h), c.h, 1)
    assert np.max(np.abs(back - c.values)) < 1e-9


def test_interpolation_off_nodes():
    c = sampled(np.sin, 512)
    ts = np.array([0.1234, 0.5551, 0.999, 0.0003])
    assert np.max(np.abs(lagrange_sample(c.values, c.nodes, ts) - np.sin(ts))) < 1e-12


def test_node_index_requires_grid_time():
    c = sampled(np.sin, 128)
    assert c.node_index(0.5) == 64
    with pytest.raises(ValueError):
        c.node_index(0.5001)


def test_node_index_of_an_array_is_an_index_array():
    c = sampled(np.sin, 128)
    assert np.array_equal(c.node_index(c.nodes[::4]), np.arange(0, 129, 4))
    with pytest.raises(ValueError, match="t=0.5001 is not a grid node"):
        c.node_index(np.array([0.0, 0.5001, 1.0]))
    with pytest.raises(ValueError):
        c.node_index(np.array([0.0, 1.0 + c.h]))


def test_nodes_are_one_read_only_array_per_grid():
    c = sampled(np.sin, 128, 0.25, 1.5)
    other = c.with_values(np.cos(c.nodes))
    assert other.nodes is c.nodes
    assert TimeCurve(np.zeros(129), 0.25, 1.5).nodes is c.nodes
    assert np.array_equal(c.nodes, 0.25 + c.h * np.arange(129))
    assert not c.nodes.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        c.nodes[0] = 1.0
    other_grid = TimeCurve(np.zeros(129), 0.0, 1.5).nodes
    assert other_grid is not c.nodes and other_grid[0] == 0.0


def test_nodes_seed_rate_and_frame_times_share_one_grid(gauss12):
    # the last node is the interval's end at every M, not 1 - 1 ulp
    assert [m for m in range(64, 5000) if TimeCurve(np.zeros(m + 1)).nodes[-1] != 1.0] == []
    for m in (98, 768):
        rate = first_family_rate(3.0, m)
        t = rate.nodes
        assert np.array_equal(rate.values, t / (5.0 - 2.0 * t) ** 2)
    for t0, t1, n in ((0.0, 1.0, 99), (0.25, 1.5, 17)):
        times = evolve(gauss12, zero_potential(), t0, t1, steps=2 * (n - 1), n_frames=n).times
        assert times.tobytes() == uniform_grid(n - 1, t0, t1).tobytes()
        assert times.flags.writeable  # a copy, not the cached grid


def test_defaulted_and_spelled_out_ends_share_one_cached_grid():
    assert uniform_grid(512) is first_family_rate(3.0, 512).nodes
    assert uniform_grid(777) is uniform_grid(777, 0.0, 1.0) is uniform_grid(777, t1=1.0)


def test_with_values_keeps_the_interval_and_rejects_a_stack():
    c = sampled(np.sin, 128, 0.25, 1.5)
    d = c.with_values(np.arange(129))
    assert (d.t0, d.t1) == (0.25, 1.5)
    assert d.values.dtype == float and np.array_equal(d.values, np.arange(129.0))
    with pytest.raises(ValueError, match="one-dimensional"):
        c.with_values(np.zeros((129, 2)))


def test_csv_round_trip(tmp_path):
    c = sampled(lambda x: np.exp(-x) * np.sin(5 * x), 128)
    path = tmp_path / "curve.csv"
    write_csv(path, "t,value", c.nodes, c.values)
    text = path.read_text()
    assert text.splitlines()[0] == "t,value"
    # 12 significant digits per value
    first_val = text.splitlines()[2].split(",")[1]
    assert len(first_val.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) >= 10
    t, values = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    back = TimeCurve(values=values, t0=float(t[0]), t1=float(t[-1]))
    assert np.max(np.abs(back.values - c.values)) < 1e-11
    assert back.m == c.m


def test_write_csv_bytes_match_format_spec_rows(tmp_path):
    awkward = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e12, -1.0 / 3.0, 2.5e-300, 123456.0])
    ks = np.arange(1, awkward.size + 1) * 9973  # an integer column, as in trace.csv
    path = tmp_path / "rows.csv"
    write_csv(path, "k,v,w", ks, awkward, awkward[::-1])
    rows = [f"{k},{v:.12g},{w:.12g}" for k, v, w in zip(ks, awkward, awkward[::-1])]
    assert path.read_bytes() == "\n".join(["k,v,w", *rows]).encode() + b"\n"


def test_general_interval_support():
    c = sampled(np.exp, 128, t0=0.5, t1=1.0)
    assert abs(c.h - 0.5 / 128) < 1e-15
    d = fd_derivative(c.values, c.h, 1)
    assert np.max(np.abs(d - c.values)) < 1e-9  # (e^t)' = e^t
    acc = cumulative_integral(c.values, c.h)
    assert abs(acc[-1] - (np.exp(1.0) - np.exp(0.5))) < 1e-12


@pytest.mark.parametrize(
    "op, too_few",
    [
        (lambda v: fd_derivative(v, 0.1, 1), 4),
        (lambda v: fd_derivative(v, 0.1, 2), 5),
        (lambda v: cumulative_integral(v, 0.1), 5),
        (lambda v: stack_rows(np.stack([v, v], axis=1), 1, 0, 1, *np.empty((2, 1, 2))), 4),
    ],
    ids=["first-derivative", "second-derivative", "quadrature", "stack-rows"],
)
def test_fd_derivative_rejects_tiny_arrays(op, too_few):
    with pytest.raises(GridError, match=f"got {too_few}"):
        op(np.ones(too_few))
    op(np.ones(too_few + 1))  # one more sample is enough


def reference_cumulative_integral(values, h):
    """The quadrature engine as it stood before it shared the stencil engine:
    sliding windows for the interior intervals, a loop over the four edge
    intervals.  Kept to pin the shared engine to its exact bytes."""
    values = np.asarray(values, dtype=float)
    m = values.size - 1
    increments = np.empty(m)
    w_int = np.asarray(interval_quadrature_weights((0, 1, 2, 3, 4), 2))
    windows = np.lib.stride_tricks.sliding_window_view(values, 5)
    increments[2 : m - 1] = windows[: m - 3] @ w_int
    for i in (0, 1, m - 2, m - 1):
        start = 0 if i < 2 else m - 5
        w = np.asarray(interval_quadrature_weights((0, 1, 2, 3, 4, 5), i - start))
        increments[i] = values[start : start + 6] @ w
    out = np.empty(m + 1)
    out[0] = 0.0
    np.cumsum(increments, out=out[1:])
    return out * h


def test_cumulative_integral_matches_reference_bytes():
    rng = np.random.default_rng(7)
    sizes = [6, 7, 8, 9, 10, *rng.integers(6, 3001, size=95)]
    for n in sizes:
        values = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
        h = rng.uniform(1e-4, 1.0)
        assert np.array_equal(cumulative_integral(values, h), reference_cumulative_integral(values, h))


def reference_fd_derivative(values, h, deriv):
    """The curve derivative as the stencil engine took it before curves used
    np.correlate: the centred row times a read-only five-point window view,
    one dot per end row.  Kept to pin curves to its exact bytes."""
    n, ends = values.size, tuple(range(5 if deriv == 1 else 6))
    out = np.empty(n, dtype=values.dtype)
    s = values.strides[0]
    windows = np.lib.stride_tricks.as_strided(values, (n - 4, 5), (s, s), writeable=False)
    out[2:-2] = windows @ np.array(stencil_weights((-2, -1, 0, 1, 2), 0.0, deriv))
    for i, p in zip((0, 1, -2, -1), (0, 1, *ends[-2:])):
        window = values[: len(ends)] if i >= 0 else values[n - len(ends) :]
        out[i] = np.array(stencil_weights(ends, float(p), deriv)) @ window
    return out / h**deriv


@pytest.mark.parametrize("deriv", [1, 2])
def test_fd_derivative_matches_reference_bytes(deriv):
    rng = np.random.default_rng(10 + deriv)
    sizes = [6, 7, 8, 9, 10, *rng.integers(6, 3001, size=95)]
    for n in sizes:
        values = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
        h = rng.uniform(1e-4, 1.0)
        got = fd_derivative(values, h, deriv)
        assert got.tobytes() == reference_fd_derivative(values, h, deriv).tobytes()


@pytest.mark.parametrize("op", [fd_derivative, cumulative_integral])
def test_curve_calculus_rejects_a_complex_curve(op):
    # astype(float) would drop the imaginary part without a word
    curve = np.exp(1j * uniform_grid(128))
    with pytest.raises(ValueError, match="stack_rows"):
        op(curve, 1.0 / 128)


@pytest.mark.parametrize("op", [fd_derivative, cumulative_integral])
def test_curve_calculus_rejects_a_stack(op):
    stack = np.ones((129, 3))
    with pytest.raises(ValueError, match="stack_rows"):
        op(stack, 1.0 / 128)


def test_sample_at_refuses_a_nan_time():
    c = sampled(np.sin, 128)
    with pytest.raises(ValueError, match="outside the curve interval"):
        lagrange_sample(c.values, c.nodes, np.nan)
    with pytest.raises(ValueError, match="outside the curve interval"):
        lagrange_sample(c.values, c.nodes, np.array([0.25, np.nan]))
    with pytest.raises(ValueError, match="outside the curve interval"):
        lagrange_sample(c.values, c.nodes, 1.5)


def nonuniform_stack(rng, n=40):
    """A complex frame stack on increasing, unevenly spaced times."""
    nodes = np.cumsum(rng.uniform(0.01, 0.05, n))
    return nodes, rng.standard_normal((n, 7)) + 1j * rng.standard_normal((n, 7))


def test_a_stack_row_is_its_columns_sampled_as_real_curves():
    rng = np.random.default_rng(32)
    nodes, stack = nonuniform_stack(rng)
    times = np.concatenate([nodes[[0, 3, -1]], rng.uniform(nodes[0], nodes[-1], 50)])
    rows = lagrange_sample(stack, nodes, times)
    assert rows.shape == (times.size, 7) and rows.dtype == complex
    for col in range(7):
        for part in (np.real, np.imag):
            curve = lagrange_sample(part(stack[:, col]), nodes, times)
            assert curve.dtype == float
            assert part(rows[:, col]).tobytes() == curve.tobytes()


def test_a_node_time_copies_its_row_and_a_scalar_time_gives_one_row():
    rng = np.random.default_rng(33)
    nodes, stack = nonuniform_stack(rng)
    assert lagrange_sample(stack, nodes, nodes).tobytes() == stack.tobytes()
    row = lagrange_sample(stack, nodes, nodes[5])
    assert row.shape == (7,) and row.tobytes() == stack[5].tobytes()
    s = 0.5 * (nodes[5] + nodes[6])
    assert lagrange_sample(stack, nodes, s).tobytes() == lagrange_sample(stack, nodes, [s])[0].tobytes()
    assert np.ndim(lagrange_sample(stack[:, 0].real, nodes, s)) == 0


@pytest.mark.parametrize("where", ["nan", "before", "after"])
def test_a_stack_refuses_a_time_outside_its_nodes(where):
    rng = np.random.default_rng(34)
    nodes, stack = nonuniform_stack(rng)
    t = {"nan": np.nan, "before": nodes[0] - 1e-6, "after": nodes[-1] + 1e-6}[where]
    with pytest.raises(ValueError, match="outside the curve interval"):
        lagrange_sample(stack, nodes, np.array([nodes[2], t]))


def unordered_nodes(case):
    """11 nodes on [0, 1] with t = 0.3 and 0.7 swapped, reversed, repeated or holding a NaN."""
    nodes = np.linspace(0.0, 1.0, 11)
    if case == "swapped":
        nodes[[3, 7]] = nodes[[7, 3]]
    elif case == "repeated":
        nodes[4] = nodes[3]
    elif case == "nan":
        nodes[5] = np.nan
    return nodes[::-1] if case == "reversed" else nodes


@pytest.mark.parametrize("case", ["swapped", "reversed", "repeated", "nan"])
def test_lagrange_sample_refuses_nodes_that_do_not_increase(case):
    # sampled on the swapped nodes sin(3t) at 0.33 was 1.0e-4 off, against 1.3e-5 in order
    nodes = unordered_nodes(case)
    with pytest.raises(ValueError, match="^curve nodes must strictly increase$"):
        lagrange_sample(np.sin(3.0 * nodes), nodes, 0.33)


def test_time_curve_and_stencil_argument_guards():
    for t0, t1 in ((1.0, 1.0), (1.0, 0.5), (0.0, np.nan)):
        with pytest.raises(ValueError, match="^need t1 > t0$"):
            TimeCurve(np.zeros(65), t0, t1)
    with pytest.raises(ValueError, match="^not enough points for requested derivative$"):
        stencil_weights((0, 1), 0.0, 2)


def stack_derivative(values, h, deriv=1):
    """The whole stack's derivative along its first axis, from one stack_rows call."""
    rows = stack_rows(values, deriv, 0, len(values), np.empty_like(values), np.empty_like(values))
    return rows / h**deriv


def chunked_time_derivative(values, times):
    """The first time derivative gathered from time_derivative_chunks' reused block."""
    return np.concatenate([d.copy() for _, d in time_derivative_chunks(values, times)])


@pytest.mark.parametrize("where", [1, 20, 39])
@pytest.mark.parametrize("shift", [2e-10, np.nan])
def test_time_derivative_chunks_refuses_unequal_frame_spacing(where, shift):
    # a step off by more than 1e-10, or a NaN time, anywhere among 40 frames
    times = np.linspace(0.0, 1.0, 40)
    times[where] += shift
    with pytest.raises(ValueError, match="^frames must be equispaced$"):
        next(time_derivative_chunks(np.ones((40, 3), dtype=complex), times))



@pytest.mark.parametrize("n_frames", [1, 4])
def test_time_derivative_chunks_refuses_too_few_frames_when_called(n_frames):
    # refused at the call, before any chunk is asked for
    with pytest.raises(GridError, match=f"^need at least 5 samples, got {n_frames}$"):
        time_derivative_chunks(np.ones((n_frames, 3), dtype=complex), np.arange(n_frames) / 8.0)


def test_time_derivative_chunks_refuses_unequal_spacing_when_called():
    times = np.linspace(0.0, 1.0, 40)
    times[20] += 1e-6
    with pytest.raises(ValueError, match="^frames must be equispaced$"):
        time_derivative_chunks(np.ones((40, 3), dtype=complex), times)

def test_time_derivative_chunks_takes_the_first_step_as_the_spacing():
    # steps within 1e-10 of the first are one spacing: times[1] - times[0]
    times = np.arange(40) / 39.0
    times[-1] += 5e-11
    frames = np.array([(t**3 - 2 * t + 1) * np.ones(4) + 1j * t**2 for t in times])
    h = times[1] - times[0]
    assert chunked_time_derivative(frames, times).tobytes() == stack_derivative(frames, h).tobytes()


def test_fd_derivative_exact_on_cubic_frame_stacks():
    times = np.linspace(0.0, 1.0, 9)
    frames = np.array([(t**3 - 2 * t + 1) * np.ones(4) + 1j * t**2 for t in times])
    got = chunked_time_derivative(frames, times)
    exact = np.array([(3 * t**2 - 2) * np.ones(4) + 2j * t for t in times])
    assert np.max(np.abs(got - exact)) < 1e-12


def test_fd_derivative_exact_on_cubic_frame_stacks_across_chunks():
    # 40 frames: three STACK_CHUNK blocks of centred rows, a remainder and the end rows
    times = np.linspace(0.0, 1.0, 40)
    frames = np.array([(t**3 - 2 * t + 1) * np.ones(4) + 1j * t**2 for t in times])
    h = times[1] - times[0]
    exact = np.array([(3 * t**2 - 2) * np.ones(4) + 2j * t for t in times])
    assert np.max(np.abs(chunked_time_derivative(frames, times) - exact)) < 1e-12
    second = np.array([6 * t * np.ones(4) + 2j for t in times])
    assert np.max(np.abs(stack_derivative(frames, h, 2) - second)) < 1e-9


@pytest.mark.parametrize("deriv", [1, 2])
def test_fd_derivative_stack_matches_columnwise_curves(deriv):
    # a complex (frames, n) stack is differentiated along the frame axis,
    # column by column, as its real and imaginary curves would be; the two
    # routes sum in different orders, so they agree to 1e-14 of the round-off
    # scale max|values| / h^deriv of a stencil sum
    t = uniform_grid(64)
    freqs = np.linspace(0.5, 3.0, 6)
    stack = np.cos(np.outer(t, freqs)) + 1j * np.exp(-np.outer(t, freqs))
    h = t[1] - t[0]
    got = stack_derivative(stack, h, deriv)
    assert got.shape == stack.shape and np.iscomplexobj(got)
    scale = np.max(np.abs(stack)) / h**deriv
    for j in range(freqs.size):
        col = stack[:, j]
        expected = fd_derivative(col.real, h, deriv) + 1j * fd_derivative(col.imag, h, deriv)
        assert np.max(np.abs(got[:, j] - expected)) <= 1e-14 * scale


@pytest.mark.parametrize("deriv", [1, 2])
@pytest.mark.parametrize("n", [7, 37, 40, 257])
@pytest.mark.parametrize("dtype", [float, complex])
def test_stack_rows_blocks_match_the_whole_stack_bytes(dtype, n, deriv):
    # every STACK_CHUNK block (among them the ones holding rows 0, 1, n-2 and
    # n-1, and a short last block) and two ranges cut across the end rows
    rng = np.random.default_rng(n + deriv)
    values = rng.standard_normal((n, 9)).astype(dtype)
    if dtype is complex:
        values += 1j * rng.standard_normal((n, 9))
    h = 1.0 / (n - 1)
    whole = stack_derivative(values, h, deriv)
    if deriv == 1:
        assert chunked_time_derivative(values, np.arange(n) * h).tobytes() == whole.tobytes()
    ranges = [(lo, min(lo + STACK_CHUNK, n)) for lo in range(0, n, STACK_CHUNK)]
    scratch = np.empty_like(values[:STACK_CHUNK])
    for lo, hi in [*ranges, (1, 3), (n - 3, n - 1)]:
        block = stack_rows(values, deriv, lo, hi, np.empty_like(values[lo:hi]), scratch)
        assert (block / h**deriv).tobytes() == whole[lo:hi].tobytes()


@pytest.mark.parametrize("window", ["integer offsets", "appell frame times"])
def test_interpolation_is_the_zeroth_derivative_stencil(window):
    # integer offsets are a uniform window; lagrange_sample passes the window's times
    # measured from s in units of their mean spacing
    rng = np.random.default_rng(30)
    quartic = np.polynomial.Polynomial(rng.standard_normal(5))
    if window == "integer offsets":
        times = np.arange(3.0, 8.0)
    else:
        times = 0.3 + np.sort(rng.uniform(0.0, 0.05, 5))
    for s in rng.uniform(times[0], times[-1], 20):
        if window == "integer offsets":
            weights = np.array(stencil_weights(tuple(range(3, 8)), s, 0))
        else:
            weights = np.array(stencil_weights((times - s) / (times[4] - times[0]) * 4, 0.0, 0))
        assert abs(weights.sum() - 1.0) <= 1e-13
        scale = np.max(np.abs(quartic(times)))
        assert abs(weights @ quartic(times) - quartic(s)) <= 1e-12 * scale
