import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from heatlab import TimeCurve, curve_from_callable
from heatlab.errors import GridError
from heatlab.timecurve import cumulative_integral, fd_derivative, uniform_grid


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
    assert np.max(np.abs(curve.derivative().values - p.deriv()(t))) < 1e-10 * scale
    assert np.max(np.abs(curve.second_derivative().values - p.deriv(2)(t))) < 1e-8 * scale


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
    assert np.max(np.abs(curve.antiderivative().values - exact)) < 1e-12 * scale


def test_antiderivative_matches_adaptive_quadrature():
    # seed rate at delta = 3, accumulated from the right so the final value is 0
    delta = 3.0
    fn = lambda s: s / (delta + 2.0 - 2.0 * s) ** 2
    curve = curve_from_callable(fn, 512)
    acc = curve.antiderivative()
    big_a = acc.with_values(acc.values - acc.values[-1])
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        oracle = -quad(fn, t, 1.0, epsabs=1e-13, epsrel=1e-13)[0]
        assert abs(float(big_a.sample_at(t)) - oracle) < 1e-10


def test_derivative_fourth_order_convergence():
    fn = lambda x: np.exp(np.sin(3.0 * x))
    dfn = lambda x: 3.0 * np.cos(3.0 * x) * np.exp(np.sin(3.0 * x))
    errs = []
    for m in (64, 128, 256):
        c = curve_from_callable(fn, m)
        errs.append(np.max(np.abs(c.derivative().values - dfn(c.nodes))))
    assert errs[0] / errs[1] > 12.0
    assert errs[1] / errs[2] > 12.0


def test_grid_too_coarse_rejected():
    with pytest.raises(GridError):
        TimeCurve(np.zeros(33))


def test_round_trip_derivative_of_antiderivative():
    c = curve_from_callable(lambda x: np.cos(2.0 * x) + x**2, 256)
    back = c.antiderivative().derivative()
    assert np.max(np.abs(back.values - c.values)) < 1e-9


def test_interpolation_off_nodes():
    c = curve_from_callable(np.sin, 512)
    ts = np.array([0.1234, 0.5551, 0.999, 0.0003])
    assert np.max(np.abs(c.sample_at(ts) - np.sin(ts))) < 1e-12


def test_node_index_requires_grid_time():
    c = curve_from_callable(np.sin, 128)
    assert c.node_index(0.5) == 64
    with pytest.raises(ValueError):
        c.node_index(0.5001)


def test_csv_round_trip(tmp_path):
    c = curve_from_callable(lambda x: np.exp(-x) * np.sin(5 * x), 128)
    path = tmp_path / "curve.csv"
    c.to_csv(path)
    text = path.read_text()
    assert text.splitlines()[0] == "t,value"
    # 12 significant digits per value
    first_val = text.splitlines()[2].split(",")[1]
    assert len(first_val.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) >= 10
    back = TimeCurve.from_csv(path)
    assert np.max(np.abs(back.values - c.values)) < 1e-11
    assert back.m == c.m


def test_general_interval_support():
    c = curve_from_callable(np.exp, 128, t0=0.5, t1=1.0)
    assert abs(c.h - 0.5 / 128) < 1e-15
    d = c.derivative()
    assert np.max(np.abs(d.values - c.values)) < 1e-9  # (e^t)' = e^t
    acc = cumulative_integral(c.values, c.h)
    assert abs(acc[-1] - (np.exp(1.0) - np.exp(0.5))) < 1e-12


def test_fd_derivative_rejects_tiny_arrays():
    with pytest.raises(GridError):
        fd_derivative(np.ones(4), 0.1, 1)


def test_fd_derivative_exact_on_cubic_frame_stacks():
    times = np.linspace(0.0, 1.0, 9)
    frames = np.array([(t**3 - 2 * t + 1) * np.ones(4) + 1j * t**2 for t in times])
    got = fd_derivative(frames, times[1] - times[0])
    exact = np.array([(3 * t**2 - 2) * np.ones(4) + 2j * t for t in times])
    assert np.max(np.abs(got - exact)) < 1e-12


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
    got = fd_derivative(stack, h, deriv)
    assert got.shape == stack.shape and np.iscomplexobj(got)
    scale = np.max(np.abs(stack)) / h**deriv
    for j in range(freqs.size):
        col = stack[:, j]
        expected = fd_derivative(col.real, h, deriv) + 1j * fd_derivative(col.imag, h, deriv)
        assert np.max(np.abs(got[:, j] - expected)) <= 1e-14 * scale
