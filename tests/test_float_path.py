"""A Python float takes the arithmetic of an array element, byte for byte.

The scalar searches (``real_roots``, the tangency search, the equilibrium)
call chi, the closed-form transforms and the nonlinearities on a float,
and the grid and scan code calls them on arrays.  The float path must give,
at every point, the bytes of that point's element of the array path: numpy's
``exp`` and ``power`` on a float run the array's ufunc loop, where
``math.exp`` or Python's ``**`` would round otherwise.
"""

from pathlib import Path

import numpy as np
import pytest

import wavefront as wf
from wavefront import charfun, kernels, models

MODELS = sorted((Path(__file__).resolve().parents[1] / "models").glob("*.json"))
# a finite window for an infinite strip end, and the points per strip
REACH = 3.0
POINTS = 50


def strip_points(strip):
    """POINTS points strictly inside ``strip``, cut to [-REACH, REACH]."""
    lo, hi = max(strip[0], -REACH), min(strip[1], REACH)
    return np.linspace(lo, hi, POINTS + 2)[1:-1]


def assert_float_path(f, xs):
    """f at each float of ``xs`` is a float with the bytes of f(xs)[i]."""
    at_array = f(xs)
    assert at_array.shape == xs.shape
    for i, x in enumerate(xs.tolist()):
        at_float = f(x)
        assert isinstance(at_float, float), (i, type(at_float))
        assert np.float64(at_float).tobytes() == at_array[i].tobytes(), (i, x)


KERNELS = {
    "gaussian": wf.GaussianKernel(0.7, scale=1.3),
    "exponential+": wf.OneSidedExponential(rate=1.7, direction=1, scale=0.6),
    "exponential-": wf.OneSidedExponential(rate=1.7, direction=-1, scale=0.6),
    "green": wf.PiecewiseGreen.from_speed_damping(2.5, 1.3, scale=0.6),
    "comb1": wf.DiracComb((0.4,), (1.0,)),
    "comb3": wf.DiracComb((-1.0, 0.3, 2.0), (0.25, 0.5, 0.7)),
    "delayed_product": kernels.shift_kernel(
        wf.convolve(wf.GaussianKernel(0.5), wf.PiecewiseGreen.from_speed_damping(2.0, 1.0)),
        0.8),
}


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
def test_kernel_transform_at_a_float_is_its_array_element(kernel):
    assert_float_path(kernel.laplace, strip_points(kernel.abscissas()))


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
def test_public_laplace_takes_a_list(kernel):
    got = wf.laplace(kernel, [0.1, 0.2])
    assert isinstance(got, np.ndarray)
    assert got.tobytes() == kernel.laplace(np.array([0.1, 0.2])).tobytes()


def shipped(path):
    spec, cfg = wf.load_model(path)
    return spec, float(cfg["c"])


@pytest.mark.parametrize("path", MODELS, ids=lambda p: p.stem)
def test_tilde_chi_lipschitz_at_a_float_is_its_array_element(path):
    spec, c = shipped(path)
    assert_float_path(lambda z: spec.tilde_chi_lipschitz(z, c), strip_points(spec.tilde_strip(c)))


@pytest.mark.parametrize("path", MODELS, ids=lambda p: p.stem)
def test_chi_at_a_float_is_its_array_element(path):
    spec, c = shipped(path)
    cf = spec.to_convolution_form(c).charfun()
    assert_float_path(lambda z: charfun.chi(cf, z), strip_points(cf.strip))


NONLINEARITIES = {
    "logistic": wf.logistic(2.5, 0.8),
    "linear": wf.linear(1.5),
    "mackey_glass": wf.mackey_glass(2.0, 6.0),
    "birth_shift": models._slope_shift(wf.mackey_glass(2.0, 6.0), 1.0, 1.7, "g_beta"),
    "damping_shift": models._slope_shift(wf.logistic(2.5, 0.8), -1.0, 3.0, "f_beta"),
}


@pytest.mark.parametrize("g", NONLINEARITIES.values(), ids=NONLINEARITIES.keys())
def test_nonlinearity_at_a_float_is_its_array_element(g):
    assert_float_path(g, np.linspace(0.0, 2.0, POINTS))
