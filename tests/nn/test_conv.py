"""Conv2D: correctness against a naive reference, gradients, shapes."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.nn import Conv2D
from repro.nn.layers.conv import col2im, conv_output_size, im2col
from tests.gradcheck import (
    check_layer_input_gradient,
    check_layer_param_gradients,
)


def naive_conv(x, weight, bias, stride, pad):
    """Straightforward quadruple-loop convolution for reference."""
    n, c, h, w = x.shape
    oc, _, kh, kw = weight.shape
    sh, sw = stride
    ph, pw = pad
    x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((n, oc, oh, ow), dtype=np.float64)
    for b in range(n):
        for f in range(oc):
            for i in range(oh):
                for j in range(ow):
                    patch = x[b, :, i * sh:i * sh + kh, j * sw:j * sw + kw]
                    out[b, f, i, j] = np.sum(patch * weight[f])
            if bias is not None:
                out[b, f] += bias[f]
    return out


@pytest.mark.parametrize("kernel,stride,padding", [
    (3, 1, "same"), (3, 2, 1), ((1, 3), 1, "same"), ((3, 1), 1, "same"),
    (2, 2, "valid"), (5, 1, 2),
])
def test_conv_matches_naive(rng, kernel, stride, padding):
    layer = Conv2D(3, 4, kernel, stride=stride, padding=padding, rng=rng)
    x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
    out = layer.forward(x)
    expected = naive_conv(x.astype(np.float64),
                          layer.weight.value.astype(np.float64),
                          layer.bias.value.astype(np.float64),
                          layer.stride, layer.padding)
    np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-4)


def test_conv_same_padding_preserves_size(rng):
    layer = Conv2D(1, 2, 3, padding="same", rng=rng)
    out = layer.forward(rng.normal(size=(1, 1, 10, 10)))
    assert out.shape == (1, 2, 10, 10)


def test_conv_stride_two_halves_size(rng):
    layer = Conv2D(1, 2, 3, stride=2, padding=1, rng=rng)
    out = layer.forward(rng.normal(size=(1, 1, 16, 16)))
    assert out.shape == (1, 2, 8, 8)


def test_conv_rejects_wrong_channels(rng):
    layer = Conv2D(3, 4, 3, rng=rng)
    with pytest.raises(ShapeError):
        layer.forward(rng.normal(size=(1, 2, 8, 8)))


def test_conv_rejects_collapsed_output():
    with pytest.raises(ShapeError):
        conv_output_size(2, 5, 1, 0)


def test_conv_input_gradient(rng):
    layer = Conv2D(2, 3, 3, stride=1, padding="same", rng=rng)
    x = rng.normal(size=(2, 2, 6, 6))
    assert check_layer_input_gradient(layer, x, rng=rng) < 2e-2


def test_conv_param_gradients(rng):
    layer = Conv2D(2, 3, 3, stride=2, padding=1, rng=rng)
    x = rng.normal(size=(2, 2, 6, 6))
    errors = check_layer_param_gradients(layer, x, rng=rng)
    assert max(errors.values()) < 2e-2


def test_conv_no_bias(rng):
    layer = Conv2D(1, 2, 3, use_bias=False, rng=rng)
    assert layer.bias is None
    assert len(list(layer.parameters())) == 1


def test_im2col_col2im_adjoint(rng):
    """col2im is the transpose of im2col: <im2col(x), y> == <x, col2im(y)>."""
    x = rng.normal(size=(2, 3, 7, 7))
    kernel, stride, pad = (3, 3), (2, 2), (1, 1)
    cols, _ = im2col(x, kernel, stride, pad)
    y = rng.normal(size=cols.shape)
    lhs = float(np.sum(cols * y))
    rhs = float(np.sum(x * col2im(y, x.shape, kernel, stride, pad)))
    assert abs(lhs - rhs) < 1e-6 * max(abs(lhs), 1.0)


def test_backward_before_forward_raises(rng):
    layer = Conv2D(1, 1, 3, rng=rng)
    from repro.exceptions import ReproError
    with pytest.raises(ReproError):
        layer.backward(np.zeros((1, 1, 4, 4), dtype=np.float32))
