import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from uapkit.core import (Carrier, apply_patch, as_tensor, clamp_unit,
                         patch_side_for_area, project_l2, project_linf,
                         square_patch_mask, validate_mask)
from uapkit.errors import InvalidArgumentError


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
tensors = arrays(np.float64, array_shapes(min_dims=1, max_dims=3, max_side=6),
                 elements=finite)


def test_as_tensor_rejects_nonfinite():
    with pytest.raises(InvalidArgumentError):
        as_tensor(np.array([1.0, np.nan]))
    with pytest.raises(InvalidArgumentError):
        as_tensor(np.array([np.inf]))


def test_as_tensor_shape_check():
    with pytest.raises(InvalidArgumentError):
        as_tensor(np.zeros((2, 3)), shape=(3, 2))


# -- projections -------------------------------------------------------------

def test_project_l2_fixed():
    out = project_l2(np.array([6.0, 8.0]), 5.0)
    np.testing.assert_allclose(out, [3.0, 4.0])


def test_project_linf_fixed():
    out = project_linf(np.array([0.2, -0.5]), 0.3)
    np.testing.assert_allclose(out, [0.2, -0.3])


def test_clamp_unit_fixed():
    out = clamp_unit(np.array([-0.2, 0.5, 1.7]))
    np.testing.assert_allclose(out, [0.0, 0.5, 1.0])


@given(tensors, st.floats(1e-6, 1e3))
@settings(max_examples=200, deadline=None)
def test_project_l2_properties(x, eps):
    out = project_l2(x, eps)
    assert np.linalg.norm(out) <= eps * (1 + 1e-12) + 1e-12
    # idempotence
    np.testing.assert_allclose(project_l2(out, eps), out, atol=1e-12)
    # direction preserved
    nx, no = np.linalg.norm(x), np.linalg.norm(out)
    if nx > 0 and no > 0:
        cos = float(np.vdot(x, out)) / (nx * no)
        assert cos > 1 - 1e-9
    # interior points untouched
    if nx <= eps:
        np.testing.assert_array_equal(out, x)


@given(tensors, st.floats(1e-6, 1e3))
@settings(max_examples=200, deadline=None)
def test_project_linf_properties(x, eps):
    out = project_linf(x, eps)
    assert np.abs(out).max() <= eps
    np.testing.assert_array_equal(project_linf(out, eps), out)
    # elementwise no-op inside the box
    inside = np.abs(x) <= eps
    np.testing.assert_array_equal(out[inside], x[inside])


def test_projection_rejects_bad_epsilon():
    with pytest.raises(InvalidArgumentError):
        project_l2(np.ones(3), 0.0)
    with pytest.raises(InvalidArgumentError):
        project_linf(np.ones(3), -1.0)


# -- patch geometry ----------------------------------------------------------

def test_square_patch_mask_bottom_right():
    mask = square_patch_mask((1, 4, 4), 2)
    expected = np.zeros((1, 4, 4))
    expected[:, 2:, 2:] = 1.0
    np.testing.assert_array_equal(mask, expected)


def test_square_patch_mask_offset():
    mask = square_patch_mask((1, 4, 4), 2, (1, 1))
    expected = np.zeros((1, 4, 4))
    expected[:, 1:3, 1:3] = 1.0
    np.testing.assert_array_equal(mask, expected)


def test_square_patch_mask_rejects_overflow():
    with pytest.raises(InvalidArgumentError):
        square_patch_mask((3, 4, 4), 5)
    with pytest.raises(InvalidArgumentError):
        square_patch_mask((3, 4, 4), 2, (3, 0))


def test_patch_side_default_area():
    # floor(sqrt(0.03 * 32 * 32)) = 5 -> 25 of 1024 pixels
    assert patch_side_for_area((3, 32, 32)) == 5


def test_apply_patch_fixed():
    image = np.full((1, 4, 4), 0.5)
    delta = np.ones((1, 4, 4))
    mask = square_patch_mask((1, 4, 4), 2)
    out = apply_patch(image, delta, mask)
    assert np.all(out[:, 2:, 2:] == 1.0)
    assert np.all(out[:, :2, :] == 0.5)
    assert np.all(out[:, :, :2] == 0.5)


@given(arrays(np.float64, (2, 5, 5), elements=st.floats(0, 1)),
       arrays(np.float64, (2, 5, 5), elements=st.floats(0, 1)),
       st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_apply_patch_offmask_bit_equality(image, delta, side):
    mask = square_patch_mask((2, 5, 5), side)
    out = apply_patch(image, delta, mask)
    off = mask == 0.0
    # bitwise identity off-mask, exact replacement on-mask
    assert np.array_equal(out[off], image[off])
    assert np.array_equal(out[~off], delta[~off])


def test_validate_mask_rejects_nonbinary():
    with pytest.raises(InvalidArgumentError):
        validate_mask(np.full((1, 2, 2), 0.5))


def test_validate_mask_rejects_channel_disagreement():
    mask = np.zeros((2, 2, 2))
    mask[0, 0, 0] = 1.0
    with pytest.raises(InvalidArgumentError):
        validate_mask(mask)


# -- carrier -----------------------------------------------------------------

MASK = square_patch_mask((2, 4, 4), 2)


@pytest.mark.parametrize("kwargs", [
    {"mode": "patch"},                                           # mask missing
    {"mode": "patch", "mask": MASK, "norm": "l2"},
    {"mode": "patch", "mask": MASK, "epsilon": 1.0},
    {"mode": "patch", "mask": np.full((2, 4, 4), 0.5)},          # not binary
    {"mode": "global"},
    {"mode": "global", "norm": "l1", "epsilon": 1.0},
    {"mode": "global", "norm": "l2"},
    {"mode": "global", "norm": "l2", "epsilon": 0.0},
    {"mode": "global", "norm": "linf", "epsilon": float("nan")},
    {"mode": "global", "norm": "l2", "epsilon": float("inf")},
    {"mode": "global", "norm": "l2", "epsilon": 1.0, "mask": MASK},
    {"mode": "sticker", "mask": MASK},
])
def test_carrier_rejects_invalid_options(kwargs):
    with pytest.raises(InvalidArgumentError):
        Carrier(**kwargs)


def test_carrier_to_json_dict():
    assert Carrier("patch", MASK).to_json_dict() == {"mode": "patch"}
    assert Carrier("global", norm="linf", epsilon=0.5).to_json_dict() == {
        "mode": "global", "norm": "linf", "epsilon": 0.5}


def test_carrier_apply():
    images = np.full((3, 2, 4, 4), 0.5)
    delta = np.full((2, 4, 4), 0.75)
    on = MASK == 1.0
    patched = Carrier("patch", MASK).apply(images, delta)
    assert np.all(patched[:, on] == 0.75) and np.all(patched[:, ~on] == 0.5)
    shifted = Carrier("global", norm="l2", epsilon=9.0).apply(images, delta)
    assert np.all(shifted == 1.0)  # 0.5 + 0.75 clamped to the pixel range
    with pytest.raises(InvalidArgumentError):
        Carrier("patch", MASK).apply(images, delta[:1])


def test_carrier_commit():
    delta = np.full((2, 4, 4), 0.5)
    step = np.full((2, 4, 4), 0.75)
    assert np.all(Carrier("patch", MASK).commit(delta, step) == 1.0)
    assert np.all(Carrier("patch", MASK).commit(delta, -step) == 0.0)
    l2 = Carrier("global", norm="l2", epsilon=2.0).commit(delta, step)
    np.testing.assert_allclose(l2, np.full((2, 4, 4), 2.0 / np.sqrt(32)))
    linf = Carrier("global", norm="linf", epsilon=0.25).commit(delta, -step)
    assert np.all(linf == -0.25)
    inside = Carrier("global", norm="l2", epsilon=100.0).commit(delta, step)
    assert np.array_equal(inside, delta + step)


def test_carrier_check():
    patch = Carrier("patch", MASK)
    patch.check(np.where(MASK == 1.0, 1.0, -3.0))  # off-mask values are never used
    with pytest.raises(InvalidArgumentError):
        patch.check(np.where(MASK == 1.0, 1.5, 0.0))
    with pytest.raises(InvalidArgumentError):
        patch.check(np.zeros((1, 4, 4)))
    l2 = Carrier("global", norm="l2", epsilon=2.0)
    l2.check(np.full((2, 4, 4), 2.0 / np.sqrt(32)))
    with pytest.raises(InvalidArgumentError):
        l2.check(np.full((2, 4, 4), 0.5))
    linf = Carrier("global", norm="linf", epsilon=0.25)
    linf.check(np.full((2, 4, 4), -0.25))
    with pytest.raises(InvalidArgumentError):
        linf.check(np.full((2, 4, 4), 0.3))


def test_carrier_check_rejects_huge_delta_without_overflow_warning():
    # squaring 1e300 overflows; the delta is rejected without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError):
            Carrier("global", norm="l2", epsilon=2.0).check(np.full((2, 4, 4), 1e300))
