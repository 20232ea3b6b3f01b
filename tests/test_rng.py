"""The bulk fills of Lcg against its scalar methods, which are the spec."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uapkit.rng import Lcg

from conftest import peak_bytes

seeds = st.integers(0, 2 ** 64 - 1)
sizes = st.integers(0, 3000)


@st.composite
def bounds(draw):
    low = draw(st.floats(-1e6, 1e6, allow_nan=False))
    high = draw(st.floats(-1e6, 1e6, allow_nan=False).filter(lambda v: v > low))
    return low, high


def scalar_uniform(rng, n, low, high):
    return np.array([rng.uniform_in(low, high) for _ in range(n)], dtype=np.float64)


def scalar_gaussian(rng, n):
    return np.array([rng.gaussian() for _ in range(n)], dtype=np.float64)


def assert_same(bulk, spec, rng, ref):
    assert bulk.dtype == np.float64
    assert bulk.tobytes() == spec.tobytes()
    assert rng.state == ref.state


@given(seeds, sizes, bounds())
@example(5, 0, (0.0, 1.0))
@example(5, 1, (-2.0, 3.0))
@settings(max_examples=100, deadline=None)
def test_fill_uniform_is_the_scalar_stream(seed, n, lh):
    rng, ref = Lcg(seed), Lcg(seed)
    assert_same(rng.fill_uniform(n, *lh), scalar_uniform(ref, n, *lh), rng, ref)


@given(seeds, sizes)
@example(5, 0)
@example(5, 1)
@settings(max_examples=100, deadline=None)
def test_fill_gaussian_is_the_scalar_stream(seed, n):
    rng, ref = Lcg(seed), Lcg(seed)
    assert_same(rng.fill_gaussian(n), scalar_gaussian(ref, n), rng, ref)


@given(seeds, st.lists(st.tuples(st.sampled_from(["u64", "uniform", "gaussian"]),
                                 st.integers(0, 300), bounds()), max_size=6))
@settings(max_examples=100, deadline=None)
def test_back_to_back_fills_mixed_with_next_u64(seed, calls):
    rng, ref = Lcg(seed), Lcg(seed)
    for kind, n, lh in calls:
        if kind == "u64":
            assert [rng.next_u64() for _ in range(n)] == [ref.next_u64() for _ in range(n)]
        elif kind == "uniform":
            assert_same(rng.fill_uniform(n, *lh), scalar_uniform(ref, n, *lh), rng, ref)
        else:
            assert_same(rng.fill_gaussian(n), scalar_gaussian(ref, n), rng, ref)


def test_fill_gaussian_redraws_a_zero_u1_as_the_scalar_path_does():
    # this seed's next state is 0, so the first u1 is exactly 0.0 and
    # gaussian() draws again, shifting every later pair by one state
    seed = 11066951453180645397
    assert Lcg(seed).next_u64() == 0
    for n in (1, 2, 7):
        rng, ref = Lcg(seed), Lcg(seed)
        assert_same(rng.fill_gaussian(n), scalar_gaussian(ref, n), rng, ref)
        steps = Lcg(seed)
        for _ in range(2 * n + 1):  # one redrawn u1, then n pairs
            steps.next_u64()
        assert rng.state == steps.state


N_BIG = 1 << 17  # values per bulk fill in the memory tests: 1 MiB of float64


def test_fill_uniform_builds_its_values_in_the_array_of_states():
    # the states become the values in place, so the fill peaks below two
    # arrays of n values
    values, peak = peak_bytes(Lcg(3).fill_uniform, N_BIG, -1.0, 1.0)
    assert values.nbytes == 8 * N_BIG
    assert peak < 2 * values.nbytes


def test_fill_gaussian_builds_no_list_of_python_floats():
    # its arrays are the 2n uniforms, the n values and the n cosines: four
    # arrays of n values. A list of one Python float per value would add
    # 32 bytes per value (24 per float, 8 per list slot), four more arrays.
    values, peak = peak_bytes(Lcg(3).fill_gaussian, N_BIG)
    assert peak < 5 * values.nbytes
