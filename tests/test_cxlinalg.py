"""Complex linear algebra: SVD wrapper, block diagonals, water-filling."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ucabeam.cxlinalg import (
    SvdError,
    block_diag,
    svd,
    water_filling,
)


def _random_complex(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _reconstruct(res):
    return (res.u * res.sigma[..., None, :]) @ res.vh


# ---------------------------------------------------------------------------
# svd
# ---------------------------------------------------------------------------


def test_svd_identity():
    res = svd(np.eye(3))
    assert np.allclose(res.sigma, [1.0, 1.0, 1.0])
    assert np.allclose(_reconstruct(res), np.eye(3), atol=1e-12)


def test_svd_diagonal_sorted_descending():
    res = svd(np.diag([3.0, 4.0]))
    assert np.allclose(res.sigma, [4.0, 3.0])


def test_svd_reconstruction_and_unitarity():
    rng = np.random.default_rng(7)
    a = _random_complex(rng, (4, 8))
    res = svd(a)
    assert np.abs(_reconstruct(res) - a).max() <= 1e-9
    assert np.abs(res.u.conj().T @ res.u - np.eye(4)).max() <= 1e-9
    assert np.abs(res.vh @ res.vh.conj().T - np.eye(4)).max() <= 1e-9


def test_svd_property_sweep():
    rng = np.random.default_rng(21)
    for rows, cols in ((1, 1), (3, 5), (16, 256), (256, 16), (8, 8)):
        a = _random_complex(rng, (rows, cols))
        res = svd(a)
        k = min(rows, cols)
        assert res.sigma.shape == (k,)
        assert np.all(res.sigma >= 0.0)
        assert np.all(np.diff(res.sigma) <= 1e-12)
        assert np.abs(_reconstruct(res) - a).max() <= 1e-9


def test_svd_frobenius_identity():
    rng = np.random.default_rng(3)
    a = _random_complex(rng, (6, 9))
    res = svd(a)
    assert np.sum(res.sigma ** 2) == pytest.approx(np.linalg.norm(a, "fro") ** 2, rel=1e-12)


def test_svd_rejects_bad_input():
    with pytest.raises(ValueError):
        svd(np.ones(4))
    with pytest.raises(ValueError):
        svd(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_svd_error_is_arithmetic():
    assert issubclass(SvdError, ArithmeticError)


def test_svd_that_does_not_converge_raises_svd_error(monkeypatch):
    # LAPACK's failure becomes an SvdError naming the matrix shape, chained
    # from numpy's LinAlgError
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(SvdError, match="SVD did not converge for 3x2 matrix") as info:
        svd(np.ones((4, 3, 2)))
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


# ---------------------------------------------------------------------------
# block_diag
# ---------------------------------------------------------------------------


def test_block_diag_two_square_blocks():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0]])
    out = block_diag([a, b])
    want = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0], [0.0, 0.0, 5.0]])
    assert np.array_equal(out, want)


def test_block_diag_vectors_become_columns():
    # eight 32-element vectors stack into a 256 x 8 block-diagonal matrix
    rng = np.random.default_rng(5)
    vecs = [_random_complex(rng, 32) for _ in range(8)]
    out = block_diag(vecs)
    assert out.shape == (256, 8)
    for k, v in enumerate(vecs):
        assert np.array_equal(out[32 * k : 32 * (k + 1), k], v)
    # zero outside the blocks
    mask = np.zeros_like(out, dtype=bool)
    for k in range(8):
        mask[32 * k : 32 * (k + 1), k] = True
    assert np.all(out[~mask] == 0)


def test_block_diag_single_block_passthrough():
    a = np.array([[2.0, 1.0]])
    assert np.array_equal(block_diag([a]), a)


def test_block_diag_rejects_bad_blocks():
    with pytest.raises(ValueError):
        block_diag([])
    with pytest.raises(ValueError):
        block_diag([np.zeros((2, 2, 2))])


# ---------------------------------------------------------------------------
# water_filling
# ---------------------------------------------------------------------------


def test_water_filling_two_channel_example():
    assert np.allclose(water_filling([4.0, 1.0], 1.0), [0.875, 0.125])


def test_water_filling_drops_weak_channel():
    assert np.allclose(water_filling([10.0, 1e-4], 1.0), [1.0, 0.0])


def test_water_filling_single_channel_takes_everything():
    assert np.allclose(water_filling([0.37], 2.0), [2.0])


def test_water_filling_equal_gains_split_evenly():
    assert np.allclose(water_filling([2.0, 2.0, 2.0, 2.0], 1.0), [0.25] * 4)


def test_water_filling_budget_and_kkt():
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = rng.uniform(0.01, 50.0, rng.integers(1, 9))
        total = float(rng.uniform(0.1, 10.0))
        p = water_filling(g, total)
        assert np.all(p >= 0.0)
        assert p.sum() == pytest.approx(total, rel=1e-12)
        # active channels share one water level; inactive sit above it
        level = p + 1.0 / g
        active = level[p > 0]
        assert active.max() - active.min() <= 1e-9 * active.max()
        assert np.all(1.0 / g[p == 0] >= active.max() * (1.0 - 1e-9))


def test_water_filling_follows_permutation():
    g = np.array([5.0, 0.5, 2.0, 9.0])
    p = water_filling(g, 3.0)
    perm = np.array([3, 0, 2, 1])
    assert np.allclose(water_filling(g[perm], 3.0), p[perm])


def test_water_filling_degenerate_tiny_gains_keep_budget():
    # floored gains must not lose the budget to cancellation
    p = water_filling([1e-30], 1.0)
    assert p.sum() == pytest.approx(1.0, rel=1e-12)
    p3 = water_filling([1e-30, 1e-30, 1e-30], 2.0)
    assert p3.sum() == pytest.approx(2.0, rel=1e-12)
    assert np.allclose(p3, p3[0])


def test_water_filling_validation():
    with pytest.raises(ValueError):
        water_filling([], 1.0)
    with pytest.raises(ValueError):
        water_filling([1.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        water_filling([1.0, -2.0], 1.0)
    with pytest.raises(ValueError):
        water_filling([1.0], 0.0)
    # leading axes index independent allocations; a scalar, an empty last
    # axis, or a bad gain in any row is still rejected
    with pytest.raises(ValueError):
        water_filling(1.0, 1.0)
    with pytest.raises(ValueError):
        water_filling(np.zeros((3, 0)), 1.0)
    with pytest.raises(ValueError):
        water_filling([[1.0, 2.0], [1.0, 0.0]], 1.0)



# near-degenerate rows: gains equal up to a few ulps, gains so small that the
# budget vanishes in rounding (the even-split branch), and spread-out gains
_GAIN = st.one_of(
    st.floats(1e-3, 1e3),
    st.sampled_from([1e-30, 2e-30, 1.0, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53]),
)


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 6).flatmap(
           lambda n: st.lists(st.lists(_GAIN, min_size=n, max_size=n), min_size=1,
                              max_size=5)),
       total=st.floats(1e-3, 1e3))
@example(rows=[[1e-30, 1e-30, 1e-30], [4.0, 1.0, 1e-4]], total=2.0)
def test_water_filling_stack_equals_row_by_row(rows, total):
    g = np.array(rows)
    stacked = water_filling(g, total)
    assert stacked.shape == g.shape
    for row, p in zip(g, stacked):
        np.testing.assert_array_equal(p, water_filling(row, total))
