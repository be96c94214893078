import math
import warnings

import numpy as np
import pytest

from lors import matrix as mx
from lors.adapters import AdaptedLayer, AdapterPair
from lors.errors import ArgumentError, NumericError, ShapeError
from lors.initialization import ProbeBatch
from lors.matrix import DenseMatrix, Rng
from lors.prune import SparseWeight
from lors.tape import CostCounters
from lors.train import OptimState, ToyModel, train_step


def naive_matmul(a, b):
    # triple loop, the slowest possible oracle
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


def test_matmul_against_naive_oracle():
    rng = np.random.default_rng(11)
    for trial in range(30):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        got = mx.matmul(DenseMatrix(a), DenseMatrix(b)).data
        want = naive_matmul(a, b)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_matmul_counts_mkn_macs():
    c = CostCounters()
    mx.matmul(mx.ones(3, 4), mx.ones(4, 5), c)
    assert c.macs_forward == 3 * 4 * 5
    assert c.macs_backward == 0


@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 4, 5), (64, 16, 64), (33, 7, 65)])
def test_matmul_into_out_is_the_fresh_product_bitwise(shape):
    """With ``out`` the product lands in that array, bitwise the fresh
    product, also through a transposed operand, with the same tally."""
    m, k, n = shape
    rng = np.random.default_rng(m * n)
    a, bt = DenseMatrix(rng.normal(size=(m, k))), DenseMatrix(rng.normal(size=(n, k)))
    out = np.full((m, n), np.nan)
    c = CostCounters()
    got = mx.matmul(a, mx.transpose(bt), c, out)
    assert got.data is out
    assert out.tobytes() == mx.matmul(a, mx.transpose(bt)).data.tobytes()
    assert c.macs_forward == m * k * n


def test_backward_view_routing():
    """Ops handed the counters tally forward; ops handed ``backward`` tally
    into the same counters' backward buckets."""
    c = CostCounters()
    mx.matmul(mx.ones(2, 2), mx.ones(2, 2), c.backward)
    mx.add(mx.ones(2, 2), mx.ones(2, 2), c.backward)
    mx.scale(mx.ones(1, 3), 2.0, c)
    assert (c.macs_forward, c.macs_backward) == (0, 8)
    assert (c.elementwise_forward, c.elementwise_backward) == (3, 4)


def test_adds_scales_cost_zero_macs():
    c = CostCounters()
    a = mx.ones(3, 3)
    mx.add(a, a, c)
    mx.sub(a, a, c)
    mx.add_scaled(a, a, 2.5, c)
    mx.scale(a, 0.5, c)
    assert c.macs_forward == 0
    assert c.elementwise_forward == 4 * 9


def test_elementwise_ops_values():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 5))
    b = rng.normal(size=(3, 5))
    am, bm = DenseMatrix(a), DenseMatrix(b)
    assert np.array_equal(mx.add(am, bm).data, a + b)
    assert np.array_equal(mx.sub(am, bm).data, a - b)
    assert np.array_equal(mx.add_scaled(am, bm, 3.0).data, a + 3.0 * b)
    assert np.array_equal(mx.scale(am, -2.0).data, a * -2.0)
    assert np.array_equal(mx.transpose(am).data, a.T)


def test_add_bias_broadcasts_one_column():
    a = DenseMatrix(np.arange(6.0).reshape(2, 3))
    bias = DenseMatrix(np.array([[10.0], [20.0]]))
    out = mx.add_bias(a, bias)
    assert np.array_equal(out.data, a.data + bias.data)
    with pytest.raises(ShapeError):
        mx.add_bias(a, DenseMatrix(np.ones((3, 1))))
    with pytest.raises(ShapeError):
        mx.add_bias(a, DenseMatrix(np.ones((2, 2))))


def test_reduce_sum_rows():
    a = DenseMatrix(np.arange(6.0).reshape(2, 3))
    out = mx.reduce_sum_rows(a)
    assert out.shape == (2, 1)
    assert np.array_equal(out.data, a.data.sum(axis=1, keepdims=True))


def test_norm_and_comparison_helpers():
    a = DenseMatrix([[3.0, 4.0]])
    assert mx.frobenius_norm(a) == 5.0
    b = DenseMatrix([[3.0, 4.5]])
    assert mx.max_abs_diff(a, b) == 0.5
    assert mx.bitwise_equal(a, a.copy())
    assert not mx.bitwise_equal(a, b)
    assert not mx.bitwise_equal(a, DenseMatrix([[3.0], [4.0]]))


def test_shape_errors():
    a = mx.ones(2, 3)
    b = mx.ones(3, 3)
    with pytest.raises(ShapeError):
        mx.matmul(a, mx.ones(2, 2))
    with pytest.raises(ShapeError):
        mx.add(a, b)
    with pytest.raises(ShapeError):
        mx.max_abs_diff(a, b)


def test_construction_validation():
    with pytest.raises(ArgumentError):
        DenseMatrix(np.zeros((2, 2, 2)))
    with pytest.raises(ArgumentError):
        mx.zeros(0, 3)
    with pytest.raises(ArgumentError):
        mx.ones(3, -1)
    with pytest.raises(NumericError):
        DenseMatrix([[1.0, np.nan]])
    with pytest.raises(NumericError):
        DenseMatrix([[np.inf]])
    # 1-D input becomes a single row
    m = DenseMatrix([1.0, 2.0, 3.0])
    assert m.shape == (1, 3)


def test_copy_is_independent():
    a = mx.ones(2, 2)
    b = a.copy()
    b.data[0, 0] = 7.0
    assert a.data[0, 0] == 1.0


def test_overflow_is_caught_not_propagated():
    """Ops do not scan; 1e308 entries overflow a one-layer train_step, whose
    boundary checks name step 0 and the layer before any update."""
    big = DenseMatrix(np.full((2, 2), 1e308))
    pair = AdapterPair(a=DenseMatrix([[0.5], [-0.25]]), b=DenseMatrix([[0.75, 1.0]]))
    layer = AdaptedLayer(SparseWeight(big.copy()), pair, "lors", name="layers.0")
    a0, b0 = pair.a.data.tobytes(), pair.b.data.tobytes()
    batch = ProbeBatch(big, np.zeros((2, 2)))
    with np.errstate(over="ignore"), pytest.raises(NumericError) as info:
        train_step(ToyModel([layer]), batch, OptimState(lr=0.1))
    assert (info.value.step, info.value.layer) == (0, "layers.0")
    assert str(info.value) == "step 0: non-finite output of layers.0"
    assert pair.a.data.tobytes() == a0 and pair.b.data.tobytes() == b0


def test_ops_do_not_scan_and_check_finite_names_what_it_checked():
    big = DenseMatrix(np.full((2, 2), 1e308))
    with np.errstate(over="ignore"):
        total = mx.add(big, big)
    assert np.isposinf(total.data).all()
    with pytest.raises(NumericError, match="^non-finite sum$"):
        mx.check_finite(total.data, "sum")
    mx.check_finite(big.data, "big")


def test_l2_norm_rescales_only_when_the_squares_overflow():
    rng = np.random.default_rng(4)
    for scale in (1e-150, 1.0, 1e150):
        v = rng.normal(size=(5, 7)) * scale
        assert mx.frobenius_norm(DenseMatrix(v)) == float(np.sqrt(np.sum(v * v)))
    v = rng.normal(size=(5, 7))
    big = mx.frobenius_norm(DenseMatrix(v * 1e200))
    assert big == pytest.approx(mx.frobenius_norm(DenseMatrix(v)) * 1e200, rel=1e-14)
    assert mx.l2_norm(np.array([3e307, 4e307])) == pytest.approx(5e307, rel=1e-15)
    assert mx.l2_norm(np.array([1e308] * 4)) == np.inf  # 2e308 is not representable
    assert mx.l2_norm(np.array([np.inf, 1.0])) == np.inf
    assert mx.l2_norm(np.array([])) == 0.0


# ---------------------------------------------------------------------------
# RNG
# ---------------------------------------------------------------------------

def test_rng_streams_are_deterministic():
    a = Rng(123)
    b = Rng(123)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_rng_state_resumes_mid_stream():
    """Counter-based state: (seed, position) fully determines the future."""
    a = Rng(99)
    for _ in range(7):
        a.next_u64()
    seed, pos = a.state()
    b = Rng(seed, pos)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_rng_block_and_scalar_draws_agree():
    a = Rng(7)
    b = Rng(7)
    block = a.uniforms(50)
    singles = np.array([(b.next_u64() >> 11) * 2.0**-53 for _ in range(50)])
    assert np.array_equal(block, singles)


def test_rng_block_draws_wrap_silently_and_match_scalar_stream():
    """Block draws do uint64 array arithmetic that wraps mod 2^64 without a
    warning. At the top seed and a position past 2^63 every block method and
    derive run warning-free, and their bits follow the scalar stream."""
    seed, pos = 2**64 - 1, 2**63 + 5
    scalar = Rng(seed, pos)

    def units(n):
        return np.array([scalar.next_u64() >> 11 for _ in range(n)], dtype=np.float64)

    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        rng = Rng(seed, pos)
        uniforms = rng.uniforms(6)
        normals = rng.normals(5)
        integers = rng.integers(7, 10)
        child = rng.derive(3)
        child_uniforms = child.uniforms(4)
        u = units(6) * 2.0**-53
        raw = units(10)
        u1, u2 = (raw[:5] + 1.0) * 2.0**-53, raw[5:] * 2.0**-53
        want_normals = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
        want_integers = np.minimum((units(7) * 2.0**-53 * 10).astype(np.int64), 9)
    assert uniforms.tobytes() == u.tobytes()
    assert normals.tobytes() == want_normals.tobytes()
    assert integers.tobytes() == want_integers.tobytes()
    assert rng.state() == scalar.state() == (seed, pos + 23)
    fresh = Rng(child.seed)
    assert child_uniforms.tobytes() == np.array([(fresh.next_u64() >> 11) * 2.0**-53 for _ in range(4)]).tobytes()


def test_rng_uniform_range_and_coverage():
    u = Rng(3).uniforms(4000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert 0.45 < u.mean() < 0.55
    assert u.min() < 0.01 and u.max() > 0.99


def test_rng_normals_moments():
    z = Rng(17).normals(8000)
    assert abs(z.mean()) < 0.05
    assert abs(z.std() - 1.0) < 0.05


def test_normal_matrix_shape_mean_std():
    m = Rng(4).normal_matrix(30, 40, mean=2.0, std=0.5)
    assert m.shape == (30, 40)
    assert abs(m.data.mean() - 2.0) < 0.05
    assert abs(m.data.std() - 0.5) < 0.05


def test_rng_integers_bound_and_determinism():
    a = Rng(21).integers(1000, 13)
    assert a.shape == (1000,)
    assert a.min() >= 0 and a.max() < 13
    assert np.array_equal(a, Rng(21).integers(1000, 13))
    # every residue shows up over a long draw
    assert len(np.unique(a)) == 13


def test_rng_derive_gives_unrelated_streams():
    base = Rng(5)
    d1 = base.derive(1)
    d2 = base.derive(2)
    s1 = d1.uniforms(500)
    s2 = d2.uniforms(500)
    assert not np.array_equal(s1, s2)
    # deriving twice with the same tag is reproducible
    assert np.array_equal(s1, Rng(5).derive(1).uniforms(500))


def test_fill_random_normal_in_place():
    m = mx.zeros(6, 6)
    mx.fill_random_normal(m, Rng(9), mean=0.0, std=1.0)
    assert np.any(m.data != 0.0)
    n = mx.zeros(6, 6)
    mx.fill_random_normal(n, Rng(9), mean=0.0, std=1.0)
    assert np.array_equal(m.data, n.data)
