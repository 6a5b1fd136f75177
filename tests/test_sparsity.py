"""Winner selection, predicted thresholds and magnitude weight masks,
checked against a full-sort oracle."""

import numpy as np
import pytest

from jointprune.errors import ConfigError, ShapeError
from jointprune.models import PRESETS, get_preset
from jointprune.pipeline import SensitivityCurve, choose_winner_rates
from jointprune.sparsity import (
    WinnerRateConfig,
    predicted_mask_batch,
    prune_weights_by_magnitude,
    select_winners_batch,
    threshold_for_target_density,
    winner_count,
)

from oracles import (
    magnitude_cut_partition,
    select_winners_reference,
    subsample_threshold,
    topk_fullsort,
)


def _winners(acts, rate):
    """One sample's exact winner mask: a batch of one."""
    return select_winners_batch(np.asarray(acts)[None], rate)[0]


def test_winner_count_values():
    assert winner_count(1.0, 7) == 7
    assert winner_count(0.1, 1000) == 100
    assert winner_count(0.12, 300) == 36
    assert winner_count(0.001, 5) == 1  # clipped up to 1
    assert winner_count(0.25, 10) == 3  # ceil(2.5)
    assert winner_count(0.9999, 10) == 10


def test_rate_one_keeps_everything(rng):
    acts = rng.standard_normal(50)
    m = _winners(acts, 1.0)
    assert m.dtype == bool and m.shape == (50,)
    assert m.all()


def test_documented_example():
    m = _winners(np.array([3.0, -5.0, 1.0, 0.5]), 0.5)
    assert np.array_equal(m, [True, True, False, False])


def test_matches_fullsort_oracle_with_ties():
    for trial in range(1000):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(10, 600))
        # quantize to force plenty of tied magnitudes
        acts = np.round(rng.standard_normal(n), 1)
        rate = float(rng.uniform(0.05, 0.9))
        m = _winners(acts, rate)
        k = winner_count(rate, n)
        assert np.count_nonzero(m) == k, f"trial {trial}"
        got = set(np.flatnonzero(m.reshape(-1)).tolist())
        assert got == topk_fullsort(acts, k), f"trial {trial}"


def test_magnitude_dominance(rng):
    acts = rng.standard_normal((4, 7, 9))
    m = _winners(acts, 0.3)
    assert m.shape == acts.shape
    mag = np.abs(acts)
    kept = mag[m]
    dropped = mag[~m]
    assert kept.min() >= dropped.max()


def test_scale_equivariance(rng):
    acts = rng.standard_normal(200)
    base = _winners(acts, 0.2)
    for c in (3.0, -2.0, 1e-6):
        assert np.array_equal(_winners(c * acts, 0.2), base)


def test_batch_rows_match_single(rng):
    acts = rng.standard_normal((6, 3, 5, 5))
    batch = select_winners_batch(acts, 0.25)
    k = winner_count(0.25, 75)
    for i in range(6):
        assert np.array_equal(batch[i], _winners(acts[i], 0.25))
        assert set(np.flatnonzero(batch[i]).tolist()) == topk_fullsort(acts[i], k)


def test_batch_masks_are_bool_and_match_oracles():
    """Rows with and without surplus ties at the cut, in one batch: the bool
    masks pick the full-sort winners, and masking with them gives the same
    bits as masking with float masks, signed zeros included."""
    for trial in range(200):
        rng = np.random.default_rng(trial)
        b, n = int(rng.integers(1, 6)), int(rng.integers(10, 300))
        acts = rng.standard_normal((b, n)).astype(np.float32)
        quantized = rng.random(b) < 0.5
        acts[quantized] = np.round(acts[quantized], 1)
        acts[rng.random(acts.shape) < 0.1] = -0.0
        rate = float(rng.uniform(0.05, 0.9))
        exact = select_winners_batch(acts, rate)
        pred = predicted_mask_batch(acts, rate, 0.5, offset=trial % 2)
        assert exact.dtype == bool and pred.dtype == bool
        k = winner_count(rate, n)
        for r in range(b):
            assert set(np.flatnonzero(exact[r]).tolist()) == topk_fullsort(acts[r], k)
            theta = subsample_threshold(acts[r], rate, 0.5, offset=trial % 2)
            assert np.array_equal(pred[r], np.abs(acts[r]) > theta)
        for t in (exact, pred):
            assert (acts * t).tobytes() == (acts * t.astype(acts.dtype)).tobytes()


def _batch_innermost(acts):
    """``acts`` with the same values, stored as a C-order (..., B) array."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(acts, 0, -1)), -1, 0)


def _specials(dtype):
    """NaNs with payloads and either sign, +-inf, +-0 and subnormals."""
    if np.dtype(dtype).itemsize == 4:
        bits = [0x7FC00000, 0xFFC00000, 0x7FC12345, 0xFF800001, 0x00000001, 0x807FFFFF]
    else:
        bits = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000012345,
                0xFFF0000000000001, 0x0000000000000001, 0x800FFFFFFFFFFFFF]
    nans_subnormals = np.array(bits, dtype=f"u{np.dtype(dtype).itemsize}").view(dtype)
    return np.concatenate([nans_subnormals, np.array([np.inf, -np.inf, 0.0, -0.0], dtype)])


def _wide_cases(rng, b, dtype):
    """(name, acts, rate) at the preset widths, in C order."""
    # a 3x3/s1 max pool copies each maximum into up to nine outputs: most
    # samples have surplus ties at the cut (n = 9216)
    x = rng.standard_normal((b, 64, 14, 14)).astype(dtype)
    yield "maxpool", np.maximum.reduce([x[..., i:i + 12, j:j + 12]
                                        for i in range(3) for j in range(3)]), 0.5
    # 98%-zero samples, signed zeros mixed, with nnz = k - 1, k and k + 1
    # (n = 2304, k = 47): the first cuts among the zeros
    n, rate = 2304, 0.02
    k = winner_count(rate, n)
    sparse = np.where(rng.random((b, n)) < 0.5, 0.0, -0.0).astype(dtype)
    for i in range(b):
        on = rng.choice(n, size=k - 1 + i % 3, replace=False)
        sparse[i, on] = rng.standard_normal(on.size)
    yield "sparse", sparse.reshape(b, 64, 6, 6), rate
    # special values in every sample, and ties quantized into half of them
    acts = rng.standard_normal((b, 64, 6, 6)).astype(dtype)
    acts[::2] = np.round(acts[::2], 1)
    flat = acts.reshape(b, -1)
    for i in range(b):
        where = rng.choice(flat.shape[1], size=int(rng.integers(0, 40)), replace=False)
        flat[i, where] = rng.choice(_specials(dtype), size=where.size)
    yield "specials", acts, float(rng.choice([0.05, 0.3, 0.9]))
    # a few samples with surplus ties in the batch
    acts = rng.standard_normal((b, 64, 6, 6)).astype(dtype)
    acts[[b // 3, b - 1]] = np.round(acts[[b // 3, b - 1]], 1)
    yield "few-tied", acts, 0.4
    # whole-sample ties past 255 (n = 2304): every magnitude of a sample
    # equal, signs mixed, and every element +-0, as a dead ReLU layer
    # gives; a winner count that wraps at 256 misses each sample's surplus
    signs = np.where(rng.random((b, 64, 6, 6)) < 0.5, -1.0, 1.0).astype(dtype)
    yield "all-tied", signs * np.abs(rng.standard_normal((b, 1, 1, 1))).astype(dtype), 0.3
    yield "all-zero", signs * dtype(0.0), 0.3


@pytest.mark.parametrize("b", [1, 2, 100, 256])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_wide_batches_match_reference(b, dtype):
    """Exact masks equal the float-partition reference in bytes and strides
    for C-order and batch-innermost batches, and each sample without a NaN
    holds the full-sort winners; predicted masks match the full-sort
    subsample cut."""
    rng = np.random.default_rng(b)
    for name, acts, rate in _wide_cases(rng, b, dtype):
        n = acts[0].size
        k = winner_count(rate, n)
        masks = []
        for layout in (np.ascontiguousarray(acts), _batch_innermost(acts)):
            got, want = select_winners_batch(layout, rate), select_winners_reference(layout, rate)
            assert got.tobytes() == want.tobytes() and got.strides == want.strides, (name, b)
            masks.append(got)
            pred = predicted_mask_batch(layout, rate, 0.1, offset=3)
            assert pred.strides == got.strides
            for i in range(b):
                theta = subsample_threshold(layout[i], rate, 0.1, offset=3)
                assert np.array_equal(pred[i], np.abs(layout[i]) > theta), (name, b, i)
        assert np.array_equal(masks[0], masks[1])
        flat = acts.reshape(b, -1)
        for i in range(b):
            if not np.isnan(flat[i]).any():
                winners = set(np.flatnonzero(masks[0][i]).tolist())
                assert winners == topk_fullsort(flat[i], k), (name, i)


def test_tie_break_prefers_lowest_index():
    acts = np.array([2.0, -2.0, 2.0, 1.0])
    m = _winners(acts, 0.5)  # k = 2, three tied at |2|
    assert np.array_equal(m, [True, True, False, False])


def test_predict_threshold_eps_one_is_exact(rng):
    acts = rng.standard_normal(500)
    rate = 0.2
    k = winner_count(rate, 500)
    theta = subsample_threshold(acts, rate, 1.0, 0)
    assert theta == np.sort(np.abs(acts))[::-1][k - 1]
    # strict |a| > theta keeps the exact winners except values tied at theta
    exact = _winners(acts, rate)
    predicted = predicted_mask_batch(acts[None], rate, 1.0)[0]
    assert np.array_equal(predicted, np.abs(acts) > theta)
    assert not np.any(predicted & ~exact)
    assert np.all(np.abs(acts[exact & ~predicted]) == theta)


def test_predicted_counts_within_20pct(rng):
    """Uniform acts, N=1e4, rate 0.1, eps 0.1: count in [0.8k, 1.2k] on
    at least 95 of 100 trials."""
    n, rate, eps = 10_000, 0.1, 0.1
    k = winner_count(rate, n)
    hits = 0
    for trial in range(100):
        acts = rng.uniform(-1.0, 1.0, size=(1, n))
        mask = predicted_mask_batch(acts, rate, eps, offset=trial % 10)
        realized = int(mask.sum())
        if 0.8 * k <= realized <= 1.2 * k:
            hits += 1
    assert hits >= 95, f"only {hits}/100 trials within tolerance"


def test_predicted_constant_tensor_masks_to_empty():
    acts = np.full((1, 100), 0.7)
    mask = predicted_mask_batch(acts, 0.2, 0.5)
    assert mask.sum() == 0  # strict > comparison: all-equal masks to empty


def test_predicted_mask_deterministic(rng):
    acts = rng.standard_normal((3, 400))
    a = predicted_mask_batch(acts, 0.15, 0.1, offset=4)
    b = predicted_mask_batch(acts, 0.15, 0.1, offset=4)
    assert np.array_equal(a, b)


# -- weight masks -----------------------------------------------------------


def test_prune_threshold_zero_keeps_nonzero():
    w = np.array([0.0, -0.3, 0.0, 1.0])
    assert np.array_equal(prune_weights_by_magnitude(w, 0.0), [0, 1, 0, 1])


def test_prune_documented_example():
    w = np.array([0.1, -0.5, 0.02])
    assert np.array_equal(prune_weights_by_magnitude(w, 0.05), [1, 1, 0])


def test_prune_monotone_in_threshold(rng):
    w = rng.standard_normal(300)
    prev = prune_weights_by_magnitude(w, 0.0)
    for t in (0.1, 0.5, 1.0, 2.0):
        cur = prune_weights_by_magnitude(w, t)
        assert np.all(cur <= prev)  # larger threshold => subset mask
        prev = cur


def test_quantile_threshold_density(rng):
    w = rng.standard_normal(1000)
    for target in (0.05, 0.1, 0.33, 0.6, 0.95):
        t = threshold_for_target_density(w, target)
        mask = prune_weights_by_magnitude(w, t)
        assert abs(mask.mean() - target) <= 1.0 / len(w)
    assert threshold_for_target_density(w, 1.0) == 0.0


def test_quantile_threshold_with_ties():
    w = np.array([0.5] * 10 + [2.0] * 10)
    t = threshold_for_target_density(w, 0.5)
    mask = prune_weights_by_magnitude(w, t)
    assert mask.sum() == 10
    assert np.all(mask[10:] == 1)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_magnitude_cut_equals_the_float_partition_cut(name):
    """On every preset's initial weights, and on the same weights pruned to
    the preset's targets (ties at +-0), the cut is the flat float
    partition's, bit for bit."""
    preset = get_preset(name)
    for i, p in preset.build(seed=3).weight_params():
        pruned = p.value * prune_weights_by_magnitude(
            p.value, magnitude_cut_partition(p.value, preset.weight_targets[i]))
        for w in (p.value, pruned):
            for d in (0.01, 0.3, 0.99):
                got = np.float64(threshold_for_target_density(w, d))
                assert got.tobytes() == np.float64(magnitude_cut_partition(w, d)).tobytes()


def test_magnitude_cut_places_nans_as_the_float_partition():
    w = np.array([[0.5, np.nan, -2.0], [-0.0, np.inf, -np.nan]], dtype=np.float32)
    for d in (0.1, 0.3, 0.5, 0.7, 0.9):
        got, want = threshold_for_target_density(w, d), magnitude_cut_partition(w, d)
        assert got == want or (np.isnan(got) and np.isnan(want)), d
    assert np.isnan(threshold_for_target_density(w, 0.1))


# -- validation -------------------------------------------------------------


def test_bad_inputs_raise():
    with pytest.raises(ShapeError):
        select_winners_batch(np.empty((1, 0)), 0.5)
    with pytest.raises(ConfigError):
        predicted_mask_batch(np.ones((1, 5)), 0.5, 0.01)  # eps*N < 1
    with pytest.raises(ConfigError):
        prune_weights_by_magnitude(np.ones(3), -0.1)
    with pytest.raises(ConfigError):
        threshold_for_target_density(np.ones(3), 0.0)
    with pytest.raises(ConfigError):
        WinnerRateConfig(per_layer_rate={1: 1.2})
    with pytest.raises(ConfigError):
        WinnerRateConfig(downsample_rate=0.0)
    with pytest.raises(ConfigError):
        WinnerRateConfig(selection_mode="nope")


def test_config_with_rates_preserves_setup():
    cfg = WinnerRateConfig(per_layer_rate={2: 0.3}, downsample_rate=0.1,
                           selection_mode="predicted_threshold", offset_seed=9)
    curve = SensitivityCurve(baseline_accuracy=0.9, points={4: [(0.5, 0.0), (1.0, 0.0)]})
    new = choose_winner_rates(curve, 0.01, template=cfg)
    assert new.per_layer_rate == {4: 0.5}
    assert new.downsample_rate == 0.1
    assert new.selection_mode == "predicted_threshold"
    assert new.offset_seed == 9
    assert cfg.per_layer_rate == {2: 0.3}  # the template is left as it was
    assert cfg.mask(7, np.ones((2, 50), dtype=np.float32)) is None


def test_config_mask_selects_by_mode(rng):
    acts = rng.standard_normal((4, 301)).astype(np.float32)
    exact = WinnerRateConfig(per_layer_rate={2: 0.1, 3: 1.0})
    assert np.array_equal(exact.mask(2, acts), select_winners_batch(acts, 0.1))
    assert exact.mask(3, acts) is None  # rate 1 keeps everything: no mask
    assert exact.mask(5, acts) is None
    # a predicted mask subsamples from offset_seed + layer, modulo the stride
    # floor(1 / eps) = 4
    pred = WinnerRateConfig(per_layer_rate={2: 0.1, 7: 0.1}, downsample_rate=0.25,
                            selection_mode="predicted_threshold", offset_seed=5)
    assert np.array_equal(pred.mask(2, acts), predicted_mask_batch(acts, 0.1, 0.25, 3))
    assert np.array_equal(pred.mask(7, acts), predicted_mask_batch(acts, 0.1, 0.25, 0))
    assert not np.array_equal(pred.mask(2, acts), predicted_mask_batch(acts, 0.1, 0.25, 7))
