"""Training pipeline: sensitivity sweep, rate selection, dropout
reconciliation, prune ramp and joint finetuning on small synthetic data."""

import logging
import math
import re
import tracemalloc

import numpy as np
import pytest

from jointprune import layers as L
from jointprune import metrics
from jointprune.datasets import DatasetSplit
from jointprune.errors import ConfigError, DivergenceError
from jointprune.models import get_preset
from jointprune.network import Network
from jointprune.pipeline import (
    HISTORY_HEADER,
    SensitivityCurve,
    TrainConfig,
    adjust_dropout,
    choose_winner_rates,
    evaluate,
    history_rows,
    joint_finetune,
    minibatches,
    prune_to_targets,
    reconcile_dropout,
    sensitivity_sweep,
    train_dense,
    weight_prune_only,
)
from jointprune.sparsity import PREDICTED_THRESHOLD, WinnerRateConfig
from oracles import sensitivity_sweep_reference


def _blobs(n=120, seed=0):
    """Two well-separated Gaussian classes as (1, 2, 2) images."""
    rng = np.random.default_rng(seed)
    half = n // 2
    a = rng.normal(+1.0, 0.4, size=(half, 1, 2, 2))
    b = rng.normal(-1.0, 0.4, size=(n - half, 1, 2, 2))
    images = np.concatenate([a, b]).astype(np.float32)
    labels = np.concatenate([np.zeros(half), np.ones(n - half)]).astype(np.int64)
    perm = rng.permutation(n)
    return DatasetSplit(images[perm], labels[perm], "train")


def _net(seed=0):
    return Network([L.flatten(), L.fc(4, 8), L.relu(), L.fc(8, 2)], (1, 2, 2),
                   seed=seed)


def _trained(seed=0, epochs=8):
    net = _net(seed)
    cfg = TrainConfig(optimizer="sgd", lr=0.3, momentum=0.9, batch_size=20,
                      baseline_epochs=epochs, seed=seed)
    train_dense(net, cfg, _blobs(seed=1))
    return net, cfg


def test_minibatches_cover_everything():
    got = np.concatenate(list(minibatches(10, 3)))
    assert sorted(got.tolist()) == list(range(10))
    rng = np.random.default_rng(0)
    shuffled = np.concatenate(list(minibatches(10, 4, rng)))
    assert sorted(shuffled.tolist()) == list(range(10))


def test_train_dense_learns():
    net, _ = _trained()
    assert evaluate(net, _blobs(seed=2), mode="dense")[0] > 0.95


def test_sensitivity_rate_one_drop_is_zero():
    net, _ = _trained()
    val = _blobs(seed=3)
    curve = sensitivity_sweep(net, val, rates=[0.25, 0.5, 1.0], layers=[2])
    pts = dict(curve.points[2])
    assert pts[1.0] == 0.0
    assert curve.baseline_accuracy == evaluate(net, val, mode="dense")[0]


def test_sensitivity_matches_independent_eval():
    """Each sweep drop is the count of samples a directly masked evaluation
    loses against the baseline, over the split size, each count recovered
    from its accuracy as ``sensitivity_sweep_reference`` recovers it."""
    net, _ = _trained()
    val = _blobs(seed=3)
    n = len(val)
    curve = sensitivity_sweep(net, val, rates=[0.3, 0.6], layers=[2])
    base, _ = evaluate(net, val, mode="dense")
    for rate, drop in curve.points[2]:
        net.set_mask_cfg(WinnerRateConfig(per_layer_rate={2: rate}))
        masked_acc, _ = evaluate(net, val, mode="jp")
        net.set_mask_cfg(None)
        assert drop == (round(base * n) - round(masked_acc * n)) / n
    # sweeping must leave the network untouched
    assert net.mask_cfg is None
    assert evaluate(net, val, mode="dense")[0] == base


def test_sensitivity_sweep_validation():
    """A bad grid or layer list is rejected before any layer runs: a rate
    above 1.0 is not recorded as the point (1.0, 0.0)."""
    net, _ = _trained()
    ran = []
    for layer in net.layers:
        layer.forward = lambda x, forward=layer.forward, **kw: ran.append(x) or forward(x, **kw)
    bad = [([], [2], "non-empty"),
           ([0.3, 1.5], [2], "got 1.5"),
           ([0.0, 0.5], [2], "got 0.0"),
           ([-0.2, 1.0], [2], "got -0.2"),
           ([float("nan")], [2], "got nan"),
           ([0.5], [2, 4], "index 4 out of range"),
           ([0.5], [-1], "index -1 out of range"),
           ([0.5], [2, 3], "final layer")]
    for rates, layers, match in bad:
        with pytest.raises(ConfigError, match=match):
            sensitivity_sweep(net, _blobs(), rates=rates, layers=layers)
    assert ran == []


def _labelled_by(net, n, seed=0):
    """``n`` random inputs labelled with the dense net's own predictions,
    so every prediction a mask changes counts as a drop."""
    images = np.random.default_rng(seed).standard_normal((n,) + net.input_shape)
    with net.masks(None):
        labels = net.forward(images, keep=()).logits.argmax(axis=1)
    return DatasetSplit(images.astype(np.float32), labels, "val")


def _param_bytes(net):
    return [(p.value.tobytes(), None if p.mask is None else p.mask.tobytes())
            for p in net.params()]


@pytest.mark.parametrize("name", ["mlp3", "lenet4", "convnet5", "leaky6"])
def test_sensitivity_sweep_matches_reference(name, monkeypatch):
    """The one-walk sweep equals one whole masked evaluation per point, bit
    for bit, over several batches and a ragged tail; it masks by exact top-k
    whatever config the net carries, keeps the caller's layer order and
    leaves the net as it found it.  leaky6 sweeps its skip_save (4) and
    skip_add (7) layers."""
    pre = get_preset(name)
    net = pre.build(seed=1)
    prune_to_targets(net, pre.weight_targets)
    attached = WinnerRateConfig(per_layer_rate=pre.reference_rates, downsample_rate=0.1,
                                selection_mode=PREDICTED_THRESHOLD)
    net.set_mask_cfg(attached)
    monkeypatch.setattr(metrics, "EVAL_BATCH", 7)
    val = _labelled_by(net, 17)
    rates, layers = [1.0, 0.05, 0.3], pre.mask_layers[::-1]
    before = _param_bytes(net)
    curve = sensitivity_sweep(net, val, rates, layers)
    assert net.mask_cfg is attached
    assert _param_bytes(net) == before
    ref = sensitivity_sweep_reference(net, val, rates, layers)
    assert curve.baseline_accuracy == ref.baseline_accuracy == 1.0
    assert list(curve.points) == layers
    assert curve.points == ref.points
    assert any(drop > 0 for pts in curve.points.values() for _, drop in pts)


def test_choose_winner_rates(caplog):
    curve = SensitivityCurve(baseline_accuracy=0.9, points={
        2: [(0.1, 0.30), (0.3, 0.05), (0.5, 0.01), (1.0, 0.0)],
        5: [(0.1, 0.50), (0.3, 0.40), (0.5, 0.30), (1.0, 0.0)],
    })
    cfg = choose_winner_rates(curve, tolerable_drop=0.06)
    assert cfg.per_layer_rate[2] == 0.3
    assert 5 not in cfg.per_layer_rate  # fell back to 1.0, dropped from config
    # a vacuous tolerance picks the smallest rate everywhere
    loose = choose_winner_rates(curve, tolerable_drop=1.0)
    assert loose.per_layer_rate == {2: 0.1, 5: 0.1}
    # tighter tolerance never picks a smaller rate
    tight = choose_winner_rates(curve, tolerable_drop=0.005)
    assert tight.per_layer_rate.get(2, 1.0) >= cfg.per_layer_rate[2]
    # template settings carry over
    tpl = WinnerRateConfig(downsample_rate=0.1, selection_mode="predicted_threshold")
    assert choose_winner_rates(curve, 0.06, template=tpl).downsample_rate == 0.1
    # a curve over the tolerance at every rate it holds falls back to 1.0,
    # which leaves the layer out of the config, with a warning
    steep = SensitivityCurve(baseline_accuracy=0.9, points={2: [(0.1, 0.30), (0.5, 0.10)]})
    with caplog.at_level(logging.WARNING, logger="jointprune.pipeline"):
        assert choose_winner_rates(steep, tolerable_drop=0.06).per_layer_rate == {}
    assert "layer 2: no winner rate within drop 0.0600" in caplog.text
    # a drop of exactly the tolerance is within it
    edge = SensitivityCurve(baseline_accuracy=0.9,
                            points={2: [(0.1, 0.5), (0.3, 0.25), (1.0, 0.0)]})
    assert choose_winner_rates(edge, tolerable_drop=0.25).per_layer_rate == {2: 0.3}


class _CountingNet:
    """A stub sweep walk over images that hold their sample index: the
    dense logits are right for the first ``dense_hits`` samples, each
    masked point's for the first ``masked_hits``."""

    def __init__(self, dense_hits, masked_hits):
        self.dense_hits, self.masked_hits = dense_hits, masked_hits

    def sweep_logits(self, images, layers, rates):
        idx = images[:, 0, 0, 0]

        def logits(hits):  # class 0, every sample's label, wins below ``hits``
            return np.stack([idx < hits, idx >= hits], axis=1).astype(np.float32)

        return logits(self.dense_hits), {(layer, r): logits(self.masked_hits)
                                         for layer in layers for r in rates}


def test_sweep_keeps_a_loss_of_exactly_the_tolerance():
    """4,000 dense and 3,980 masked hits out of 5,000 lose exactly 0.4% of
    the samples (the paper's tolerance), so the rate is kept."""
    n = 5000
    val = DatasetSplit(np.arange(n, dtype=np.float32).reshape(n, 1, 1, 1),
                       np.zeros(n, dtype=np.int64), "val")
    curve = sensitivity_sweep(_CountingNet(4000, 3980), val, [0.1, 1.0], [2])
    assert curve.baseline_accuracy == 0.8 and curve.points[2][0] == (0.1, 0.004)
    assert choose_winner_rates(curve, tolerable_drop=0.004).per_layer_rate == {2: 0.1}


def test_adjust_dropout_values():
    assert adjust_dropout(0.5, 0.25) == 0.25
    assert np.isclose(adjust_dropout(0.5, 0.12), 0.5 * np.sqrt(0.12))
    assert adjust_dropout(0.0, 0.3) == 0.0
    assert adjust_dropout(0.5, 1.0) == 0.5
    with pytest.raises(ConfigError):
        adjust_dropout(1.0, 0.5)
    with pytest.raises(ConfigError):
        adjust_dropout(0.5, 0.0)


def test_reconcile_dropout_follows_masked_layer():
    preset = get_preset("mlp3", base_dropout=0.4)
    net = preset.build()
    cfg = WinnerRateConfig(per_layer_rate={2: 0.16, 5: 0.25})
    reconcile_dropout(net, cfg, 0.4)
    assert np.isclose(net.specs[3].geometry["rate"], 0.4 * 0.4)  # sqrt(0.16)
    assert np.isclose(net.specs[6].geometry["rate"], 0.4 * 0.5)  # sqrt(0.25)
    # an unmasked predecessor keeps the base rate
    reconcile_dropout(net, WinnerRateConfig(), 0.4)
    assert net.specs[3].geometry["rate"] == 0.4
    # so does a dropout after an unmasked weight layer, whatever masks an
    # earlier layer
    net = Network([L.flatten(), L.fc(8, 6), L.relu(), L.fc(6, 4), L.dropout(0.4), L.fc(4, 2)],
                  (1, 2, 4))
    reconcile_dropout(net, WinnerRateConfig(per_layer_rate={2: 0.25}), 0.4)
    assert net.specs[4].geometry["rate"] == 0.4


def test_networks_built_from_one_preset_share_no_specs():
    """Reconciling one network's dropout leaves the preset's specs and a
    second network built from them alone."""
    preset = get_preset("lenet4")
    a, b = preset.build(), preset.build()
    assert preset.specs[9].kind == "dropout"
    reconcile_dropout(a, WinnerRateConfig(per_layer_rate={8: 0.122}), 0.5)
    assert np.isclose(a.specs[9].geometry["rate"], 0.5 * np.sqrt(0.122))
    assert b.specs[9].geometry["rate"] == 0.5
    assert preset.specs[9].geometry["rate"] == 0.5


def test_prune_to_targets_hits_density(rng):
    net = Network([L.flatten(), L.fc(40, 25)], (1, 5, 8))
    prune_to_targets(net, {1: 0.2})
    w = net.layers[1].w
    assert abs(w.density() - 0.2) <= 1.0 / w.value.size
    assert np.all(w.value[w.mask == 0] == 0.0)


def test_prune_ramp_is_monotone():
    net = Network([L.flatten(), L.fc(60, 30)], (1, 6, 10))
    prev_mask = np.ones((60, 30))
    for step in range(1, 5):
        prune_to_targets(net, {1: 0.1}, ramp=step / 4)
        mask = net.layers[1].w.mask
        assert np.all(mask <= prev_mask)  # masks only ever shrink
        prev_mask = mask.copy()
    assert abs(net.layers[1].w.density() - 0.1) <= 1.0 / 1800


def test_joint_finetune_reaches_targets_and_recovers():
    net, cfg0 = _trained()
    train, val = _blobs(seed=1), _blobs(seed=2)
    cfg = TrainConfig(optimizer="sgd", lr=0.3, momentum=0.9, batch_size=20,
                      warmup_epochs=1, finetune_epochs=6, prune_ramp_epochs=3,
                      adadelta_lr=0.5, weight_target_density={1: 0.5, 3: 0.5},
                      seed=0)
    mask_cfg = WinnerRateConfig(per_layer_rate={2: 0.5})
    history = joint_finetune(net, mask_cfg, cfg, train, val)
    assert len(history) == 7  # 1 warmup + 6 finetune
    assert history[0]["phase"] == "warmup"
    assert np.isclose(net.weight_density(), 0.5, atol=1.0 / 32)
    acc, stats = evaluate(net, val, mode="jp")
    assert acc > 0.9
    assert stats.activation_percent < 100.0


def test_weight_prune_only_has_no_activation_masks():
    net, _ = _trained()
    cfg = TrainConfig(optimizer="sgd", lr=0.3, batch_size=20, warmup_epochs=0,
                      finetune_epochs=3, prune_ramp_epochs=2, adadelta_lr=0.5,
                      weight_target_density={1: 0.5}, seed=0)
    weight_prune_only(net, cfg, _blobs(seed=1), _blobs(seed=2))
    assert net.mask_cfg is not None and net.mask_cfg.per_layer_rate == {}
    acc, stats = evaluate(net, _blobs(seed=2), mode="dense")
    assert acc > 0.9


def test_finetune_seed_reproducibility():
    results = []
    for _ in range(2):
        net, _ = _trained(seed=4)
        cfg = TrainConfig(optimizer="sgd", lr=0.3, batch_size=20,
                          warmup_epochs=1, finetune_epochs=3, prune_ramp_epochs=2,
                          weight_target_density={1: 0.5}, seed=4)
        history = joint_finetune(net, WinnerRateConfig(per_layer_rate={2: 0.5}),
                                 cfg, _blobs(seed=1), _blobs(seed=2))
        results.append((history, net.layers[1].w.value.copy()))
    (h1, w1), (h2, w2) = results
    assert h1 == h2
    assert np.array_equal(w1, w2)


def test_evaluate_modes():
    net, _ = _trained()
    val = _blobs(seed=2)
    with pytest.raises(ConfigError):
        evaluate(net, val, mode="jp")  # no winner config attached
    with pytest.raises(ConfigError):
        evaluate(net, val, mode="nope")
    net.set_mask_cfg(WinnerRateConfig(per_layer_rate={2: 0.25}))
    dense_acc, dense_stats = evaluate(net, val, mode="dense")
    jp_acc, jp_stats = evaluate(net, val, mode="jp", stat_layers=[2])
    assert net.mask_cfg.per_layer_rate == {2: 0.25}  # evaluate puts the config back
    with net.masks(None):
        logits = net.forward(val.images).logits
    assert dense_acc == (logits.argmax(axis=1) == val.labels).mean()
    # jp keeps at most ceil(0.25*8)=2 of 8 hidden units per sample
    hidden = dict((i, frac) for i, _, frac in jp_stats.per_layer)
    assert hidden[2] <= 0.25
    assert hidden[2] < dict((i, f) for i, _, f in dense_stats.per_layer).get(2, 1.0) \
        or 2 not in [i for i, _, _ in dense_stats.per_layer]
    # the final output row is always present
    assert jp_stats.per_layer[-1][0] == len(net.layers) - 1
    assert jp_stats.per_layer[-1][1] == 2  # per-sample output size


def test_history_rows_structure():
    header, rows = history_rows([
        {"phase": "dense", "epoch": 0, "loss": 1.0, "ce": 1.0, "l1": 0.0,
         "weight_density": 1.0},
    ])
    assert header == HISTORY_HEADER
    assert rows[0][0] == "dense"
    assert rows[0][HISTORY_HEADER.index("val_acc")] == ""  # missing -> blank


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr_scale=0.001)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(finetune_epochs=-1)
    with pytest.raises(ConfigError):
        TrainConfig(base_dropout=1.0)


@pytest.mark.parametrize("kw, needle", [
    ({"weight_target_density": {1: 1.5}},
     "weight_target_density must be a dict of int to float in (0,1], got {1: 1.5}"),
    ({"weight_target_density": {3: 0.0}},
     "weight_target_density must be a dict of int to float in (0,1], got {3: 0.0}"),
    ({"optimizer": "sgd", "rho": 1.5}, "rho must be in (0,1), got 1.5"),
    ({"optimizer": "sgd", "eps": -1.0}, "eps must be > 0, got -1.0"),
    ({"optimizer": "sgd", "lr": 0.0}, "lr must be > 0, got 0.0"),
    ({"lr": -1.0}, "lr must be > 0, got -1.0"),
    ({"lr": math.nan}, "lr must be > 0, got nan"),
    ({"adadelta_lr": 0.0}, "adadelta_lr must be > 0, got 0.0"),
    ({"eps": math.nan}, "eps must be > 0, got nan"),
    ({"optimizer": "sgd", "momentum": 7.0}, "momentum must be in [0,1), got 7.0"),
    ({"l1_strength": -1.0}, "l1_strength must be >= 0, got -1.0"),
    ({"l1_strength": math.nan}, "l1_strength must be >= 0, got nan"),
    ({"prune_ramp_epochs": -3}, "prune_ramp_epochs must be an int >= 0, got -3"),
    ({"seed": 1.5}, "seed must be an int >= 0, got 1.5"),
    ({"batch_size": 2.5}, "batch_size must be an int >= 1, got 2.5"),
    ({"baseline_epochs": 1.5}, "baseline_epochs must be an int >= 0, got 1.5"),
], ids=["target-above-one", "target-zero", "sgd-rho", "sgd-eps", "sgd-lr", "lr-negative",
        "lr-nan", "adadelta-lr-zero", "eps-nan", "sgd-momentum", "l1-negative", "l1-nan",
        "ramp-negative", "seed-fraction", "batch-size-fraction", "epochs-fraction"])
def test_train_config_rejects_values_training_would_fail_on(kw, needle):
    """Checked when the config is built, by each field's rule (an sgd run
    also checks its momentum), with comparisons that a NaN fails; a value
    is cast to its field's type, so a fractional int field fails too, not a
    ``range`` or ``SeedSequence`` in training."""
    with pytest.raises(ConfigError, match=re.escape(needle)):
        TrainConfig(**kw)


@pytest.mark.parametrize("layer", [2, 9])
def test_joint_finetune_rejects_a_target_off_the_weight_layers(layer):
    """A target for a layer without weights (2 is a ReLU, 9 is past the
    end) used to be skipped: the run finetuned and kept every layer dense.
    It raises before the network is touched."""
    net, _ = _trained()
    entry = [p.value.copy() for p in net.params()]
    cfg = TrainConfig(optimizer="sgd", lr=0.3, batch_size=20, warmup_epochs=1,
                      finetune_epochs=2, weight_target_density={1: 0.5, layer: 0.5}, seed=0)
    with pytest.raises(ConfigError, match=re.escape(
            f"weight target of layer {layer}: not a weight layer, choose from [1, 3]")):
        joint_finetune(net, WinnerRateConfig(per_layer_rate={2: 0.5}),
                       cfg, _blobs(seed=1), _blobs(seed=2))
    assert net.mask_cfg is None
    for p, value in zip(net.params(), entry, strict=True):
        assert p.value.tobytes() == value.tobytes() and p.mask is None, p.name


def test_finetune_divergence_in_warmup_restores_entry_state():
    """A finite net that diverges before any post-ramp snapshot comes back
    exactly as it entered, not as the diverged weights."""
    net, _ = _trained()
    entry = [p.value.copy() for p in net.params()]
    cfg = TrainConfig(optimizer="sgd", lr=1e6, momentum=0.9, lr_scale=1.0, batch_size=20,
                      warmup_epochs=1, finetune_epochs=2, weight_target_density={1: 0.5},
                      seed=0)
    with np.errstate(all="ignore"):
        history = joint_finetune(net, WinnerRateConfig(per_layer_rate={2: 0.5}),
                                 cfg, _blobs(seed=1), _blobs(seed=2))
    assert [row["phase"] for row in history] == ["aborted"]  # diverged in warm-up
    aborted = history[0]
    assert list(aborted) == HISTORY_HEADER
    assert aborted["epoch"] == -1 and aborted["weight_density"] == 1.0  # no pruning yet
    assert np.isnan([aborted[k] for k in ("loss", "ce", "l1", "val_acc", "act_percent")]).all()
    for p, value in zip(net.params(), entry, strict=True):
        assert p.value.tobytes() == value.tobytes(), p.name
        assert p.mask is None
    assert np.isfinite(net.forward(_blobs(seed=2).images).logits).all()


def test_finetune_from_nan_entry_state_raises():
    """A net that is non-finite on entry diverges at once and has no good
    state to restore: finetuning raises instead of returning the NaN net
    (history ``['aborted']``) for the caller to save."""
    net, _ = _trained()
    net.layers[1].w.value[0, 0] = np.nan
    cfg = TrainConfig(optimizer="sgd", lr=0.3, batch_size=20, warmup_epochs=1,
                      finetune_epochs=2, weight_target_density={1: 0.5}, seed=0)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="non-finite"):
        joint_finetune(net, WinnerRateConfig(per_layer_rate={2: 0.5}),
                       cfg, _blobs(seed=1), _blobs(seed=2))


def test_evaluate_empty_split_raises():
    net, _ = _trained()
    empty = _blobs(seed=2).subset(np.arange(0), "test")
    with pytest.raises(ConfigError, match="empty test split"):
        evaluate(net, empty, mode="dense")


def test_evaluate_holds_only_the_outputs_it_reads():
    """A leaky6 evaluate keeps the masked layers' outputs and the logits,
    not every layer's: its peak stays below those plus one activation of
    the largest layer as working memory (the whole forward's outputs are
    108 MB at 200 samples, the kept ones 46 MB)."""
    pre = get_preset("leaky6")
    net = pre.build(seed=1)
    net.set_mask_cfg(WinnerRateConfig(per_layer_rate=pre.reference_rates))
    rng = np.random.default_rng(0)
    n = 200
    split = DatasetSplit(rng.standard_normal((n,) + pre.input_shape).astype(np.float32),
                         rng.integers(0, 10, n), "test")
    sizes = [n * int(np.prod(shape)) * 4 for shape in net.layer_shapes]
    kept = sum(sizes[i] for i in pre.reference_rates) + sizes[-1]
    evaluate(net, split)  # first-call allocations stay out of the measurement
    tracemalloc.start()
    try:
        evaluate(net, split)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < kept + max(sizes), (peak, kept, max(sizes))


def test_sensitivity_sweep_peak_memory_stays_near_the_reference():
    """The one-walk leaky6 sweep keeps one trunk activation and one masked
    suffix alive: its peak stays within 1.1x that of one whole masked
    evaluation per point."""
    pre = get_preset("leaky6")
    net = pre.build(seed=1)
    val = _labelled_by(net, 200)
    rates = (0.3, 1.0)

    def peak(sweep):
        sweep(net, val, rates, pre.mask_layers)  # first-call allocations stay out
        tracemalloc.start()
        try:
            curve = sweep(net, val, rates, pre.mask_layers)
            return tracemalloc.get_traced_memory()[1], curve
        finally:
            tracemalloc.stop()

    walk, curve = peak(sensitivity_sweep)
    ref, ref_curve = peak(sensitivity_sweep_reference)
    assert curve.points == ref_curve.points
    assert walk <= 1.1 * ref, (walk, ref)
