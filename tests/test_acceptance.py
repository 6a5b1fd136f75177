"""End-to-end acceptance runs: trains the reference models on real data and
checks the headline compression/accuracy numbers.

These tests are slow (roughly an hour in total on one CPU).  Trained models
are shared through session fixtures: the MNIST perceptron backs the
reproduction, direction and threshold-prediction tests; the conv nets back
theirs.  Each test prints a one-line PASS summary with the measured values.
"""

import math
import time

import numpy as np
import pytest

from jointprune.checkpoint import checkpoint_from_network, network_from_checkpoint
from jointprune.datasets import (
    center_crop,
    cifar10_paths,
    load_cifar10,
    load_mnist,
    mnist_paths,
    train_val_split,
)
from jointprune.metrics import bench_condensed_fc, count_effective_macs
from jointprune.models import get_preset
from jointprune.pipeline import (
    TrainConfig,
    evaluate,
    joint_finetune,
    train_dense,
    weight_prune_only,
)
from jointprune.sparsity import WinnerRateConfig


def _clone(net):
    """Independent deep copy of a network via the checkpoint codec."""
    return network_from_checkpoint(checkpoint_from_network(net))


def _run_preset(preset, cfg, train, val, test, with_wp=True):
    """Dense baseline + joint finetune (+ optional weight-pruning-only twin).

    Returns a dict with the trained nets, their test metrics and the wall
    times of the baseline and joint-pruning stages.
    """
    net = preset.build(seed=cfg.seed)
    t0 = time.time()
    train_dense(net, cfg, train)
    t_base = time.time() - t0
    base_acc, base_stats = evaluate(net, test, mode="dense",
                                    stat_layers=preset.mask_layers)
    baseline = _clone(net)

    mask_cfg = WinnerRateConfig(per_layer_rate=dict(preset.reference_rates))
    t0 = time.time()
    joint_finetune(net, mask_cfg, cfg, train, val)
    t_jp = time.time() - t0
    jp_acc, jp_stats = evaluate(net, test, mode="jp", stat_layers=preset.mask_layers)
    jp_macs = count_effective_macs(net, test.images[:500])

    out = {
        "preset": preset, "cfg": cfg, "test": test, "val": val,
        "baseline": baseline, "base_acc": base_acc, "base_stats": base_stats,
        "jp_net": net, "jp_acc": jp_acc, "jp_stats": jp_stats, "jp_macs": jp_macs,
        "t_base": t_base, "t_jp": t_jp,
    }
    if with_wp:
        wp_net = _clone(baseline)
        weight_prune_only(wp_net, cfg, train, val)
        wp_acc, wp_stats = evaluate(wp_net, test, mode="dense",
                                    stat_layers=preset.mask_layers)
        out.update({
            "wp_net": wp_net, "wp_acc": wp_acc, "wp_stats": wp_stats,
            "wp_macs": count_effective_macs(wp_net, test.images[:500]),
        })
    return out


# -- shared data and trained models -----------------------------------------


@pytest.fixture(scope="session")
def mnist(data_dir):
    paths = mnist_paths(data_dir)
    train, val = train_val_split(load_mnist(*paths["train"]), 5000, 0)
    test = load_mnist(*paths["test"], role="test")
    return train, val, test


@pytest.fixture(scope="session")
def cifar(data_dir):
    paths = cifar10_paths(data_dir)
    full = load_cifar10(paths["train"])
    train, val = train_val_split(full, 5000, 0)
    train = train.subset(np.arange(10_000))  # desk-scale subset
    test = load_cifar10(paths["test"], role="test")
    return train, val, test


@pytest.fixture(scope="session")
def mlp3_run(mnist):
    train, val, test = mnist
    # No dropout in the baseline: long dropout-regularized training drives
    # the dense net's natural relu sparsity below the jp activation budget,
    # which would make the dense/jp comparison in the direction test vacuous.
    preset = get_preset("mlp3", base_dropout=0.0)
    cfg = TrainConfig(optimizer="sgd", lr=0.1, momentum=0.9, batch_size=100,
                      baseline_epochs=40, warmup_epochs=2, finetune_epochs=20,
                      prune_ramp_epochs=5, adadelta_lr=0.5, l1_strength=1e-5,
                      lr_scale=0.1, base_dropout=0.0,
                      weight_target_density=preset.weight_targets, seed=0)
    return _run_preset(preset, cfg, train, val, test)


@pytest.fixture(scope="session")
def lenet4_run(mnist):
    train, val, test = mnist
    preset = get_preset("lenet4")
    cfg = TrainConfig(optimizer="adadelta", lr=1.0, rho=0.95, batch_size=100,
                      baseline_epochs=8, warmup_epochs=1, finetune_epochs=10,
                      prune_ramp_epochs=4, adadelta_lr=0.5, l1_strength=1e-5,
                      lr_scale=0.1, base_dropout=0.5,
                      weight_target_density=preset.weight_targets, seed=0)
    return _run_preset(preset, cfg, train, val, test)


@pytest.fixture(scope="session")
def convnet5_run(cifar):
    train, val, test = cifar
    preset = get_preset("convnet5")
    train, val, test = (center_crop(s, preset.crop) for s in (train, val, test))
    cfg = TrainConfig(optimizer="adadelta", lr=1.0, batch_size=100,
                      baseline_epochs=15, warmup_epochs=2, finetune_epochs=18,
                      prune_ramp_epochs=6, adadelta_lr=0.5, l1_strength=1e-5,
                      lr_scale=0.1, base_dropout=0.3,
                      weight_target_density=preset.weight_targets, seed=0)
    return _run_preset(preset, cfg, train, val, test, with_wp=False)


@pytest.fixture(scope="session")
def leaky6_run(cifar):
    train, val, test = cifar
    preset = get_preset("leaky6")
    cfg = TrainConfig(optimizer="adadelta", lr=1.0, batch_size=100,
                      baseline_epochs=12, warmup_epochs=2, finetune_epochs=12,
                      prune_ramp_epochs=4, adadelta_lr=0.5, l1_strength=1e-5,
                      lr_scale=0.1, base_dropout=0.0,
                      weight_target_density=preset.weight_targets, seed=0)
    return _run_preset(preset, cfg, train, val, test, with_wp=False)


# -- 1: MLP-3 MNIST reproduction --------------------------------------------


def test_mlp3_reproduction(mlp3_run):
    r = mlp3_run
    drop = r["base_acc"] - r["jp_acc"]
    wdens = r["jp_net"].weight_density()
    mac = r["jp_macs"].mac_percent
    runtime = r["t_base"] + r["t_jp"]
    print(f"\nMLP-3: baseline {r['base_acc']:.4f}, jp {r['jp_acc']:.4f} "
          f"(drop {drop * 100:.2f}%), weight {wdens * 100:.2f}%, "
          f"MAC {mac:.2f}%, {runtime:.0f}s")
    assert r["base_acc"] >= 0.982
    assert drop <= 0.004
    assert wdens <= 0.11
    assert mac <= 6.0
    assert runtime <= 15 * 60


# -- 2: Lenet-4 MNIST reproduction ------------------------------------------


def test_lenet4_reproduction(lenet4_run):
    r = lenet4_run
    drop = r["base_acc"] - r["jp_acc"]
    wdens = r["jp_net"].weight_density()
    acti = r["jp_stats"].activation_percent
    mac = r["jp_macs"].mac_percent
    runtime = r["t_base"] + r["t_jp"]
    print(f"\nLenet-4: baseline {r['base_acc']:.4f}, jp {r['jp_acc']:.4f} "
          f"(drop {drop * 100:.2f}%), weight {wdens * 100:.2f}%, "
          f"acti {acti:.2f}%, MAC {mac:.2f}%, {runtime:.0f}s")
    assert r["base_acc"] >= 0.990
    assert drop <= 0.005
    assert wdens <= 0.10
    assert acti <= 8.0
    assert mac <= 3.0
    assert runtime <= 45 * 60


# -- 3: ConvNet-5 CIFAR-10 scaled run ---------------------------------------


def test_convnet5_scaled(convnet5_run):
    r = convnet5_run
    drop = r["base_acc"] - r["jp_acc"]
    mac = r["jp_macs"].mac_percent
    assert r["cfg"].finetune_epochs <= 20
    print(f"\nConvNet-5 (10k subset): baseline {r['base_acc']:.4f}, "
          f"jp {r['jp_acc']:.4f} (drop {drop * 100:.2f}%), MAC {mac:.2f}%")
    assert drop <= 0.01
    assert mac <= 35.0


# -- 4: leaky-ReLU activation compression -----------------------------------


def test_leaky6_activation_density(leaky6_run):
    r = leaky6_run
    dense_acti = r["base_stats"].activation_percent
    jp_acti = r["jp_stats"].activation_percent
    drop = r["base_acc"] - r["jp_acc"]
    print(f"\nleaky6: dense acti {dense_acti:.2f}%, jp acti {jp_acti:.2f}%, "
          f"baseline {r['base_acc']:.4f}, jp {r['jp_acc']:.4f} "
          f"(drop {drop * 100:.2f}%)")
    assert dense_acti >= 99.0  # leaky relu leaves essentially everything nonzero
    assert jp_acti <= 50.0
    assert drop <= 0.01


# -- 5: weight-only vs joint pruning direction ------------------------------


@pytest.mark.parametrize("run_name", ["mlp3_run", "lenet4_run"])
def test_jp_strictly_sparser_than_wp(run_name, request):
    r = request.getfixturevalue(run_name)
    dense_acti = r["base_stats"].activation_percent
    wp_acti = r["wp_stats"].activation_percent
    jp_acti = r["jp_stats"].activation_percent
    wp_mac = r["wp_macs"].mac_percent
    jp_mac = r["jp_macs"].mac_percent
    print(f"\n{r['preset'].name}: acti dense {dense_acti:.2f}% / wp {wp_acti:.2f}% "
          f"/ jp {jp_acti:.2f}%; MAC wp {wp_mac:.2f}% / jp {jp_mac:.2f}%")
    assert jp_acti < dense_acti
    assert jp_acti < wp_acti
    assert jp_mac < wp_mac


# -- 6: static vs dynamic activation thresholds -----------------------------


def _static_thresholds(net, batch, layers, keep_rate):
    """Per-layer fixed magnitude cuts matching the dynamic keep rate,
    calibrated on one batch."""
    result = net.forward(batch, mode="eval")
    thresholds = {}
    for i in layers:
        mag = np.abs(result.post_mask[i])  # the net is unmasked: raw outputs
        thresholds[i] = float(np.quantile(mag, 1.0 - keep_rate))
    return thresholds


def _accuracy_with_static_masks(net, split, thresholds, batch_size=500):
    correct = 0
    for start in range(0, len(split), batch_size):
        x = split.images[start : start + batch_size].astype(net.dtype)
        branches = {}  # leaky6's skip branch, local to this batch's pass
        for i in range(len(net.layers)):
            x = net._layer_forward(i, x, branches)
            if i in thresholds:
                x = x * (np.abs(x) > thresholds[i])
        correct += int((x.argmax(axis=1) == split.labels[start : start + batch_size]).sum())
    return correct / len(split)


def test_static_vs_dynamic_thresholds(leaky6_run):
    r = leaky6_run
    preset, test = r["preset"], r["test"]
    baseline = r["baseline"]
    rate = preset.reference_rates[preset.mask_layers[0]]  # 0.45 everywhere
    assert rate <= 0.5  # matched activation density <= 50%

    thresholds = _static_thresholds(baseline, test.images[:500],
                                    preset.mask_layers, rate)
    static_acc = _accuracy_with_static_masks(baseline, test, thresholds)

    dyn = _clone(baseline)
    dyn.set_mask_cfg(WinnerRateConfig(per_layer_rate=dict(preset.reference_rates)))
    dynamic_acc, _ = evaluate(dyn, test, mode="jp")

    static_drop = r["base_acc"] - static_acc
    residual = r["base_acc"] - r["jp_acc"]
    print(f"\nleaky6 static/dynamic: baseline {r['base_acc']:.4f}, "
          f"static {static_acc:.4f} (drop {static_drop * 100:.2f}%), "
          f"dynamic pre-finetune {dynamic_acc:.4f}, "
          f"post-finetune {r['jp_acc']:.4f}")
    assert dynamic_acc >= static_acc
    # finetuning wins back at least 90% of the static-mask drop
    assert residual <= 0.10 * static_drop or residual <= 0.0


# -- 7: threshold prediction on the pruned MLP-3 ----------------------------


def _predicted_cfg(cfg, eps):
    return WinnerRateConfig(per_layer_rate=dict(cfg.per_layer_rate),
                            downsample_rate=eps,
                            selection_mode="predicted_threshold",
                            offset_seed=cfg.offset_seed)


def test_threshold_prediction_accuracy(mlp3_run):
    r = mlp3_run
    net, test = r["jp_net"], r["test"]
    exact_cfg = net.mask_cfg
    exact_acc = r["jp_acc"]
    net.set_mask_cfg(_predicted_cfg(exact_cfg, 0.1))
    try:
        pred_acc, _ = evaluate(net, test, mode="jp")
    finally:
        net.set_mask_cfg(exact_cfg)
    drop = exact_acc - pred_acc
    print(f"\nMLP-3 predicted eps=0.1: exact {exact_acc:.4f}, "
          f"predicted {pred_acc:.4f} (drop {drop * 100:.2f}%)")
    assert drop <= 0.005


def test_threshold_prediction_winner_counts(mlp3_run):
    """Realized winner counts within +-20% of k on >= 95% of samples.

    Known-unattainable as specified: with eps = 0.1 the subsample sizes at
    these layer widths (30 and 10 elements) make the estimated cut too
    noisy — ideal iid activations already cap the hit rate near 35%.  Kept
    as an honest red; see the decisions ledger for the full analysis.
    """
    r = mlp3_run
    net, test, preset = r["jp_net"], r["test"], r["preset"]
    exact_cfg = net.mask_cfg
    net.set_mask_cfg(_predicted_cfg(exact_cfg, 0.1))
    try:
        result = net.forward(test.images[:2000], mode="eval")
        hit_rates = {}
        for i in preset.mask_layers:
            t = result.act_masks[i]
            n = t[0].size
            k = math.ceil(exact_cfg.per_layer_rate[i] * n)
            counts = t.reshape(t.shape[0], -1).sum(axis=1)
            hit_rates[i] = float(((counts >= 0.8 * k) & (counts <= 1.2 * k)).mean())
    finally:
        net.set_mask_cfg(exact_cfg)
    print(f"\nMLP-3 winner-count hit rates (eps=0.1): "
          + ", ".join(f"layer {i}: {h * 100:.1f}%" for i, h in hit_rates.items()))
    for i, hit in hit_rates.items():
        assert hit >= 0.95, (
            f"layer {i}: only {hit * 100:.1f}% of samples within +-20% of k "
            f"(statistically unattainable at this layer width, see ledger)"
        )


# -- 8: fc condensation speedup ---------------------------------------------


def test_fc_condensation_speedup():
    rec = bench_condensed_fc(4096, 4096, 0.10, trials=100)
    flag = " (unstable)" if rec.unstable else ""
    print(f"\nfc 4096x4096 rate 0.10: {rec.speedup:.2f}x{flag} "
          f"(dense {rec.time_original * 1e6:.0f}us, "
          f"select+mac {rec.time_prune_plus_mac * 1e6:.0f}us)")
    assert rec.speedup >= 1.5


# -- 9: property suites ------------------------------------------------------
# Gradient checks, full-sort winner oracle, brute-force MAC counts, dropout
# reconciliation values and checkpoint bit-exactness run as unit suites
# (test_layers_grad, test_sparsity, test_metrics, test_pipeline,
# test_checkpoint).  The remaining piece is seed-determinism of a short run.


def test_two_epoch_run_is_seed_deterministic(mnist):
    train, _, _ = mnist
    small = train.subset(np.arange(2000))
    weights = []
    for _ in range(2):
        preset = get_preset("mlp3")
        net = preset.build(seed=3)
        cfg = TrainConfig(optimizer="sgd", lr=0.1, momentum=0.9, batch_size=100,
                          baseline_epochs=2, seed=3)
        train_dense(net, cfg, small)
        weights.append([p.value.copy() for p in net.params()])
    for a, b in zip(*weights):
        assert np.array_equal(a, b)
