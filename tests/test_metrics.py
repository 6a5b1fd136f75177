"""MAC accounting against brute-force pair counting, plus CSV reports and
the fc condensation benchmark."""

import math
import os

import numpy as np
import pytest

from jointprune import layers as L
from jointprune.errors import ConfigError, JointPruneError
from jointprune import metrics
from jointprune.metrics import (
    MacLayerRow,
    MacReport,
    SparsityStats,
    SpeedupRecord,
    bench_condensed_fc,
    count_effective_macs,
    emit_report,
    weight_layer_names,
)
from jointprune.models import get_preset
from jointprune.network import Network
from jointprune.pipeline import prune_to_targets
from jointprune.sparsity import WinnerRateConfig

from datafiles import read_report
from oracles import (
    effective_macs_conv_bruteforce,
    effective_macs_conv_int64,
    effective_macs_fc_bruteforce,
    effective_macs_fc_exact,
)


def _dense_macs(net):
    """Dense MAC count per weight layer, keyed by layer index, as the MAC
    report states it."""
    rows = count_effective_macs(net, np.zeros((1, *net.input_shape))).rows
    return dict(zip(weight_layer_names(net), (r.dense_macs for r in rows)))


def test_mlp3_dense_mac_counts():
    net = get_preset("mlp3").build()
    macs = _dense_macs(net)
    assert macs == {1: 235_200, 4: 30_000, 7: 1_000}
    assert sum(macs.values()) == 266_200


def test_lenet4_dense_mac_counts():
    net = get_preset("lenet4").build()
    macs = _dense_macs(net)
    assert macs[0] == 28 * 28 * 5 * 5 * 1 * 20  # 392000
    assert macs[3] == 14 * 14 * 5 * 5 * 20 * 50  # 4900000
    assert macs[7] == 2450 * 500
    assert macs[10] == 500 * 10
    assert sum(macs.values()) == 6_522_000


def test_convnet5_dense_mac_counts():
    net = get_preset("convnet5").build()
    macs = _dense_macs(net)
    assert macs[0] == 691_200
    assert macs[3] == 3_686_400
    assert macs[7] == 884_736
    assert macs[10] == 73_728
    assert macs[13] == 1_920
    assert sum(macs.values()) == 5_337_984


def test_one_by_one_fc():
    net = Network([L.flatten(), L.fc(1, 1)], (1, 1, 1))
    assert _dense_macs(net) == {1: 1}  # flatten has no MACs


def test_weight_layer_names():
    net = get_preset("lenet4").build()
    assert weight_layer_names(net) == {0: "conv1", 3: "conv2", 7: "fc1", 10: "fc2"}


def test_effective_equals_dense_when_everything_nonzero(rng):
    net = Network([L.flatten(), L.fc(12, 8), L.fc(8, 4)], (1, 3, 4),
                  dtype=np.float64)
    # make every intermediate activation nonzero: no relu, nonzero input
    batch = rng.uniform(0.5, 1.0, size=(3, 1, 3, 4))
    report = count_effective_macs(net, batch)
    for row in report.rows:
        assert row.effective_macs == row.dense_macs
        assert row.mac_percent == 100.0
        assert row.acti_density_in == 1.0
    assert report.mac_percent == 100.0


def test_fc_effective_scales_with_weight_density(rng):
    net = Network([L.flatten(), L.fc(20, 10)], (1, 4, 5), dtype=np.float64)
    w = net.layers[1].w
    mask = np.zeros((20, 10))
    mask.reshape(-1)[:60] = 1.0  # density 0.3
    w.set_mask(mask)
    batch = rng.uniform(0.5, 1.0, size=(4, 1, 4, 5))
    report = count_effective_macs(net, batch)
    assert report.rows[0].effective_macs == 60.0
    assert np.isclose(report.rows[0].weight_density, 0.3)


def test_effective_macs_match_bruteforce_100_layers(rng):
    """Vectorized counting vs nested-loop oracle on random sparse inputs
    and random weight masks, fc and conv geometries alternating."""
    for trial in range(100):
        if trial % 2 == 0:
            n_in, n_out = int(rng.integers(2, 12)), int(rng.integers(2, 8))
            net = Network([L.flatten(), L.fc(n_in, n_out)], (1, 1, n_in),
                          dtype=np.float64)
            w = net.layers[1].w
            x = rng.standard_normal((3, 1, 1, n_in))
            x[rng.random(x.shape) < 0.4] = 0.0
            mask = (rng.random(w.value.shape) > 0.3).astype(np.float64)
            w.set_mask(mask)
            report = count_effective_macs(net, x)
            ref = effective_macs_fc_bruteforce(x.reshape(3, n_in), mask) / 3
        else:
            c = int(rng.integers(1, 3))
            cout = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            h = int(rng.integers(k + 1, 8))
            net = Network([L.conv2d(c, cout, k, stride, pad)], (c, h, h),
                          dtype=np.float64)
            w = net.layers[0].w
            x = rng.standard_normal((2, c, h, h))
            x[rng.random(x.shape) < 0.4] = 0.0
            mask = (rng.random(w.value.shape) > 0.3).astype(np.float64)
            w.set_mask(mask)
            report = count_effective_macs(net, x)
            ref = effective_macs_conv_bruteforce(x, mask, stride, pad) / 2
        assert np.isclose(report.rows[0].effective_macs, ref), f"trial {trial}"


def test_conv_effective_macs_exact_above_2_pow_24_pairs(rng):
    """More pairs than float32 counts exactly: the count must stay exact."""
    net = Network([L.conv2d(20, 50, 5, 1, 2)], (20, 14, 14))
    w = net.layers[0].w
    w.set_mask((rng.random(w.value.shape) > 0.3).astype(np.float32))
    x = rng.standard_normal((32, 20, 14, 14)).astype(np.float32)
    x[rng.random(x.shape) < 0.5] = 0.0
    pairs = effective_macs_conv_int64(x, w.mask, 1, 2)
    assert pairs > 2**24
    assert count_effective_macs(net, x).rows[0].effective_macs * 32 == pairs


@pytest.mark.parametrize("name", ["mlp3", "lenet4", "convnet5"])
def test_effective_macs_over_several_forwards_match_bruteforce(rng, name):
    """1,200 samples through a preset pruned to its targets, with exact
    masks at its reference rates, run as three eval forwards of
    ``EVAL_BATCH`` = 500 (the last ragged).  Each layer's pairs, counted
    once from the summed per-position counts, equal the oracle's pair
    counts summed over the outputs of each 500-sample eval forward, and its
    input density their nonzero count."""
    preset = get_preset(name)
    net = preset.build(seed=1)
    prune_to_targets(net, preset.weight_targets, ramp=1.0)
    net.set_mask_cfg(WinnerRateConfig(per_layer_rate=dict(preset.reference_rates)))
    x = rng.random((1200,) + net.input_shape).astype(np.float32)
    x[x < 0.3] = 0.0
    sizes, forward = [], net.forward
    net.forward = lambda xb, **kw: sizes.append(len(xb)) or forward(xb, **kw)
    report = count_effective_macs(net, x)
    assert sizes == [500, 500, 200] and metrics.EVAL_BATCH == 500
    pairs, nonzero = {}, {}
    for start in range(0, len(x), 500):
        xb = x[start:start + 500]
        res = forward(xb, mode="eval")
        for i, w in net.weight_params():
            inp = xb if i == 0 else res.post_mask[i - 1]
            g = net.specs[i].geometry
            pairs[i] = pairs.get(i, 0) + (
                effective_macs_fc_exact(inp, w.mask) if net.layers[i].kind == "fc" else
                effective_macs_conv_int64(inp, w.mask, g["stride"], g["pad"]))
            nonzero[i] = nonzero.get(i, 0) + np.count_nonzero(inp)
    for row, (i, w) in zip(report.rows, net.weight_params()):
        size = math.prod(net.input_shape if i == 0 else net.layer_shapes[i - 1])
        assert row.effective_macs == pairs[i] / len(x), row.name
        assert row.acti_density_in == int(nonzero[i]) / (len(x) * size), row.name


def test_effective_macs_monotone_under_pruning(rng):
    net = Network([L.flatten(), L.fc(30, 20)], (1, 5, 6), dtype=np.float64)
    batch = rng.standard_normal((4, 1, 5, 6))
    w = net.layers[1].w
    prev = np.inf
    keep = np.ones(w.value.shape)
    for density in (1.0, 0.6, 0.3, 0.1):
        n_drop = int(round((1 - density) * keep.size))
        keep = np.ones(w.value.shape).reshape(-1)
        keep[:n_drop] = 0.0
        w.set_mask(keep.reshape(w.value.shape))
        eff = count_effective_macs(net, batch).total_effective
        assert eff <= prev
        prev = eff


def test_sparsity_stats_weighted_aggregation():
    stats = SparsityStats(per_layer=[(0, 100, 0.5), (1, 300, 0.1)])
    assert np.isclose(stats.activation_percent, 100.0 * (50 + 30) / 400)


def test_mac_report_totals():
    report = MacReport(rows=[
        MacLayerRow("a", 100, 50.0, 1.0, 0.5),
        MacLayerRow("b", 300, 30.0, 0.4, 0.25),
    ])
    assert report.total_dense == 400
    assert report.total_effective == 80.0
    assert np.isclose(report.mac_percent, 20.0)
    assert np.isclose(report.weight_density, (0.5 * 100 + 0.25 * 300) / 400)


def test_csv_round_trip_byte_identical(tmp_path, rng):
    net = get_preset("mlp3").build()
    batch = rng.uniform(0.0, 1.0, size=(2, 1, 28, 28))
    report = count_effective_macs(net, batch)
    p1 = tmp_path / "macs.csv"
    p2 = tmp_path / "macs2.csv"
    emit_report(report.table(), p1)
    parsed = read_report(p1)
    emit_report(parsed, p2)
    assert p1.read_bytes() == p2.read_bytes()
    header, rows = parsed
    assert header[0] == "layer"
    assert rows[-1][0] == "Total"


def test_empty_report_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_report(MacReport().table(), path)
    assert path.read_text() == "layer,dense_macs,effective_macs,acti_density_in,weight_density,mac_percent\n"
    header, rows = read_report(path)
    assert rows == []


class _Unprintable:
    def __str__(self):
        raise ValueError("no text")


def _fail_replace(src, dst):
    raise OSError(18, "Invalid cross-device link")


@pytest.mark.parametrize("fault", ["cell", "replace"])
def test_failed_report_write_keeps_previous_report(tmp_path, monkeypatch, fault):
    """A report write that fails after its header (a cell whose str()
    raises, or the rename) raises, leaves the report it would replace
    byte-identical and leaves no temp file; an OSError is JointPruneError."""
    path = tmp_path / "r.csv"
    emit_report((["a", "b"], [[1, 2]]), path)
    before = path.read_bytes()
    if fault == "cell":
        rows, error = [[3, 4], [_Unprintable(), 5]], pytest.raises(ValueError, match="no text")
    else:
        monkeypatch.setattr(os, "replace", _fail_replace)
        rows, error = [[3, 4]], pytest.raises(JointPruneError, match="cannot write report")
    with error:
        emit_report((["a", "b"], rows), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv"]


def test_speedup_record_math():
    rec = SpeedupRecord(8, 8, 0.5, time_original=1.0, time_select=0.2,
                        time_condensed_mac=0.3, trials=10, unstable=False)
    assert rec.time_prune_plus_mac == 0.5
    assert rec.speedup == 2.0


def test_bench_condensed_fc_small():
    rec = bench_condensed_fc(256, 256, 0.25, trials=5, warmup=2)
    assert rec.time_original > 0 and rec.time_select > 0 and rec.time_condensed_mac > 0
    assert rec.n_in == 256 and rec.winner_rate == 0.25
    with pytest.raises(ConfigError):
        bench_condensed_fc(16, 16, 0.5, trials=0)
    for rate in (0.0, 1.5):  # outside (0, 1]: winner_count would clip it
        with pytest.raises(ConfigError, match="winner rate"):
            bench_condensed_fc(16, 16, rate, trials=1)


def test_bench_condensed_fc_times_the_serving_fc_forward(monkeypatch):
    """Every product bench-fc times is an eval Dense.forward of one sample:
    the equivalence check's and the condensed runs' on the sample masked by
    WinnerRateConfig.mask (k = 16 of 64 inputs kept), the original runs' on
    the dense sample."""
    seen, masks = [], []
    forward, mask = L.Dense.forward, WinnerRateConfig.mask

    def spy_forward(self, x, train=False, rng=None):
        seen.append((x.shape[0], int(np.count_nonzero(x)), train))
        return forward(self, x, train, rng)

    def spy_mask(self, layer, acts):
        masks.append(layer)
        return mask(self, layer, acts)

    monkeypatch.setattr(L.Dense, "forward", spy_forward)
    monkeypatch.setattr(WinnerRateConfig, "mask", spy_mask)
    bench_condensed_fc(64, 8, 0.25, trials=3, warmup=2)
    assert seen == [(1, 16, False)] + [(1, 64, False)] * 5 + [(1, 16, False)] * 5
    assert masks == [0] * 6  # the check's selection, then the 5 timed ones
