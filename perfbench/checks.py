"""Correctness checks on one round's outputs, run outside the timed region.

The reference forward here is written independently of ``jointprune``: it
works in float64, convolves and pools through ``sliding_window_view``
rather than im2col, and selects winners with a stable full sort.  Where
float32 rounding in the program puts a different element on the winner cut
than float64 does, the reference accepts the program's choice only if both
elements lie within ``NEAR_TIE`` of the cut (relative to the row's largest
magnitude), and continues with the program's mask so the difference does
not propagate.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from jointprune import metrics

CHECK_BATCH = 8
NEAR_TIE = 2e-5             # float32 drift tolerated at a winner cut, x row max
LOGIT_TOL = 1e-4            # |float32 - float64| logits, x (1 + max |logit|)
B1_TOL = 1e-5               # batch-1 vs batched logits, x (1 + max |logit|)


class CheckFailed(Exception):
    """A correctness check did not hold."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _windows(a, k, s, p, fill):
    if p:
        a = np.pad(a, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=fill)
    return sliding_window_view(a, (k, k), axis=(2, 3))[:, :, ::s, ::s]


def _reference_topk(a, rate):
    """Winner mask by stable full sort: largest |a| first, lowest index on ties."""
    b = a.shape[0]
    mag = np.abs(a).reshape(b, -1)
    n = mag.shape[1]
    k = min(n, max(1, math.ceil(rate * n)))
    order = np.argsort(-mag, axis=1, kind="stable")
    mask = np.zeros_like(mag, dtype=bool)
    np.put_along_axis(mask, order[:, :k], True, axis=1)
    cut = np.take_along_axis(mag, order[:, k - 1 : k], axis=1)[:, 0]
    return mask, mag, cut


def reference_forward(net, x, program):
    """float64 logits for ``x`` plus the number of near-tie mask differences.

    ``program`` is the network's own ForwardResult on ``x``; its masks are
    compared with the reference's.  Raises CheckFailed on a mask
    difference away from the cut.
    """
    a = x.astype(np.float64)
    saved = {}
    rates = net.mask_cfg.per_layer_rate if net.mask_cfg else {}
    near_ties = 0
    for i, (spec, layer) in enumerate(zip(net.specs, net.layers)):
        g, kind = spec.geometry, spec.kind
        if kind in ("fc", "conv2d"):
            w = layer.params[0].value.astype(np.float64)
            bias = layer.params[1].value.astype(np.float64)
            if kind == "fc":
                a = a @ w + bias
            else:
                win = _windows(a, g["kernel"], g["stride"], g["pad"], 0.0)
                a = np.einsum("bchwij,ocij->bohw", win, w, optimize=True)
                a += bias[None, :, None, None]
        elif kind == "maxpool":
            a = _windows(a, g["window"], g["stride"], g["pad"], -np.inf).max(axis=(-2, -1))
        elif kind == "avgpool":
            a = _windows(a, g["window"], g["stride"], g["pad"], 0.0).mean(axis=(-2, -1))
        elif kind == "relu":
            a = np.maximum(a, 0.0)
        elif kind == "leaky_relu":
            a = np.where(a > 0, a, g.get("slope", 0.1) * a)
        elif kind == "flatten":
            a = a.reshape(a.shape[0], -1)
        elif kind == "skip_save":
            saved[g["tag"]] = a
        elif kind == "skip_add":
            a = a + saved[g["tag"]]
        # dropout is the identity in eval mode
        if i in rates and rates[i] < 1.0:
            ref, mag, cut = _reference_topk(a, rates[i])
            prog = program.act_masks[i].reshape(ref.shape) != 0
            diff = ref != prog
            if diff.any():
                tol = NEAR_TIE * mag.max(axis=1, keepdims=True)
                far = diff & (np.abs(mag - cut[:, None]) > tol)
                if far.any():
                    raise CheckFailed(
                        f"layer {i}: {int(far.sum())} winner(s) differ away from the cut")
                near_ties += int(diff.sum())
            a = a * prog.reshape(a.shape)
    return a, near_ties


def _brute_force_pairs(net, batch, post_mask):
    """Per weight layer, nonzero-input x unpruned-weight pairs over the batch."""
    counts = {}
    for i, layer in enumerate(net.layers):
        if layer.kind not in ("fc", "conv2d"):
            continue
        x = batch if i == 0 else post_mask[i - 1]
        nz = (x != 0).astype(np.int64)
        wp = layer.params[0]
        keep = (np.ones(wp.value.shape) if wp.mask is None else wp.mask != 0).astype(np.int64)
        if layer.kind == "fc":
            counts[i] = int(np.einsum("bi,io->", nz, keep))
        else:
            g = layer.spec.geometry
            win = _windows(nz, g["kernel"], g["stride"], g["pad"], 0)
            counts[i] = int(np.einsum("bchwij,ocij->", win, keep, optimize=True))
    return counts


def _bit_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def run_checks(s, net, result):
    """Return ``[(name, passed, detail)]`` for one finished round."""
    x = s.inputs.eval.images[:CHECK_BATCH]
    rates = s.exact_cfg.per_layer_rate
    program = net.forward(x, mode="eval")

    def finite():
        losses = [r["loss"] for r in result["dense_hist"] + result["jp_hist"]]
        _require(all(r["phase"] != "aborted" for r in result["jp_hist"]),
                 "joint_finetune aborted")
        _require(all(math.isfinite(v) for v in losses), f"non-finite loss in {losses}")
        _require(np.isfinite(program.logits).all(), "non-finite logits")
        _require(result["b1_nonfinite"] == 0,
                 f"{result['b1_nonfinite']} non-finite batch-1 logits")
        return f"{len(losses)} epoch losses"

    def exact_k():
        for i, rate in rates.items():
            m = program.act_masks[i].reshape(len(x), -1)
            k = min(m.shape[1], max(1, math.ceil(rate * m.shape[1])))
            kept = m.sum(axis=1)
            _require((kept == k).all(), f"layer {i}: kept {kept.tolist()} != k={k}")
        return f"{len(rates)} layers"

    def weights():
        for i, p in net.weight_params():
            target = s.preset.weight_targets[i]
            _require(p.mask is not None, f"layer {i} has no weight mask")
            _require(not p.value[p.mask == 0].any(), f"layer {i}: pruned weight not 0")
            kept = int(np.count_nonzero(p.mask))
            _require(abs(kept - target * p.mask.size) <= 1,
                     f"layer {i}: {kept} kept, target {target * p.mask.size:.1f}")
        return f"{len(net.weight_params())} weight layers"

    def reference():
        ref, near_ties = reference_forward(net, x, program)
        tol = LOGIT_TOL * (1.0 + np.abs(ref).max())
        err = float(np.abs(program.logits - ref).max())
        _require(err <= tol, f"max |logit - f64| {err:.3g} > {tol:.3g}")
        return f"max err {err:.3g} (tol {tol:.3g}), {near_ties} near-tie mask diffs"

    def macs():
        report = metrics.count_effective_macs(net, x)
        brute = _brute_force_pairs(net, x, program.post_mask)
        for (i, pairs), row in zip(sorted(brute.items()), report.rows):
            got = row.effective_macs * len(x)
            _require(got == pairs, f"{row.name}: {got!r} effective MACs != {pairs} pairs")
        return f"{len(brute)} layers"

    def roundtrip():
        restored = result["restored"]
        for p, q in zip(net.params(), restored.params(), strict=True):
            _require(_bit_equal(p.value, q.value), f"param {p.name} differs")
            _require((p.mask is None) == (q.mask is None), f"mask presence of {p.name} differs")
            _require(p.mask is None or _bit_equal(p.mask, q.mask), f"mask of {p.name} differs")
        _require(restored.mask_cfg == net.mask_cfg, "winner config differs")
        again = restored.forward(x, mode="eval").logits
        _require(_bit_equal(again, program.logits), "restored logits differ")
        return f"{result['ckpt_bytes']} bytes"

    def batch_one():
        tol = B1_TOL * (1.0 + float(np.abs(program.logits).max()))
        worst = 0.0
        for r in range(len(x)):
            row = net.forward(x[r : r + 1], mode="eval").logits[0]
            worst = max(worst, float(np.abs(row - program.logits[r]).max()))
        _require(worst <= tol, f"batch-1 vs batched max diff {worst:.3g} > {tol:.3g}")
        return f"max diff {worst:.3g}"

    out = []
    for name, fn in (("finite", finite), ("exact_k", exact_k), ("weights", weights),
                     ("f64_reference", reference), ("macs_brute_force", macs),
                     ("checkpoint_bit_exact", roundtrip), ("batch1_vs_batched", batch_one)):
        try:
            out.append((name, True, fn()))
        except CheckFailed as e:
            out.append((name, False, str(e)))
    return out
