"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (nested loops, full sorts, central
finite differences, one whole evaluation per sweep point) and stays
independent of the library code paths it checks.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from jointprune.pipeline import SensitivityCurve, evaluate
from jointprune.sparsity import WinnerRateConfig


def conv2d_naive(x, w, b, stride, pad):
    """Direct 6-nested-loop convolution, NCHW, f64."""
    bsz, cin, h, wid = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wid + 2 * pad - kw) // stride + 1
    out = np.zeros((bsz, cout, oh, ow), dtype=np.float64)
    for n in range(bsz):
        for oc in range(cout):
            for y in range(oh):
                for xx in range(ow):
                    acc = 0.0
                    for c in range(cin):
                        for i in range(kh):
                            for j in range(kw):
                                acc += xp[n, c, y * stride + i, xx * stride + j] * w[oc, c, i, j]
                    out[n, oc, y, xx] = acc + b[oc]
    return out


def maxpool_naive(x, window, stride, pad):
    bsz, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=-np.inf)
    oh = (h + 2 * pad - window) // stride + 1
    ow = (w + 2 * pad - window) // stride + 1
    out = np.empty((bsz, c, oh, ow), dtype=x.dtype)
    for n in range(bsz):
        for ch in range(c):
            for y in range(oh):
                for xx in range(ow):
                    patch = xp[n, ch, y * stride : y * stride + window,
                               xx * stride : xx * stride + window]
                    out[n, ch, y, xx] = patch.max()
    return out


def avgpool_naive(x, window, stride, pad):
    bsz, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - window) // stride + 1
    ow = (w + 2 * pad - window) // stride + 1
    out = np.empty((bsz, c, oh, ow), dtype=x.dtype)
    for n in range(bsz):
        for ch in range(c):
            for y in range(oh):
                for xx in range(ow):
                    patch = xp[n, ch, y * stride : y * stride + window,
                               xx * stride : xx * stride + window]
                    out[n, ch, y, xx] = patch.mean()
    return out


def _pad_nchw(x, pad, value=0.0):
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=value)


def _window_taps(xp, window, stride, oh, ow):
    """Strided views of a padded NCHW array, one per window offset (i, j),
    row-major; view (i, j) holds element (i, j) of every window."""
    return [xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
            for i in range(window) for j in range(window)]


def conv2d_padded_im2col(x, w, b, stride, pad):
    """Convolution through a padded im2col: np.pad and one window copy per
    tap, arranged as the library's batch-innermost (C*k*k, oh*ow*B)
    columns, then the library's GEMM calls and the bias: one GEMM for a
    single sample, else one per output row of the batch, or per output
    position when k*k*ow > h*w and B >= ow, with a zero second weight row
    for one output channel.  BLAS picks its kernels by operand shape and
    stride, so only the same calls give the same bytes; any difference lies
    in the lowering."""
    bsz, cin, h, wid = x.shape
    cout, _, k, _ = w.shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wid + 2 * pad - k) // stride + 1
    taps = _window_taps(_pad_nchw(x, pad), k, stride, oh, ow)
    cols = np.stack(taps, axis=2).reshape(bsz, cin * k * k, oh, ow).transpose(1, 2, 3, 0)
    n = oh * ow if bsz == 1 else ow * bsz if bsz < ow or k * k * ow <= h * wid else bsz
    units = np.ascontiguousarray(cols).reshape(cin * k * k, -1, n).transpose(1, 0, 2)
    w2 = w.reshape(cout, -1)
    if cout == 1:
        w2 = np.concatenate([w2, np.zeros_like(w2)])
    out = np.matmul(w2, units)[:, :cout].transpose(1, 0, 2).reshape(cout, oh, ow, bsz)
    out += b[:, None, None, None]
    return out.transpose(3, 0, 1, 2)


def conv2d_padded_col2im(x_shape, w, dout, stride, pad):
    """Input gradient through the library's single ``w2.T @ dout2`` GEMM,
    scattered back tap by tap into a zeroed padded buffer that is then
    cropped."""
    bsz, cin, h, wid = x_shape
    cout, _, k, _ = w.shape
    _, _, oh, ow = dout.shape
    dout2 = dout.transpose(1, 0, 2, 3).reshape(cout, -1)
    dcols = (w.reshape(cout, -1).T @ dout2).reshape(cin, k, k, bsz, oh, ow)
    dxp = np.zeros((bsz, cin, h + 2 * pad, wid + 2 * pad), dtype=dcols.dtype)
    for (i, j), dt in zip(np.ndindex(k, k), _window_taps(dxp, k, stride, oh, ow)):
        dt += dcols[:, i, j].transpose(1, 0, 2, 3)
    return dxp[:, :, pad : pad + h, pad : pad + wid]


def maxpool_taps(x, window, stride, pad):
    """Running np.maximum over the window taps of the -inf padded input; on
    a tie the earlier tap's value stays (np.maximum returns its second
    operand)."""
    xp = _pad_nchw(x, pad, -np.inf)
    oh = (xp.shape[2] - window) // stride + 1
    ow = (xp.shape[3] - window) // stride + 1
    taps = _window_taps(xp, window, stride, oh, ow)
    out = taps[0].copy()
    for t in taps[1:]:
        np.maximum(t, out, out=out)
    return out


def maxpool_backward_taps(x, dout, window, stride, pad):
    """Each gradient goes to the first tap equal to the window max, added as
    ``np.where(hit, dout, 0)`` into a zeroed padded buffer."""
    _, _, h, w = x.shape
    xp = _pad_nchw(x, pad, -np.inf)
    oh, ow = dout.shape[2:]
    out = maxpool_taps(x, window, stride, pad)
    dxp = np.zeros(xp.shape, dtype=dout.dtype)
    free = np.ones(out.shape, dtype=bool)
    for t, dt in zip(_window_taps(xp, window, stride, oh, ow),
                     _window_taps(dxp, window, stride, oh, ow)):
        hit = (t == out) & free
        free &= ~hit
        dt += np.where(hit, dout, 0)
    return dxp[:, :, pad : pad + h, pad : pad + w]


def avgpool_taps(x, window, stride, pad):
    """Tap sum from +0.0 over the zero padded input, divided by k*k."""
    xp = _pad_nchw(x, pad)
    oh = (xp.shape[2] - window) // stride + 1
    ow = (xp.shape[3] - window) // stride + 1
    taps = _window_taps(xp, window, stride, oh, ow)
    out = taps[0] + 0.0
    for t in taps[1:]:
        out += t
    return out / len(taps)


def avgpool_backward_taps(x, dout, window, stride, pad):
    _, _, h, w = x.shape
    dxp = np.zeros((x.shape[0], x.shape[1], h + 2 * pad, w + 2 * pad), dtype=dout.dtype)
    oh, ow = dout.shape[2:]
    share = dout / window**2
    for dt in _window_taps(dxp, window, stride, oh, ow):
        dt += share
    return dxp[:, :, pad : pad + h, pad : pad + w]


def topk_fullsort(acts, k):
    """Winner index set via a full magnitude sort, lowest index first on ties."""
    flat = np.abs(np.asarray(acts)).reshape(-1)
    # stable sort on (-magnitude, index): ties resolved by lower index
    order = np.lexsort((np.arange(flat.size), -flat))
    return set(order[:k].tolist())


def select_winners_reference(acts, rate):
    """Exact winner masks the way the library first computed them: a float
    partition of a sample-major |a| copy for each sample's k-th largest
    magnitude, then a lowest-index tie-break by cumulative count over the
    tied samples.  Bool masks in the memory layout of ``acts``."""
    acts = np.asarray(acts)
    cols = acts.transpose(tuple(range(1, acts.ndim)) + (0,)).reshape(-1, acts.shape[0])
    n, b = cols.shape
    k = min(n, max(1, math.ceil(rate * n)))
    if k >= n:
        return np.ones(acts.shape, dtype=bool)
    rows = np.ascontiguousarray(np.abs(cols).T)
    rows.partition(n - k, axis=1)
    kth = rows[:, n - k].copy()
    del rows
    mask = np.abs(cols) >= kth
    tied = np.flatnonzero(np.count_nonzero(mask, axis=0) > k)
    if tied.size:
        mag = np.abs(cols[:, tied]).T
        gt = mag > kth[tied, None]
        eq = mag == kth[tied, None]
        need = k - np.count_nonzero(gt, axis=1)
        eq &= np.cumsum(eq, axis=1) <= need[:, None]
        mask[:, tied] = (gt | eq).T
    return mask.T.reshape(acts.shape)


def subsample_threshold(acts, rate, eps, offset):
    """The predicted-threshold cut by full sort: the ceil(eps * k)-th largest
    magnitude among round(eps * N) elements taken every floor(1/eps)
    positions from ``offset`` (wrapping), with k = ceil(rate * N) in [1, N]."""
    flat = np.abs(np.asarray(acts)).reshape(-1)
    n = flat.size
    k = min(n, max(1, math.ceil(rate * n)))
    m = max(1, round(eps * n))
    stride = max(1, int(1.0 / eps))
    sub = np.sort(flat[[(offset + j * stride) % n for j in range(m)]])[::-1]
    return sub[min(m, max(1, math.ceil(eps * k))) - 1]


def magnitude_cut_partition(weights, target_density):
    """The weight-pruning cut the way the library first computed it: a float
    partition of a flat |w| copy for the keep-th largest magnitude, keep =
    ceil(d * N) in [1, N], then the next float toward zero."""
    mag = np.abs(np.asarray(weights)).reshape(-1)
    n = mag.size
    keep = min(n, max(1, math.ceil(target_density * n)))
    return float(np.nextafter(np.partition(mag, n - keep)[n - keep], 0.0))


def central_diff_grad(f, param, indices, h=1e-5):
    """Central finite differences of scalar f() wrt param.value[indices]."""
    grads = []
    for idx in indices:
        orig = param.value[idx]
        param.value[idx] = orig + h
        fp = f()
        param.value[idx] = orig - h
        fm = f()
        param.value[idx] = orig
        grads.append((fp - fm) / (2 * h))
    return np.array(grads)


def effective_macs_fc_bruteforce(x, wmask):
    """Triple-loop count of (nonzero input, unpruned weight) pairs."""
    total = 0
    bsz, n_in = x.shape
    n_out = wmask.shape[1]
    for n in range(bsz):
        for i in range(n_in):
            if x[n, i] != 0:
                for o in range(n_out):
                    if wmask[i, o] != 0:
                        total += 1
    return total


def effective_macs_conv_bruteforce(x, wmask, stride, pad):
    """Loop count of MACs whose input patch value is nonzero and weight kept."""
    bsz, cin, h, w = x.shape
    cout, _, kh, kw = wmask.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    total = 0
    for n in range(bsz):
        for oc in range(cout):
            for y in range(oh):
                for xx in range(ow):
                    for c in range(cin):
                        for i in range(kh):
                            for j in range(kw):
                                if xp[n, c, y * stride + i, xx * stride + j] != 0 and wmask[oc, c, i, j] != 0:
                                    total += 1
    return total


def effective_macs_fc_exact(x, wmask):
    """The same pair count as :func:`effective_macs_fc_bruteforce` as one
    product of 0/1 matrices per sample and output, for sizes the loop cannot
    reach (each count and their sum are exact in float64)."""
    return int(((x != 0).astype(np.float64) @ (wmask != 0).astype(np.float64)).sum())


def effective_macs_conv_int64(x, wmask, stride, pad):
    """The same pair count as :func:`effective_macs_conv_bruteforce` in
    int64 over sliding windows, for sizes the loop cannot reach."""
    nz = np.pad((x != 0).astype(np.int64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    kh, kw = wmask.shape[2:]
    win = sliding_window_view(nz, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    kept = (wmask != 0).sum(axis=0)
    return int(np.einsum("bchwij,cij->", win, kept))


def maxpool_backward_naive(x, dout, window, stride, pad):
    """Each output gradient goes to the first maximal element of its window,
    scanning the window in row-major order."""
    bsz, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=-np.inf)
    dxp = np.zeros(xp.shape, dtype=dout.dtype)
    _, _, oh, ow = dout.shape
    for n in range(bsz):
        for ch in range(c):
            for y in range(oh):
                for xx in range(ow):
                    best = None
                    for i in range(window):
                        for j in range(window):
                            v = xp[n, ch, y * stride + i, xx * stride + j]
                            if best is None or v > best[0]:
                                best = (v, i, j)
                    _, i, j = best
                    dxp[n, ch, y * stride + i, xx * stride + j] += dout[n, ch, y, xx]
    return dxp[:, :, pad : pad + h, pad : pad + w]


def avgpool_backward_naive(x, dout, window, stride, pad):
    """Each output gradient spread evenly over its window, padding included."""
    bsz, c, h, w = x.shape
    dxp = np.zeros((bsz, c, h + 2 * pad, w + 2 * pad), dtype=dout.dtype)
    _, _, oh, ow = dout.shape
    for n in range(bsz):
        for ch in range(c):
            for y in range(oh):
                for xx in range(ow):
                    dxp[n, ch, y * stride : y * stride + window,
                        xx * stride : xx * stride + window] += dout[n, ch, y, xx] / window**2
    return dxp[:, :, pad : pad + h, pad : pad + w]


def adadelta_scalar_reference(grads, lr, rho, eps):
    """Hand recurrence for a single scalar parameter starting at 0."""
    w, ag, ad = 0.0, 0.0, 0.0
    trace = []
    for g in grads:
        ag = rho * ag + (1 - rho) * g * g
        delta = -np.sqrt(ad + eps) / np.sqrt(ag + eps) * g
        ad = rho * ad + (1 - rho) * delta * delta
        w += lr * delta
        trace.append(w)
    return trace


def sensitivity_sweep_reference(net, val_split, rates, layers):
    """The sweep as ``1 + L·R`` whole masked evaluations: the dense baseline,
    then one ``evaluate`` of the net with only ``layer`` masked per layer
    and rate.  Rates at or above 1.0 record ``(1.0, 0.0)`` unevaluated.  A
    drop is the count of samples lost over ``n``, each count recovered from
    its accuracy."""
    n = len(val_split)
    base = evaluate(net, val_split, mode="dense")[0]
    curve = SensitivityCurve(baseline_accuracy=base)
    for layer in layers:
        pts = []
        for rate in sorted(rates):
            if rate >= 1.0:
                pts.append((1.0, 0.0))
                continue
            with net.masks(WinnerRateConfig(per_layer_rate={layer: rate})):
                acc = evaluate(net, val_split, mode="jp")[0]
            pts.append((rate, (round(base * n) - round(acc * n)) / n))
        curve.points[layer] = pts
    return curve
