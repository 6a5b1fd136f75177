"""Sequential network container with masked forward/backward passes.

The network owns its layers, their static weight masks, and (optionally) a
:class:`~jointprune.sparsity.WinnerRateConfig` describing which layer
outputs get a dynamic per-sample winner mask.  The final layer's output is
never masked.  Skip branches belong to one pass: ``forward``,
``sweep_logits`` and ``backward`` each keep the branches (or branch
gradients) of their skip_save/skip_add layers in a local dict, so none
outlives the call.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial

import numpy as np

from .errors import ConfigError, ShapeError
from .fields import AT_LEAST_ONE, check
from .layers import LAYER_CLASSES, LayerSpec
from .sparsity import WinnerRateConfig


class ForwardResult:
    """Per-layer activations from one forward pass.

    ``post_mask[i]`` is layer i's output after its dynamic winner mask
    ``act_masks[i]`` (None, and the raw output, when layer i is unmasked),
    or None when the forward did not keep layer i's output.  ``logits`` is
    the final layer output, which is always kept.
    """

    __slots__ = ("post_mask", "logits", "act_masks")

    def __init__(self, post_mask, act_masks):
        self.post_mask = post_mask
        self.logits = post_mask[-1]
        self.act_masks = act_masks


class Network:
    def __init__(self, specs, input_shape, dtype=np.float32, seed=0, stored=None):
        """Owns copies of ``specs`` and of ``input_shape``, one or more dims
        each cast to an int >= 1.  After the shape and skip checks, each param
        is made once: drawn from ``seed``, or copied from ``stored(i, name, shape)``."""
        self.input_shape = tuple(check("input shape", input_shape, list[int], **AT_LEAST_ONE))
        if not self.input_shape:
            raise ConfigError(f"input shape must have one or more dims, got {input_shape!r}")
        self.specs = [LayerSpec(s.kind, dict(s.geometry)) for s in specs]
        if not self.specs:
            raise ConfigError("a network needs at least one layer")
        self.dtype = np.dtype(dtype)
        self.layers = [LAYER_CLASSES[s.kind](s) for s in self.specs]
        self.layer_shapes = self._resolve_shapes()
        rng = np.random.default_rng(seed)
        for i, layer in enumerate(self.layers):
            layer.make_params(rng, self.dtype, None if stored is None else partial(stored, i))
        # backward ends at the first layer with params: no gradient below
        # it is ever read
        self._grad_floor = next((i for i, layer in enumerate(self.layers) if layer.params), None)
        self.mask_cfg = None
        self._act_masks = None  # set by a train-mode forward only

    def _resolve_shapes(self):
        shapes = []
        cur = self.input_shape
        branches = {}  # tag -> shape of the branch saved and not yet added
        for i, (spec, layer) in enumerate(zip(self.specs, self.layers)):
            try:
                if spec.kind == "skip_save":
                    branches[spec.geometry["tag"]] = cur
                elif spec.kind == "skip_add":
                    tag = spec.geometry["tag"]
                    if tag not in branches:
                        raise ShapeError(f"skip_add {tag!r} has no saved branch")
                    saved = branches.pop(tag)
                    if saved != cur:
                        raise ShapeError(f"skip branch {tag!r} shape {saved} != {cur}")
                cur = layer.out_shape(cur)
            except ShapeError as e:
                raise ShapeError(f"layer {i} ({spec.kind}): {e}") from None
            shapes.append(cur)
        return shapes

    # -- masks ------------------------------------------------------------

    def _check_maskable(self, idx):
        if not 0 <= idx < len(self.layers):
            raise ConfigError(f"masked layer index {idx} out of range")
        if idx == len(self.layers) - 1:
            raise ConfigError("the final layer output must not carry an activation mask")

    def set_mask_cfg(self, cfg):
        """Attach a winner-rate config; the output layer must stay unmasked."""
        if cfg is not None:
            for idx in cfg.per_layer_rate:
                self._check_maskable(idx)
        self.mask_cfg = cfg

    @contextmanager
    def masks(self, cfg):
        """Attach ``cfg`` (validated as by :meth:`set_mask_cfg`) for the
        ``with`` block, then put the previous config back."""
        saved = self.mask_cfg
        self.set_mask_cfg(cfg)
        try:
            yield self
        finally:
            self.mask_cfg = saved

    def weight_params(self):
        """(layer_index, weight) pairs: the first param of each layer with
        params.  ConfigError when there is none: the weight density and the
        MAC counts divide by the weights."""
        if pairs := [(i, layer.params[0]) for i, layer in enumerate(self.layers) if layer.params]:
            return pairs
        raise ConfigError("the network has no fc or conv2d layer")

    def params(self):
        return [p for layer in self.layers for p in layer.params]

    def weight_density(self):
        kept = total = 0
        for _, p in self.weight_params():
            total += p.value.size
            kept += p.value.size if p.mask is None else int(p.mask.sum())
        return kept / total

    # -- passes -----------------------------------------------------------

    def _as_input(self, x):
        x = np.asarray(x, dtype=self.dtype)
        if x.shape[1:] != self.input_shape:
            raise ShapeError(
                f"input shape {x.shape[1:]} does not match network input {self.input_shape}"
            )
        return x

    def _layer_forward(self, i, x, branches, train=False, rng=None):
        """Layer i's output.  ``branches`` holds the skip branches the
        calling pass has saved and not yet added, by tag."""
        layer = self.layers[i]
        if layer.kind == "skip_save":
            branches[layer.spec.geometry["tag"]] = x
            return x
        if layer.kind == "skip_add":
            return x + branches.pop(layer.spec.geometry["tag"])
        try:
            return layer.forward(x, train=train, rng=rng)
        except (ValueError, ShapeError) as e:
            raise ShapeError(f"layer {i} ({layer.kind}): {e}") from None

    def forward(self, x, mode="eval", rng=None, keep=None):
        """Run all layers; returns a :class:`ForwardResult`.

        In train mode dropout is active (requires ``rng``); in eval mode it
        is an identity.  Dynamic winner masks apply in both modes whenever
        a mask config is attached.  Only a train-mode forward keeps the
        state :meth:`backward` needs.  ``keep`` names the layers whose
        outputs the result holds (None: all of them); every other output is
        freed once the next layer has read it.  A skip branch is a local of
        this call, so none outlives it, also when a layer raises.
        """
        if mode not in ("train", "eval"):
            raise ConfigError(f"forward mode must be train or eval, got {mode!r}")
        x = self._as_input(x)
        train = mode == "train"
        last = len(self.layers) - 1
        keep = range(len(self.layers)) if keep is None else set(keep) | {last}
        cfg = self.mask_cfg
        post, act_masks, branches = [], [None] * len(self.layers), {}
        for i in range(len(self.layers)):
            x = self._layer_forward(i, x, branches, train, rng)
            t = None if cfg is None else cfg.mask(i, x)
            if t is not None:
                act_masks[i] = t
                x = x * t
            post.append(x if i in keep else None)
        self._act_masks = act_masks if train else None
        return ForwardResult(post, act_masks)

    def sweep_logits(self, x, layers, rates):
        """Eval logits of one batch through the dense net, and through the
        net with only one layer's output masked to its exact top-``rate``
        winners, for every swept layer and rate.

        Returns ``(dense, {(layer, rate): logits})``; the attached mask
        config plays no part.  The batch makes one depth-first walk: the
        dense trunk runs once, and at each swept layer ``l`` only layers
        ``l+1...`` run, once per rate, on ``l``'s masked output.  Each
        suffix runs on its own copy of the skip branches pending at ``l``
        (unmasked, as a masked forward saves them), so the trunk goes on with
        them intact.  So one trunk activation and one suffix are alive at a
        time, and only logits are kept.  Each mask comes from a one-layer
        :class:`WinnerRateConfig`, built (and so validated, with the layers)
        before any layer runs.
        """
        for layer in layers:
            self._check_maskable(layer)
        cfgs = {layer: [(rate, WinnerRateConfig(per_layer_rate={layer: rate})) for rate in rates]
                for layer in layers}
        x = self._as_input(x)
        masked, branches = {}, {}
        for i in range(len(self.layers)):
            x = self._layer_forward(i, x, branches)
            for rate, cfg in cfgs.get(i, ()):
                t = cfg.mask(i, x)
                y = x if t is None else x * t
                del t  # a mask kept alive through the suffix raises the sweep's peak
                suffix = dict(branches)
                for j in range(i + 1, len(self.layers)):
                    y = self._layer_forward(j, y, suffix)
                masked[i, rate] = y
        return x, masked

    def backward(self, dlogits):
        """Backpropagate from the logits; fills every param's grad buffer.

        Gradients crossing a masked layer output are multiplied by that
        layer's winner mask, and gradients of statically masked-out weights
        are forced to exact zero.  Needs a train-mode :meth:`forward` first,
        and consumes it (a conv layer frees its im2col columns on the way).
        A skip_add hands its gradient to its branch as well, and the
        skip_save adds it in after its own winner mask.  Returns None: the
        first weight layer's input gradient feeds no param, so neither it nor
        any layer below it runs.
        """
        act_masks, self._act_masks = self._act_masks, None
        if act_masks is None:
            raise ConfigError("backward needs a train-mode forward")
        dout, dbranches = dlogits, {}
        for i in range(len(self.layers) - 1, -1, -1):
            t = act_masks[i]
            if t is not None:
                dout = dout * t
            layer = self.layers[i]
            if layer.kind == "skip_add":
                dbranches[layer.spec.geometry["tag"]] = dout
            elif layer.kind == "skip_save":
                # no local names the branch gradient: it dies with this add
                tag = layer.spec.geometry["tag"]
                if tag in dbranches:
                    dout = dout + dbranches.pop(tag)
            elif i == self._grad_floor:
                layer.backward(dout, input_grad=False)
                break
            else:
                dout = layer.backward(dout)
        for p in self.params():
            if p.mask is not None:
                p.grad *= p.mask


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy over the batch plus the logits gradient."""
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.min() < 0 or labels.max() >= c:
        raise ConfigError(f"labels out of class range [0, {c})")
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -logp[np.arange(n), labels].mean()
    dlogits = np.exp(logp)
    dlogits[np.arange(n), labels] -= 1.0
    return float(loss), dlogits / n


def l1_penalty(net, alpha):
    """alpha * sum|w| over surviving weights (biases excluded): pruned ones are ±0."""
    if alpha == 0.0:
        return 0.0
    total = 0.0
    for _, p in net.weight_params():
        total += np.abs(p.value).sum()
    return float(alpha * total)


def loss_and_backward(net, x, labels, alpha=0.0, rng=None):
    """Train-mode forward, then full backward with the l1 weight term.

    Returns ``(total_loss, ce_loss, l1_loss)``; the reported total is
    exactly ce + l1.  Gradients land in the params' grad buffers.
    """
    logits = net.forward(x, mode="train", rng=rng, keep=()).logits
    ce, dlogits = softmax_cross_entropy(logits, labels)
    net.backward(dlogits)
    l1 = l1_penalty(net, alpha)
    if alpha:
        for _, p in net.weight_params():
            p.grad += alpha * np.sign(p.value)
    return ce + l1, ce, l1
