"""The matcher network and the assembled iris-verification model.

The matcher is fully convolutional: a stack of [conv 3x3, ELU, batch-norm]
blocks (optionally with dropout), a 1x1 convolution down to one channel,
global average pooling, and a sigmoid.  It maps the concatenated unit-circle
responses of two normalized irises to a single match probability per pair.
Both irises pass through the same filter bank, so the matcher input has
4F channels for a bank of F filters.

Training runs in float64 and feeds the matcher the concatenation itself
(``pair_batch``).  Scoring runs in float32 from the same float64 weights:
``bank_features`` runs the bank on float32 images and ``pair_probabilities``
runs a float32 copy of the matcher (``MatcherModel.astype``) made once per
call and never kept.  Inference keeps the pair input factorized
(``PairFeatures``): block 0's convolution over [f(q), f(r)] equals
W_q*f(q) + b + W_r*f(r), so each distinct image of a chunk of pairs goes
through the half of the weight its side needs once, and a pair costs one
add.  The blocks after that run on sub-batches of pairs
sized so that the largest activation stays under ``_ACTIVATION_BUDGET``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from . import unit_circle as uc
from .tensor import ShapeError, Tensor

# images per bank call in ``IrisMatchModel.bank_features``; the bank's
# output does not depend on it, only its FFT workspace does
_BANK_CHUNK = 16

# bytes of block-0 half outputs one chunk of pairs may hold in
# ``IrisMatchModel.pair_probabilities`` (17 images' halves at 110x512)
_HALF_BUDGET = 1 << 28

# bytes of the largest per-pair activation of one inference sub-batch; under
# glibc's largest mmap threshold (32 MB), so activations are reused heap
# blocks, not freshly mapped and zeroed pages (one pair at 110x512)
_ACTIVATION_BUDGET = 1 << 24


@dataclass(frozen=True)
class ConvBlockSpec:
    out_channels: int
    kernel: tuple = (3, 3)
    stride: tuple = (1, 1)
    batch_norm: bool = True
    dropout: float = 0.0


def default_matcher_blocks():
    """Five blocks, 20->32->64->96->128->160, stride 2 on blocks 2-5,
    dropout 0.3 after blocks 3 and 4."""
    channels = (32, 64, 96, 128, 160)
    strides = ((1, 1), (2, 2), (2, 2), (2, 2), (2, 2))
    dropouts = (0.0, 0.0, 0.3, 0.3, 0.0)
    return tuple(ConvBlockSpec(c, (3, 3), s, True, d)
                 for c, s, d in zip(channels, strides, dropouts))


def small_matcher_blocks():
    """Compact stack for small test geometries (e.g. 32x128 inputs)."""
    channels = (24, 32, 48, 64)
    strides = ((2, 2),) * 4
    dropouts = (0.0, 0.0, 0.1, 0.0)
    return tuple(ConvBlockSpec(c, (3, 3), s, True, d)
                 for c, s, d in zip(channels, strides, dropouts))


class ConvBlock:
    """conv -> ELU -> batch-norm (optional) -> dropout (optional)."""

    def __init__(self, in_channels, spec: ConvBlockSpec, rng, dtype=np.float64):
        kh, kw = spec.kernel
        self.spec = spec
        self.weight, self.bias = uc.init_conv(rng, (spec.out_channels, in_channels, kh, kw),
                                              True, dtype)
        if spec.batch_norm:
            self.gamma = Tensor(np.ones(spec.out_channels, dtype=dtype), requires_grad=True)
            self.beta = Tensor(np.zeros(spec.out_channels, dtype=dtype), requires_grad=True)
            self.running_mean = np.zeros(spec.out_channels, dtype=dtype)
            self.running_var = np.ones(spec.out_channels, dtype=dtype)
        else:
            self.gamma = self.beta = None
            self.running_mean = self.running_var = None

    def forward(self, x, training, rng=None):
        """``x`` is a (B, Cin, H, W) tensor, or ``PairFeatures`` for block 0
        at inference."""
        if isinstance(x, PairFeatures):
            h = x.first_conv(self)
        else:
            h = T.conv2d(x, self.weight, self.bias, stride=self.spec.stride, padding="zero")
        h = T.elu(h)
        if self.spec.batch_norm:
            h = T.batch_norm(h, self.gamma, self.beta,
                             self.running_mean, self.running_var, training=training)
        if self.spec.dropout > 0.0:
            h = T.dropout(h, self.spec.dropout, training=training, rng=rng)
        return h


class MatcherModel:
    """Fully convolutional pair scorer: conv blocks, 1x1 head, global pool, sigmoid."""

    def __init__(self, in_channels, blocks=None, rng=None, dtype=np.float64):
        """``rng=None`` draws nothing: the weights are zero until loaded."""
        blocks = tuple(blocks) if blocks is not None else default_matcher_blocks()
        self.in_channels = int(in_channels)
        self.blocks = []
        c = in_channels
        for spec in blocks:
            self.blocks.append(ConvBlock(c, spec, rng, dtype))
            c = spec.out_channels
        self.head_weight, self.head_bias = uc.init_conv(rng, (1, c, 1, 1), True, dtype)

    def forward(self, x, training=False, rng=None):
        """(B, in_channels, H, W) -> (B,) match probabilities.

        ``x`` may be ``PairFeatures`` (eval mode, outside the tape, in one
        ``T.workspace``): block 0 then runs factorized, and block 0 through
        the head run on sub-batches of as many pairs as keep the largest
        activation within ``_ACTIVATION_BUDGET`` bytes.
        """
        if x.shape[1] != self.in_channels:
            raise ShapeError(f"matcher expects {self.in_channels} input channels, got {x.shape[1]}")
        if not isinstance(x, PairFeatures):
            return self._forward(x, training, rng)
        if training:
            raise ValueError("factorized pair features are for eval-mode scoring only")
        with T.no_grad(), T.workspace():
            if not self.blocks:
                return self._forward(pair_batch(Tensor(x.feats), x.pairs), False)
            out = np.empty(x.shape[0], dtype=x.feats.dtype)
            largest = max(self.block_bytes(x.shape[2:], x.feats.itemsize))
            step = max(1, _ACTIVATION_BUDGET // largest)
            for start in range(0, len(out), step):
                out[start:start + step] = self._forward(x.rows(start, start + step), False).data
        return Tensor(out)

    def _forward(self, x, training, rng=None):
        h = x
        for block in self.blocks:
            h = block.forward(h, training, rng)
        h = T.conv2d(h, self.head_weight, self.head_bias, stride=1, padding="none")
        h = T.global_avg_pool(h)           # (B, 1)
        return T.sigmoid(h.reshape((x.shape[0],)))

    def astype(self, dtype):
        """This matcher with its parameters and batch-norm running statistics
        in ``dtype``: itself if they already are, else a copy that the model
        does not keep."""
        def arrays(m):
            return [t.data for _, t in m.named_parameters()] + [b for _, b in m.named_buffers()]

        if all(a.dtype == dtype for a in arrays(self)):
            return self
        cast = MatcherModel(self.in_channels, [b.spec for b in self.blocks], dtype=dtype)
        for dst, src in zip(arrays(cast), arrays(self)):
            dst[...] = src
        return cast

    def block_bytes(self, size, itemsize):
        """Bytes of each block's output for one pair at input size (H, W)."""
        h, w = size
        out = []
        for block in self.blocks:
            sh, sw = block.spec.stride
            h, w = (h - 1) // sh + 1, (w - 1) // sw + 1   # "zero" padding, odd kernel
            out.append(block.spec.out_channels * h * w * itemsize)
        return out

    def named_parameters(self):
        out = []
        for i, blk in enumerate(self.blocks):
            prefix = f"matcher.block{i}"
            out.append((f"{prefix}.weight", blk.weight))
            out.append((f"{prefix}.bias", blk.bias))
            if blk.gamma is not None:
                out.append((f"{prefix}.bn.gamma", blk.gamma))
                out.append((f"{prefix}.bn.beta", blk.beta))
        out.append(("matcher.head.weight", self.head_weight))
        out.append(("matcher.head.bias", self.head_bias))
        return out

    def named_buffers(self):
        out = []
        for i, blk in enumerate(self.blocks):
            if blk.running_mean is not None:
                out.append((f"matcher.block{i}.bn.running_mean", blk.running_mean))
                out.append((f"matcher.block{i}.bn.running_var", blk.running_var))
        return out


@dataclass
class ModelConfig:
    """Architecture descriptor: bank geometry plus matcher stack."""

    height: int = 110
    width: int = 512
    bank_kernels: tuple = uc.DEFAULT_KERNELS
    bank_bias: bool = True
    bank_mode: str = "unit-circle"
    matcher_blocks: tuple = field(default_factory=default_matcher_blocks)

    @staticmethod
    def small(height=32, width=128, bank_mode="unit-circle"):
        return ModelConfig(
            height=height, width=width,
            bank_kernels=((3, 5), (3, 9), (5, 9), (5, 17), (7, 17)),
            bank_bias=True, bank_mode=bank_mode,
            matcher_blocks=small_matcher_blocks())

    def to_dict(self):
        return {
            "height": self.height,
            "width": self.width,
            "bank": {
                "kernels": [list(k) for k in self.bank_kernels],
                "bias": self.bank_bias,
                "mode": self.bank_mode,
            },
            "matcher": [
                {"out": b.out_channels, "kernel": list(b.kernel), "stride": list(b.stride),
                 "bn": b.batch_norm, "dropout": b.dropout}
                for b in self.matcher_blocks
            ],
        }

    @staticmethod
    def from_dict(d):
        return ModelConfig(
            height=int(d["height"]), width=int(d["width"]),
            bank_kernels=tuple(tuple(k) for k in d["bank"]["kernels"]),
            bank_bias=bool(d["bank"]["bias"]),
            bank_mode=str(d["bank"]["mode"]),
            matcher_blocks=tuple(
                ConvBlockSpec(int(b["out"]), tuple(b["kernel"]), tuple(b["stride"]),
                              bool(b["bn"]), float(b["dropout"]))
                for b in d["matcher"]),
        )


class IrisMatchModel:
    """Shared unit-circle bank plus matcher, bound to an input geometry."""

    def __init__(self, config: ModelConfig = None, rng=None, dtype=np.float64):
        self._build(config or ModelConfig(), rng or np.random.default_rng(0), dtype)

    @classmethod
    def allocate(cls, config: ModelConfig, dtype=np.float64):
        """A model of ``config`` with zero weights and no RNG draws, for a
        checkpoint to fill."""
        model = cls.__new__(cls)
        model._build(config, None, dtype)
        return model

    def _build(self, config, rng, dtype):
        self.config = config
        self.bank = uc.UnitCircleBank(config.bank_kernels, bias=config.bank_bias,
                                      mode=config.bank_mode, rng=rng, dtype=dtype)
        self.matcher = MatcherModel(2 * self.bank.out_channels, config.matcher_blocks,
                                    rng=rng, dtype=dtype)

    @property
    def height(self):
        return self.config.height

    @property
    def width(self):
        return self.config.width

    def bank_features(self, images, dtype):
        """Bank responses (N, 2F, H, W) of (N, H, W) images, outside the tape,
        computed in ``dtype`` (the bank's convolutions run in their input's
        dtype, whatever their weights').

        The bank runs on ``_BANK_CHUNK`` images at a time, each chunk written
        into one preallocated array.
        """
        images = np.asarray(images, dtype=dtype)
        out = np.empty((len(images), self.bank.out_channels) + images.shape[1:], dtype=dtype)
        with T.no_grad():
            for start in range(0, len(images), _BANK_CHUNK):
                chunk = images[start:start + _BANK_CHUNK]
                out[start:start + len(chunk)] = self.bank.forward(Tensor(chunk[:, None])).data
        return Tensor(out)

    def forward_pairs(self, pair, training=False, rng=None):
        """Score an already-assembled (B, 4F, H, W) pair tensor."""
        return self.matcher.forward(pair, training=training, rng=rng)

    def pair_probabilities(self, feats, pairs):
        """Eval-mode match probability of each (query, reference) row of
        ``pairs``, indices into the (N, 2F, H, W) ``bank_features`` array
        ``feats``.  The matcher runs in ``feats.dtype``: its weights and
        running statistics are cast once per call (``MatcherModel.astype``).

        Pairs go to the matcher as ``PairFeatures`` in consecutive chunks,
        each needing at most ``_HALF_BUDGET`` bytes of block-0 half outputs.
        A pair's probability does not depend on the chunk or the sub-batch
        it lands in.
        """
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        matcher = self.matcher.astype(feats.dtype)
        half_bytes = (matcher.block_bytes(feats.shape[2:], feats.itemsize) or [1])[0]
        scores = np.empty(len(pairs))
        for start, stop in _pair_chunks(pairs, max(2, _HALF_BUDGET // half_bytes)):
            scores[start:stop] = matcher.forward(PairFeatures(feats, pairs[start:stop])).data
        return scores

    def match_probability(self, xq, xr):
        """Eval-mode probability that two normalized irises match, scored in
        float32 like ``ModelScorer``'s default.

        Inputs are (H, W) arrays (or (1, 1, H, W) tensors) at the model's
        geometry; resize beforehand if the vertical resolution differs.  The
        score is the one ``pair_probabilities`` gives the pair.
        """
        images = np.stack([self._image(xq), self._image(xr)])
        feats = self.bank_features(images, np.float32).data
        return float(self.pair_probabilities(feats, [[0, 1]])[0])

    def _image(self, img):
        arr = np.asarray(img.data if isinstance(img, Tensor) else img, dtype=np.float64)
        if arr.ndim == 4 and arr.shape[:2] == (1, 1):
            arr = arr[0, 0]
        if arr.shape != (self.height, self.width):
            raise ShapeError(f"expected {self.height}x{self.width} images, got shape {arr.shape}")
        return arr

    def named_parameters(self):
        return self.bank.named_parameters() + self.matcher.named_parameters()

    def parameters(self):
        return [t for _, t in self.named_parameters()]

    def named_buffers(self):
        return self.matcher.named_buffers()

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def state_items(self):
        """Parameters then buffers, as (name, array) in deterministic order."""
        return [(n, t.data) for n, t in self.named_parameters()] + list(self.named_buffers())

    def snapshot(self):
        return {name: arr.copy() for name, arr in self.state_items()}

    def restore(self, state):
        for name, tens in self.named_parameters():
            tens.data = state[name].copy()
        for name, buf in self.named_buffers():
            buf[...] = state[name]


def pair_batch(feats, pairs):
    """Matcher input for a batch of pairs: rows ``pairs[:, 0]`` and
    ``pairs[:, 1]`` of the (N, 2F, H, W) features, concatenated along
    channels into (P, 4F, H, W)."""
    return T.concat([T.index_select(feats, pairs[:, 0]), T.index_select(feats, pairs[:, 1])],
                    axis=1)


class PairFeatures:
    """The matcher input of P pairs, kept factorized: what
    ``pair_batch(Tensor(feats), pairs)`` would build, (P, 4F, H, W), without
    building it.

    ``feats`` is the (N, 2F, H, W) array of bank features and ``pairs`` the
    (P, 2) (query, reference) rows.  Block 0 (``first_conv``) convolves each
    distinct query image of the chunk with W_q plus the bias and each
    distinct reference image with W_r, once; a ``rows`` view, a sub-batch
    of the pairs, shares those half outputs.
    """

    def __init__(self, feats, pairs):
        self.feats = feats
        self.pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        self._chunk = self.pairs      # the pairs the half outputs cover
        self._offset = 0              # of ``pairs`` within ``_chunk``
        self._halves = {}             # block -> ((hq, iq), (hr, ir)), shared by the views

    @property
    def shape(self):
        return (len(self.pairs), 2 * self.feats.shape[1]) + self.feats.shape[2:]

    def rows(self, start, stop):
        """Pairs ``start:stop``."""
        view = copy.copy(self)
        view.pairs = self.pairs[start:stop]
        view._offset = self._offset + start
        return view

    def first_conv(self, block):
        """``block``'s convolution of the pairs' concatenated features, as
        W_q*f(q) + b + W_r*f(r), each half output from one convolution per
        side over the chunk's distinct images on that side."""
        if block not in self._halves:
            c = self.feats.shape[1]
            w = block.weight.data
            halves = []
            for side, (half, bias) in enumerate(((w[:, :c], block.bias), (w[:, c:], None))):
                used, local = np.unique(self._chunk[:, side], return_inverse=True)
                out = T.conv2d(Tensor(self.feats[used]), Tensor(half), bias,
                               stride=block.spec.stride, padding="zero")
                halves.append((out.data, local))
            self._halves[block] = halves
        (hq, iq), (hr, ir) = self._halves[block]
        rows = slice(self._offset, self._offset + len(self.pairs))
        out = np.empty((len(self.pairs),) + hq.shape[1:], dtype=hq.dtype)
        for k, (q, r) in enumerate(zip(iq[rows], ir[rows])):
            np.add(hq[q], hr[r], out=out[k])
        return Tensor(out)


def _pair_chunks(pairs, max_halves):
    """Consecutive (start, stop) runs of ``pairs``, each with at most
    ``max_halves`` distinct query images plus distinct reference images
    (at least one pair per run)."""
    start, queries, refs = 0, set(), set()
    for k, (q, r) in enumerate(pairs.tolist()):
        halves = len(queries) + len(refs) + (q not in queries) + (r not in refs)
        if k > start and halves > max_halves:
            yield start, k
            start, queries, refs = k, set(), set()
        queries.add(q)
        refs.add(r)
    if len(pairs):
        yield start, len(pairs)
