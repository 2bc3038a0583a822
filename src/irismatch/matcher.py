"""The matcher network and the assembled iris-verification model.

The matcher is fully convolutional: a stack of [conv 3x3, ELU, batch-norm]
blocks (optionally with dropout), a 1x1 convolution down to one channel,
global average pooling, and a sigmoid.  It maps the concatenated unit-circle
responses of two normalized irises to a single match probability per pair.
Both irises pass through the same filter bank, so the matcher input has
4F channels for a bank of F filters.

Every op computes in its operands' one dtype and refuses operands of two,
so the model computes in its own: whoever picks a dtype casts the whole
model once (``IrisMatchModel.astype``).  Training runs in float64 and feeds
the matcher the concatenation itself, built by one gather (``pair_batch``).  Scoring
runs in float32 from the same float64 weights, through a float32 copy of
the model made once per call and never kept.  Inference keeps the pair
input factorized (``PairFeatures``): block 0's convolution over
[f(q), f(r)] equals W_q*f(q) + b + W_r*f(r), so each distinct image of a
chunk of pairs goes through the half of the weight its side needs once,
and a pair costs one add.  ``MatcherModel.forward`` has one body for both
inputs; ``IrisMatchModel.pair_probabilities`` owns the batching of
inference: one chunk of pairs per tile of reference images, the query
images streamed through it, and within a chunk sub-batches whose largest
activation fits ``_ACTIVATION_BUDGET``: one pair at 110x512 in either
dtype, many at small geometries.  A half output is stored only while more
rows of its chunk will read it (``PairFeatures``), so a tile's reference
halves and one sub-batch's query halves fit ``_HALF_BUDGET`` (a tile has at
least one reference image, whatever the budget), and a single pair (a
``match`` request) holds one block-0-sized array.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from . import unit_circle as uc
from .tensor import ShapeError, Tensor

# images per bank call in ``IrisMatchModel.bank_features``; the bank's
# output does not depend on it, only its FFT buffers do: the row spectra a
# chunk's filters share, and each filter's product spectrum and inverse FFT
# (16 images at 110x512 in float32: 4.4, 8.3 and 8.2 MB)
_BANK_CHUNK = 16

# bytes of block-0 half outputs alive at once in
# ``IrisMatchModel.pair_probabilities``: one tile's reference halves plus one
# sub-batch's query halves (18 images' halves at 110x512 in float64, 37 in
# float32)
_HALF_BUDGET = 1 << 28

# bytes of the largest per-pair activation of one inference sub-batch; under
# glibc's largest mmap threshold (32 MB), so activations are reused heap
# blocks, not freshly mapped and zeroed pages (one pair at 110x512 in either
# dtype: block 0's output is 7.2 MB in float32, 14.4 MB in float64)
_ACTIVATION_BUDGET = 1 << 23


@dataclass(frozen=True)
class ConvBlockSpec:
    """One matcher block: 3x3 conv -> ELU -> batch norm (-> dropout)."""

    out_channels: int
    stride: tuple = (1, 1)
    dropout: float = 0.0

    def __post_init__(self):
        if self.out_channels < 1:
            raise ValueError(f"block width must be at least 1, got {self.out_channels}")
        if len(self.stride) != 2 or min(self.stride) < 1:
            raise ValueError(f"block stride must be two positive steps, got {self.stride}")
        if not 0.0 <= self.dropout < 1.0:                # NaN fails too
            raise ValueError(f"dropout rate must be in [0, 1), got {self.dropout}")


def default_matcher_blocks():
    """Five blocks, 20->32->64->96->128->160, stride 2 on blocks 2-5,
    dropout 0.3 after blocks 3 and 4."""
    channels = (32, 64, 96, 128, 160)
    strides = ((1, 1), (2, 2), (2, 2), (2, 2), (2, 2))
    dropouts = (0.0, 0.0, 0.3, 0.3, 0.0)
    return tuple(ConvBlockSpec(c, s, d) for c, s, d in zip(channels, strides, dropouts))


def small_matcher_blocks():
    """Compact stack for small test geometries (e.g. 32x128 inputs)."""
    channels = (24, 32, 48, 64)
    strides = ((2, 2),) * 4
    dropouts = (0.0, 0.0, 0.1, 0.0)
    return tuple(ConvBlockSpec(c, s, d) for c, s, d in zip(channels, strides, dropouts))


class ConvBlock:
    """3x3 conv -> ELU -> batch-norm -> dropout (when its rate is positive).

    ELU and batch norm are one op, ``tensor.elu_batch_norm``: in eval
    scoring it overwrites the convolution's output in place, slice by
    slice; in training, or with a graph to record, it is one recorded op
    that keeps only the convolution's output and its own, and recomputes
    the rest in its backward.
    """

    def __init__(self, in_channels, spec: ConvBlockSpec, rng, dtype=np.float64):
        self.spec = spec
        self.weight, self.bias = uc.init_conv(rng, (spec.out_channels, in_channels, 3, 3),
                                              True, dtype)
        self.gamma = Tensor(np.ones(spec.out_channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(spec.out_channels, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(spec.out_channels, dtype=dtype)
        self.running_var = np.ones(spec.out_channels, dtype=dtype)

    def forward(self, x, training, rng=None):
        """``x`` is a (B, Cin, H, W) tensor, or ``PairFeatures`` for block 0
        at inference."""
        if isinstance(x, PairFeatures):
            h = x.first_conv(self)
        else:
            h = T.conv2d(x, self.weight, self.bias, stride=self.spec.stride, padding="zero")
        h = T.elu_batch_norm(h, self.gamma, self.beta,
                             self.running_mean, self.running_var, training)
        if self.spec.dropout > 0.0:
            h = T.dropout(h, self.spec.dropout, training=training, rng=rng)
        return h


class MatcherModel:
    """Fully convolutional pair scorer: conv blocks, 1x1 head, global pool, sigmoid."""

    def __init__(self, in_channels, blocks=None, rng=None, dtype=np.float64):
        """``rng=None`` draws nothing: the weights are zero until loaded."""
        blocks = tuple(blocks) if blocks is not None else default_matcher_blocks()
        if not blocks:
            raise ValueError("a matcher needs at least one conv block")
        self.in_channels = int(in_channels)
        self.blocks = []
        c = in_channels
        for spec in blocks:
            self.blocks.append(ConvBlock(c, spec, rng, dtype))
            c = spec.out_channels
        self.head_weight, self.head_bias = uc.init_conv(rng, (1, c, 1, 1), True, dtype)

    def forward(self, x, training=False, rng=None):
        """(B, in_channels, H, W) -> (B,) match probabilities.

        ``x`` may be ``PairFeatures`` in eval mode; block 0 then runs
        factorized (``PairFeatures.first_conv``).
        """
        if x.shape[1] != self.in_channels:
            raise ShapeError(f"matcher expects {self.in_channels} input channels, got {x.shape[1]}")
        if training and isinstance(x, PairFeatures):
            raise ValueError("factorized pair features are for eval-mode scoring only")
        h = x
        for block in self.blocks:
            h = block.forward(h, training, rng)
        h = T.conv2d(h, self.head_weight, self.head_bias, stride=1, padding="none")
        h = T.global_avg_pool(h)           # (B, 1)
        return T.sigmoid(h.reshape((x.shape[0],)))

    def block_bytes(self, size, itemsize):
        """Bytes of each block's output for one pair at input size (H, W)."""
        h, w = size
        out = []
        for block in self.blocks:
            sh, sw = block.spec.stride
            h, w = (h - 1) // sh + 1, (w - 1) // sw + 1   # "zero" padding, 3x3 kernel
            out.append(block.spec.out_channels * h * w * itemsize)
        return out

    def named_parameters(self):
        out = []
        for i, blk in enumerate(self.blocks):
            prefix = f"matcher.block{i}"
            out.append((f"{prefix}.weight", blk.weight))
            out.append((f"{prefix}.bias", blk.bias))
            out.append((f"{prefix}.bn.gamma", blk.gamma))
            out.append((f"{prefix}.bn.beta", blk.beta))
        out.append(("matcher.head.weight", self.head_weight))
        out.append(("matcher.head.bias", self.head_bias))
        return out

    def named_buffers(self):
        out = []
        for i, blk in enumerate(self.blocks):
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
                {"out": b.out_channels, "stride": list(b.stride), "dropout": b.dropout}
                for b in self.matcher_blocks
            ],
        }

    @staticmethod
    def from_dict(d):
        """The inverse of ``to_dict``.  A block's "kernel" and "bn" keys, which
        older checkpoints carry, are ignored: every block is 3x3 with batch
        norm, and a checkpoint of another block fails its record checks."""
        return ModelConfig(
            height=int(d["height"]), width=int(d["width"]),
            bank_kernels=tuple(tuple(k) for k in d["bank"]["kernels"]),
            bank_bias=bool(d["bank"]["bias"]),
            bank_mode=str(d["bank"]["mode"]),
            matcher_blocks=tuple(
                ConvBlockSpec(int(b["out"]), tuple(b["stride"]), float(b["dropout"]))
                for b in d["matcher"]),
        )


class IrisMatchModel:
    """Shared unit-circle bank plus matcher, bound to an input geometry, with
    every parameter and buffer in one dtype."""

    def __init__(self, config: ModelConfig = None, rng=None, dtype=np.float64):
        """``rng=None`` draws nothing: the weights are zero until ``restore``
        fills them."""
        self.config = config or ModelConfig()
        self.bank = uc.UnitCircleBank(self.config.bank_kernels, bias=self.config.bank_bias,
                                      mode=self.config.bank_mode, rng=rng, dtype=dtype)
        self.matcher = MatcherModel(2 * self.bank.out_channels, self.config.matcher_blocks,
                                    rng=rng, dtype=dtype)

    @property
    def dtype(self):
        return self.matcher.head_weight.dtype

    def astype(self, dtype):
        """This model in ``dtype``: itself if it already is, else a copy with
        every parameter and buffer cast, which this model does not keep."""
        if self.dtype == dtype:
            return self
        cast = IrisMatchModel(self.config, dtype=dtype)
        cast.restore(dict(self.state_items()))
        return cast

    @property
    def height(self):
        return self.config.height

    @property
    def width(self):
        return self.config.width

    def bank_features(self, images):
        """Bank responses (N, 2F, H, W) of (N, H, W) images, outside the tape,
        in the model's dtype.

        The bank runs on ``_BANK_CHUNK`` images at a time, with no graph, so
        each chunk shares its row spectra among the filters
        (``UnitCircleBank.forward``) and every filter writes and normalizes
        its response in place in the chunk's rows of one preallocated array.
        """
        images = np.asarray(images, dtype=self.dtype)
        out = np.empty((len(images), self.bank.out_channels) + images.shape[1:],
                       dtype=self.dtype)
        with T.no_grad():
            for start in range(0, len(images), _BANK_CHUNK):
                chunk = images[start:start + _BANK_CHUNK]
                self.bank.forward(Tensor(chunk[:, None]), out=out[start:start + len(chunk)])
        return Tensor(out)

    def pair_probabilities(self, feats, pairs):
        """Eval-mode match probability of each (query, reference) row of
        ``pairs``, indices into the (N, 2F, H, W) ``bank_features`` array
        ``feats``.  The matcher runs in the model's dtype.

        The distinct reference images, in sorted order, fall into tiles of
        R, as many as ``_HALF_BUDGET`` bytes of block-0 half outputs hold
        beside one sub-batch's query halves.  The pairs of one tile are one
        chunk of ``PairFeatures``, sorted by query, then reference, and go
        to the matcher in sub-batches whose largest activation fits
        ``_ACTIVATION_BUDGET`` bytes: the query images stream through the
        tile, and each half output lives only while its rows do.  A pair's
        probability does not depend on the chunk or the sub-batch it lands
        in.
        """
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        sizes = self.matcher.block_bytes(feats.shape[2:], feats.itemsize)
        step = max(1, _ACTIVATION_BUDGET // max(sizes))
        per_tile = max(1, _HALF_BUDGET // sizes[0] - step)
        tile = np.unique(pairs[:, 1], return_inverse=True)[1] // per_tile
        order = np.lexsort((pairs[:, 1], pairs[:, 0], tile))
        scores = np.empty(len(pairs))
        with T.no_grad():
            for chunk in np.split(order, np.flatnonzero(np.diff(tile[order])) + 1):
                x = PairFeatures(feats, pairs[chunk])
                for lo in range(0, len(chunk), step):
                    scores[chunk[lo:lo + step]] = self.matcher.forward(x.rows(lo, lo + step)).data
        return scores

    def match_probability(self, xq, xr):
        """Eval-mode probability that two normalized irises match, scored by
        a float32 copy of the model (``astype``), like ``ModelScorer``'s
        default.

        Inputs are (H, W) arrays at the model's geometry; resize beforehand
        if the vertical resolution differs.  The score is the one
        ``pair_probabilities`` gives the pair.
        """
        model = self.astype(np.float32)
        feats = model.bank_features(np.stack([self._image(xq), self._image(xr)])).data
        return float(model.pair_probabilities(feats, [[0, 1]])[0])

    def _image(self, img):
        arr = np.asarray(img, dtype=np.float64)
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
        """Write ``state`` (name -> array, as ``snapshot`` returns) into every
        parameter and buffer in place, cast to the model's dtype."""
        for name, arr in self.state_items():
            arr[...] = state[name]


def pair_batch(feats, pairs):
    """Matcher input for a (P, 2) batch of pairs: rows ``pairs[:, 0]`` and
    ``pairs[:, 1]`` of the (N, 2F, H, W) features, concatenated along
    channels into (P, 4F, H, W).  One gather builds it, (P, 2, 2F, H, W),
    and a view reshapes it, so its backward adds into one gradient of the
    features' shape (``tensor.index_select``)."""
    both = T.index_select(feats, pairs)
    return T.reshape(both, (len(pairs), 2 * feats.shape[1]) + feats.shape[2:])


class PairFeatures:
    """The matcher input of P pairs, kept factorized: what
    ``pair_batch(Tensor(feats), pairs)`` would build, (P, 4F, H, W), without
    building it.

    ``feats`` is the (N, 2F, H, W) array of bank features and ``pairs`` the
    (P, 2) (query, reference) rows of one chunk.  Block 0 (``first_conv``)
    convolves a query image with W_q plus the bias, and a reference image
    with W_r, once.  Each image and side has a count of the rows of the
    chunk that read it, shared by the ``rows`` views (the chunk's
    sub-batches, taken in order) and counted down after each row.  A half
    that more than one row reads is stored at the first of them and dropped
    when its count reaches 0; a half that one row reads is never stored: it
    is convolved into that row's output.
    """

    def __init__(self, feats, pairs):
        self.feats = feats
        self.pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        # per side, image -> rows yet to read it, and image -> stored half
        self._readers = [Counter(col) for col in self.pairs.T.tolist()]
        self._halves = ({}, {})

    @property
    def shape(self):
        return (len(self.pairs), 2 * self.feats.shape[1]) + self.feats.shape[2:]

    def rows(self, start, stop):
        """Pairs ``start:stop``."""
        view = copy.copy(self)
        view.pairs = self.pairs[start:stop]
        return view

    def first_conv(self, block):
        """``block``'s convolution of the pairs' concatenated features, with
        the bits of (W_q*f(q) + b) + W_r*f(r).

        The halves these rows store are convolved first, on each side in
        sorted order and in at most two calls: one for the images no later
        row reads, one for the rest.  A stored half is a view of its call's
        output, so the halves dropped after these rows share no array with
        those kept.  Then each row is built on its own: the sum of two
        stored halves, or its one-reader half convolved (the query's with
        the bias) and the other half added into it, a stored one by ``+=``
        and a one-reader reference half tile by tile (``conv2d``'s
        ``add_into``); IEEE addition commutes, so the reference half may
        come first.  One row's array is the output; several are
        concatenated.
        """
        c = self.feats.shape[1]
        w = block.weight.data
        sides = ((Tensor(w[:, :c]), block.bias), (Tensor(w[:, c:]), None))

        def conv(side, images, add_into=None):
            weight, bias = sides[side]
            return T.conv2d(Tensor(self.feats[images]), weight, bias, stride=block.spec.stride,
                            padding="zero", add_into=add_into).data

        readers, halves = self._readers, self._halves
        for side, col in enumerate(self.pairs.T.tolist()):
            here = Counter(col)
            new = sorted(i for i in here if i not in halves[side] and readers[side][i] > 1)
            for group in ([i for i in new if readers[side][i] == here[i]],
                          [i for i in new if readers[side][i] > here[i]]):
                if group:
                    halves[side].update(zip(group, conv(side, group)))
        out = []
        for q, r in self.pairs.tolist():
            hq, hr = halves[0].get(q), halves[1].get(r)
            if hq is not None and hr is not None:
                y = np.add(hq, hr)[None]
            elif hq is None:
                y = conv(0, [q])
                if hr is None:
                    conv(1, [r], add_into=y)
                else:
                    y += hr
            else:
                y = conv(1, [r])
                y += hq
            out.append(y)
            for side, i in enumerate((q, r)):
                readers[side][i] -= 1
                if not readers[side][i]:
                    halves[side].pop(i, None)
        return Tensor(out[0] if len(out) == 1 else np.concatenate(out))
