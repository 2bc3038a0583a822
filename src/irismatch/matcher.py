"""The matcher network and the assembled iris-verification model.

The matcher is fully convolutional: a stack of [conv 3x3, ELU, batch-norm]
blocks (optionally with dropout), a 1x1 convolution down to one channel,
global average pooling, and a sigmoid.  It maps the concatenated unit-circle
responses of two normalized irises to a single match probability per pair.
Both irises pass through the same filter bank, so the matcher input has
4F channels for a bank of F filters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from . import unit_circle as uc
from .tensor import ShapeError, Tensor

# images per bank call in ``IrisMatchModel.bank_features``; the bank's
# output does not depend on it, only its FFT workspace does
_BANK_CHUNK = 16


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
        fan_in = in_channels * kh * kw
        self.spec = spec
        self.weight = Tensor(
            uc.kaiming_uniform(rng, (spec.out_channels, in_channels, kh, kw), fan_in).astype(dtype),
            requires_grad=True)
        bb = 1.0 / np.sqrt(fan_in)
        self.bias = Tensor(rng.uniform(-bb, bb, size=spec.out_channels).astype(dtype),
                           requires_grad=True)
        if spec.batch_norm:
            self.gamma = Tensor(np.ones(spec.out_channels, dtype=dtype), requires_grad=True)
            self.beta = Tensor(np.zeros(spec.out_channels, dtype=dtype), requires_grad=True)
            self.running_mean = np.zeros(spec.out_channels, dtype=dtype)
            self.running_var = np.ones(spec.out_channels, dtype=dtype)
        else:
            self.gamma = self.beta = None
            self.running_mean = self.running_var = None

    def forward(self, x, training, rng=None):
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
        blocks = tuple(blocks) if blocks is not None else default_matcher_blocks()
        rng = rng or np.random.default_rng(0)
        self.in_channels = int(in_channels)
        self.blocks = []
        c = in_channels
        for spec in blocks:
            self.blocks.append(ConvBlock(c, spec, rng, dtype))
            c = spec.out_channels
        self.head_weight = Tensor(uc.kaiming_uniform(rng, (1, c, 1, 1), c).astype(dtype),
                                  requires_grad=True)
        self.head_bias = Tensor(rng.uniform(-1.0 / np.sqrt(c), 1.0 / np.sqrt(c), size=1)
                                .astype(dtype), requires_grad=True)

    def forward(self, x, training=False, rng=None):
        """(B, in_channels, H, W) -> (B,) match probabilities."""
        if x.shape[1] != self.in_channels:
            raise ShapeError(f"matcher expects {self.in_channels} input channels, got {x.shape[1]}")
        h = x
        for block in self.blocks:
            h = block.forward(h, training, rng)
        h = T.conv2d(h, self.head_weight, self.head_bias, stride=1, padding="none")
        h = T.global_avg_pool(h)           # (B, 1)
        return T.sigmoid(h.reshape((x.shape[0],)))

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
        self.config = config or ModelConfig()
        rng = rng or np.random.default_rng(0)
        self.bank = uc.UnitCircleBank(self.config.bank_kernels, bias=self.config.bank_bias,
                                      mode=self.config.bank_mode, rng=rng, dtype=dtype)
        self.matcher = MatcherModel(2 * self.bank.out_channels, self.config.matcher_blocks,
                                    rng=rng, dtype=dtype)

    @property
    def height(self):
        return self.config.height

    @property
    def width(self):
        return self.config.width

    def pair_input(self, xq, xr):
        """Concatenated bank responses of the two images: (B, 4F, H, W)."""
        if xq.shape != xr.shape:
            raise ShapeError(f"pair images disagree in shape: {xq.shape} vs {xr.shape}")
        return T.concat([self.bank.forward(xq), self.bank.forward(xr)], axis=1)

    def bank_features(self, images):
        """Bank responses (N, 2F, H, W) of (N, H, W) images, outside the tape.

        The bank runs on ``_BANK_CHUNK`` images at a time, each chunk written
        into one preallocated array.
        """
        images = np.asarray(images, dtype=np.float64)
        out = np.empty((len(images), self.bank.out_channels) + images.shape[1:])
        with T.no_grad():
            for start in range(0, len(images), _BANK_CHUNK):
                chunk = images[start:start + _BANK_CHUNK]
                out[start:start + len(chunk)] = self.bank.forward(Tensor(chunk[:, None])).data
        return Tensor(out)

    def forward_pairs(self, pair, training=False, rng=None):
        """Score an already-assembled (B, 4F, H, W) pair tensor."""
        return self.matcher.forward(pair, training=training, rng=rng)

    def match_probability(self, xq, xr):
        """Eval-mode probability that two normalized irises match.

        Inputs are (H, W) arrays (or (B,1,H,W) tensors) at the model's
        geometry; resize beforehand if the vertical resolution differs.
        """
        xq = _as_image_tensor(xq)
        xr = _as_image_tensor(xr)
        if xq.shape[2] != self.height or xq.shape[3] != self.width:
            raise ShapeError(
                f"expected {self.height}x{self.width} images, got {xq.shape[2]}x{xq.shape[3]}")
        with T.no_grad():
            p = self.forward_pairs(self.pair_input(xq, xr), training=False)
        return float(p.data[0])

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


def _as_image_tensor(img):
    if isinstance(img, Tensor):
        return img
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None, None]
    return Tensor(arr)


def parameter_count(model):
    """Number of learnable scalars (conv weights/biases, batch-norm affine).

    Running statistics are buffers, not parameters, and are excluded.
    """
    named = model.named_parameters() if hasattr(model, "named_parameters") else model
    return int(sum(t.data.size for _, t in named))
