"""Span tracer for the traced benchmark run.

The tracer wraps the public boundaries of ``irismatch`` from outside: while
it is installed, module attributes and class methods are replaced by
wrappers that record a span (name, start, end, parent, layer) around each
call.  ``uninstall`` puts every original back, so untraced runs execute the
program's own functions.

Tensor ops also wrap the backward closure of the tensor they return, so the
time an op spends in ``Tensor.backward`` is recorded under the layer span
(bank filter, matcher block, matcher head) that was active when the op ran
forward.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

# tensor ops the bank and the matcher call; each gets a forward and a backward span
TENSOR_OPS = ("conv2d", "pad2d", "batch_norm", "elu", "relu", "dropout",
              "channel_l2_normalize", "concat", "index_select", "global_avg_pool",
              "sigmoid", "reshape", "bce_loss")

# (module, function, span name); training's own binding of collect_scores
# comes first so validation is told apart from a direct evaluation call
FUNCTION_SPANS = (
    ("training", "collect_scores", "training.validation"),
    ("evaluation", "collect_scores", "evaluation.collect_scores"),
    ("evaluation", "roc", "evaluation.roc"),
    ("evaluation", "tar_at_far", "evaluation.tar_at_far"),
    ("iriscode", "encode", "iriscode.encode"),
    ("iriscode", "match_with_shifts", "iriscode.match_with_shifts"),
    ("checkpoint", "load_model", "checkpoint.load_model"),
    ("checkpoint", "save_model", "checkpoint.save_model"),
    ("iris_io", "read_image", "iris_io.read_image"),
    ("synthetic", "generate", "synthetic.generate"),
    ("data", "enumerate_pairs", "data.enumerate_pairs"),
)

NAME, START, END, PARENT, LAYER = range(5)


class Tracer:
    """Records spans in memory while installed; see ``install``."""

    def __init__(self):
        self.spans = []               # [name, start, end, parent index or -1, layer]
        self.counts = defaultdict(float)
        self._stack = []              # indices of open spans
        self._layers = []             # (layer name, owning bank/matcher), innermost last
        self._patches = []            # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def open(self, name, layer=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, layer])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def _current_layer(self):
        return self._layers[-1][0] if self._layers else None

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name, fn, count_key=None, count_of=lambda *args: 1):
        """Wrap ``fn`` in a span; optionally add ``count_of(*args)`` to a count."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_key:
                self.counts[count_key] += count_of(*args)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def _layer(self, fn, name_of, count_key=None, layer=None, owner_pos=0):
        """Wrap a layer's forward ``fn(owner, x, ...)``; ``name_of(owner)`` names
        the span.  ``owner_pos=1`` is for ``fn(x, owner, ...)``.

        Ops that run directly inside the span are attributed to ``layer``,
        which defaults to the span name.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            owner, x = args[owner_pos], args[1 - owner_pos]
            name = name_of(owner)
            if count_key:
                self.counts[count_key] += x.shape[0]
            idx = self.open(name, layer or name)
            self._layers.append((layer or name, owner))
            try:
                return fn(*args, **kwargs)
            finally:
                self._layers.pop()
                self.close(idx)
        return wrapper

    def _op(self, op, fn):
        fwd_name = f"tensor.{op}"
        bwd_name = f"tensor.{op}.bwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer = self._current_layer()
            idx = self.open(fwd_name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if op == "conv2d":
                # multiply-adds per output element = Cin * kh * kw
                self.counts["tensor.conv2d.flop"] += 2.0 * out.data.size * args[1].data[0].size
            backward = getattr(out, "_backward_fn", None)
            if backward is not None and not any(out is a for a in args):
                out._backward_fn = self._timed_backward(bwd_name, layer, backward)
            return out
        return wrapper

    def _timed_backward(self, name, layer, fn):
        def backward(g):
            idx = self.open(name, layer)
            try:
                return fn(g)
            finally:
                self.close(idx)
        return backward

    def _counted_hamming(self, fn, empty_error):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts["iriscode.masked_hamming.calls"] += 1
            try:
                return fn(*args, **kwargs)
            except empty_error:
                self.counts["iriscode.shift_failures"] += 1
                raise
        return wrapper

    # -- install / uninstall -----------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        """Rebind every irismatch module attribute that names ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "irismatch" or mod_name.startswith("irismatch.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        import irismatch
        from irismatch import (evaluation, iriscode, matcher, tensor, training,
                               unit_circle)

        if self._patches:
            raise RuntimeError("tracer is already installed")
        for mod_name, fn_name, span in FUNCTION_SPANS:
            mod = getattr(irismatch, mod_name)
            original = getattr(mod, fn_name)
            if mod_name == "training":
                self._set(mod, fn_name, self._spanned(span, original))
            else:
                self._replace_everywhere(original, self._spanned(span, original))
        for op in TENSOR_OPS:
            original = getattr(tensor, op)
            self._replace_everywhere(original, self._op(op, original))
        self._replace_everywhere(iriscode.masked_hamming,
                                 self._counted_hamming(iriscode.masked_hamming,
                                                       iriscode.EmptyMaskError))

        def member_name(prefix, attr):
            """Names a bank filter or a matcher block by its index in the
            enclosing layer (the bank or the matcher)."""
            def name_of(member):
                parent = self._layers[-1][1] if self._layers else None
                index = next((i for i, m in enumerate(getattr(parent, attr, ()))
                              if m is member), "?")
                return f"{prefix}{index}"
            return name_of

        self._replace_everywhere(unit_circle.uc_forward,
                                 self._layer(unit_circle.uc_forward,
                                             member_name("unit_circle.filter", "filters"),
                                             owner_pos=1))
        self._set(unit_circle.UnitCircleBank, "forward",
                  self._layer(unit_circle.UnitCircleBank.forward, lambda _: "unit_circle.bank",
                              "unit_circle.bank.images"))
        self._set(matcher.ConvBlock, "forward",
                  self._layer(matcher.ConvBlock.forward, member_name("matcher.block", "blocks")))
        self._set(matcher.MatcherModel, "forward",
                  self._layer(matcher.MatcherModel.forward, lambda _: "matcher",
                              "matcher.pairs", layer="matcher.head"))
        self._set(tensor.Tensor, "backward",
                  self._spanned("tensor.backward", tensor.Tensor.backward))
        self._set(training.Adam, "step",
                  self._spanned("training.adam", training.Adam.step, "training.steps"))
        for cls, name in ((evaluation.ModelScorer, "evaluation.model_scorer"),
                          (evaluation.BitcodeScorer, "evaluation.bitcode_scorer")):
            self._set(cls, "score_pairs",
                      self._spanned(name, cls.score_pairs, "evaluation.pairs_scored",
                                    lambda scorer, store, pairs: len(pairs)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self):
        return bool(self._patches)


# ---------------------------------------------------------------- analysis


def self_times(spans):
    """Duration minus the time covered by direct children, per span."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def summarize(spans):
    """Per (root span, span name): calls, busy seconds, self seconds."""
    selfs = self_times(spans)
    root_of = []
    for i, s in enumerate(spans):
        root_of.append(i if s[PARENT] < 0 else root_of[s[PARENT]])
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for i, s in enumerate(spans):
        row = rows[(spans[root_of[i]][NAME], s[NAME])]
        row[0] += 1
        row[1] += s[END] - s[START]
        row[2] += selfs[i]
    return rows


def layer_metrics(tracer, untraced_s, traced_s):
    """The per-layer metrics of BENCHMARK.json, from one traced run."""
    busy = defaultdict(float)
    calls = defaultdict(int)
    bwd = defaultdict(float)
    spans = tracer.spans
    selfs = self_times(spans)
    # the head's forward: the matcher span's own time plus the tensor ops it
    # runs directly (head conv, pooling, sigmoid), not those of its blocks
    head_fwd = 0.0
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        busy[s[NAME]] += dur
        calls[s[NAME]] += 1
        if s[NAME].endswith(".bwd") and s[LAYER]:
            bwd[s[LAYER]] += dur
        if s[NAME] == "matcher":
            head_fwd += selfs[i]
        elif (s[NAME].startswith("tensor.") and s[PARENT] >= 0
              and spans[s[PARENT]][NAME] == "matcher"):
            head_fwd += dur
    c = tracer.counts
    m = {"unit_circle.bank.fwd_s": busy["unit_circle.bank"],
         "unit_circle.bank.images": c["unit_circle.bank.images"],
         "unit_circle.bank.bwd_s": sum(v for k, v in bwd.items() if k.startswith("unit_circle."))}
    for i in range(5):
        m[f"unit_circle.filter{i}.fwd_s"] = busy[f"unit_circle.filter{i}"]
        m[f"unit_circle.filter{i}.bwd_s"] = bwd[f"unit_circle.filter{i}"]
    for i in range(5):
        m[f"matcher.block{i}.fwd_s"] = busy[f"matcher.block{i}"]
        m[f"matcher.block{i}.bwd_s"] = bwd[f"matcher.block{i}"]
    m.update({
        "matcher.head.fwd_s": head_fwd,
        "matcher.head.bwd_s": bwd["matcher.head"],
        "matcher.pairs": c["matcher.pairs"],
        "tensor.conv2d.calls": calls["tensor.conv2d"],
        "tensor.conv2d.fwd_s": busy["tensor.conv2d"],
        "tensor.conv2d.bwd_s": busy["tensor.conv2d.bwd"],
        "tensor.conv2d.gflop": c["tensor.conv2d.flop"] / 1e9,
        "tensor.backward_s": busy["tensor.backward"],
        "tensor.batch_norm.fwd_s": busy["tensor.batch_norm"],
        "tensor.batch_norm.bwd_s": busy["tensor.batch_norm.bwd"],
        "training.adam_s": busy["training.adam"],
        "training.steps": c["training.steps"],
        "training.validation_s": busy["training.validation"],
        "evaluation.model_scorer_s": busy["evaluation.model_scorer"],
        "evaluation.bitcode_scorer_s": busy["evaluation.bitcode_scorer"],
        "evaluation.roc_s": busy["evaluation.roc"],
        "evaluation.tar_at_far_s": busy["evaluation.tar_at_far"],
        "evaluation.pairs_scored": c["evaluation.pairs_scored"],
        "iriscode.encode_s": busy["iriscode.encode"],
        "iriscode.encode.calls": calls["iriscode.encode"],
        "iriscode.match_with_shifts_s": busy["iriscode.match_with_shifts"],
        "iriscode.masked_hamming.calls": c["iriscode.masked_hamming.calls"],
        "iriscode.shift_failures": c["iriscode.shift_failures"],
        "checkpoint.load_model_s": busy["checkpoint.load_model"],
        "checkpoint.save_model_s": busy["checkpoint.save_model"],
        "iris_io.read_image_s": busy["iris_io.read_image"],
        "synthetic.generate_s": busy["synthetic.generate"],
        "data.enumerate_pairs_s": busy["data.enumerate_pairs"],
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": len(tracer.spans),
    })
    return m


def report(spans, out):
    """Per-layer table: calls, busy and self seconds, share of the root span."""
    rows = summarize(spans)
    root_wall = {s[NAME]: 0.0 for s in spans if s[PARENT] < 0}
    for s in spans:
        if s[PARENT] < 0:
            root_wall[s[NAME]] += s[END] - s[START]
    for root in root_wall:
        wall = root_wall[root] or float("nan")
        print(f"-- {root}: {root_wall[root]:.3f} s", file=out)
        print(f"{'span':<36} {'calls':>8} {'busy_s':>10} {'self_s':>10} {'busy%':>7} {'self%':>7}",
              file=out)
        ordered = sorted(((name, v) for (r, name), v in rows.items() if r == root),
                         key=lambda item: -item[1][1])
        for name, (n, busy, own) in ordered:
            print(f"{name:<36} {n:>8d} {busy:>10.4f} {own:>10.4f} "
                  f"{100 * busy / wall:>6.1f}% {100 * own / wall:>6.1f}%", file=out)


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".gflop"):
        return "GFLOP"
    return "count"
