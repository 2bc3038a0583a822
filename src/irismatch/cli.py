"""Command-line surface: synth, train, eval, roc, match, baseline.

Configuration is a line-oriented ``key = value`` file; every key has a
mirroring ``--key value`` command-line flag and command-line values win.
Unknown keys are rejected.  Every command writes a ``key = value`` snapshot
of its resolved configuration next to its outputs, sufficient to reproduce
them bit-for-bit with the same seed.

Every default is defined once.  Where a library object has the default,
``SCHEMA`` reads it from there: ``SynthSpec`` owns the synth keys,
``TrainConfig`` the training keys and ``seed``, ``ModelConfig`` the bank
keys (``bank_nonlinearity`` is its ``bank_mode``),
``default_matcher_blocks()`` the three ``matcher_*`` keys, and
``LogGaborSpec`` ``gabor_wavelength``, ``gabor_sigma_ratio`` and
``row_step``.  The other defaults (``max_shift``, ``far``, ``threshold``,
``resume`` and the paths) are the command line's own.

``train`` writes its run directory through ``training.train``, then its
snapshot, which it never reads back: ``training.train`` owns the resume
contract, so ``--resume true`` is refused, before any write, for a directory
without a run, another architecture, another store, or a training key (bar
``epochs``) other than the one recorded in the run's ``train_state.json``.

Exit codes: 0 success (or match), 1 non-match, 2 usage or data error,
3 numerical abort (training divergence).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__
from .checkpoint import atomic_open, load_model
from .data import enumerate_pairs
from .evaluation import (BitcodeScorer, ModelScorer, collect_scores, emit_roc_csv,
                         read_roc_csv, roc, tar_at_far)
from .iris_io import read_image
from .iriscode import LogGaborSpec
from .matcher import ConvBlockSpec, ModelConfig, default_matcher_blocks
from .normalize import resize_vertical
from .synthetic import SynthSpec, generate, read_store, write_store
from .training import TrainConfig, train


class UsageError(ValueError):
    """Bad flags, bad config keys, or unreadable inputs."""


# ---------------------------------------------------------------- config


def _parse_bool(text):
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {text!r}")


def _parse_fars(text):
    fars = tuple(float(v) for v in text.split(","))
    if not all(0.0 < far <= 1.0 for far in fars):    # NaN fails too
        raise UsageError("FAR targets must be finite and in (0, 1]")
    return fars


def _parse_threshold(text):
    if not 0.0 <= float(text) <= 1.0:               # NaN fails too
        raise UsageError("the match threshold must be finite and in [0, 1]")
    return float(text)


def _parse_kernels(text):
    out = []
    for item in text.split(","):
        parts = item.strip().lower().split("x")
        if len(parts) != 2:
            raise UsageError(f"kernel {item!r} is not of the form <kh>x<kw>")
        out.append((int(parts[0]), int(parts[1])))
    return tuple(out)


_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
    "kernels": _parse_kernels,
    "floats": lambda text: tuple(float(v) for v in text.split(",")),
    "ints": lambda text: tuple(int(v) for v in text.split(",")),
    "fars": _parse_fars,
    "threshold": _parse_threshold,
}

# the matcher_* defaults (see the module docstring for the other owners)
_BLOCKS = default_matcher_blocks()

# key -> (type tag, default, help)
SCHEMA = {
    "command": ("str", None, "informational; written by snapshots"),
    "seed": ("int", TrainConfig.seed, "root RNG seed"),
    "data_dir": ("str", None, "dataset directory holding manifest.json"),
    "out_dir": ("str", None, "directory for outputs"),
    "identities": ("int", SynthSpec.identities, "synthetic identities"),
    "images_per_identity": ("int", SynthSpec.images_per_identity, "images per synthetic identity"),
    "height": ("int", SynthSpec.height, "rows of a normalized iris"),
    "width": ("int", SynthSpec.width, "columns of a normalized iris"),
    "texture_bands": ("int", SynthSpec.texture_bands, "sinusoid bands per synthetic texture"),
    "rotation_range": ("int", SynthSpec.rotation_range,
                       "max circular column shift within an identity"),
    "noise_sigma": ("float", SynthSpec.noise_sigma, "additive Gaussian noise level"),
    "occlusion_prob": ("float", SynthSpec.occlusion_prob,
                       "probability of an occlusion band per image"),
    "occlusion_max_rows": ("int", SynthSpec.occlusion_max_rows,
                           "max occlusion band height (0: height/8)"),
    "lr": ("float", TrainConfig.lr, "Adam learning rate"),
    "batch_size": ("int", TrainConfig.batch_size, "pairs per training batch"),
    "stage1_epochs": ("int", TrainConfig.stage1_epochs, "epochs with the filter bank frozen"),
    "epochs": ("int", TrainConfig.epochs, "total training epochs"),
    "selection_far": ("float", TrainConfig.selection_far,
                      "FAR level for validation model selection"),
    "beta1": ("float", TrainConfig.beta1, "Adam first-moment coefficient"),
    "beta2": ("float", TrainConfig.beta2, "Adam second-moment coefficient"),
    "adam_eps": ("float", TrainConfig.adam_eps, "Adam epsilon"),
    "bank_kernels": ("kernels", ModelConfig.bank_kernels,
                     "filter-bank kernel sizes <kh>x<kw>, comma separated"),
    "bank_bias": ("bool", ModelConfig.bank_bias, "filter-bank convolutions carry a bias"),
    "bank_nonlinearity": ("str", ModelConfig.bank_mode,
                          "unit-circle (l2 projection), relu, or elu"),
    "matcher_channels": ("ints", tuple(b.out_channels for b in _BLOCKS), "matcher block widths"),
    "matcher_strides": ("ints", tuple(b.stride[0] for b in _BLOCKS), "matcher block strides"),
    "matcher_dropout": ("floats", tuple(b.dropout for b in _BLOCKS), "matcher dropout rates"),
    "resume": ("bool", False, "continue a previous run found in out_dir"),
    "checkpoint": ("str", None, "model checkpoint path"),
    "far": ("fars", (1e-1, 1e-2, 1e-3, 1e-4), "FAR targets in (0, 1], comma separated"),
    "threshold": ("threshold", 0.5, "match decision threshold on the probability, in [0, 1]"),
    "gabor_wavelength": ("float", LogGaborSpec.wavelength, "log-Gabor center wavelength in pixels"),
    "gabor_sigma_ratio": ("float", LogGaborSpec.sigma_ratio, "log-Gabor sigma/f0 bandwidth ratio"),
    "row_step": ("int", LogGaborSpec.row_step, "bitcode row subsampling factor"),
    "max_shift": ("int", 8, "bitcode rotation search range in columns"),
    "roc_csv": ("str", None, "ROC curve CSV (threshold,far,tar)"),
}

COMMAND_KEYS = {
    "synth": ("seed", "data_dir", "identities", "images_per_identity", "height", "width",
              "texture_bands", "rotation_range", "noise_sigma", "occlusion_prob",
              "occlusion_max_rows"),
    "train": ("seed", "data_dir", "out_dir", "lr", "batch_size", "stage1_epochs", "epochs",
              "selection_far", "beta1", "beta2", "adam_eps", "bank_kernels", "bank_bias",
              "bank_nonlinearity", "matcher_channels", "matcher_strides", "matcher_dropout",
              "resume"),
    "eval": ("checkpoint", "data_dir", "out_dir", "far"),
    "roc": ("roc_csv", "far", "out_dir"),
    "match": ("checkpoint", "threshold", "out_dir"),
    "baseline": ("data_dir", "out_dir", "far", "gabor_wavelength", "gabor_sigma_ratio",
                 "row_step", "max_shift"),
}


def load_config_file(path):
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, _, raw = text.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = raw.strip()
    return values


def resolve_config(command, cli_values, config_path=None):
    """Defaults, overlaid by file values, overlaid by command-line values."""
    merged = {key: SCHEMA[key][1] for key in COMMAND_KEYS[command]}
    file_values = load_config_file(config_path) if config_path else {}
    for source in (file_values, cli_values):
        for key, raw in source.items():
            if key not in merged and key != "command":
                continue  # keys for other commands are allowed in shared files
            tag = SCHEMA[key][0]
            try:
                merged[key] = _PARSERS[tag](raw) if isinstance(raw, str) else raw
            except (ValueError, TypeError) as exc:
                raise UsageError(f"bad value for {key}: {raw!r} ({exc})") from exc
    return merged


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return ",".join(f"{kh}x{kw}" for kh, kw in value)
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_snapshot(command, cfg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{command}_snapshot.cfg")
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(f"command = {command}\n")
        for key in COMMAND_KEYS[command]:
            if cfg.get(key) is not None:
                fh.write(f"{key} = {_format_value(cfg[key])}\n")
    return path


def _require(cfg, key, command):
    if cfg.get(key) is None:
        raise UsageError(f"{command} requires --{key} (or {key} in the config file)")
    return cfg[key]


# ---------------------------------------------------------------- helpers


def _from_cfg(spec_class, cfg):
    """A dataclass built from the config keys named like its fields."""
    return spec_class(**{f.name: cfg[f.name] for f in dataclasses.fields(spec_class)})


def _model_config_from(cfg, height, width):
    channels, strides, dropout = (cfg[f"matcher_{k}"] for k in ("channels", "strides", "dropout"))
    if not (len(channels) == len(strides) == len(dropout)):
        raise UsageError("matcher_channels, matcher_strides, matcher_dropout lengths differ")
    blocks = tuple(ConvBlockSpec(c, (s, s), d) for c, s, d in zip(channels, strides, dropout))
    return ModelConfig(height=height, width=width,
                       bank_kernels=cfg["bank_kernels"], bank_bias=cfg["bank_bias"],
                       bank_mode=cfg["bank_nonlinearity"], matcher_blocks=blocks)


def _at_model_height(images, model, source):
    """(N, H, W) ``images`` read from ``source`` (a path), at the model's
    geometry: another width is refused, another height resampled column by
    column (``resize_vertical``) with a notice on stderr."""
    if images.shape[2] != model.width:
        raise UsageError(f"{source}: width {images.shape[2]} does not match the model's "
                         f"{model.width}")
    if images.shape[1] == model.height:
        return images
    print(f"notice: resizing {source} from {images.shape[1]} to {model.height} rows "
          f"(linear interpolation)", file=sys.stderr)
    return np.stack([resize_vertical(img, model.height) for img in images])


def _print_far_table(rows):
    """rows: (far, tar, threshold), with tar None where the FAR is unattainable."""
    print(f"{'far':>12} {'tar':>12} {'threshold':>24}")
    for far_target, tar, thr in rows:
        cells = f"{'unattainable':>12}" if tar is None else f"{tar:>12.6g} {thr:>24.17g}"
        print(f"{far_target:>12.6g} {cells}")


def _write_far_table(rows, path):
    with atomic_open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("far,tar,threshold\n")
        for far_target, tar, thr in rows:
            fh.write(f"{far_target:.17g},{tar:.17g},{thr:.17g}\n")


def _evaluate_pairs(scorer, store, out_dir, far_targets, command, cfg):
    scores = collect_scores(scorer, store, enumerate_pairs(store))
    os.makedirs(out_dir, exist_ok=True)
    emit_roc_csv(roc(scores), os.path.join(out_dir, "roc.csv"))
    rows = [(far_target,) + tar_at_far(scores, far_target) for far_target in far_targets]
    _print_far_table(rows)
    _write_far_table(rows, os.path.join(out_dir, "tar_at_far.csv"))
    write_snapshot(command, cfg, out_dir)
    return 0


# ---------------------------------------------------------------- commands


def cmd_synth(cfg):
    data_dir = _require(cfg, "data_dir", "synth")
    store = generate(_from_cfg(SynthSpec, cfg))
    manifest = write_store(store, data_dir)
    write_snapshot("synth", cfg, data_dir)
    print(f"wrote {store.num_identities} identities x {cfg['images_per_identity']} images "
          f"({store.height}x{store.width}) to {data_dir} (manifest: {manifest})")
    return 0


def cmd_train(cfg):
    store = read_store(_require(cfg, "data_dir", "train"))
    out_dir = cfg["out_dir"] or "train_run"
    model_config = _model_config_from(cfg, store.height, store.width)
    _, log = train(store, _from_cfg(TrainConfig, cfg), model_config, out_dir,
                   resume=cfg["resume"])
    write_snapshot("train", cfg, out_dir)

    if log.aborted:
        print("training aborted: non-finite loss or validation scores; "
              "best finite checkpoint kept", file=sys.stderr)
        return 3
    print(f"trained {len(log.records)} epochs; best validation TAR "
          f"{log.best_val_tar():.4f} at epoch {log.best_epoch}; checkpoints in {out_dir}")
    return 0


def cmd_eval(cfg):
    model = load_model(_require(cfg, "checkpoint", "eval"))
    data_dir = _require(cfg, "data_dir", "eval")
    store = read_store(data_dir)
    store = dataclasses.replace(store, images=_at_model_height(store.images, model, data_dir))
    out_dir = cfg["out_dir"] or "eval_out"
    return _evaluate_pairs(ModelScorer(model), store, out_dir, cfg["far"], "eval", cfg)


def cmd_baseline(cfg):
    store = read_store(_require(cfg, "data_dir", "baseline"))
    gabor = LogGaborSpec(wavelength=cfg["gabor_wavelength"],
                         sigma_ratio=cfg["gabor_sigma_ratio"], row_step=cfg["row_step"])
    gabor.validate()
    scorer = BitcodeScorer(gabor_spec=gabor, max_shift=cfg["max_shift"])
    out_dir = cfg["out_dir"] or "baseline_out"
    return _evaluate_pairs(scorer, store, out_dir, cfg["far"], "baseline", cfg)


def cmd_roc(cfg):
    curve = read_roc_csv(_require(cfg, "roc_csv", "roc"))
    if np.any(np.diff(curve.far) < 0) or np.any(np.diff(curve.tar) < 0):
        raise UsageError("ROC curve is not monotone; the file is corrupt or not a curve")
    _print_far_table([(far_target,) + (curve.tar_at_far(far_target) or (None, None))
                      for far_target in cfg["far"]])
    write_snapshot("roc", cfg, cfg["out_dir"] or ".")
    return 0


def cmd_match(cfg, image_a, image_b):
    model = load_model(_require(cfg, "checkpoint", "match"))
    images = [_at_model_height(read_image(path)[None], model, path)[0]
              for path in (image_a, image_b)]
    probability = model.match_probability(images[0], images[1])
    threshold = cfg["threshold"]
    is_match = probability > threshold
    print(f"probability = {probability:.6f}  threshold = {threshold:g}  "
          f"verdict = {'match' if is_match else 'non-match'}")
    write_snapshot("match", cfg, cfg["out_dir"] or ".")
    return 0 if is_match else 1


# ---------------------------------------------------------------- parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="irismatch",
        description="Iris verification: unit-circle CNN matcher and bitcode baseline")
    parser.add_argument("--version", action="version", version=f"irismatch {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    descriptions = {
        "synth": "generate a synthetic identity-grouped dataset",
        "train": "train the matcher (two-stage schedule) on a dataset",
        "eval": ("score all pairs of a dataset with a checkpoint and report TAR@FAR; "
                 "scores in float32 from the float64 checkpoint (training runs in float64)"),
        "roc": "look up TAR@FAR values in an existing ROC curve CSV",
        "match": ("compare two normalized-iris images with a checkpoint; scores in float32 "
                  "from the float64 checkpoint (training runs in float64)"),
        "baseline": "run the log-Gabor bitcode baseline over a dataset",
    }
    for command, keys in COMMAND_KEYS.items():
        text = descriptions[command]
        p = sub.add_parser(command, help=text, description=text)
        p.add_argument("--config", default=None, help="key = value configuration file")
        for key in keys:
            tag, default, help_text = SCHEMA[key]
            p.add_argument(f"--{key}", default=None, metavar=tag.upper(),
                           help=f"{help_text} (default: {_format_value(default)})")
        if command == "match":
            p.add_argument("image_a", help="first normalized-iris image (PGM or IRIS raw)")
            p.add_argument("image_b", help="second normalized-iris image")
    return parser


_HANDLERS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "roc": cmd_roc,
    "baseline": cmd_baseline,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    cli_values = {key: getattr(args, key) for key in COMMAND_KEYS[args.command]
                  if getattr(args, key, None) is not None}
    try:
        cfg = resolve_config(args.command, cli_values, args.config)
        if args.command == "match":
            return cmd_match(cfg, args.image_a, args.image_b)
        return _HANDLERS[args.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
