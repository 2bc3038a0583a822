"""Command-line surface: synth, train, eval, roc, match, baseline.

Configuration is a line-oriented ``key = value`` file; every key has a
mirroring ``--key value`` command-line flag and command-line values win.
Unknown keys are rejected.  Every command writes a ``key = value`` snapshot
of its resolved configuration next to its outputs, sufficient to reproduce
them bit-for-bit with the same seed.

Exit codes: 0 success (or match), 1 non-match, 2 usage or data error,
3 numerical abort (training divergence).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .checkpoint import atomic_open, load_model, load_optimizer_state, save_model, save_optimizer
from .data import IdentityStore, enumerate_pairs
from .evaluation import (BitcodeScorer, ModelScorer, collect_scores, emit_roc_csv,
                         read_roc_csv, roc, tar_at_far)
from .iris_io import read_image
from .iriscode import LogGaborSpec
from .matcher import ConvBlockSpec, IrisMatchModel, ModelConfig
from .normalize import resize_vertical
from .synthetic import SynthSpec, generate, read_store, write_store
from .training import EpochRecord, TrainConfig, train


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


def _parse_kernels(text):
    out = []
    for item in text.split(","):
        parts = item.strip().lower().split("x")
        if len(parts) != 2:
            raise UsageError(f"kernel {item!r} is not of the form <kh>x<kw>")
        out.append((int(parts[0]), int(parts[1])))
    return tuple(out)


def _parse_floats(text):
    return tuple(float(v) for v in text.split(","))


def _parse_ints(text):
    return tuple(int(v) for v in text.split(","))


_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
    "kernels": _parse_kernels,
    "floats": _parse_floats,
    "ints": _parse_ints,
}

# key -> (type tag, default, help)
SCHEMA = {
    "command": ("str", None, "informational; written by snapshots"),
    "seed": ("int", 0, "root RNG seed"),
    "data_dir": ("str", None, "dataset directory holding manifest.json"),
    "out_dir": ("str", None, "directory for outputs"),
    "identities": ("int", 40, "synthetic identities"),
    "images_per_identity": ("int", 8, "images per synthetic identity"),
    "height": ("int", 110, "rows of a normalized iris"),
    "width": ("int", 512, "columns of a normalized iris"),
    "texture_bands": ("int", 6, "sinusoid bands per synthetic texture"),
    "rotation_range": ("int", 4, "max circular column shift within an identity"),
    "noise_sigma": ("float", 0.05, "additive Gaussian noise level"),
    "occlusion_prob": ("float", 0.3, "probability of an occlusion band per image"),
    "occlusion_max_rows": ("int", 0, "max occlusion band height (0: height/8)"),
    "lr": ("float", 0.01, "Adam learning rate"),
    "batch_size": ("int", 32, "pairs per training batch"),
    "stage1_epochs": ("int", 100, "epochs with the filter bank frozen"),
    "epochs": ("int", 1000, "total training epochs"),
    "selection_far": ("float", 1e-3, "FAR level for validation model selection"),
    "beta1": ("float", 0.9, "Adam first-moment coefficient"),
    "beta2": ("float", 0.999, "Adam second-moment coefficient"),
    "adam_eps": ("float", 1e-8, "Adam epsilon"),
    "bank_kernels": ("kernels", _parse_kernels("7x9,7x17,11x17,11x33,15x33"),
                     "filter-bank kernel sizes <kh>x<kw>, comma separated"),
    "bank_bias": ("bool", True, "filter-bank convolutions carry a bias"),
    "bank_nonlinearity": ("str", "unit-circle",
                          "unit-circle (l2 projection), relu, or elu"),
    "matcher_channels": ("ints", (32, 64, 96, 128, 160), "matcher block widths"),
    "matcher_strides": ("ints", (1, 2, 2, 2, 2), "matcher block strides"),
    "matcher_dropout": ("floats", (0.0, 0.0, 0.3, 0.3, 0.0), "matcher dropout rates"),
    "resume": ("bool", False, "continue a previous run found in out_dir"),
    "checkpoint": ("str", None, "model checkpoint path"),
    "far": ("floats", (1e-1, 1e-2, 1e-3, 1e-4), "FAR targets, comma separated"),
    "threshold": ("float", 0.5, "match decision threshold on the probability"),
    "gabor_wavelength": ("float", 18.0, "log-Gabor center wavelength in pixels"),
    "gabor_sigma_ratio": ("float", 0.5, "log-Gabor sigma/f0 bandwidth ratio"),
    "row_step": ("int", 2, "bitcode row subsampling factor"),
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
            if raw is None or key not in SCHEMA:
                continue
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"command = {command}\n")
        for key in COMMAND_KEYS[command]:
            value = cfg.get(key)
            if value is None:
                continue
            fh.write(f"{key} = {_format_value(value)}\n")
    return path


def _require(cfg, key, command):
    if cfg.get(key) is None:
        raise UsageError(f"{command} requires --{key} (or {key} in the config file)")
    return cfg[key]


# ---------------------------------------------------------------- helpers


def _model_config_from(cfg, height, width):
    channels = cfg["matcher_channels"]
    strides = cfg["matcher_strides"]
    dropout = cfg["matcher_dropout"]
    if not (len(channels) == len(strides) == len(dropout)):
        raise UsageError("matcher_channels, matcher_strides, matcher_dropout lengths differ")
    blocks = tuple(ConvBlockSpec(c, (3, 3), (s, s), True, d)
                   for c, s, d in zip(channels, strides, dropout))
    return ModelConfig(height=height, width=width,
                       bank_kernels=cfg["bank_kernels"], bank_bias=cfg["bank_bias"],
                       bank_mode=cfg["bank_nonlinearity"], matcher_blocks=blocks)


def _resize_store(store, target_height):
    print(f"notice: resizing images from {store.height} to {target_height} rows "
          f"(linear interpolation)", file=sys.stderr)
    images = np.stack([resize_vertical(img, target_height) for img in store.images])
    return IdentityStore(images=images, identity_of=store.identity_of.copy(),
                         identity_ids=list(store.identity_ids))


def _match_store_to_model(store, model):
    if store.width != model.width:
        raise UsageError(f"dataset width {store.width} does not match the model's {model.width}")
    if store.height != model.height:
        return _resize_store(store, model.height)
    return store


def _print_far_table(rows):
    print(f"{'far':>12} {'tar':>12} {'threshold':>24}")
    for far_target, tar, thr in rows:
        print(f"{far_target:>12.6g} {tar:>12.6g} {thr:>24.17g}")


def _write_far_table(rows, path):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("far,tar,threshold\n")
        for far_target, tar, thr in rows:
            fh.write(f"{far_target:.17g},{tar:.17g},{thr:.17g}\n")


def _evaluate_pairs(scorer, store, out_dir, far_targets, command, cfg):
    pairs = enumerate_pairs(store)
    scores = collect_scores(scorer, store, pairs)
    os.makedirs(out_dir, exist_ok=True)
    emit_roc_csv(roc(scores), os.path.join(out_dir, "roc.csv"))
    rows = []
    for far_target in far_targets:
        tar, thr = tar_at_far(scores, far_target)
        rows.append((far_target, tar, thr))
    _print_far_table(rows)
    _write_far_table(rows, os.path.join(out_dir, "tar_at_far.csv"))
    write_snapshot(command, cfg, out_dir)
    return 0


# ---------------------------------------------------------------- commands


def cmd_synth(cfg):
    data_dir = _require(cfg, "data_dir", "synth")
    spec = SynthSpec(
        identities=cfg["identities"], images_per_identity=cfg["images_per_identity"],
        height=cfg["height"], width=cfg["width"], texture_bands=cfg["texture_bands"],
        rotation_range=cfg["rotation_range"], noise_sigma=cfg["noise_sigma"],
        occlusion_prob=cfg["occlusion_prob"], occlusion_max_rows=cfg["occlusion_max_rows"],
        seed=cfg["seed"])
    spec.validate()
    store = generate(spec)
    manifest = write_store(store, data_dir)
    write_snapshot("synth", cfg, data_dir)
    print(f"wrote {store.num_identities} identities x {cfg['images_per_identity']} images "
          f"({store.height}x{store.width}) to {data_dir} (manifest: {manifest})")
    return 0


def _load_resume_state(out_dir):
    state_path = os.path.join(out_dir, "train_state.json")
    if not os.path.isfile(state_path):
        raise UsageError(f"resume requested but {state_path} does not exist")
    with open(state_path, encoding="utf-8") as fh:
        state = json.load(fh)
    model = load_model(os.path.join(out_dir, "last.ckpt"))
    _, moments = load_optimizer_state(os.path.join(out_dir, "last.optim"))
    best_path = os.path.join(out_dir, "best.ckpt")
    best_state = load_model(best_path).snapshot() if os.path.isfile(best_path) else None
    records = [EpochRecord(*row) for row in state["records"]]
    return {
        "model": model,
        "moments": moments,
        "steps": state["steps"],
        "start_epoch": state["next_epoch"],
        "records": records,
        "best_state": best_state,
        "best_tar": state["best_tar"],
        "best_epoch": state["best_epoch"],
    }, len(records)


def cmd_train(cfg):
    data_dir = _require(cfg, "data_dir", "train")
    out_dir = cfg["out_dir"] or "train_run"
    os.makedirs(out_dir, exist_ok=True)
    store = read_store(data_dir)
    model_config = _model_config_from(cfg, store.height, store.width)
    tconf = TrainConfig(
        lr=cfg["lr"], batch_size=cfg["batch_size"], stage1_epochs=cfg["stage1_epochs"],
        epochs=cfg["epochs"], seed=cfg["seed"], selection_far=cfg["selection_far"],
        beta1=cfg["beta1"], beta2=cfg["beta2"], adam_eps=cfg["adam_eps"])
    tconf.validate()

    resume_state, n_prior = (None, 0)
    if cfg["resume"]:
        resume_state, n_prior = _load_resume_state(out_dir)
        if resume_state["model"].config.to_dict() != model_config.to_dict():
            raise UsageError(f"resume: the model saved in {out_dir} has another architecture "
                             f"than the configured one; train into a new out_dir instead")

    state_out = {}
    model, log = train(store, tconf, model_config, resume=resume_state, state_out=state_out)

    best_snapshot = model.snapshot()
    model.restore(state_out["last_state"])
    save_model(model, os.path.join(out_dir, "last.ckpt"))
    optimizer = state_out["optimizer"]
    optimizer_meta_steps = {n: int(s) for n, s in optimizer.steps.items()}
    save_optimizer(optimizer, os.path.join(out_dir, "last.optim"))
    model.restore(best_snapshot)
    save_model(model, os.path.join(out_dir, "best.ckpt"))

    with atomic_open(os.path.join(out_dir, "train_state.json"), "w", encoding="utf-8") as fh:
        json.dump({
            "next_epoch": state_out["next_epoch"],
            "best_epoch": log.best_epoch,
            "best_tar": log.best_val_tar(),
            "records": [[r.epoch, r.stage, r.train_loss, r.val_tar, r.wall_seconds]
                        for r in log.records],
            "steps": optimizer_meta_steps,
        }, fh, indent=1)

    new_log = type(log)(selection_far=log.selection_far, records=log.records[n_prior:],
                        best_epoch=log.best_epoch, aborted=log.aborted)
    new_log.write_csv(os.path.join(out_dir, "log.csv"), append=n_prior > 0)
    write_snapshot("train", cfg, out_dir)

    if log.aborted:
        print("training aborted: non-finite loss; best finite checkpoint kept", file=sys.stderr)
        return 3
    print(f"trained {len(log.records)} epochs; best validation TAR "
          f"{log.best_val_tar():.4f} at epoch {log.best_epoch}; checkpoints in {out_dir}")
    return 0


def cmd_eval(cfg):
    model = load_model(_require(cfg, "checkpoint", "eval"))
    store = read_store(_require(cfg, "data_dir", "eval"))
    store = _match_store_to_model(store, model)
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
    rows = []
    for far_target in cfg["far"]:
        qualify = np.flatnonzero(curve.far <= far_target)
        if qualify.size == 0:
            print(f"{far_target:>12.6g} {'unattainable':>12}")
            continue
        idx = qualify[np.argmax(curve.tar[qualify])]
        rows.append((far_target, float(curve.tar[idx]), float(curve.thresholds[idx])))
    _print_far_table(rows)
    write_snapshot("roc", cfg, cfg["out_dir"] or ".")
    return 0


def cmd_match(cfg, image_a, image_b):
    model = load_model(_require(cfg, "checkpoint", "match"))
    images = []
    for path in (image_a, image_b):
        img = read_image(path)
        if img.shape[1] != model.width:
            raise UsageError(f"{path}: width {img.shape[1]} does not match the model's {model.width}")
        if img.shape[0] != model.height:
            print(f"notice: resizing {path} from {img.shape[0]} to {model.height} rows",
                  file=sys.stderr)
            img = resize_vertical(img, model.height)
        images.append(img)
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
