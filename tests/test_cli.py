"""End-to-end CLI tests on a tiny synthetic dataset."""

import os

import numpy as np
import pytest

from irismatch.cli import main, resolve_config, load_config_file, UsageError
from irismatch.iris_io import write_iris_raw, write_pgm


SYNTH_ARGS = ["--identities", "4", "--images_per_identity", "4",
              "--height", "8", "--width", "16", "--rotation_range", "2",
              "--noise_sigma", "0.02", "--occlusion_prob", "0.0", "--seed", "3"]

TRAIN_ARGS = ["--bank_kernels", "3x3", "--matcher_channels", "4",
              "--matcher_strides", "2", "--matcher_dropout", "0",
              "--stage1_epochs", "1", "--epochs", "2", "--batch_size", "8",
              "--selection_far", "0.25", "--seed", "1"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "data"
    assert main(["synth", "--data_dir", str(root)] + SYNTH_ARGS) == 0
    return root


@pytest.fixture(scope="module")
def run_dir(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    code = main(["train", "--data_dir", str(dataset), "--out_dir", str(out)] + TRAIN_ARGS)
    assert code == 0
    return out


# ---------------------------------------------------------------- synth


def test_synth_writes_tree_and_snapshot(dataset):
    assert (dataset / "manifest.json").is_file()
    assert (dataset / "identity_000" / "img_000").is_file()
    assert (dataset / "synth_snapshot.cfg").is_file()
    snapshot = load_config_file(dataset / "synth_snapshot.cfg")
    assert snapshot["identities"] == "4"
    assert snapshot["command"] == "synth"


def test_synth_rerun_is_byte_identical(dataset, tmp_path):
    other = tmp_path / "data2"
    assert main(["synth", "--data_dir", str(other)] + SYNTH_ARGS) == 0
    for identity in ("identity_000", "identity_003"):
        for img in ("img_000", "img_003"):
            a = (dataset / identity / img).read_bytes()
            b = (other / identity / img).read_bytes()
            assert a == b


def test_synth_invalid_spec_exits_2(tmp_path, capsys):
    code = main(["synth", "--data_dir", str(tmp_path / "x"), "--identities", "0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_synth_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("identities = 3\nimages_per_identity = 2\nheight = 8\nwidth = 16\n"
                   "noise_sigma = 0\nocclusion_prob = 0\nrotation_range = 0\n")
    out = tmp_path / "d"
    assert main(["synth", "--config", str(cfg), "--data_dir", str(out),
                 "--identities", "2"]) == 0
    snap = load_config_file(out / "synth_snapshot.cfg")
    assert snap["identities"] == "2"          # CLI wins
    assert snap["images_per_identity"] == "2"  # file value kept


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key = 1\n")
    code = main(["synth", "--config", str(cfg), "--data_dir", str(tmp_path / "y")])
    assert code == 2
    with pytest.raises(UsageError, match="unknown key"):
        load_config_file(cfg)


# ---------------------------------------------------------------- train


def test_train_outputs(run_dir):
    for name in ("best.ckpt", "last.ckpt", "last.optim", "log.csv",
                 "train_state.json", "train_snapshot.cfg"):
        assert (run_dir / name).is_file(), name
    lines = (run_dir / "log.csv").read_text().splitlines()
    assert lines[0] == "epoch,stage,train_loss,val_tar_at_far,wall_seconds"
    assert len(lines) == 3
    assert lines[1].startswith("0,1,")
    assert lines[2].startswith("1,2,")


def test_train_resume_continues_epoch_numbering(dataset, run_dir, tmp_path):
    # copy the run dir so the module-scoped fixture stays untouched
    import shutil
    resumed = tmp_path / "resumed"
    shutil.copytree(run_dir, resumed)
    keep = []
    for flag, value in zip(TRAIN_ARGS[::2], TRAIN_ARGS[1::2]):
        if flag != "--epochs":
            keep.extend([flag, value])
    code = main(["train", "--data_dir", str(dataset), "--out_dir", str(resumed),
                 "--resume", "true", "--epochs", "4"] + keep)
    assert code == 0
    lines = (resumed / "log.csv").read_text().splitlines()
    assert [l.split(",")[0] for l in lines[1:]] == ["0", "1", "2", "3"]


def _canonical_log(out_dir):
    import json

    from irismatch.training import EpochRecord, TrainLog

    state = json.loads((out_dir / "train_state.json").read_text())
    records = [EpochRecord(*row) for row in state["records"]]
    return TrainLog(selection_far=0.25, records=records).canonical_lines()


def test_train_resume_equals_uninterrupted_run(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--data_dir", str(data), "--identities", "4",
                 "--images_per_identity", "4", "--height", "16", "--width", "32",
                 "--seed", "5"]) == 0
    args = ["--data_dir", str(data), "--bank_kernels", "3x5,5x9", "--matcher_channels", "4,6",
            "--matcher_strides", "2,2", "--matcher_dropout", "0,0", "--stage1_epochs", "1",
            "--batch_size", "8", "--selection_far", "0.25", "--seed", "2"]
    whole, split = tmp_path / "whole", tmp_path / "split"
    assert main(["train", "--out_dir", str(whole), "--epochs", "4"] + args) == 0
    assert main(["train", "--out_dir", str(split), "--epochs", "2"] + args) == 0
    assert main(["train", "--out_dir", str(split), "--epochs", "4", "--resume", "true"]
                + args) == 0
    assert len(_canonical_log(whole)) == 5
    assert _canonical_log(split) == _canonical_log(whole)


def test_train_missing_dataset_exits_2(tmp_path, capsys):
    code = main(["train", "--data_dir", str(tmp_path / "nope")] + TRAIN_ARGS)
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_train_requires_data_dir(capsys):
    assert main(["train"] + TRAIN_ARGS) == 2
    assert "requires --data_dir" in capsys.readouterr().err


# ---------------------------------------------------------------- eval


def test_eval_writes_tables(dataset, run_dir, tmp_path, capsys):
    out = tmp_path / "eval"
    code = main(["eval", "--checkpoint", str(run_dir / "best.ckpt"),
                 "--data_dir", str(dataset), "--out_dir", str(out),
                 "--far", "0.5,0.1"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "far" in printed and "tar" in printed
    assert (out / "roc.csv").is_file()
    assert (out / "tar_at_far.csv").is_file()
    rows = (out / "tar_at_far.csv").read_text().splitlines()
    assert rows[0] == "far,tar,threshold"
    assert len(rows) == 3


def test_eval_resizes_mismatched_height(run_dir, tmp_path, capsys):
    taller = tmp_path / "tall"
    assert main(["synth", "--data_dir", str(taller), "--identities", "4",
                 "--images_per_identity", "2", "--height", "12", "--width", "16",
                 "--noise_sigma", "0", "--occlusion_prob", "0",
                 "--rotation_range", "0"]) == 0
    out = tmp_path / "eval2"
    code = main(["eval", "--checkpoint", str(run_dir / "best.ckpt"),
                 "--data_dir", str(taller), "--out_dir", str(out), "--far", "0.5"])
    assert code == 0
    assert "resizing" in capsys.readouterr().err


def test_eval_rejects_width_mismatch(run_dir, tmp_path, capsys):
    wide = tmp_path / "wide"
    assert main(["synth", "--data_dir", str(wide), "--identities", "4",
                 "--images_per_identity", "2", "--height", "8", "--width", "32",
                 "--noise_sigma", "0", "--occlusion_prob", "0",
                 "--rotation_range", "0"]) == 0
    code = main(["eval", "--checkpoint", str(run_dir / "best.ckpt"),
                 "--data_dir", str(wide), "--out_dir", str(tmp_path / "e3")])
    assert code == 2
    assert "width" in capsys.readouterr().err


# ---------------------------------------------------------------- roc


def test_roc_command_reads_eval_output(dataset, run_dir, tmp_path, capsys):
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(run_dir / "best.ckpt"),
                 "--data_dir", str(dataset), "--out_dir", str(out),
                 "--far", "0.5"]) == 0
    capsys.readouterr()
    code = main(["roc", "--roc_csv", str(out / "roc.csv"), "--far", "0.5,0.25",
                 "--out_dir", str(tmp_path)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "threshold" in printed
    assert len(printed.strip().splitlines()) == 3


def test_roc_rejects_corrupt_curve(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("threshold,far,tar\n1,0.5,0.9\n0.5,0.2,0.8\n")  # far decreasing
    code = main(["roc", "--roc_csv", str(bad), "--out_dir", str(tmp_path)])
    assert code == 2
    assert "monotone" in capsys.readouterr().err


# ---------------------------------------------------------------- match


def test_match_image_with_itself(dataset, run_dir, tmp_path, capsys):
    img = str(dataset / "identity_000" / "img_000")
    code = main(["match", "--checkpoint", str(run_dir / "best.ckpt"),
                 "--out_dir", str(tmp_path), img, img])
    assert code in (0, 1)
    printed = capsys.readouterr().out
    assert "probability" in printed
    assert (tmp_path / "match_snapshot.cfg").is_file()


def test_match_threshold_one_never_matches(dataset, run_dir, tmp_path):
    img = str(dataset / "identity_000" / "img_000")
    code = main(["match", "--checkpoint", str(run_dir / "best.ckpt"),
                 "--threshold", "1.0", "--out_dir", str(tmp_path), img, img])
    assert code == 1


def test_match_corrupt_file_exits_2(run_dir, tmp_path, capsys):
    bad = tmp_path / "bad.img"
    bad.write_bytes(b"NOT AN IMAGE")
    code = main(["match", "--checkpoint", str(run_dir / "best.ckpt"),
                 "--out_dir", str(tmp_path), str(bad), str(bad)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_match_truncated_checkpoint_exits_2(dataset, run_dir, tmp_path, capsys):
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes((run_dir / "best.ckpt").read_bytes()[:8])
    img = str(dataset / "identity_000" / "img_000")
    code = main(["match", "--checkpoint", str(cut), "--out_dir", str(tmp_path), img, img])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and str(cut) in err
    assert len(err.splitlines()) == 1


def test_match_accepts_pgm(dataset, run_dir, tmp_path):
    rng = np.random.default_rng(0)
    pgm = tmp_path / "img.pgm"
    write_pgm(pgm, rng.uniform(size=(8, 16)))
    code = main(["match", "--checkpoint", str(run_dir / "best.ckpt"),
                 "--out_dir", str(tmp_path), str(pgm), str(pgm)])
    assert code in (0, 1)


# ---------------------------------------------------------------- baseline


def test_baseline_same_schema_as_eval(dataset, tmp_path, capsys):
    out = tmp_path / "base"
    code = main(["baseline", "--data_dir", str(dataset), "--out_dir", str(out),
                 "--far", "0.5,0.1", "--max_shift", "3",
                 "--gabor_wavelength", "8", "--row_step", "1"])
    assert code == 0
    assert (out / "roc.csv").is_file()
    rows = (out / "tar_at_far.csv").read_text().splitlines()
    assert rows[0] == "far,tar,threshold"
    assert (out / "baseline_snapshot.cfg").is_file()
    printed = capsys.readouterr().out
    assert "far" in printed


# ---------------------------------------------------------------- parser


def test_no_command_exits_2():
    assert main([]) == 2


def test_help_exits_0():
    assert main(["--help"]) == 0


def test_resolve_config_precedence(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("lr = 0.5\nepochs = 7\n")
    merged = resolve_config("train", {"lr": "0.25"}, cfg)
    assert merged["lr"] == 0.25
    assert merged["epochs"] == 7
    assert merged["batch_size"] == 32  # schema default
