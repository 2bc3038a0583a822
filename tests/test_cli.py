"""End-to-end CLI tests on a tiny synthetic dataset."""

import numpy as np
import pytest

from irismatch.cli import main, resolve_config, load_config_file, UsageError
from irismatch.iris_io import write_pgm


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


@pytest.mark.parametrize("command", ["synth", "train"])
def test_negative_seed_exits_2_and_writes_nothing(command, dataset, tmp_path, capsys):
    out = tmp_path / "out"
    args = {"synth": ["--data_dir", str(out)] + SYNTH_ARGS,
            "train": ["--data_dir", str(dataset), "--out_dir", str(out)] + TRAIN_ARGS}[command]
    assert main([command] + args + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err == "error: seed must be non-negative, got -1"
    assert not out.exists()


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
    # the file is rewritten whole; the earlier rows keep their bytes
    assert lines[:3] == (run_dir / "log.csv").read_text().splitlines()


def _canonical_log(out_dir):
    import json

    from irismatch.training import EpochRecord, TrainLog

    state = json.loads((out_dir / "train_state.json").read_text())
    records = [EpochRecord(*row) for row in state["records"]]
    return TrainLog(selection_far=0.25, records=records).canonical_lines()


def test_train_resume_equals_uninterrupted_run(tmp_path):
    import shutil

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
    # the same store at another path resumes: the run keeps its data, not its path
    shutil.copytree(data, tmp_path / "moved")
    assert main(["train", "--out_dir", str(split), "--epochs", "4", "--resume", "true"]
                + args + ["--data_dir", str(tmp_path / "moved")]) == 0
    assert len(_canonical_log(whole)) == 5
    assert _canonical_log(split) == _canonical_log(whole)
    for name in ("last.ckpt", "last.optim", "best.ckpt"):
        assert (split / name).read_bytes() == (whole / name).read_bytes(), name
    assert _train_state(split) == _train_state(whole)


def _train_state(out_dir):
    """train_state.json with its wall-clock timings zeroed."""
    import json

    state = json.loads((out_dir / "train_state.json").read_text())
    for row in state["records"]:
        row[4] = 0.0
    return state


def test_train_resume_with_another_architecture_exits_2(dataset, run_dir, tmp_path, capsys):
    import shutil
    resumed = tmp_path / "resumed"
    shutil.copytree(run_dir, resumed)
    before = {p.name: p.read_bytes() for p in resumed.iterdir()}
    args = list(TRAIN_ARGS)
    args[args.index("--matcher_channels") + 1] = "6"
    args[args.index("--epochs") + 1] = "3"
    code = main(["train", "--data_dir", str(dataset), "--out_dir", str(resumed),
                 "--resume", "true"] + args)
    assert code == 2
    err = capsys.readouterr().err
    assert "architecture" in err and len(err.strip().splitlines()) == 1
    assert {p.name: p.read_bytes() for p in resumed.iterdir()} == before


def _resume_args(changes):
    """TRAIN_ARGS with three epochs and the given flag values, for a resume."""
    args = dict(zip(TRAIN_ARGS[::2], TRAIN_ARGS[1::2]))
    args.update({"--epochs": "3", "--resume": "true", **changes})
    return [item for pair in args.items() for item in pair]


@pytest.mark.parametrize("flag,value", [("--seed", "9"), ("--lr", "0.5"),
                                        ("--batch_size", "4"), ("--stage1_epochs", "2"),
                                        ("--selection_far", "0.5"), ("--beta1", "0.5"),
                                        ("--beta2", "0.99"), ("--adam_eps", "1e-06")])
def test_train_resume_with_a_changed_training_key_exits_2(dataset, run_dir, tmp_path, capsys,
                                                          flag, value):
    import shutil
    resumed = tmp_path / "resumed"
    shutil.copytree(run_dir, resumed)
    before = {p.name: p.read_bytes() for p in resumed.iterdir()}
    code = main(["train", "--data_dir", str(dataset), "--out_dir", str(resumed)]
                + _resume_args({flag: value}))
    assert code == 2
    err = _one_line_error(capsys, resumed / "train_state.json")
    assert f"{flag[2:]} = {value}, not " in err
    assert {p.name: p.read_bytes() for p in resumed.iterdir()} == before


def test_train_resume_of_a_library_run_without_a_snapshot(dataset, tmp_path):
    """The run directory, not the CLI's snapshot, holds what a resume keeps."""
    from irismatch.cli import _from_cfg, _model_config_from
    from irismatch.synthetic import read_store
    from irismatch.training import TrainConfig, train

    cfg = resolve_config("train", {flag[2:]: value
                                   for flag, value in zip(TRAIN_ARGS[::2], TRAIN_ARGS[1::2])})
    store = read_store(str(dataset))
    run = tmp_path / "run"
    train(store, _from_cfg(TrainConfig, cfg), _model_config_from(cfg, 8, 16), str(run))
    assert not (run / "train_snapshot.cfg").exists()
    code = main(["train", "--data_dir", str(dataset), "--out_dir", str(run)]
                + _resume_args({}))
    assert code == 0
    lines = (run / "log.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]


def test_train_resume_on_another_store_exits_2(run_dir, tmp_path, capsys):
    import shutil
    resumed = tmp_path / "resumed"
    shutil.copytree(run_dir, resumed)
    before = {p.name: p.read_bytes() for p in resumed.iterdir()}
    other = tmp_path / "other"
    synth_args = dict(zip(SYNTH_ARGS[::2], SYNTH_ARGS[1::2]))
    synth_args["--seed"] = "4"
    assert main(["synth", "--data_dir", str(other)]
                + [item for pair in synth_args.items() for item in pair]) == 0
    capsys.readouterr()
    code = main(["train", "--data_dir", str(other), "--out_dir", str(resumed)]
                + _resume_args({}))
    assert code == 2
    assert "another store" in _one_line_error(capsys, resumed / "train_state.json")
    assert {p.name: p.read_bytes() for p in resumed.iterdir()} == before


def test_train_resume_under_another_blas_thread_count_exits_2(dataset, run_dir, tmp_path,
                                                             capsys, monkeypatch):
    import shutil

    from irismatch import training
    from irismatch.blas import blas_threads

    resumed = tmp_path / "resumed"
    shutil.copytree(run_dir, resumed)
    before = {p.name: p.read_bytes() for p in resumed.iterdir()}
    monkeypatch.setattr(training, "blas_threads", lambda: blas_threads() + 1)
    code = main(["train", "--data_dir", str(dataset), "--out_dir", str(resumed)]
                + _resume_args({}))
    assert code == 2
    assert "a run keeps its BLAS pair" in _one_line_error(capsys, resumed / "train_state.json")
    assert {p.name: p.read_bytes() for p in resumed.iterdir()} == before


@pytest.mark.parametrize("flag,value", [("--lr", "nan"), ("--lr", "inf"),
                                        ("--adam_eps", "nan")])
def test_train_non_finite_step_size_exits_2_before_any_epoch(dataset, tmp_path, capsys,
                                                            monkeypatch, flag, value):
    from irismatch import training

    def no_epoch(*args):
        raise AssertionError("an epoch ran")

    monkeypatch.setattr(training, "rebalance_epoch", no_epoch)
    args = dict(zip(TRAIN_ARGS[::2], TRAIN_ARGS[1::2]))
    args[flag] = value
    out = tmp_path / "out"
    code = main(["train", "--data_dir", str(dataset), "--out_dir", str(out)]
                + [item for pair in args.items() for item in pair])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "finite and positive" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--batch_size", "1", "batch norm needs two pairs"),
    ("--matcher_dropout", "-0.5", "dropout rate"),
    ("--matcher_dropout", "1", "dropout rate"),
    ("--matcher_channels", "0", "block width"),
    ("--matcher_strides", "0", "block stride"),
])
def test_train_bad_batch_or_block_exits_2_and_creates_nothing(dataset, tmp_path, capsys,
                                                              flag, value, message):
    args = dict(zip(TRAIN_ARGS[::2], TRAIN_ARGS[1::2]))
    args[flag] = value
    out = tmp_path / "out"
    code = main(["train", "--data_dir", str(dataset), "--out_dir", str(out)]
                + [item for pair in args.items() for item in pair])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and message in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_train_resume_without_a_run_exits_2_and_creates_nothing(dataset, tmp_path, capsys):
    out = tmp_path / "nothing_here"
    code = main(["train", "--data_dir", str(dataset), "--out_dir", str(out)]
                + _resume_args({}))
    assert code == 2
    _one_line_error(capsys, out)
    assert not out.exists()


def test_train_resume_without_a_train_state_exits_2(dataset, run_dir, tmp_path, capsys):
    import shutil
    resumed = tmp_path / "resumed"
    shutil.copytree(run_dir, resumed)
    (resumed / "train_state.json").unlink()
    before = {p.name: p.read_bytes() for p in resumed.iterdir()}
    code = main(["train", "--data_dir", str(dataset), "--out_dir", str(resumed)]
                + _resume_args({}))
    assert code == 2
    _one_line_error(capsys, resumed / "train_state.json")
    assert {p.name: p.read_bytes() for p in resumed.iterdir()} == before


def test_train_missing_dataset_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)     # where the default out_dir would go
    code = main(["train", "--data_dir", str(tmp_path / "nope")] + TRAIN_ARGS)
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_train_requires_data_dir(capsys):
    assert main(["train"] + TRAIN_ARGS) == 2
    assert "requires --data_dir" in capsys.readouterr().err


@pytest.mark.parametrize("edit,named", [
    (lambda m: {"height": m["height"], "width": m["width"]}, "manifest.json"),
    (lambda m: {**m, "identities": [{"id": e["id"]} for e in m["identities"]]},
     "manifest.json"),
    (lambda m: [m], "manifest.json"),
    (lambda m: {**m, "identities": []}, "manifest.json"),
    (lambda m: {**m, "height": m["height"] + 1}, "identity_000/img_000"),
], ids=["no-identities", "no-files", "list", "no-identity", "wrong-height"])
def test_malformed_manifest_exits_2(dataset, run_dir, tmp_path, capsys, edit, named):
    import json
    import shutil

    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    manifest = data / "manifest.json"
    manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
    out = tmp_path / "out"
    for command, args in (("train", TRAIN_ARGS),
                          ("eval", ["--checkpoint", str(run_dir / "best.ckpt")]),
                          ("baseline", [])):
        assert main([command, "--data_dir", str(data), "--out_dir", str(out)] + args) == 2
        _one_line_error(capsys, data / named)
        assert not out.exists()


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


def test_eval_with_nan_parameters_exits_2(dataset, run_dir, tmp_path, capsys):
    from irismatch import checkpoint

    model = checkpoint.load_model(run_dir / "best.ckpt")
    model.matcher.head_bias.data[:] = np.nan
    bad = tmp_path / "nan.ckpt"
    checkpoint.save_model(model, bad)
    code = main(["eval", "--checkpoint", str(bad), "--data_dir", str(dataset),
                 "--out_dir", str(tmp_path / "e4"), "--far", "0.5"])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "authentic scores are not finite" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "e4" / "roc.csv").exists()


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


@pytest.mark.parametrize("command", ["eval", "baseline"])
def test_roc_on_a_curve_prints_its_tar_at_far_table(command, dataset, run_dir, tmp_path,
                                                    capsys):
    """``roc`` on the roc.csv of ``eval`` or ``baseline`` gives the rows of
    their own tar_at_far.csv, FAR 1 included."""
    out = tmp_path / command
    fars = "1,0.5,0.25,0.1"
    args = (["--checkpoint", str(run_dir / "best.ckpt")] if command == "eval" else
            ["--max_shift", "3", "--gabor_wavelength", "8", "--row_step", "1"])
    assert main([command, "--data_dir", str(dataset), "--out_dir", str(out),
                 "--far", fars] + args) == 0
    table = capsys.readouterr().out
    assert main(["roc", "--roc_csv", str(out / "roc.csv"), "--far", fars,
                 "--out_dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == table
    rows = [[float(v) for v in line.split(",")]
            for line in (out / "tar_at_far.csv").read_text().splitlines()[1:]]
    assert [f"{far:>12.6g} {tar:>12.6g} {thr:>24.17g}" for far, tar, thr in rows] == \
        table.splitlines()[1:]


def test_eval_roc_csv_round_trips(dataset, run_dir, tmp_path):
    """``read_roc_csv`` reads the roc.csv of ``eval``, its accept-everything
    row (an infinite threshold) included, back to the same bytes."""
    from irismatch.evaluation import emit_roc_csv, read_roc_csv

    out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(run_dir / "best.ckpt"),
                 "--data_dir", str(dataset), "--out_dir", str(out), "--far", "0.5"]) == 0
    curve = read_roc_csv(out / "roc.csv")
    assert curve.thresholds[-1] == -np.inf
    emit_roc_csv(curve, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == (out / "roc.csv").read_bytes()


@pytest.mark.parametrize("row", ["0.5,x,0.5", "0.5,0.5", "0.5,0.5,0.5,0.5", "nan,nan,nan",
                                 "nan,0.5,0.5", "0.5,inf,1", "0.5,0.5,1.5", "0.5,-0.5,0.5",
                                 "0.5,0.5,\xff"],
                         ids=["text", "two", "four", "nan", "nan-threshold", "inf-far",
                              "tar-above-1", "negative-far", "not-ascii"])
def test_roc_rejects_a_bad_row_naming_its_line(tmp_path, capsys, row):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(f"threshold,far,tar\n0.75,0,0.5\n{row}\n-inf,1,1\n".encode("latin-1"))
    assert main(["roc", "--roc_csv", str(bad), "--out_dir", str(tmp_path)]) == 2
    assert f"{bad}:3:" in _one_line_error(capsys, bad)


def test_roc_ignores_the_accept_everything_row(tmp_path, capsys):
    """The lowest score is authentic, so only the sentinel row reaches TAR 1;
    at FAR 1 ``roc`` picks what ``tar_at_far`` picks (TAR 2/3 at 0.5)."""
    from irismatch.evaluation import ScoreSet, emit_roc_csv, roc

    emit_roc_csv(roc(ScoreSet([0.1, 0.8, 0.9], [0.3, 0.5], True)), tmp_path / "roc.csv")
    assert main(["roc", "--roc_csv", str(tmp_path / "roc.csv"), "--far", "1",
                 "--out_dir", str(tmp_path)]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row == ["1", "0.666667", "0.5"]


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


@pytest.mark.parametrize("threshold", ["nan", "inf", "-1", "2"])
def test_match_bad_threshold_exits_2_and_writes_nothing(threshold, dataset, run_dir, tmp_path,
                                                        capsys):
    img = str(dataset / "identity_000" / "img_000")
    out = tmp_path / "out"
    code = main(["match", "--checkpoint", str(run_dir / "best.ckpt"),
                 f"--threshold={threshold}", "--out_dir", str(out), img, img])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error: bad value for threshold") and "[0, 1]" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


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


def _one_line_error(capsys, path):
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and str(path) in err
    assert len(err.splitlines()) == 1
    return err


@pytest.mark.parametrize("name,content", [("neg.pgm", b"P5\n-4 -4\n255\n" + bytes(16)),
                                          ("neg.iris", b"IRIS -2 -2\n" + bytes(16))],
                         ids=["pgm", "iris"])
def test_match_image_with_bad_extents_exits_2(dataset, run_dir, tmp_path, capsys, name, content):
    bad = tmp_path / name
    bad.write_bytes(content)
    img = str(dataset / "identity_000" / "img_000")
    code = main(["match", "--checkpoint", str(run_dir / "best.ckpt"),
                 "--out_dir", str(tmp_path), img, str(bad)])
    assert code == 2
    _one_line_error(capsys, bad)


def test_match_checkpoint_with_bad_architecture_exits_2(dataset, run_dir, tmp_path, capsys):
    from irismatch import checkpoint

    meta, records = checkpoint.read_records(run_dir / "best.ckpt", checkpoint.MODEL_MAGIC)
    meta["bank"]["kernels"][0] = [3, 4]
    bad = tmp_path / "bad.ckpt"
    checkpoint.write_records(bad, checkpoint.MODEL_MAGIC, meta, records.items())
    img = str(dataset / "identity_000" / "img_000")
    code = main(["match", "--checkpoint", str(bad), "--out_dir", str(tmp_path), img, img])
    assert code == 2
    _one_line_error(capsys, bad)


def test_checkpoint_without_matcher_blocks_exits_2(dataset, run_dir, tmp_path, capsys):
    from irismatch import checkpoint
    from test_matcher import zero_block_checkpoint

    bad = tmp_path / "no_blocks.ckpt"
    zero_block_checkpoint(checkpoint.load_model(run_dir / "best.ckpt"), bad)
    img = str(dataset / "identity_000" / "img_000")
    out = tmp_path / "out"
    for args in (["eval", "--data_dir", str(dataset), "--out_dir", str(out)],
                 ["match", "--out_dir", str(out), img, img]):
        assert main(args[:1] + ["--checkpoint", str(bad)] + args[1:]) == 2
        _one_line_error(capsys, bad)
        assert not out.exists()


@pytest.mark.parametrize("case", ["record-name", "missing-parameter", "cut-moment",
                                  "missing-step"])
def test_train_resume_with_a_bad_optimizer_file_exits_2(dataset, run_dir, tmp_path, capsys,
                                                        case):
    """Adam's moments in ``last.optim`` and its step counts in
    ``train_state.json`` must name exactly the model's parameters, each
    moment in its parameter's shape; otherwise the resume is refused."""
    import json
    import shutil

    from irismatch import checkpoint

    resumed = tmp_path / "resumed"
    shutil.copytree(run_dir, resumed)
    optim, state_path = resumed / "last.optim", resumed / "train_state.json"
    meta, records = checkpoint.read_records(optim, checkpoint.OPTIM_MAGIC)
    param = next(name for name, arr in records.items() if arr.size > 1).rpartition(".")[0]
    bad = optim
    if case == "record-name":
        records = {name[:-2] + "_m" if name.endswith(".m") else name: arr
                   for name, arr in records.items()}
    elif case == "missing-parameter":
        records = {name: arr for name, arr in records.items()
                   if name.rpartition(".")[0] != param}
    elif case == "cut-moment":
        records = {name: arr.reshape(-1)[:1] if name.rpartition(".")[0] == param else arr
                   for name, arr in records.items()}
    else:
        state = json.loads(state_path.read_text())
        del state["steps"][param]
        state_path.write_text(json.dumps(state))
        bad = state_path
    checkpoint.write_records(optim, checkpoint.OPTIM_MAGIC, meta, records.items())
    before = {p.name: p.read_bytes() for p in resumed.iterdir()}
    code = main(["train", "--data_dir", str(dataset), "--out_dir", str(resumed)]
                + _resume_args({}))
    assert code == 2
    _one_line_error(capsys, bad)
    assert {p.name: p.read_bytes() for p in resumed.iterdir()} == before


@pytest.mark.parametrize("case", ["missing", "another-architecture"])
def test_train_resume_with_a_bad_best_checkpoint_exits_2(dataset, run_dir, tmp_path, capsys,
                                                         case):
    """``best.ckpt`` must exist and hold the configured architecture, as
    ``last.ckpt`` must, even when no epoch is left to train."""
    import shutil

    from irismatch import checkpoint
    from irismatch.cli import _model_config_from
    from irismatch.matcher import IrisMatchModel

    resumed = tmp_path / "resumed"
    shutil.copytree(run_dir, resumed)
    best = resumed / "best.ckpt"
    if case == "missing":
        best.unlink()
    else:
        cfg = resolve_config("train", {**{flag[2:]: value for flag, value
                                          in zip(TRAIN_ARGS[::2], TRAIN_ARGS[1::2])},
                                       "matcher_channels": "6"})
        checkpoint.save_model(IrisMatchModel(_model_config_from(cfg, 8, 16)), best)
    before = {p.name: p.read_bytes() for p in resumed.iterdir()}
    code = main(["train", "--data_dir", str(dataset), "--out_dir", str(resumed)]
                + _resume_args({"--epochs": "2"}))
    assert code == 2
    _one_line_error(capsys, best)
    assert {p.name: p.read_bytes() for p in resumed.iterdir()} == before


@pytest.mark.parametrize("malformed", [lambda state: {"next_epoch": 3},
                                       lambda state: {**state, "records": [[0, 1, 0.5]]},
                                       lambda state: {**state, "records": [["a", 1, 0, 0, 0]]},
                                       lambda state: [state],
                                       lambda state: {k: v for k, v in state.items()
                                                      if k != "store_sha256"},
                                       lambda state: {k: v for k, v in state.items()
                                                      if k != "config"},
                                       lambda state: {**state, "config": {"lr": 0.01}},
                                       lambda state: {k: v for k, v in state.items()
                                                      if k != "blas"},
                                       lambda state: {**state, "blas": {"kernel": "Haswell"}}],
                         ids=["no-records", "short-row", "text-epoch", "list",
                              "no-store-sha256", "no-config", "short-config", "no-blas",
                              "short-blas"])
def test_train_resume_with_a_malformed_state_exits_2(dataset, run_dir, tmp_path, capsys,
                                                     malformed):
    import json
    import shutil

    resumed = tmp_path / "resumed"
    shutil.copytree(run_dir, resumed)
    path = resumed / "train_state.json"
    path.write_text(json.dumps(malformed(json.loads(path.read_text()))))
    args = list(TRAIN_ARGS)
    args[args.index("--epochs") + 1] = "3"
    code = main(["train", "--data_dir", str(dataset), "--out_dir", str(resumed),
                 "--resume", "true"] + args)
    assert code == 2
    _one_line_error(capsys, path)


def test_match_accepts_pgm(dataset, run_dir, tmp_path):
    rng = np.random.default_rng(0)
    pgm = tmp_path / "img.pgm"
    write_pgm(pgm, rng.uniform(size=(8, 16)))
    code = main(["match", "--checkpoint", str(run_dir / "best.ckpt"),
                 "--out_dir", str(tmp_path), str(pgm), str(pgm)])
    assert code in (0, 1)


def test_roc_prints_unattainable_rows_in_place(tmp_path, capsys):
    curve = tmp_path / "roc.csv"
    curve.write_text("threshold,far,tar\n0.75,0.5,0.5\n0.25,1,1\n")
    assert main(["roc", "--roc_csv", str(curve), "--far", "0.25,1",
                 "--out_dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{'far':>12} {'tar':>12} {'threshold':>24}",
        f"{0.25:>12.6g} {'unattainable':>12}",
        f"{1.0:>12.6g} {1.0:>12.6g} {0.25:>24.17g}"]


@pytest.mark.parametrize("command,far", [("eval", "0.5,0"), ("baseline", "0.5,0"),
                                         ("roc", "-1,0,0.5,2"), ("roc", "0.5,nan")],
                         ids=["eval", "baseline", "roc", "roc-nan"])
def test_bad_far_target_exits_2_before_any_work(command, far, dataset, run_dir, tmp_path,
                                                capsys):
    from irismatch.evaluation import ScoreSet, emit_roc_csv, roc

    curve = tmp_path / "roc.csv"
    emit_roc_csv(roc(ScoreSet([0.1, 0.8, 0.9], [0.3, 0.5], True)), curve)
    args = {"eval": ["--checkpoint", str(run_dir / "best.ckpt"), "--data_dir", str(dataset)],
            "baseline": ["--data_dir", str(dataset)],
            "roc": ["--roc_csv", str(curve)]}[command]
    out = tmp_path / "out"
    assert main([command, "--out_dir", str(out), f"--far={far}"] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error: bad value for far") and "FAR target" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


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


@pytest.mark.parametrize("max_shift,encoded,message", [
    (-1, 0, "max shift must be non-negative, got -1"),
    (16, 1, "max shift 16 must be smaller than width 16")], ids=["negative", "width"])
def test_baseline_bad_max_shift_exits_2_before_encoding_the_store(
        max_shift, encoded, message, dataset, tmp_path, capsys, monkeypatch):
    """A negative shift is refused before any image is encoded, one as wide
    as the 16-sample codes right after the first."""
    from irismatch import iriscode

    calls = []
    encode = iriscode.encode
    monkeypatch.setattr(iriscode, "encode", lambda *a, **k: calls.append(1) or encode(*a, **k))
    out = tmp_path / "out"
    code = main(["baseline", "--data_dir", str(dataset), "--out_dir", str(out),
                 "--row_step", "1", f"--max_shift={max_shift}"])
    assert code == 2 and len(calls) == encoded
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]
    assert not out.exists()


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


def test_schema_defaults_build_the_library_defaults():
    """SCHEMA's defaults build the library's default objects."""
    from irismatch.cli import _from_cfg, _model_config_from
    from irismatch.iriscode import LogGaborSpec
    from irismatch.matcher import ModelConfig
    from irismatch.synthetic import SynthSpec
    from irismatch.training import TrainConfig

    assert _from_cfg(TrainConfig, resolve_config("train", {})) == TrainConfig()
    assert _from_cfg(SynthSpec, resolve_config("synth", {})) == SynthSpec()
    assert _model_config_from(resolve_config("train", {}), 110, 512) == ModelConfig()
    baseline = resolve_config("baseline", {})
    assert LogGaborSpec(wavelength=baseline["gabor_wavelength"],
                        sigma_ratio=baseline["gabor_sigma_ratio"],
                        row_step=baseline["row_step"]) == LogGaborSpec()
