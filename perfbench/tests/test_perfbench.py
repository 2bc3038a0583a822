"""The benchmark's own tests, at a tiny size (a few seconds in all).

Run from the root of the checkout::

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import make_reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from irismatch import evaluation  # noqa: E402

# tiny validation and eval sets cannot resolve the smallest FAR targets
pytestmark = pytest.mark.filterwarnings("ignore:.*cannot resolve FAR")

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [wl.name for wl in workloads.all_workloads("tiny")]


@pytest.fixture(scope="module")
def refdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    make_reference.make_references("tiny", str(out))
    return out


def _run(name, refdir, tmp_path, trace=0, seed=5):
    return run.run_workload(name, seed, 0.2, trace, size="tiny", reference_dir=str(refdir),
                            work_root=tmp_path / "work")


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == NAMES
    assert [w["why"] for w in BENCHMARK["workloads"]] == \
        [wl.why for wl in workloads.all_workloads("tiny")]
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_passes_its_gate(name, trace, refdir, tmp_path):
    result = _run(name, refdir, tmp_path, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert not (tmp_path / "work").exists()
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_backward_shows_only_in_training(refdir, tmp_path):
    train = _run("train-small", refdir, tmp_path, trace=1)["metrics"]
    scoring = _run("eval-full", refdir, tmp_path, trace=1)["metrics"]
    assert train["unit_circle.bank.bwd_s"]["value"] > 0
    assert train["matcher.block0.bwd_s"]["value"] > 0 and train["training.steps"]["value"] > 0
    assert scoring["tensor.backward_s"]["value"] == 0 and scoring["matcher.pairs"]["value"] > 0


@pytest.mark.parametrize("name,key,delta", [
    ("train-small", None, None),
    ("eval-full", "probability", 1e-5),
    ("verify-full", "probability", 1e-5),
    ("baseline-full", "hamming", 1e-12),
])
def test_gate_fails_on_a_wrong_reference(name, key, delta, refdir, tmp_path):
    bad = tmp_path / "bad"
    shutil.copytree(refdir, bad)
    path = bad / f"{name}.json"
    ref = json.loads(path.read_text())
    if key is None:
        for case in ref["cases"].values():
            epoch, stage, loss, tar = case["1"][1].split(",")
            case["1"][1] = f"{epoch},{stage},{float(loss) * 1.001!r},{tar}"
    else:
        ref[key] = (np.asarray(ref[key]) + delta).tolist()
    path.write_text(json.dumps(ref))
    result = _run(name, bad, tmp_path)
    assert not result["correct"] and result["failed"] > 0


def test_reference_made_for_other_parameters_is_refused(refdir, tmp_path):
    wl = workloads.EvalFull("full", str(refdir))
    with pytest.raises(ValueError, match="was made for"):
        wl.ref


def test_oracle_matches_tar_at_far_with_ties():
    rng = np.random.default_rng(0)
    for higher in (True, False):
        scores = evaluation.ScoreSet(rng.integers(0, 20, 30) / 20,
                                     rng.integers(0, 20, 200) / 20, higher)
        for far in (0.5, 0.1, 0.01, 1e-4):
            assert workloads.tar_at_far_oracle(scores, far) == evaluation.tar_at_far(scores, far)


def _patched_attributes():
    """Every function or method the tracer may replace, by identity."""
    from irismatch import evaluation as ev, matcher, tensor, training, unit_circle

    snapshot = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "irismatch" or mod_name.startswith("irismatch."):
            snapshot.update({(mod_name, k): v for k, v in vars(mod).items() if callable(v)})
    for cls in (unit_circle.UnitCircleBank, matcher.ConvBlock, matcher.MatcherModel,
                tensor.Tensor, training.Adam, ev.ModelScorer, ev.BitcodeScorer):
        snapshot.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snapshot


def test_traced_run_removes_its_wrappers(refdir, tmp_path):
    before = _patched_attributes()
    _run("train-small", refdir, tmp_path, trace=1)
    after = _patched_attributes()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


def _traced_calls(name, refdir, tmp_path, limit, tracer=None):
    """Set up a tiny workload and make ``limit`` calls, all traced."""
    wl = {w.name: w for w in workloads.all_workloads("tiny", str(refdir))}[name]
    tracer = tracer or tracing.Tracer()
    tracer.install()
    try:
        state = wl.setup(str(tmp_path))
        done = run.run_calls(wl, state, wl.calls(state, 0), limit=limit, tracer=tracer)
    finally:
        tracer.uninstall()
    assert run.gate(done)[1] == 0
    return tracer


def test_self_time_never_exceeds_duration(refdir, tmp_path):
    tracer = tracing.Tracer()
    for name in ("train-small", "eval-full"):
        _traced_calls(name, refdir, tmp_path, limit=2, tracer=tracer)
        assert not tracer.installed
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    assert all(s[tracing.END] is not None for s in spans)
    assert all(own <= s[tracing.END] - s[tracing.START] for own, s in zip(selfs, spans))
    # self times add up to the wall time of the top-level spans
    roots = sum(s[tracing.END] - s[tracing.START] for s in spans if s[tracing.PARENT] < 0)
    assert sum(selfs) == pytest.approx(roots, rel=1e-9)


def test_head_forward_covers_its_tensor_ops(refdir, tmp_path):
    tracer = _traced_calls("eval-full", refdir, tmp_path, limit=1)
    spans = tracer.spans
    head_ops = [s for s in spans if s[tracing.NAME].startswith("tensor.")
                and s[tracing.PARENT] >= 0
                and spans[s[tracing.PARENT]][tracing.NAME] == "matcher"]
    head_conv = sum(s[tracing.END] - s[tracing.START] for s in head_ops
                    if s[tracing.NAME] == "tensor.conv2d")
    assert head_conv > 0
    head_fwd = tracing.layer_metrics(tracer, 1.0, 1.0)["matcher.head.fwd_s"]
    # at least the head conv, pooling and sigmoid forward
    assert head_fwd >= sum(s[tracing.END] - s[tracing.START] for s in head_ops)


@pytest.mark.parametrize("name,pool", [("train-small", 2), ("eval-full", 3),
                                       ("verify-full", 4)])
def test_calls_read_disjoint_inputs_until_the_pool_is_used(name, pool, refdir, tmp_path):
    wl = {w.name: w for w in workloads.all_workloads("tiny", str(refdir))}[name]
    state = wl.setup(str(tmp_path))
    done = run.run_calls(wl, state, wl.calls(state, 3), limit=pool + 1)
    assert run.gate(done)[1] == 0
    assert run.reused_calls(done[:pool]) == 0
    assert run.reused_calls(done) == 1


def test_times_are_scaled_to_the_reference_host():
    probe = run.HostProbe()
    probe.run_for(0.0)
    assert len(probe.samples) == 1
    probe.samples = [2 * run.PROBE_REF_S]   # a host twice as slow as the reference
    scale = probe.scale()
    assert scale == 0.5
    assert run.at_reference(3.0, "s", scale) == 1.5
    assert run.at_reference(3.0, "ms", scale) == 1.5
    assert run.at_reference(3.0, "1/s", scale) == 6.0
    assert run.at_reference(3.0, "MB", scale) == 3.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
