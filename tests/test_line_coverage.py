"""Every executable line of the package runs in a scripted session of the
program's own commands.

The session imports the package afresh under a ``sys.settrace`` line
tracer (no coverage package is needed) and runs the command line the way a
user would, on stores of 16x32 images: ``synth``; ``train`` and its
``--resume`` in each bank mode, once with no bank bias, once on a store
with fewer imposter than authentic training pairs, once from a last
checkpoint gone non-finite, and once at a learning rate whose first step
makes the validation scores non-finite; ``eval``, once on a store of
another height; ``match``, once on a PGM of another height; ``roc``, once
as ``python -m irismatch.cli``; ``baseline``, on a store with a partly
masked bitcode row; and one ``match`` at the paper's 110x512, whose
convolutions are big enough to run in row tiles.

A line that no command ran is reported, unless it is on an error path (a
``raise``, an ``except`` clause, or a block whose last statement raises)
or its function is in ``EXEMPT``, each with its reason.  Each report names
``file:line`` of a branch that never ran (the ``def``, ``if`` or ``for``
whose body it is, else its first line), then its lines.  What only a test
reaches is not part of the program: delete it, or move it to the tests.
``test_no_dead_code.py`` checks names; this check checks lines.
"""

import ast
import contextlib
import importlib.util
import os
import runpy
import sys
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from oracles import with_a_masked_null

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "irismatch"

# (file, qualified function name; a property setter is <property>.setter)
# -> why no command runs it
EXEMPT = {
    ("tensor.py", "batch_norm"): "perfbench's tracer wraps it by name (tracing.TENSOR_OPS)",
    ("tensor.py", "pad2d"): "perfbench's tracer wraps it by name (tracing.TENSOR_OPS)",
    ("tensor.py", "Tensor._backward_fn.setter"):
        "perfbench's tracer sets a traced op's backward through it (Tracer._op)",
    ("iriscode.py", "masked_hamming"): "perfbench's tracer wraps it by name (Tracer.install)",
    ("iriscode.py", "match_with_shifts"):
        "perfbench's tracer wraps it by name (tracing.FUNCTION_SPANS)",
    ("matcher.py", "ModelConfig.small"): "perfbench's train-small builds its model with it",
    ("matcher.py", "small_matcher_blocks"): "ModelConfig.small's matcher (train-small)",
    ("training.py", "TrainLog.canonical_lines"): "perfbench's train-small checks its logs with it",
    ("data.py", "IdentityStore.subset"): "perfbench's workloads cut their stores with it",
    ("blas.py", "_openblas"): "its last line runs only where numpy ships no OpenBLAS",
}


# ---------------------------------------------------------------- the tracer


def executable_lines(code):
    """Lines that hold bytecode in ``code`` and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


_BLOCKS = ("body", "orelse", "finalbody")


def _lines(node):
    return set(range(node.lineno, node.end_lineno + 1))


def exempt_lines(tree, exempt_functions=()):
    """Lines of the module ``tree`` on an error path, and the lines of every
    function whose qualified name is in ``exempt_functions``."""
    lines = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                setter = any(isinstance(d, ast.Attribute) and d.attr == "setter"
                             for d in getattr(child, "decorator_list", ()))
                name = f"{prefix}{child.name}" + (".setter" if setter else "")
                if name in exempt_functions:
                    lines.update(_lines(child))
                    continue
                name += "."
            if isinstance(child, (ast.Raise, ast.ExceptHandler)):
                lines.update(_lines(child))
            for field in _BLOCKS:
                block = getattr(child, field, None)
                if isinstance(block, list) and block and isinstance(block[-1], ast.Raise):
                    lines.update(range(block[0].lineno, block[-1].end_lineno + 1))
            visit(child, name)

    visit(tree, "")
    return lines


def unrun_branches(tree, candidates, missing):
    """(line, lines) of each run of consecutive statements of the module
    ``tree`` whose ``candidates`` lines (the executable ones not exempt) are
    all ``missing``: the line of the statement whose whole body the run is,
    else the run's first line; then each missing line outside such a run."""
    out, covered = [], set()

    def visit(owner, stmts, whole_body):
        run = []
        for stmt in stmts + [None]:
            lines = set() if stmt is None else _lines(stmt) & candidates
            if lines and lines <= missing:
                run.append(lines)
                continue
            if run:
                whole = whole_body and len(run) == len(stmts)
                out.append((owner.lineno if whole else min(run[0]), sorted(set().union(*run))))
                covered.update(*run)
                run = []
            if stmt is not None:
                for field in _BLOCKS:
                    visit(stmt, getattr(stmt, field, None) or [], field == "body")
                for handler in getattr(stmt, "handlers", ()):
                    visit(handler, handler.body, True)

    visit(tree, tree.body, False)
    return out + [(line, [line]) for line in sorted(missing - covered)]


def unrun_lines(sources, ran, exempt=None):
    """One report, ``file:line (lines)``, per branch of ``sources`` (name ->
    text) whose executable lines did not run (``ran``: name -> lines that
    ran) and are not exempt (``exempt``: (name, qualified function) ->
    reason)."""
    exempt = exempt or {}
    out = []
    for name, source in sorted(sources.items()):
        tree = ast.parse(source)
        candidates = executable_lines(compile(source, name, "exec")) \
            - exempt_lines(tree, {fn for file, fn in exempt if file == name})
        missing = candidates - ran.get(name, set())
        out += [f"{name}:{line} ({', '.join(map(str, lines))})"
                for line, lines in sorted(unrun_branches(tree, candidates, missing))]
    return out


def traced(run, directory):
    """Run ``run()`` with a line tracer on the files in ``directory``;
    returns (its result, file name -> the lines that ran)."""
    directory = os.path.realpath(directory)
    ran = defaultdict(set)
    mine = {}

    def local(frame, event, arg):
        if event == "line":
            ran[os.path.basename(frame.f_code.co_filename)].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        path = frame.f_code.co_filename
        if path not in mine:
            mine[path] = os.path.dirname(os.path.realpath(path)) == directory
        return local if mine[path] else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, ran


def fresh_package(run):
    """Call ``run()`` with the package's modules out of ``sys.modules``, so
    that it imports them afresh; the modules imported before are put back
    afterwards."""
    def ours(name):
        return name == "irismatch" or name.startswith("irismatch.")

    saved = {name: mod for name, mod in sys.modules.items() if ours(name)}
    for name in saved:
        del sys.modules[name]
    try:
        return run()
    finally:
        for name in [n for n in sys.modules if ours(n)]:
            del sys.modules[name]
        sys.modules.update(saved)


# ---------------------------------------------------------------- the session


CONFIG = """# one file for every command of the session; each reads its own keys
seed = 5
identities = 4
images_per_identity = 3
height = 16
width = 32

rotation_range = 2
noise_sigma = 0.02
occlusion_prob = 0.5
bank_kernels = 3x3,3x5
matcher_channels = 4,4
matcher_strides = 2,2
matcher_dropout = 0.1,0
stage1_epochs = 1
batch_size = 6
selection_far = 0.25
far = 0.1,0.5
"""


def session(tmp):
    """The commands of the session, each checked for its exit code."""
    from irismatch import checkpoint, iris_io, synthetic
    from irismatch.data import IdentityStore, rng_stream
    from irismatch.matcher import IrisMatchModel, ModelConfig

    def path(name):
        return str(tmp / name)

    with open(path("session.cfg"), "w") as fh:
        fh.write(CONFIG)
    with open(path("curve.csv"), "w") as fh:
        fh.write("threshold,far,tar\n0.75,0.5,0.5\n\n-inf,1,1\n")
    # python -m irismatch.cli, before anything imports the module
    argv = sys.argv
    sys.argv = ["irismatch", "roc", "--roc_csv", path("curve.csv"), "--far", "0.25,1",
                "--out_dir", path("roc")]
    try:
        with pytest.raises(SystemExit) as done:
            runpy.run_module("irismatch.cli", run_name="__main__", alter_sys=True)
    finally:
        sys.argv = argv
    assert done.value.code == 0
    from irismatch.cli import main

    def run(command, *args):
        """``irismatch <command> --config session.cfg <args>``'s exit code."""
        return main([command, "--config", path("session.cfg")] + list(args))

    assert run("synth", "--data_dir", path("data")) == 0
    assert run("synth", "--data_dir", path("tall"), "--height", "20") == 0
    # identities of 1, 3, 2 and 6 images: seed 1 trains on the 3 and the 6,
    # with fewer imposter than authentic pairs
    full = synthetic.generate(synthetic.SynthSpec(identities=4, images_per_identity=6,
                                                  height=16, width=32, seed=6))
    keep = np.concatenate([g[:k] for g, k in zip(full.groups(), (1, 3, 2, 6))])
    synthetic.write_store(IdentityStore(full.images[keep], full.identity_of[keep],
                                        full.identity_ids), path("uneven"))

    for mode, bias, data in (("unit-circle", "true", "data"), ("relu", "true", "data"),
                             ("elu", "true", "data"), ("unit-circle", "false", "uneven")):
        args = ["--data_dir", path(data), "--out_dir", path(f"{mode}-{bias}"),
                "--bank_nonlinearity", mode, "--bank_bias", bias, "--seed", "1"]
        with (pytest.warns(UserWarning, match="imposter pairs for")
              if data == "uneven" else contextlib.nullcontext()):
            assert run("train", *args, "--epochs", "1") == 0
        assert run("train", *args, "--epochs", "2", "--resume", "true") == 0
    run_dir = path("unit-circle-true")
    ckpt = os.path.join(run_dir, "best.ckpt")
    poisoned = checkpoint.load_model(os.path.join(run_dir, "last.ckpt"))
    poisoned.matcher.head_bias.data[:] = np.nan
    checkpoint.save_model(poisoned, os.path.join(run_dir, "last.ckpt"))
    assert run("train", "--data_dir", path("data"), "--out_dir", run_dir, "--seed", "1",
               "--epochs", "3", "--resume", "true") == 3
    # at lr 1e100 the first epoch's one step overflows, so its validation scores are not finite
    with pytest.warns(RuntimeWarning):
        assert run("train", "--data_dir", path("data"), "--out_dir", path("diverged"),
                   "--seed", "1", "--epochs", "2", "--lr", "1e100", "--batch_size", "512") == 3

    for data in ("data", "tall"):
        assert run("eval", "--checkpoint", ckpt, "--data_dir", path(data),
                   "--out_dir", path(f"e-{data}")) == 0
    assert run("roc", "--roc_csv", os.path.join(path("e-data"), "roc.csv"),
               "--out_dir", path("roc")) == 0

    # a PGM of another height, with a comment in its header, as other tools write
    taller = synthetic.read_store(path("tall")).images[1]
    with open(path("query.pgm"), "wb") as fh:
        fh.write(b"P5\n# from a camera\n32 20\n255\n")
        fh.write(np.round(taller * 255).astype(np.uint8).tobytes())
    assert run("match", "--checkpoint", ckpt, "--threshold", "0.4", "--out_dir", path("m"),
               path("query.pgm"), os.path.join(path("data"), "identity_000", "img_000")) in (0, 1)

    # a code with a partly masked row puts the pairs it is the second code of
    # on match_pairs' per-shift path, and the others stay on the row-level one
    store = synthetic.read_store(path("data"))
    store.images[-1] = with_a_masked_null(store.images[-1], row=4)
    synthetic.write_store(store, path("null"))
    assert run("baseline", "--data_dir", path("null"), "--max_shift", "4",
               "--out_dir", path("b")) == 0

    # the paper's geometry: block 0 runs in row tiles
    checkpoint.save_model(IrisMatchModel(ModelConfig(), rng=rng_stream(0, 0)), path("full.ckpt"))
    images = [path("a.pgm"), path("b.pgm")]
    for k, image in enumerate(images):
        iris_io.write_pgm(image, rng_stream(0, 1, k).uniform(size=(110, 512)))
    assert run("match", "--checkpoint", path("full.ckpt"), "--out_dir", path("m"),
               *images) in (0, 1)


def test_the_session_runs_every_line(tmp_path):
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert len(sources) > 10
    with warnings.catch_warnings():
        # toy stores cannot resolve small FARs, and say so
        warnings.simplefilter("ignore", UserWarning)
        _, ran = traced(lambda: fresh_package(lambda: session(tmp_path)), PACKAGE)
    missing = unrun_lines(sources, ran, EXEMPT)
    assert missing == [], ("no command ran these branches (file:line of the branch, then "
                           "its lines):\n" + "\n".join(missing))


TOY = """\
def f(x):
    if x:
        return 1
    return 2


def g():
    return 3


def h(x):
    if x < 0:
        print(x)
        raise ValueError(x)
    try:
        return int(x)
    except TypeError:
        return 0


class K:
    @property
    def p(self):
        return 1

    @p.setter
    def p(self, v):
        self.v = v
        return
"""


def test_unrun_lines_names_each_branch_and_spares_error_paths(tmp_path):
    (tmp_path / "toy.py").write_text(TOY)

    def run():
        spec = importlib.util.spec_from_file_location("toy", tmp_path / "toy.py")
        toy = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(toy)
        return toy.f(0), toy.h(1), toy.K().p

    result, ran = traced(run, tmp_path)
    assert result == (2, 1, 1)
    assert unrun_lines({"toy.py": TOY}, ran) == ["toy.py:2 (3)", "toy.py:7 (8)",
                                                "toy.py:27 (28, 29)"]
    assert unrun_lines({"toy.py": TOY}, ran, {("toy.py", "K.p.setter"): "a reason",
                                              ("toy.py", "g"): "a reason"}) == ["toy.py:2 (3)"]
