"""Benchmark of irismatch: end-to-end metrics per workload, per-layer metrics
from a separate traced run, and a correctness gate on every run.

One workload, as the last stdout line a JSON result
(``{"correct", "attempted", "failed", "metrics"}``)::

    python3 perfbench/run.py --workload eval-full --seed 0 --seconds 26 --trace 0

Every workload, untraced and traced, as one table (optionally saved)::

    python3 perfbench/run.py --all --seed 0 --seconds 26 [--out FILE]

Run from the root of a source checkout: the program is imported from its
``src`` directory, never from an installed copy.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
# Set-up is timed in two windows, one before and one after the timed calls,
# because the host's speed drifts over about ten seconds.  In each window it
# is repeated until it has taken SETUP_SECONDS (3 to 25 times); the median of
# both windows' times is reported.
SETUP_SECONDS = 1.5
SETUP_REPEATS = (3, 25)
# The host's speed drifts by up to a quarter over minutes, and every time the
# program takes drifts with it.  So an untraced run also times a fixed probe
# (HostProbe), interleaved with its set-ups and calls, and reports its times
# as they would be on a host where the probe's median is PROBE_REF_S: each
# time is multiplied by PROBE_REF_S / the run's median probe time.
# PROBE_REF_S is the probe's median on the reference host (README.md).
PROBE_REF_S = 0.0125
# share of each set-up and call time spent probing after it (at least one probe)
PROBE_SHARE = 0.05
# probing before the first set-up and after the last
PROBE_EDGE_SECONDS = 0.3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads():
    """Cap BLAS threads at the number of usable cores; call before importing numpy."""
    n = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(n)


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import irismatch
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import irismatch from {src}: {exc}")
    if Path(irismatch.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: imported irismatch from {irismatch.__file__}, not {src}")
    return irismatch


def _git_commit():
    """HEAD of the checkout, or 'unknown' outside a git repository (git does
    not look above the checkout)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def fingerprint(workload=None, seed=None):
    """What makes results from different commits comparable."""
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "geometry": workload.geometry() if workload else None,
        "workload": workload.name if workload else None,
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


class HostProbe:
    """A fixed mix of the kinds of work irismatch does: a Python loop, row
    FFTs, shifted bit comparisons and BLAS matrix products.  It calls nothing
    of irismatch, so no change to the program changes its work."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.rows = rng.standard_normal((110, 512))
        self.bits = rng.random((2, 110, 1024)) > 0.5
        self.mat = rng.standard_normal((256, 256))
        self.samples = []

    def once(self):
        import numpy as np

        t0 = time.perf_counter()
        total = 0
        for i in range(40000):
            total += i * i
        for _ in range(4):
            np.fft.ifft(np.fft.fft(self.rows, axis=1), axis=1)
        a, b = self.bits
        for _ in range(6):
            for k in range(-8, 9):
                np.count_nonzero(np.roll(a, k, axis=1) ^ b)
        for _ in range(8):
            self.mat @ self.mat
        self.samples.append(time.perf_counter() - t0)

    def run_for(self, seconds):
        """Probes for about ``seconds``, at least one."""
        end = time.perf_counter() + seconds
        self.once()
        while time.perf_counter() < end:
            self.once()

    def scale(self):
        """Factor that turns this run's times into reference-host times."""
        return PROBE_REF_S / statistics.median(self.samples)


def at_reference(value, unit, scale):
    """A measured figure as it would be on the reference host."""
    if unit in ("s", "ms"):
        return value * scale
    if unit == "1/s":
        return value / scale
    return value


# ---------------------------------------------------------------- running


@dataclass
class Done:
    """One timed call, already checked: its inputs are not kept."""
    ops: int
    wall_s: float
    failed: int
    messages: list
    figures: dict
    sources: frozenset


def run_calls(wl, state, calls, seconds=None, limit=None, tracer=None, probe=None):
    """Timed calls from the iterator ``calls`` until the next would likely end
    nearer past ``seconds`` than the last ended before it (always at least
    one call), or exactly ``limit`` calls.  Each
    call's output goes through the correctness gate right after its timing;
    an exception fails its ops.  With a ``probe``, the host is probed after
    each call."""
    done = []
    start = time.perf_counter()
    for call in calls:
        if limit is not None:
            if len(done) == limit:
                break
        elif done and (time.perf_counter() - start
                       + statistics.fmean(d.wall_s for d in done) / 2) > seconds:
            break
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(state, call)
            else:
                with tracer.span("bench.call"):
                    out = wl.run(state, call)
        except Exception as exc:  # the run goes on; the gate counts the ops as failed
            wall = time.perf_counter() - t0
            traceback.print_exc()
            failed, messages = call.ops, [f"{call.key}: {type(exc).__name__}: {exc}"]
            figures = {}
        else:
            wall = time.perf_counter() - t0
            failed, messages = wl.check(state, call, out)
            figures = wl.figures(out)
        done.append(Done(call.ops, wall, failed, messages, figures, call.sources))
        if probe is not None:
            probe.run_for(PROBE_SHARE * wall)
    return done


def gate(done):
    """(attempted ops, failed ops, failure messages) of checked calls."""
    return (sum(d.ops for d in done), sum(d.failed for d in done),
            [m for d in done for m in d.messages])


def reused_calls(done):
    """Calls that read an input an earlier call of the run had read."""
    seen, reused = set(), 0
    for d in done:
        reused += not seen.isdisjoint(d.sources)
        seen |= d.sources
    return reused


def timed_setups(wl, work, probe):
    """One window of repeated set-ups, each followed by probing: (their
    times, the last state)."""
    times = []
    least, most = SETUP_REPEATS
    while len(times) < least or (sum(times) < SETUP_SECONDS and len(times) < most):
        t0 = time.perf_counter()
        state = wl.setup(work)
        times.append(time.perf_counter() - t0)
        probe.run_for(PROBE_SHARE * times[-1])
    return times, state


def measure(wl, seed, seconds, work):
    """Untraced run: the end-to-end metrics, at reference-host speed."""
    probe = HostProbe()
    probe.run_for(PROBE_EDGE_SECONDS)
    setup_times, state = timed_setups(wl, work, probe)
    done = run_calls(wl, state, wl.calls(state, seed), seconds, probe=probe)
    del state
    setup_times += timed_setups(wl, work, probe)[0]
    probe.run_for(PROBE_EDGE_SECONDS)
    scale = probe.scale()
    walls = [d.wall_s for d in done]
    measured = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_per_s": (sum(d.ops for d in done) / sum(walls), "1/s"),
        "op_p50_ms": (1000 * statistics.median(d.wall_s / d.ops for d in done), "ms"),
    }
    print(f"{wl.name:<16} {'host_probe_ms':<22} {1000 * statistics.median(probe.samples):>14.6g}"
          f" ms  ({len(probe.samples)} probes; times below x {scale:.4f}, measured in brackets)")
    metrics = {}
    for name, (value, unit) in {**measured, **wl.run_figures(done)}.items():
        alias = f"  (= {wl.aliases[name]})" if name in wl.aliases else ""
        metrics[name] = (at_reference(value, unit, scale), unit)
        print(f"{wl.name:<16} {name:<22} {metrics[name][0]:>14.6g} {unit}  [{value:.6g}]{alias}")
    metrics = {name: metrics[name] for name in measured}
    print(f"{wl.name:<16} {'calls':<22} {len(done):>14d}  (ops per call {done[0].ops}; "
          f"measured call seconds {' '.join(f'{w:.3f}' for w in walls)})")
    print(f"{wl.name:<16} {'reused_calls':<22} {reused_calls(done):>14d}  "
          f"(calls that read an input an earlier call read)")
    return metrics, gate(done)


def measure_traced(wl, seed, seconds, work):
    """An untimed first call, so that neither pass pays for a cold start; an
    untraced pass for half the time left; then the same calls traced.  Gives
    the per-layer metrics and the tracing overhead."""
    from tracing import Tracer, layer_metrics, report, unit_of

    state = wl.setup(work)
    calls = wl.calls(state, seed)
    warm = run_calls(wl, state, calls, limit=1)
    plain = run_calls(wl, state, calls, max(seconds - warm[0].wall_s, 0.0) / 2)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            state = wl.setup(work)
        traced = run_calls(wl, state, itertools.islice(wl.calls(state, seed), 1, None),
                           limit=len(plain), tracer=tracer)
    finally:
        tracer.uninstall()
    untraced_s = sum(d.wall_s for d in plain)
    traced_s = sum(d.wall_s for d in traced)
    layers = layer_metrics(tracer, untraced_s, traced_s)
    report(tracer.spans, sys.stdout)
    print(f"tracing overhead: {traced_s - untraced_s:.3f} s on {untraced_s:.3f} s untraced "
          f"({100 * (traced_s / untraced_s - 1):.1f}%), {len(plain)} calls")
    metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    return metrics, gate(warm + plain + traced)


def run_workload(name, seed, seconds, trace, size="full", reference_dir=None,
                 work_root=WORK_ROOT):
    """Run one workload; returns the result dict printed as the last line."""
    import workloads

    by_name = {wl.name: wl for wl in workloads.all_workloads(size, reference_dir)}
    if name not in by_name:
        raise SystemExit(f"perfbench: unknown workload {name!r}; choose from {sorted(by_name)}")
    wl = by_name[name]
    wl.ref  # a missing or mismatched reference fails before anything is timed
    print("fingerprint " + json.dumps(fingerprint(wl, seed), sort_keys=True))
    work = Path(work_root) / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        with warnings.catch_warnings():
            # tiny validation and eval sets cannot resolve small FARs; that is expected
            warnings.filterwarnings("ignore", message=r".*cannot resolve FAR")
            if trace:
                metrics, (attempted, failed, messages) = measure_traced(wl, seed, seconds, work)
            else:
                metrics, (attempted, failed, messages) = measure(wl, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            Path(work_root).rmdir()
        except OSError:
            pass
    print(f"{wl.name:<16} {'ops_attempted':<22} {attempted:>14d}")
    print(f"{wl.name:<16} {'ops_failed':<22} {failed:>14d}")
    if failed or messages:
        print(f"perfbench: CORRECTNESS GATE FAILED on {wl.name}: {failed} of {attempted} ops",
              file=sys.stderr)
        for line in messages[:20]:
            print(f"  {line}", file=sys.stderr)
    return {"correct": failed == 0 and not messages, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(seed, seconds, out_path):
    """Every workload in its own process, untraced then traced; one table."""
    import workloads

    results = {}
    ok = True
    for wl in workloads.all_workloads():
        results[wl.name] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                raise SystemExit(f"perfbench: {wl.name} --trace {trace} exited "
                                 f"{proc.returncode} without a result")
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and proc.returncode == 0
            results[wl.name]["per_layer" if trace else "end_to_end"] = result
            print(f"==== {wl.name}: {'traced' if trace else 'untraced'} run")
            print("\n".join(lines[:-1]))
    print(f"\n{'workload':<16} {'metric':<14} {'value':>14} unit   ops_attempted ops_failed")
    for name, entry in results.items():
        res = entry["end_to_end"]
        for metric, v in res["metrics"].items():
            print(f"{name:<16} {metric:<14} {v['value']:>14.6g} {v['unit']:<6} "
                  f"{res['attempted']:>13d} {res['failed']:>10d}")
    if out_path:
        record = {"fingerprint": fingerprint(seed=seed), "seconds": seconds, "results": results}
        Path(out_path).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name (see BENCHMARK.json)")
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --all: write every result to this JSON file")
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    cap_blas_threads()
    import_program()
    if args.all:
        return run_all(args.seed, args.seconds, args.out)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
