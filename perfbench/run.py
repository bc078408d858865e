"""Benchmark for the mdiw package.

Usage (from the repository root):

    python3 perfbench/run.py --workload attack_search --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads: attack_search, cli_scan, separable_sampling (``all`` runs each in
its own process, one after the other).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics from a
traced run and the tracing overhead.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  See
perfbench/README.md for what each number means.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported, here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import timing  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("attack_search", "cli_scan", "separable_sampling")
SETUP_PROBES = 9


def _parse(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _load_package():
    """Import mdiw from this checkout's src/, and nowhere else."""
    if not (SRC / "mdiw" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'mdiw'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mdiw

    if Path(mdiw.__file__).resolve().parent != (SRC / "mdiw").resolve():
        sys.exit(f"perfbench: imported mdiw from {mdiw.__file__}, not from {SRC}")


def _machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time over several fresh interpreters, started one at a time.

    Returns the median in reference seconds (each probe scaled by the
    calibration kernel run just before and after it) and the raw median.
    """
    probe = str(HERE / "setup_probe.py")
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        before = timing.calibrate(reps=5)
        done = subprocess.run(
            [sys.executable, probe, workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        after = timing.calibrate(reps=5)
        seconds = float(done.stdout.strip().splitlines()[-1])
        raw.append(seconds)
        scaled.append(seconds * timing.CAL_REF_S / (0.5 * (before + after)))
    return statistics.median(scaled), statistics.median(raw)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_untraced(wl, args):
    p = timing.play(wl, args.seconds)
    setup_s, setup_raw = _probe_setup(args.workload, args.seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "round_s": _metric(p.median(), "s"),
    }
    figures = {name: _metric(v, unit) for name, (v, unit) in wl.figures(p).items()}
    figures["raw_setup_s"] = _metric(setup_raw, "s")
    figures["raw_round_s"] = _metric(p.raw_median(), "s")
    figures["calibration_s"] = _metric(statistics.median(p.cals), "s")
    return p.rounds, metrics, figures


def run_traced(wl, args):
    """Untraced rounds, then the same rounds again under tracing; per-layer metrics."""
    half = args.seconds / 2.0
    plain = timing.play(wl, half)
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        traced = timing.play(wl, half, limit=len(plain), wrap=lambda: tracer.span("bench.round"))
    finally:
        restore()
    n = len(traced)
    base = statistics.median(plain.normalized()[:n])
    speed = timing.CAL_REF_S / statistics.median(traced.cals)
    metrics = layer_metrics(tracing.span_stats(tracer), traced.rounds, n, speed)
    metrics["trace.overhead_pct"] = _metric(100.0 * (traced.median() / base - 1.0), "%")
    metrics["trace.spans"] = _metric(len(tracer.start) / n, "count")
    path = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
    tracer.write(path)
    print(f"trace: {len(tracer.start)} spans over {n} rounds written to {path.relative_to(ROOT)}")
    return plain.rounds + traced.rounds, metrics


def layer_metrics(stats: dict, traced_rounds, n_rounds: int, speed: float) -> dict:
    """Per-layer metrics from span statistics, per traced round unless named per call.

    ``speed`` converts measured seconds to reference seconds, as for the
    end-to-end figures.
    """

    def total(prefix: str, key: str) -> float:
        return sum(s[key] for name, s in stats.items() if name.startswith(prefix))

    def per_call(unit_scale: float, *names: str) -> float:
        calls = sum(stats[n]["calls"] for n in names if n in stats)
        seconds = sum(stats[n]["seconds"] for n in names if n in stats)
        return unit_scale * speed * seconds / calls if calls else 0.0

    evaluations = sum(o.evaluations for ops in traced_rounds for o in ops)
    search_s = speed * (stats.get("attack.attack", {}).get("seconds", 0.0)
                        + stats.get("attack.biseparable_attack", {}).get("seconds", 0.0))
    m = {
        "linalg.calls": (total("linalg.", "calls") / n_rounds, "count"),
        "linalg.as_matrix_calls": (total("linalg.as_matrix", "calls") / n_rounds, "count"),
        "states.density_matrices_built": (total("states.DensityMatrix", "calls") / n_rounds, "count"),
        "witness.decompose_ms": (per_call(1e3, "witness.decompose"), "ms"),
        "witness.reconstruct_ms": (per_call(1e3, "witness.reconstruct"), "ms"),
        "game.fast_table_2p_ms": (per_call(1e3, "game.fast_entangled_table[2p]"), "ms"),
        "game.fast_table_3p_ms": (per_call(1e3, "game.fast_entangled_table[3p]"), "ms"),
        "game.mdi_value_us": (per_call(1e6, "game.mdi_value"), "us"),
        "game.simulate_entangled_ms": (per_call(1e3, "game.simulate_entangled"), "ms"),
        "game.apply_uniform_loss_ms": (per_call(1e3, "game.apply_uniform_loss"), "ms"),
        "game.table_to_csv_ms": (per_call(1e3, "game.table_to_csv"), "ms"),
        "game.simulate_separable_ms": (per_call(1e3, "game.simulate_separable"), "ms"),
        "game.povms_built": (total("game.POVM", "calls") / n_rounds, "count"),
        "attack.sampler_ms": (
            per_call(1e3, "attack.random_separable_strategy", "attack.random_biseparable_strategy"),
            "ms",
        ),
        "attack.evaluations": (evaluations / n_rounds, "count"),
        "attack.evals_per_s": (evaluations / search_s if search_s else 0.0, "1/s"),
        "cli.decompose_ms": (per_call(1e3, "cli.main[decompose]"), "ms"),
        "cli.scan_ms": (per_call(1e3, "cli.main[scan]"), "ms"),
        "cli.simulate_ms": (per_call(1e3, "cli.main[simulate]"), "ms"),
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (speed * total(f"{layer}.", "self") / n_rounds, "s")
    return {name: _metric(v, unit) for name, (v, unit) in m.items()}


def run_one(args) -> int:
    _load_package()
    import reference
    import workloads

    machine = _machine()
    print("machine: " + json.dumps(machine))
    broken = reference.self_test()
    wl = workloads.build(args.workload, args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    # Work and calibration share one CPU, so the kernel sees the contention the work sees.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=OUT) as workdir:
        wl.prepare(Path(workdir))
        figures = {}
        if args.trace:
            rounds, metrics = run_traced(wl, args)
        else:
            rounds, metrics, figures = run_untraced(wl, args)
    ops = [o for r in rounds for o in r]
    failed = sum(o.failed for o in ops)
    problems = [f"reference check accepts a corrupted input: {name}" for name in broken] + wl.problems
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds, "
          f"{len(ops)} operations attempted, {failed} failed")
    for name, m in {**metrics, **figures}.items():
        print(f"  {name:30s} {m['value']:.6g} {m['unit']}")
    for line in problems:
        print(f"  INCORRECT {line}")
    result = {"correct": not problems, "attempted": len(ops), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one combined result line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = done.returncode
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    if status:
        return status
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
