"""ksfv benchmark: run one workload for a fixed time and report its metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

A run repeats whole rounds of the workload (see workloads.py) while another
round still fits in --seconds, and always completes at least one.  Each
round's artifacts are checked for correctness.  With --trace 0 the last
line of standard output is a JSON object with the end-to-end metrics
(medians over rounds; set-up is timed in nine fresh interpreters); with
--trace 1 it carries the per-layer metrics of the traced rounds, which
follow one untraced round that gives the tracing overhead.  README.md maps
the metrics to the layers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

try:
    import workloads
    import tracing
except ImportError as e:  # e.g. a directory without the ksfv sources
    sys.exit(f"cannot load ksfv: {e}")

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 9


@dataclass
class Round:
    wall: float
    cpu: float
    steps: int
    failed: int
    problems: list
    spans: list
    nbytes: int


def _cpu_seconds() -> float:
    """CPU time of this process and of its children that have been waited
    for (the sweep's pool workers are joined inside run_sweep)."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def measure_round(tracer, w, out_dir: Path) -> Round:
    artifacts = out_dir / "artifacts"
    tracer.begin_round(out_dir / "spans")
    c0, t0 = _cpu_seconds(), time.perf_counter()
    failed = workloads.run_round(w, artifacts)
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - c0
    spans = tracer.end_round()
    problems = workloads.check_round(w, artifacts, failed)
    nbytes = sum(p.stat().st_size for p in artifacts.rglob("*") if p.is_file())
    if w.sweep_doc is not None:
        print(f"  (1, 1) point: {workloads.classical_label(artifacts)} "
              "(reported, not asserted)")
    shutil.rmtree(out_dir)
    r = Round(wall, cpu, tracing.point_steps(spans), len(failed), problems,
              spans, nbytes)
    print(f"  round: wall {r.wall:.3f} s, cpu {r.cpu:.3f} s, {r.steps} steps, "
          f"{r.failed} failed, checks {'ok' if not problems else problems}",
          flush=True)
    return r


def setup_seconds(name: str, seed: int, short: bool) -> list[float]:
    """Fresh interpreter to the first time step, SETUP_REPEATS times."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)]
    if short:
        cmd.append("--short")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as p:
            line = p.stdout.readline()
            times.append(time.perf_counter() - t0)
            p.communicate(timeout=120)
        if line.strip() != "ready" or p.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {p.returncode})")
    return times


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="small grids and horizons, for the benchmark's own tests")
    args = ap.parse_args(argv)

    w = workloads.make_workload(args.workload, args.seed, short=args.short)
    out_root = workloads.ROOT / ".bench-out"
    run_dir = out_root / f"{args.workload}-{os.getpid()}"
    tracer = tracing.Tracer()
    tracer.install(layers=False)
    start = time.perf_counter()

    def room(rounds: list[Round]) -> bool:
        return time.perf_counter() - start + rounds[-1].wall <= args.seconds

    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    try:
        plain = [measure_round(tracer, w, run_dir / "r0")]
        traced = []
        if args.trace:
            tracer.install(layers=True)
            traced.append(measure_round(tracer, w, run_dir / "r1"))
            while room(traced):
                traced.append(measure_round(tracer, w, run_dir / f"r{len(traced) + 1}"))
        else:
            while room(plain):
                plain.append(measure_round(tracer, w, run_dir / f"r{len(plain)}"))
        peak_rss = _peak_rss_mb()
    finally:
        tracer.uninstall()
        shutil.rmtree(run_dir, ignore_errors=True)

    rounds = plain + traced
    med = statistics.median
    if args.trace:
        workers = w.sweep_doc["workers"] if w.sweep_doc is not None else 1
        per_round = [tracing.layer_metrics(r.spans, r.wall, workers) for r in traced]
        metrics = {k: (med([m[k][0] for m in per_round]), unit)
                   for k, (_, unit) in per_round[0].items()}
        metrics["outputs.bytes"] = (med([r.nbytes for r in traced]), "bytes")
        metrics["trace.overhead_s"] = (med([r.wall for r in traced])
                                       - med([r.wall for r in plain]), "s")
        tracer.write(out_root / f"trace-{args.workload}-seed{args.seed}-{os.getpid()}.json")
        p = tracing.tail_percentile(int(metrics["solver.step.calls"][0]))
        print(f"  solver.step.ms_tail is the {'median' if p is None else f'p{p:g}'} "
              f"of {int(metrics['solver.step.calls'][0])} steps")
    else:
        setups = setup_seconds(args.workload, args.seed, args.short)
        metrics = {
            "wall_s": (med([r.wall for r in plain]), "s"),
            "cpu_s": (med([r.cpu for r in plain]), "s"),
            "setup_s": (med(setups), "s"),
            "steps": (int(med([r.steps for r in plain])), "count"),
            "step_ms": (med([1e3 * r.wall / r.steps for r in plain]), "ms"),
            "peak_rss_mb": (peak_rss, "MB"),
        }

    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    problems = [p for r in rounds for p in r.problems]
    print(json.dumps({
        "correct": not problems,
        "attempted": w.operations * len(rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
