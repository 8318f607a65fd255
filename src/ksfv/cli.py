"""Command line entry point.

Subcommands:
  run <config>     integrate one configuration and write its artifacts
  sweep <config>   run an (m, q) phase-diagram sweep
  kernels          self-verify the analytic kernels, emit a JSON report
  ladder <run-dir> rebuild a truncation ladder from a stored run series

Exit codes: 0 on success; 1 on configuration errors, invalid option values
(among them a `ladder --K` or `--n-max` outside `diagnostics.ladder_levels`'
domain), run directories `ladder` cannot read and outputs that cannot be
written; 2 when a run's solver fails (a solve that does not converge within
its cap), when a completed sweep contains failed jobs, or when the kernel
self-check fails.  Each error is reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, SweepConfig, parse_config
from .diagnostics import DiagnosticsConfig, ladder_for_run, ladder_levels
from .kernels import self_check
from .outputs import (METADATA_JSON, SWEEP_JSON, emit_run_outputs, rebuild_run_ladder,
                      write_ladder_csv, write_sweep_json)
from .sweep import execute_run, run_sweep


def _load_config(text: str, kind, **overrides):
    """Parse a config document of the given kind.  The overrides that are not
    None replace its top-level keys (a sweep's `seed` is its template's) and
    pass the same checks.  Any problem exits with code 1."""
    overrides = {k: v for k, v in overrides.items() if v is not None}
    try:
        cfg = parse_config(text)
        if overrides and isinstance(cfg, kind):
            doc = json.loads(text)
            if kind is SweepConfig and "seed" in overrides:
                doc["template"]["seed"] = overrides.pop("seed")
            cfg = parse_config(json.dumps({**doc, **overrides}))
    except ConfigError as e:
        print("invalid config:", *e.errors, sep="\n  ", file=sys.stderr)
        raise SystemExit(1)
    if not isinstance(cfg, kind):
        print(f"expected a {kind.__name__} document", file=sys.stderr)
        raise SystemExit(1)
    return cfg


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except FileNotFoundError:
        print(f"config file not found: {path}", file=sys.stderr)
        raise SystemExit(1)
    except (OSError, UnicodeDecodeError) as e:  # a directory, unreadable, not UTF-8
        raise SystemExit(_error(f"config file {path} cannot be read", e))


def _invalid_option(message: str) -> int:
    print(f"invalid option: {message}", file=sys.stderr)
    return 1


def _error(prefix: str, e: Exception) -> int:
    print(f"{prefix}: {type(e).__name__}: {e}", file=sys.stderr)
    return 1


def _make_out_dir(path: str) -> Path:
    """The output directory, created before any work is done; exits with
    code 1 when it cannot be."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise SystemExit(_error("cannot write output", e))
    return out_dir


def _cmd_run(args) -> int:
    cfg: RunConfig = _load_config(_read_text(args.config), RunConfig, seed=args.seed)
    out_dir = _make_out_dir(args.out)

    try:
        result, tracker = execute_run(cfg)
    except RuntimeError as e:
        print(f"solver failed: {e}", file=sys.stderr)
        return 2
    ladder = ladder_for_run(result.sample_times, result.u_samples,
                            cfg.grid.cell_volume, cfg.model, cfg.diagnostics,
                            result.running_max_sup_u)
    emit_run_outputs(cfg, result, tracker, ladder, out_dir)
    print(f"termination: {result.termination} at t={result.final_state.t:.6g} "
          f"({result.steps} steps; diffusion: {result.newton_corrections} corrections, "
          f"{result.u_solve_iters} CG iterations; "
          f"v-solve: {result.v_solve_iters} corrections); artifacts in {out_dir}")
    return 0


def _cmd_sweep(args) -> int:
    cfg: SweepConfig = _load_config(_read_text(args.config), SweepConfig,
                                    workers=args.workers, seed=args.seed)
    out_dir = _make_out_dir(args.out)

    result = run_sweep(cfg)
    write_sweep_json(result, out_dir / SWEEP_JSON)
    n_fail = len(result.failures)
    print(f"{len(result.points)} points swept, {n_fail} failures; "
          f"artifacts in {out_dir}")
    return 2 if n_fail else 0


def _cmd_kernels(args) -> int:
    if args.tuples < 1:
        return _invalid_option(f"--tuples must be >= 1, got {args.tuples}")
    if args.seed < 0:
        return _invalid_option(f"--seed must be >= 0, got {args.seed}")
    report = self_check(tuples=args.tuples, seed=args.seed)
    text = json.dumps(report, indent=2)
    if args.out:
        try:
            Path(args.out).write_text(text + "\n")
        except OSError as e:
            return _error("cannot write output", e)
    else:
        print(text)
    return 0 if report["all_pass"] else 2


def _cmd_ladder(args) -> int:
    try:
        ladder_levels(args.K, args.n_max)
    except ValueError as e:
        return _invalid_option(str(e))
    run_dir = Path(args.run_dir)
    if not (run_dir / METADATA_JSON).exists():
        print(f"no run metadata found in {run_dir}", file=sys.stderr)
        return 1
    try:
        ladder = rebuild_run_ladder(run_dir, args.K, args.n_max)
    except (OSError, ValueError, KeyError, TypeError) as e:
        return _error(f"unreadable run in {run_dir}", e)
    out = Path(args.out) if args.out else run_dir / "ladder_custom.csv"
    try:
        write_ladder_csv(ladder, out)
    except OSError as e:
        return _error("cannot write output", e)
    print(f"ladder written to {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ksfv", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one configuration")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="ksfv-out")
    p_run.add_argument("--seed", type=int, default=None)

    p_sweep = sub.add_parser("sweep", help="run an (m, q) sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--out", default="ksfv-out")
    p_sweep.add_argument("--workers", type=int, default=None)
    p_sweep.add_argument("--seed", type=int, default=None)

    p_k = sub.add_parser("kernels", help="kernel self-verification report")
    p_k.add_argument("--out", default=None)
    p_k.add_argument("--tuples", type=int, default=200)
    p_k.add_argument("--seed", type=int, default=0)

    p_l = sub.add_parser("ladder", help="rebuild a ladder from a run artifact")
    p_l.add_argument("run_dir")
    p_l.add_argument("--K", type=float, required=True)
    p_l.add_argument("--n-max", type=int, default=DiagnosticsConfig.ladder_n_max)
    p_l.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep,
                "kernels": _cmd_kernels, "ladder": _cmd_ladder}
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
