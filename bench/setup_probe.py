"""Set-up of one workload in a fresh interpreter, timed by run.py.

Imports ksfv, parses the first run's config and builds its initial data and
diagnostics tracker (for the sweep: parses the sweep config, up to the call
into run_sweep), then prints "ready".  run.py times the interval from
starting this interpreter to reading that line.

    python3 bench/setup_probe.py <workload> <seed> [--short]
"""

import json
import sys

import workloads
from ksfv.diagnostics import DiagnosticsTracker


def main(argv: list[str]) -> None:
    w = workloads.make_workload(argv[0], int(argv[1]), short="--short" in argv)
    if w.sweep_doc is not None:
        workloads.parse_config(json.dumps(w.sweep_doc))
    else:
        cfg = workloads.parse_config(json.dumps(w.legs[0].doc))
        initial = cfg.make_initial()
        DiagnosticsTracker(cfg.model, cfg.diagnostics, initial.v0)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
