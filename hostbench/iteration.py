"""One benchmark iteration, in its own process.

Started by ``run.py`` from the root of a checkout, with ``src`` on
``PYTHONPATH``.  Every user invocation of ``repro`` starts a new
process, so every iteration does too: a module-level cache that survived
between in-process iterations would be a speed-up users never get.

Modes:

* ``setup`` - build the workload's inputs, then stop (a set-up sample);
* ``run``   - set up, run one timed iteration, check its outputs;
* ``trace`` - like ``run`` with every layer probe installed first; also
  writes the spans as a Chrome trace and reports per-layer numbers.

The result is one JSON object written to ``--result``.  Timestamps are
``time.monotonic()`` readings, which share one clock with the parent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def outputs_digest(outputs) -> str:
    """sha256 of the simulated outputs in canonical JSON."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    root = Path.cwd()
    recorder = None
    if args.mode == "trace":
        import layers
        from tracing import Recorder

        recorder = Recorder()
        layers.install(recorder)

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    result = {"setup_done": time.monotonic()}
    if args.mode != "setup":
        args.workdir.mkdir(parents=True, exist_ok=True)
        cpu0 = _cpu_s()
        start = time.monotonic()
        if recorder is None:
            outputs, facts = workload.run(inputs, args.workdir)
        else:
            with recorder.root("workload"):
                outputs, facts = workload.run(inputs, args.workdir)
        end = time.monotonic()
        cpu1 = _cpu_s()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.update(
            start=start,
            end=end,
            cpu_s=cpu1 - cpu0,
            peak_rss_mb=peak_kb / 1024,
            digest=outputs_digest(outputs),
            problems=workload.check(outputs, args.seed, root),
        )
        if recorder is not None:
            result["layers"] = _layer_values(recorder, facts)
            if args.trace_out is not None:
                from tracing import write_chrome_trace

                write_chrome_trace(recorder.spans, args.trace_out,
                                   f"hostbench {args.workload}")
    args.result.parent.mkdir(parents=True, exist_ok=True)
    args.result.write_text(json.dumps(result))
    return 0


def _layer_values(recorder, facts: dict) -> dict:
    from layers import layer_values

    raw: dict[str, float] = dict(recorder.counts)
    for name, (calls, own) in recorder.totals.items():
        raw[f"{name}.calls"] = calls
        raw[f"{name}.self_s"] = own
    raw.update(facts)
    values = layer_values(raw)
    values["trace.unattributed_s"] = raw["workload.self_s"]
    return values


if __name__ == "__main__":
    sys.exit(main())
