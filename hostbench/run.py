"""Host-time benchmark of the repro simulator.

Run from the root of a checkout::

    python3 hostbench/run.py --workload frontier-step --seed 0 --seconds 42 --trace 0
    python3 hostbench/run.py --workload all           # every workload in turn

Each iteration of a workload runs in a fresh Python process
(``iteration.py``), one at a time, started from this single parent
process.  With ``--trace 0`` the parent runs iterations for about
``--seconds`` seconds and reports the end-to-end metrics as medians
over iterations.  With ``--trace 1`` it runs one untraced and one traced
iteration and reports the per-layer metrics.  Every iteration's
simulated outputs are checked and digested.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files
(checkpoints, results, bytecode, Chrome traces, run records) stay under
``.hostbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: The end-to-end metrics and their units (``BENCHMARK.json`` adds bounds).
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "passed_frac": "ratio",
}

#: ``setup_s`` is a median over at least this many set-ups per run;
#: set-up-only processes make up the samples when few iterations fit.
MIN_SETUP_SAMPLES = 4

#: Iteration processes still running this long after a workload's first
#: one started are killed and fail, so that a run ends within 180 s.
WORKLOAD_DEADLINE_S = 170.0

#: Files the benchmark reads from the checkout it measures.
REQUIRED = ("src/repro/__init__.py", "BENCH_obs.json", "BENCH_serve.json")


class Sample:
    """One finished iteration process, as the parent saw it."""

    def __init__(self, spawned: float, exited: float, returncode: int,
                 result: dict | None, stderr: str):
        self.duration = exited - spawned
        self.returncode = returncode
        self.result = result or {}
        self.stderr = stderr
        self.setup_s = (self.result["setup_done"] - spawned
                        if "setup_done" in self.result else None)

    @property
    def problems(self) -> list[str]:
        if self.returncode != 0:
            tail = self.stderr.strip().splitlines()[-5:]
            return [f"exit code {self.returncode}"] + tail
        if "setup_done" not in self.result:
            return ["no result written"]
        return list(self.result.get("problems", []))

    @property
    def passed(self) -> bool:
        return not self.problems

    @property
    def wall_s(self) -> float:
        return self.result["end"] - self.result["start"]


class Launcher:
    """Starts iteration processes for one checkout, one at a time."""

    def __init__(self, root: Path):
        self.root = root
        self.scratch = root / ".hostbench"
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            PYTHONHASHSEED="0",
            # Bytecode goes to the scratch tree, not next to the sources.
            PYTHONPYCACHEPREFIX=str(self.scratch / "pycache"),
        )
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self._count = 0
        self.deadline = time.monotonic() + WORKLOAD_DEADLINE_S

    def iteration(self, workload: str, seed: int, mode: str,
                  trace_out: Path | None = None) -> Sample:
        self._count += 1
        result_path = self.scratch / "work" / f"result-{self._count}.json"
        workdir = Path(".hostbench") / "work" / workload
        shutil.rmtree(self.root / workdir, ignore_errors=True)
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "iteration.py"),
               "--workload", workload, "--seed", str(seed), "--mode", mode,
               "--result", str(result_path), "--workdir", str(workdir)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
                timeout=max(1.0, self.deadline - spawned),
            )
            returncode, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired as timeout:
            returncode = -9
            stderr = (timeout.stderr or b"").decode(errors="replace")
            stderr += f"\nkilled at the {WORKLOAD_DEADLINE_S:.0f} s workload deadline"
        exited = time.monotonic()
        result = None
        if result_path.exists():
            result = json.loads(result_path.read_text())
            result_path.unlink()
        # Checkpoints and other iteration files never outlive it.
        shutil.rmtree(self.root / workdir, ignore_errors=True)
        return Sample(spawned, exited, returncode, result, stderr)


# -- machine fingerprint ------------------------------------------------------
def calibration_s(loops: int = 3) -> float:
    """Median time of a fixed pure-Python loop (machine speed, not gated)."""
    times = []
    for _ in range(loops):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def fingerprint() -> dict:
    """CPU, core count, Python, NumPy and BLAS of the machine running the benchmark."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = "{name} {version}".format(**deps["blas"])
    except (TypeError, KeyError):
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "calibration_loop_s": calibration_s(),
    }


# -- one workload -------------------------------------------------------------
def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _print_metric(name: str, unit: str, values: list[float]) -> None:
    q1, q3 = _quartiles(values)
    print(f"  {name:<34} {statistics.median(values):14.6f} {unit:<6} "
          f"n={len(values):<3} q1={q1:.6f} q3={q3:.6f}")


def measure(launcher: Launcher, workload: str, seed: int, seconds: float) -> dict:
    """Untraced iterations for about ``seconds``; end-to-end metrics.

    Another iteration starts only if one more of the last one's length
    still ends within ``seconds``; there is always at least one.
    Set-up-only processes then bring the set-up samples up to
    :data:`MIN_SETUP_SAMPLES`.
    """
    begin = time.monotonic()
    samples = []
    while True:
        sample = launcher.iteration(workload, seed, "run")
        samples.append(sample)
        if time.monotonic() - begin + sample.duration > seconds:
            break
    probes = [launcher.iteration(workload, seed, "setup")
              for _ in range(MIN_SETUP_SAMPLES - len(samples))]
    return _summarise(workload, probes, samples)


def _summarise(workload: str, probes: list[Sample], samples: list[Sample]) -> dict:
    passed = [s for s in samples if s.passed]
    problems = [f"setup probe: {p}" for s in probes for p in s.problems]
    for index, sample in enumerate(samples, 1):
        if sample.passed:
            print(f"  iteration {index}: wall {sample.wall_s:.4f} s, "
                  f"cpu {sample.result['cpu_s']:.4f} s, "
                  f"rss {sample.result['peak_rss_mb']:.1f} MB, "
                  f"setup {sample.setup_s:.4f} s, "
                  f"digest {sample.result['digest'][:16]} ok")
        else:
            print(f"  iteration {index}: FAILED")
        problems += [f"iteration {index}: {p}" for p in sample.problems]
    digests = sorted({s.result["digest"] for s in passed})
    if len(digests) > 1:
        problems.append(f"simulated outputs differ between iterations: {digests}")
    values = {
        "wall_s": [s.wall_s for s in passed],
        "cpu_s": [s.result["cpu_s"] for s in passed],
        "peak_rss_mb": [s.result["peak_rss_mb"] for s in passed],
        "setup_s": [s.setup_s for s in probes + samples if s.setup_s is not None],
        "passed_frac": [len(passed) / len(samples)],
    }
    return {
        "workload": workload,
        "attempted": len(samples),
        "passed": len(passed),
        "digest": digests[0] if len(digests) == 1 else None,
        "problems": problems,
        "values": values,
    }


def trace(launcher: Launcher, workload: str, seed: int) -> dict:
    """One untraced and one traced iteration; per-layer metrics."""
    trace_out = launcher.scratch / "out" / f"{workload}-trace.json"
    untraced = launcher.iteration(workload, seed, "run")
    traced = launcher.iteration(workload, seed, "trace", trace_out=trace_out)
    summary = _summarise(workload, [], [untraced, traced])
    summary["values"] = {}
    if untraced.passed and traced.passed:
        layers = dict(traced.result["layers"])
        layers["trace.overhead_s"] = traced.wall_s - untraced.wall_s
        events = layers["cluster.timeline.events"]
        layers["cluster.host_us_per_event"] = (
            untraced.wall_s * 1e6 / events if events else 0.0)
        summary["values"] = {name: [value] for name, value in layers.items()}
        print(f"  chrome trace: {trace_out.relative_to(launcher.root)}")
    return summary


def report(summary: dict, traced: bool) -> dict[str, dict]:
    """Print each metric with unit and sample count; JSON metric values."""
    units = ({m["name"]: m["unit"] for m in per_layer_metrics()}
             if traced else END_TO_END)
    metrics = {}
    for name, unit in units.items():
        values = summary["values"].get(name)
        if not values:
            continue
        _print_metric(name, unit, values)
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    for problem in summary["problems"]:
        print(f"  problem: {problem}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the repro simulator.")
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [name for name in REQUIRED if not (root / name).is_file()]
    if missing:
        print(f"hostbench: not the root of a repro checkout ({root}); "
              f"missing {', '.join(missing)}", file=sys.stderr)
        return 2

    launcher = Launcher(root)
    machine = fingerprint()
    print(f"fingerprint: {json.dumps(machine, sort_keys=True)}")
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    traced = bool(args.trace)
    summaries, metrics = [], {}
    for workload in workloads:
        print(f"{workload} (seed {args.seed}, trace {args.trace}):")
        launcher.deadline = time.monotonic() + WORKLOAD_DEADLINE_S
        if traced:
            summary = trace(launcher, workload, args.seed)
        else:
            summary = measure(launcher, workload, args.seed, args.seconds)
        print(f"  outputs sha256: {summary['digest']}")
        values = report(summary, traced)
        summaries.append(summary)
        prefix = "" if len(workloads) == 1 else f"{workload}."
        metrics.update({prefix + name: value for name, value in values.items()})
        record = dict(summary, seed=args.seed, trace=args.trace,
                      fingerprint=machine)
        out = launcher.scratch / "out" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    if any(not s["passed"] or not s["values"] for s in summaries):
        print("hostbench: too few iterations passed to report metrics",
              file=sys.stderr)
        return 1
    attempted = sum(s["attempted"] for s in summaries)
    print(json.dumps({
        "correct": all(not s["problems"] for s in summaries),
        "attempted": attempted,
        "failed": attempted - sum(s["passed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
