"""forecastlab benchmark: drives the public CLI on generated workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--full] [--write-reference]

Run it from the repository root; it imports the package from ./src. The
timed commands run in one child process whose import has finished, with
BLAS pinned to one thread. A run's commands are fixed by the workload and
``--seconds`` (default: BENCHMARK.json's run_seconds): K generated inputs
once each, then input 0 again. Every time is rescaled to the reference
host speed by the speed sampled while it ran (calibration.py). A timing is
each input's median over its runs, averaged over the K inputs. ``--trace 0``
prints the end-to-end figures (wall_s, cpu_s, setup_s, work_per_s,
peak_rss_mb), ``--trace 1`` the per-layer figures of a traced run. The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

A command fails when it exits non-zero, misses an expected output file,
differs in any byte from the first run of the same input (for a traced
command: from the untraced one), or, at the default seed 42, differs from
the reference outputs in perfbench/reference. ``--full`` runs the
full-size workload of NOTES.md twice instead of the bench size, with no
time limit. ``--write-reference`` records the outputs of this run as the
seed's reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(HERE, os.pardir, "BENCHMARK.json")
RUN_TIMEOUT_S = 170.0
SETUP_REPEATS = 3
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Fresh interpreter: import the package, load a config, build its data;
# prints raw and rescaled seconds. calibration imports only signal and time.
SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[2])
from calibration import Speedometer

def setup():
    import forecastlab
    from forecastlab.config import load_config
    from forecastlab.pipeline import load_data
    config, _ = load_config(sys.argv[1])
    load_data(config)

_, wall, _, ref_wall, _ = Speedometer().measure(setup)
print(wall, ref_wall)
"""

UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "work_per_s": "1/s",
         "peak_rss_mb": "MB"}


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    for key in BLAS_ENV:
        env[key] = "1"
    return env


def git_rev(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_child(cmd: list[str], env: dict, timeout: float, **kwargs):
    proc = subprocess.Popen(cmd, env=env, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out


def per_input(commands: list[dict], key: str) -> list[float]:
    """Each input's median over its untraced runs, in input order."""
    runs: dict[int, list[float]] = {}
    for cmd in commands:
        if not cmd["traced"]:
            runs.setdefault(cmd["input"], []).append(cmd[key])
    return [statistics.median(runs[i]) for i in sorted(runs)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float,
                    default=load_benchmark()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--full", action="store_true",
                    help="run the full-size workload once")
    ap.add_argument("--write-reference", action="store_true",
                    help="record this run's outputs as the seed's reference")
    args = ap.parse_args(argv)

    started = time.monotonic()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "forecastlab", "__init__.py")):
        print("perfbench: no package at ./src/forecastlab; run from the "
              "root of a forecastlab checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work_dir = os.path.join(root, ".perfbench",
                            f"{wl.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    env = child_env(src)
    result_path = os.path.join(work_dir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--src", src,
           "--workload", wl.name, "--seed", str(args.seed),
           "--seconds", str(0 if args.full else args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir,
           "--result", result_path]
    if args.full:
        cmd.append("--full")
    if args.write_reference:
        cmd.append("--write-reference")
    timeout = None if args.full else RUN_TIMEOUT_S
    try:
        code, _ = run_child(cmd, env, timeout and timeout - 30.0,
                            stdout=sys.stderr)
        if code != 0:
            print(f"perfbench: worker exited with {code}", file=sys.stderr)
            return 1
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)

        setup = []
        if not args.trace:
            config_path = os.path.join(work_dir, "input0", "config.json")
            for _ in range(SETUP_REPEATS):
                left = (max(timeout - (time.monotonic() - started), 1.0)
                        if timeout else None)
                code, out = run_child([sys.executable, "-c", SETUP_PROBE,
                                       config_path, HERE], env, left,
                                      stdout=subprocess.PIPE, text=True)
                if code != 0:
                    print("perfbench: set-up probe failed", file=sys.stderr)
                    return 1
                setup.append([float(v) for v in
                              out.strip().splitlines()[-1].split()])
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for msg in res["problems"]:
        print(f"FAILED {msg}")
    if res["max_deviation"]:
        print(f"largest numeric deviation in differing outputs: "
              f"{res['max_deviation']:.6g}")
    machine = dict(res["machine"], git_rev=git_rev(root))
    print("machine " + json.dumps(machine, sort_keys=True))

    commands = res["commands"]
    k = len(res["work"])
    if args.trace:
        metrics = trace_metrics(res)
    else:
        wall = per_input(commands, "ref_wall")
        values = {
            "wall_s": statistics.fmean(wall),
            "cpu_s": statistics.fmean(per_input(commands, "ref_cpu")),
            "setup_s": statistics.median(ref for _, ref in setup),
            "work_per_s": sum(res["work"]) / sum(wall),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        raw = {
            "wall_s": statistics.fmean(per_input(commands, "wall")),
            "cpu_s": statistics.fmean(per_input(commands, "cpu")),
            "setup_s": statistics.median(w for w, _ in setup),
        }
        print(f"{wl.name}: seed {args.seed}, {len(commands)} commands on {k} "
              f"input(s), each input's median; setup median of {len(setup)}; "
              f"{sum(res['work'])} work units; times at reference host speed "
              f"(as measured in brackets)")
        for name, value in values.items():
            shown = f" ({raw[name]:.6g})" if name in raw else ""
            print(f"  {name:<12} {value:>12.6g} {UNITS[name]}{shown}")
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in values.items()}
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if any(part == "s" or part.endswith("_s") for part in name.split(".")):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def trace_metrics(res: dict) -> dict:
    """Per-layer figures of the traced commands, plus the tracing overhead
    against the untraced commands of the same inputs."""
    merged = dict(res["layers"])
    plain = sum(per_input(res["commands"], "ref_wall"))
    traced = sum(c["ref_wall"] for c in res["commands"] if c["traced"])
    merged["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
    merged["trace.untraced_wall_s"] = sum(
        c["wall"] for c in res["commands"] if not c["traced"])
    merged["trace.traced_wall_s"] = sum(
        c["wall"] for c in res["commands"] if c["traced"])
    for name, value in sorted(merged.items()):
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:<40} {shown} {unit_of(name)}")
    if res["missing_hooks"]:
        print(f"hooks not installed (names missing): {res['missing_hooks']}")
    return {name: {"value": value, "unit": unit_of(name)}
            for name, value in merged.items()}


if __name__ == "__main__":
    sys.exit(main())
