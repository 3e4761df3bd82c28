"""Child process of run.py: imports forecastlab once, then runs one workload's
CLI commands in a timed loop and checks every command's outputs.

The commands are the workload's plan for ``--seconds``: every generated
input once and input 0 again, or with ``--trace 1`` every input untraced
and then traced; the traced commands are folded into per-layer figures.
Each command is timed with a ``calibration.Speedometer``, which also gives
its wall and CPU seconds rescaled to the reference host speed. The result
goes to ``--result`` as JSON, with every command's figures.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import sys
import traceback

from calibration import Speedometer
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

DEFAULT_SEED = 42
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json.gz")


def read_outputs(out_dir: str) -> dict[str, bytes]:
    outputs = {}
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []:
        with open(os.path.join(out_dir, name), "rb") as fh:
            outputs[name] = fh.read()
    return outputs


def max_deviation(a: bytes, b: bytes) -> float:
    """Largest absolute difference between corresponding numbers of two
    texts; inf when anything but the numbers differs."""
    sa, sb = a.decode("utf-8", "replace"), b.decode("utf-8", "replace")
    na, nb = NUMBER.findall(sa), NUMBER.findall(sb)
    if len(na) != len(nb) or NUMBER.sub("#", sa) != NUMBER.sub("#", sb):
        return math.inf
    return max((abs(float(x) - float(y)) for x, y in zip(na, nb)), default=0.0)


def digests(files: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


def compare_outputs(got: dict[str, bytes], want: dict[str, str],
                    texts: dict[str, bytes], what: str) -> tuple[list, float]:
    """Check output bytes against wanted sha256 digests. Returns the problems
    found and the largest numeric deviation of the differing files, taken
    against ``texts`` where the wanted text is known."""
    problems, deviation = [], 0.0
    if set(got) != set(want):
        problems.append(f"file set differs from {what}: "
                        f"{sorted(set(got) ^ set(want))}")
        deviation = math.inf
    have = digests(got)
    for name in sorted(set(got) & set(want)):
        if have[name] != want[name]:
            if name not in texts:
                problems.append(f"{name} differs from {what}")
                continue
            dev = max_deviation(got[name], texts[name])
            deviation = max(deviation, dev)
            problems.append(f"{name} differs from {what} "
                            f"(max numeric deviation {dev:.3g})")
    return problems, deviation


def run_cli(cli, argv: list[str], tracer: Tracer | None) -> tuple[int, str]:
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli.main", cli.main, argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed command, not a failed run
        code = 1
        sink.write(traceback.format_exc())
    return code, sink.getvalue()


class Runner:
    """Runs single CLI commands and checks each one's outputs: exit code,
    expected files, bytes equal to the input's first repeat and, when
    given, to the reference outputs."""

    def __init__(self, cli, workload, docs, paths, work_dir, reference):
        self.cli, self.workload = cli, workload
        self.speedometer = Speedometer(numpy_part=True)
        self.docs, self.paths, self.work_dir = docs, paths, work_dir
        self.reference = reference
        self.first: list[dict | None] = [None] * len(docs)
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.deviation = 0.0

    def run(self, i: int, rep: int, tracer: Tracer | None = None) -> dict:
        """Run input i once; returns its timings and output size."""
        out = os.path.join(self.work_dir, f"input{i}", f"rep{rep}")
        argv = self.workload.argv(self.paths[i], out)
        (code, log), wall, cpu, ref_wall, ref_cpu = self.speedometer.measure(
            run_cli, self.cli, argv, tracer)

        self.attempted += 1
        files = read_outputs(out)
        found = []
        if code != 0:
            found.append(f"exit code {code}: {log.strip()[-400:]}")
        missing = [f for f in self.workload.expected_files(self.docs[i])
                   if f not in files]
        if missing:
            found.append(f"missing outputs {missing}")
        checks = []
        if self.first[i] is None:
            self.first[i] = files
        else:
            checks.append((digests(self.first[i]), self.first[i],
                           "the first repeat" + (" (untraced)" if tracer else "")))
        if self.reference is not None:
            ref = self.reference
            checks.append((ref["digests"][i], ref["texts"] if i == 0 else {},
                           f"the seed-{DEFAULT_SEED} reference"))
        for want, texts, what in checks:
            more, dev = compare_outputs(files, want, texts, what)
            found += more
            self.deviation = max(self.deviation, dev)
        if found:
            self.failed += 1
            self.problems += [f"repeat {rep} input {i}: {msg}" for msg in found]
        if rep > 0:
            shutil.rmtree(out, ignore_errors=True)
        return {"input": i, "traced": tracer is not None, "wall": wall,
                "cpu": cpu, "ref_wall": ref_wall, "ref_cpu": ref_cpu,
                "bytes": sum(len(v) for v in files.values())}


def machine_info(np, scipy) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = {k: os.environ.get(k, "") for k in
            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu": cpu, "platform": platform.platform(), "blas_threads": blas}


def work_units(config, command: str) -> int:
    """Fixed work of one command: CV fold fits plus refits (ARIMA candidate
    fits plus the refit) per split for run and sweep, explained rows for
    explain."""
    splits = ([config.primary_split] if command != "sweep"
              else list(config.split_months))
    if command == "explain":
        rows = config.primary_split
        if config.explain.rows == "train":
            rows = config.data.synth.n - config.primary_split
        return rows
    per_split = 0
    for spec in config.roster:
        if spec.family == "arima":
            per_split += len(spec.candidates) + 1
        else:
            grid = spec.param_grid()
            per_split += (len(grid.cells()) * config.cv.k if grid.axes else 0) + 1
    return per_split * len(splits)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--full", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    import numpy as np
    import scipy

    import forecastlab
    from forecastlab import cli
    from forecastlab.config import parse_config
    if not os.path.abspath(forecastlab.__file__).startswith(args.src + os.sep):
        print(f"worker: imported forecastlab from {forecastlab.__file__}, "
              f"not from {args.src}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    if args.full:
        plan = [(0, False), (0, bool(args.trace))]
    else:
        plan = wl.plan(args.seconds, bool(args.trace))
    docs = wl.configs(args.seed, 1 + max(i for i, _ in plan), args.full)
    paths = []
    for i, doc in enumerate(docs):
        os.makedirs(os.path.join(args.work_dir, f"input{i}"), exist_ok=True)
        path = os.path.join(args.work_dir, f"input{i}", "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        paths.append(path)
    work = [work_units(parse_config(doc), wl.command) for doc in docs]

    reference = None
    if (args.seed == DEFAULT_SEED and not args.full
            and not args.write_reference
            and os.path.exists(reference_path(wl.name))):
        with gzip.open(reference_path(wl.name), "rt", encoding="utf-8") as fh:
            reference = json.load(fh)
        reference["texts"] = {k: v.encode() for k, v in reference["texts"].items()}
        if len(reference["digests"]) < len(docs):
            print(f"worker: {reference_path(wl.name)} holds "
                  f"{len(reference['digests'])} inputs, the run "
                  f"{len(docs)}; rewrite it with --write-reference",
                  file=sys.stderr)
            return 2

    runner = Runner(cli, wl, docs, paths, args.work_dir, reference)
    tracer = Tracer(forecastlab) if args.trace else None
    commands = []
    for rep, (i, traced) in enumerate(plan):
        if traced:
            tracer.install()
        commands.append(runner.run(i, rep, tracer if traced else None))
        if traced:
            tracer.uninstall()
    layers = {}
    if tracer is not None:
        # spans and counts of every traced command, folded together
        layers = layer_metrics(tracer.spans, tracer.counts, tracer.missing)
        layers["pipeline.output_bytes"] = sum(
            c["bytes"] for c in commands if c["traced"])

    if args.write_reference:
        # digests of every input's outputs, full text of the first input's
        os.makedirs(REFERENCE_DIR, exist_ok=True)
        doc = {"seed": args.seed,
               "digests": [digests(files) for files in runner.first],
               "texts": {k: v.decode() for k, v in runner.first[0].items()}}
        with gzip.GzipFile(reference_path(wl.name), "wb", mtime=0) as fh:
            fh.write(json.dumps(doc, sort_keys=True, indent=0).encode())

    result = {
        "commands": commands,
        "work": work,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "max_deviation": runner.deviation,
        "layers": layers,
        "missing_hooks": tracer.missing if tracer else [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_info(np, scipy),
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
