#!/usr/bin/env python3
"""Benchmark of the ``mahf`` command-line tool, end to end and per layer.

    python3 perfbench/run.py --workload mesh-multiscale --seed 0 --seconds 55 --trace 0

Run it from a checkout of the repository; it imports ``mahf`` from ``src/``
and nowhere else.  Inputs are generated from ``--seed`` into a scratch
directory inside the checkout, and every response file is compared with a
reference computed once per run, outside timing (see ``oracle.py``).

``--trace 0`` repeats the workload's CLI commands, each a subprocess run
one at a time, within ``--seconds``, and reports the end-to-end metrics
listed in ``BENCHMARK.json``.  ``--trace 1`` runs the commands in-process: once to
warm up, once under the span recorder of ``spans.py`` and once untraced,
and reports the per-layer metrics.  Readable lines come first; the last line of standard
output is one JSON object.  Samples, inputs, machine facts and the spans
are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"
SETUPS_PER_COMMAND = 2
SETUP_MIN = 12
STARTUP_REPEATS = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# printed with the per-layer metrics but left out of BENCHMARK.json: kNN
# runs only on cloud-normals and kernel rows only on large-mesh-rows, so
# these read 0 on the other workloads; the overhead is a difference of two
# runs that noise can flip
DIAGNOSTICS = {"geometry.knn_s": "s", "geometry.knn_calls": "count",
               "geometry.knn_distinct": "count", "spectral.kernel_row_s": "s",
               "trace.overhead_s": "s"}


def limit_blas_threads() -> None:
    """No more BLAS threads than cores, set before numpy is imported."""
    nproc = os.cpu_count() or 1
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)


def run_child(argv: list[str], env: dict, log: Path) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS in MB of one child process."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.stderr.write(f"{' '.join(argv[:4])}: exit {proc.returncode}\n"
                         + log.read_text(errors="replace")[-2000:])
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6


class Checker:
    """Counts outputs attempted and failed against the references."""

    def __init__(self, refs: dict, tol: float):
        self.refs, self.tol = refs, tol
        self.attempted = self.failed = 0
        self.errors: dict[str, float] = {}
        self.failures: list[str] = []

    def check(self, commands, exit_codes) -> None:
        from oracle import read_field, relative_error
        for (_, outputs), code in zip(commands, exit_codes):
            for o in outputs:
                self.attempted += 1
                reason = None
                if code != 0:
                    reason = f"exit code {code}"
                elif not o.path.is_file():
                    reason = "missing"
                else:
                    ref = self.refs[o.kind, o.t]
                    field = read_field(o.path)
                    if field.shape != ref.shape:
                        reason = f"{field.shape[0]} values, expected {ref.shape[0]}"
                    else:
                        err = relative_error(field, ref)
                        self.errors[o.path.name] = max(err, self.errors.get(o.path.name, 0.0))
                        if not err <= self.tol:
                            reason = f"relative error {err:.3g} > {self.tol:g}"
                if reason:
                    self.failed += 1
                    self.failures.append(f"{o.path.name}: {reason}")


def fresh(out: Path) -> None:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()


def tail(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def measure_end_to_end(args, name, inputs, commands, out, env, checker, record):
    log = out.parent / "stderr.txt"
    setup_argv = [sys.executable, str(BENCH / "setup_child.py"), *commands[0][0]]

    def setup_once() -> float:
        code, wall, _ = run_child(setup_argv, env, log)
        if code:
            raise RuntimeError("set-up child failed")
        return wall

    # Set-up children run between the commands of each iteration, so both
    # kinds of sample span the whole run; on a shared machine speed drifts
    # over tens of seconds.  An iteration starts only if one more fits
    # within --seconds.
    setups, walls, peaks = [], [], []
    start = time.perf_counter()
    unit = 0.0
    while not walls or time.perf_counter() - start + unit <= args.seconds:
        begin = time.perf_counter()
        fresh(out)
        codes, wall, peak = [], 0.0, 0.0
        for argv, _ in commands:
            setups.extend(setup_once() for _ in range(SETUPS_PER_COMMAND))
            code, seconds, rss = run_child([sys.executable, "-m", "mahf", *argv], env, log)
            codes.append(code)
            wall += seconds
            peak = max(peak, rss)
        walls.append(wall)
        peaks.append(peak)
        checker.check(commands, codes)
        unit = time.perf_counter() - begin
    while len(setups) < SETUP_MIN:
        setups.append(setup_once())

    record["samples"] = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": peaks}
    values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
              "peak_rss_mb": statistics.median(peaks)}
    print(f"{name}: {len(walls)} iterations in {time.perf_counter() - start:.1f} s")
    high = tail(walls)
    print(f"  wall_s       median {values['wall_s']:.4f} s, "
          + (f"p{high[0]:.0f} {high[1]:.4f} s" if high else "no tail percentile")
          + f" ({len(walls)} samples)")
    print(f"  setup_s      median {values['setup_s']:.4f} s ({len(setups)} samples)")
    print(f"  peak_rss_mb  median {values['peak_rss_mb']:.1f} MB "
          f"(max {max(peaks):.1f} MB)")
    return values


def measure_layers(args, name, commands, out, env, checker, facts, record):
    import mahf.cli
    import spans

    def untraced_run() -> float:
        fresh(out)
        begin = time.perf_counter()
        codes = [mahf.cli.main(argv) for argv, _ in commands]
        elapsed = time.perf_counter() - begin
        checker.check(commands, codes)
        return elapsed

    # the first in-process run pays one-off costs (lazy imports, allocator
    # growth), so it only warms up; overhead compares two warm runs
    untraced_run()
    tracer = spans.Tracer()
    fresh(out)
    tracer.install()
    try:
        begin = time.perf_counter()
        codes = [tracer.run_main(mahf.cli.main, argv) for argv, _ in commands]
        traced = time.perf_counter() - begin
    finally:
        tracer.close()
    checker.check(commands, codes)
    untraced = untraced_run()

    log = out.parent / "stderr.txt"
    startups = []
    for _ in range(STARTUP_REPEATS):
        code, wall, _ = run_child([sys.executable, "-c", "import mahf.cli"], env, log)
        if code:
            raise RuntimeError("importing mahf.cli failed")
        startups.append(wall)

    values = spans.layer_metrics(tracer.spans)
    values["cli.startup_s"] = statistics.median(startups)
    values["laplacian.bound_ratio"] = facts["bound"] / facts["top_eigenvalue"]
    values["trace.overhead_s"] = traced - untraced
    span_file = OUT_ROOT / f"spans_{name}_seed{args.seed}.json"
    tracer.write(span_file)
    record.update({"untraced_s": untraced, "traced_s": traced, "spans": len(tracer.spans),
                   "span_file": str(span_file.relative_to(ROOT)),
                   "largest_self_time": spans.largest_self_time(tracer.spans)})

    print(f"{name}: traced {traced:.3f} s, untraced {untraced:.3f} s "
          f"in-process, {len(tracer.spans)} spans -> {record['span_file']}")
    print(f"  largest self time: {record['largest_self_time']}")
    return values


def main(argv=None) -> int:
    # a terminated run still kills and reaps the child it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    limit_blas_threads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mahf" / "__init__.py").is_file():
        print(f"error: no mahf package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mahf
    import oracle
    from workloads import WORKLOADS, machine
    if Path(mahf.__file__).resolve().parent != (SRC / "mahf").resolve():
        print(f"error: imported mahf from {mahf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    name, workload = args.workload, WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = dict(os.environ, PYTHONPATH=str(SRC))

    OUT_ROOT.mkdir(exist_ok=True)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{args.seed}-", dir=WORK_ROOT))
    try:
        code, _, _ = run_child([sys.executable, str(BENCH / "prepare.py"), name,
                                str(args.seed), str(work)], env, work / "prepare.log")
        if code:
            raise RuntimeError("making the inputs and references failed")
        with open(work / "prepared.pickle", "rb") as fh:
            inputs, refs, facts, ref_s = pickle.load(fh)
        out = work / "out"
        commands = workload.commands(inputs, out)
        files = [inputs.mesh_path] + ([inputs.signal_path] if inputs.signal_path else [])
        record = {"workload": name, "seed": args.seed, "trace": args.trace,
                  "machine": machine(), "reference_s": ref_s,
                  "inputs": {**facts, "input_bytes": sum(os.path.getsize(p) for p in files)},
                  "rel_tol": oracle.REL_TOL}
        checker = Checker(refs, oracle.REL_TOL)
        if args.trace:
            values = measure_layers(args, name, commands, out, env, checker, facts,
                                    record)
        else:
            values = measure_end_to_end(args, name, inputs, commands, out, env,
                                        checker, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    listed = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        for m in listed:
            print(f"  {m['name']:<24} {values[m['name']]:.6g} {m['unit']}")
        for metric, unit in DIAGNOSTICS.items():
            print(f"  {metric:<24} {values[metric]:.6g} {unit} (diagnostic)")
    error_rate = checker.failed / checker.attempted
    print(f"  error_rate   {error_rate:.4g} ({checker.failed} of {checker.attempted} outputs; "
          f"tolerance {oracle.REL_TOL:g})")
    print(f"  max_rel_err  {max(checker.errors.values(), default=float('nan')):.3g} "
          f"(reference {record['reference_s']:.1f} s, outside timing)")
    for line in dict.fromkeys(checker.failures):
        print(f"  FAILED {line} ({checker.failures.count(line)}x)")

    record.update({"values": values, "attempted": checker.attempted,
                   "failed": checker.failed, "error_rate": error_rate,
                   "rel_errors": checker.errors, "failures": checker.failures})
    (OUT_ROOT / f"{name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
