"""dopplerlab end-to-end benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload receiver-series --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --smoke

One closed-loop client drives each workload: an operation starts when the
previous one has ended.  Warm operations run back to back in this process;
cold ones run as one fresh ``python`` child at a time, so at most two
processes exist.  Numerical thread pools are pinned to one thread.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run (see :mod:`perfbench.spans`).  Every output is
checked (see :mod:`perfbench.checks`).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Provenance, per-operation records and the traced spans go to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
GOLDEN = os.path.join(ROOT, "tests", "golden")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Fresh interpreters timed for ``setup_s`` / ``import.s``, after one
#: untimed start that fills the bytecode and page caches.
SETUP_PROBES = 7

#: A run never lasts longer than this; children are killed at the limit.
RUN_DEADLINE_S = 170.0

#: Exit codes of a typed DopplerLabError (validation, numerical, I/O).
TYPED_EXIT_CODES = (2, 3, 4)

#: Runs a module as ``__main__`` (like ``python -m``) and, at exit, writes
#: the process's own peak RSS (VmHWM, kB) to ``argv[1]``.  The rusage of a
#: reaped child is no use here: on Linux it includes the memory of the
#: parent it was forked from.
LAUNCHER = ("import atexit, runpy, sys\n"
            "def _peak_rss(path=sys.argv[1]):\n"
            "    with open('/proc/self/status') as fh:\n"
            "        kb = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
            "    with open(path, 'w') as out:\n"
            "        out.write(kb)\n"
            "atexit.register(_peak_rss)\n"
            "sys.argv = sys.argv[2:]\n"
            "runpy.run_module(sys.argv[0], run_name='__main__', alter_sys=True)\n")

SETUP_PROBE = ("import time\n"
               "t0 = time.monotonic()\n"
               "import dopplerlab.cli as cli\n"
               "t1 = time.monotonic()\n"
               "cli.build_parser()\n"
               "t2 = time.monotonic()\n"
               "print(t0, t1, t2)\n")

END_TO_END_UNITS = {
    "setup_s": "s",
    "warm_samples_per_s": "samples/s",
    "cold_samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

PER_LAYER_UNITS = {
    "import.s": "s",
    "oracle.solve.s": "s", "oracle.solve.calls": "count", "oracle.solve.points": "count",
    "oracle.solve.iters_mean": "iters", "oracle.solve.iters_max": "iters",
    "oracle.solve.converged_frac": "frac",
    "asymptotics.s": "s", "asymptotics.calls": "count",
    "cli.csv.s": "s", "cli.csv.bytes": "bytes", "cli.csv.rows": "count",
    "svgplot.s": "s", "svgplot.bytes": "bytes", "svgplot.points": "count",
    "signal.sample.s": "s", "signal.inst_freq.s": "s", "signal.spectrum.s": "s",
    "motion.validate.calls": "count", "motion.eval.calls": "count", "motion.eval.s": "s",
    "motion.custom.s": "s",
    "oracle.compare.s": "s", "characteristics.s": "s",
    "cli.self.s": "s",
    "trace.overhead_frac": "frac",
}


@dataclass
class OpRecord:
    """Every execution of one operation during a run."""

    warm_s: List[float] = field(default_factory=list)
    cold_s: List[float] = field(default_factory=list)
    traced_s: List[float] = field(default_factory=list)
    rss_mb: List[float] = field(default_factory=list)
    exits: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    attempted: int = 0
    passed: int = 0
    problems: List[str] = field(default_factory=list)


class Run:
    """One workload, one seed: executes, checks and times its operations."""

    def __init__(self, workload: str, seed: int, seconds: float, smoke: bool):
        from perfbench import workloads
        self.seconds = seconds
        self.smoke = smoke
        self.ops = workloads.build(workload, seed)
        self.order_rng = random.Random(f"order-{seed}")
        self.records = {op.name: OpRecord() for op in self.ops}
        self.digests: Dict[str, str] = {}
        self.started = time.monotonic()
        self.dir = os.path.join(WORK, "ops")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, ROOT]))
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turns = 0

    # -- executing one operation -----------------------------------------------

    def next_cpu(self) -> None:
        """Move this process, and the children it starts, to the next CPU.

        On a shared host a neighbour can slow one CPU at a time for seconds
        or minutes.  Taking turns lets each op's best-of-k see every CPU.
        """
        os.sched_setaffinity(0, {self.cpus[self.turns % len(self.cpus)]})
        self.turns += 1

    def restore_cpus(self) -> None:
        os.sched_setaffinity(0, self.cpus)

    def _out(self, op) -> str:
        out = os.path.join(self.dir, op.name)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        return out

    def run_warm(self, op, into: str = "warm_s", tracer=None) -> None:
        """Run ``op`` in this process; its time goes to ``records[op][into]``."""
        from dopplerlab import cli
        from perfbench import api_ops
        out = self._out(op)
        if op.api:
            call, argv = api_ops.main, [json.dumps(op.params), out]
        else:
            call, argv = cli.main, list(op.argv) + ["--out", out]
        stdout, stderr = io.StringIO(), io.StringIO()
        self.next_cpu()
        gc.collect()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                rc = tracer.run_op(self.ops.index(op), call, argv) if tracer else call(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                rc = None
                traceback.print_exc()
            elapsed = time.perf_counter() - start
        getattr(self.records[op.name], into).append(elapsed)
        self._judge(op, out, rc, stdout.getvalue(), stderr.getvalue())

    def run_cold(self, op) -> None:
        out = self._out(op)
        log = os.path.join(self.dir, op.name + ".log")
        cmd = [sys.executable, "-c", LAUNCHER, log + ".rss"]
        if op.api:
            cmd += ["perfbench.api_ops", json.dumps(op.params), out]
        else:
            cmd += ["dopplerlab", *op.argv, "--out", out]
        self.next_cpu()
        with open(log + ".out", "w+") as fo, open(log + ".err", "w+") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=fo, stderr=fe)
            killer = threading.Timer(self._remaining(), proc.kill)
            killer.start()
            try:
                proc.wait()
            finally:
                killer.cancel()
            elapsed = time.perf_counter() - start
            fo.seek(0)
            fe.seek(0)
            stdout, stderr = fo.read(), fe.read()
        rec = self.records[op.name]
        rec.cold_s.append(elapsed)
        try:                            # absent when the child was killed
            with open(log + ".rss", encoding="ascii") as fh:
                rec.rss_mb.append(int(fh.read()) / 1024.0)
        except OSError:
            pass
        self._judge(op, out, proc.returncode, stdout, stderr)

    def _remaining(self) -> float:
        return max(1.0, RUN_DEADLINE_S - (time.monotonic() - self.started))

    def _judge(self, op, out: str, rc, stdout: str, stderr: str) -> None:
        """Count the execution; a failure is fine only as a typed error."""
        from perfbench import checks
        rec = self.records[op.name]
        rec.attempted += 1
        typed = re.search(r"^error: ([A-Z_]+): ", stderr, re.M)
        if rc != 0:
            code = typed.group(1) if typed and rc in TYPED_EXIT_CODES else None
            rec.exits[f"{rc}:{code or 'untyped'}"] += 1
            if code is None:
                self._problem(rec, f"exit {rc} without a typed error: {stderr[-400:]!r}")
            elif os.listdir(out):
                self._problem(rec, f"exit {rc} ({code}) left files {sorted(os.listdir(out))}")
            return
        rec.exits["0"] += 1
        digest = _digest(out, stdout)
        if op.name not in self.digests:
            error = checks.check(op, out, stdout, GOLDEN)
            if error is not None:
                self._problem(rec, error)
                return
            self.digests[op.name] = digest
        elif digest != self.digests[op.name]:
            self._problem(rec, "output bytes differ from the checked first run")
            return
        rec.passed += 1

    @staticmethod
    def _problem(rec: OpRecord, message: str) -> None:
        if message not in rec.problems:
            rec.problems.append(message)

    # -- passes ------------------------------------------------------------------

    def passes(self, budget: float, *phases: Callable) -> None:
        """Interleave shuffled passes of the phases, each within an equal share of ``budget``.

        A phase runs every op once per pass.  The phase that has used the
        least time goes next, so a cheap phase runs more passes, and every
        phase samples the whole window: slow spells of a shared machine
        weigh on the phases alike.  Each phase runs at least once.
        """
        share = min(budget, self._remaining() - 10.0) / len(phases)
        used, runs = [0.0] * len(phases), [0] * len(phases)
        while True:
            fits = [i for i in range(len(phases)) if runs[i] == 0 or (
                not self.smoke and used[i] + used[i] / runs[i] <= share)]
            if not fits:
                return
            i = min(fits, key=lambda k: used[k])
            order = list(self.ops)
            self.order_rng.shuffle(order)
            start = time.monotonic()
            phases[i](order)
            used[i] += time.monotonic() - start
            runs[i] += 1

    def setup_probes(self) -> List[tuple]:
        """(setup_s, import_s) of fresh interpreters importing the CLI."""
        probes = []
        for i in range(1 + (1 if self.smoke else SETUP_PROBES)):
            self.next_cpu()
            spawned = time.monotonic()
            done = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=self.env,
                                  stdin=subprocess.DEVNULL, capture_output=True, text=True,
                                  timeout=self._remaining())
            if done.returncode != 0:
                raise RuntimeError(f"setup probe failed: {done.stderr[-400:]}")
            t0, t1, t2 = map(float, done.stdout.split())
            if i > 0:
                probes.append((t2 - spawned, t1 - t0))
        return probes

    def pass_time(self, attr: str) -> float:
        """Wall time of one pass: the sum over ops of each op's best time.

        Best-of-k, not the median: on a shared machine, spells of several
        seconds run ~1.5x slower, and they, not the program, set the median.
        """
        return sum(min(getattr(rec, attr)) for rec in self.records.values())

    def totals(self) -> tuple:
        """(attempted, passed) over every execution in the run."""
        return (sum(r.attempted for r in self.records.values()),
                sum(r.passed for r in self.records.values()))

    def throughput(self, attr: str) -> float:
        samples = sum(op.samples * self.records[op.name].passed / self.records[op.name].attempted
                      for op in self.ops)
        return samples / self.pass_time(attr)

    # -- the two kinds of run ----------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        setup = self.setup_probes()

        def warm(order):
            for op in order:
                self.run_warm(op)

        def cold(order):
            for op in order:
                self.run_cold(op)

        self.passes(self.seconds, warm, cold)
        attempted, passed = self.totals()
        return {
            "setup_s": statistics.median(s for s, _ in setup),
            "warm_samples_per_s": self.throughput("warm_s"),
            "cold_samples_per_s": self.throughput("cold_s"),
            "peak_rss_mb": max(m for r in self.records.values() for m in r.rss_mb),
            "ok_frac": passed / attempted,
        }

    def per_layer(self) -> tuple:
        from perfbench import spans
        setup = self.setup_probes()
        tracer = spans.Tracer()
        per_pass, kept = [], []

        def traced(order):
            tracer.install()
            try:
                for op in order:
                    self.run_warm(op, into="traced_s", tracer=tracer)
            finally:
                tracer.uninstall()
            per_pass.append(spans.layer_metrics(tracer.spans, tracer.counts))
            if not kept:
                kept.extend(tracer.spans)
            tracer.reset()

        def untraced(order):
            for op in order:
                self.run_warm(op)

        self.passes(self.seconds, untraced, traced)
        # Times are best-of-k over traced passes; counts are fixed per pass.
        metrics = {name: (min(p[name] for p in per_pass) if name.endswith(".s")
                          else per_pass[0][name])
                   for name in per_pass[0]}
        metrics["import.s"] = statistics.median(i for _, i in setup)
        metrics["trace.overhead_frac"] = self.pass_time("traced_s") / self.pass_time("warm_s") - 1.0
        return metrics, kept, tracer.absent

    def summary(self) -> List[dict]:
        out = []
        for op in self.ops:
            rec = self.records[op.name]
            out.append({
                "op": op.name, "argv": list(op.argv), "samples": op.samples,
                "attempted": rec.attempted, "passed": rec.passed, "exits": dict(rec.exits),
                "warm_s": rec.warm_s, "cold_s": rec.cold_s, "traced_s": rec.traced_s,
                "rss_mb": rec.rss_mb, "problems": rec.problems,
            })
        return out


def _digest(out: str, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for name in sorted(os.listdir(out)):
        h.update(name.encode())
        with open(os.path.join(out, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _git_sha() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    """Digest of the package sources, which identifies code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "dopplerlab")
    for dirpath, dirnames, filenames in sorted(os.walk(pkg)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def provenance(workload: str, seed: int, trace: int) -> dict:
    import numpy
    import dopplerlab
    backend = getattr(dopplerlab, "backend_name", None)
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "git_sha": _git_sha(), "source_sha256": _source_sha256(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "machine": platform.machine(), "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "backend": backend() if callable(backend) else None,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    from perfbench import spans
    run = Run(workload, seed, seconds, smoke)
    absent: List[str] = []
    try:
        if trace:
            values, kept, absent = run.per_layer()
            units = PER_LAYER_UNITS
        else:
            values, kept, units = run.end_to_end(), None, END_TO_END_UNITS
    finally:
        run.restore_cpus()
    attempted, passed = run.totals()
    problems = [f"{name}: {p}" for name, r in run.records.items() for p in r.problems]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - passed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    report = {"result": result, "problems": problems, "absent": absent, "ops": run.summary()}
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{workload}-seed{seed}-trace{trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": provenance(workload, seed, trace), **report}, fh, indent=1)
    if kept is not None:
        spans.write_spans(stem + ".spans.json", kept)
    return report


def _print_report(workload: str, report: dict) -> None:
    result = report["result"]
    print(f"== {workload}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} fail_frac={result['failed'] / result['attempted']:.4g}")
    for op in report["ops"]:
        times = [f"{k}={min(op[k]) * 1e3:.1f}ms"
                 for k in ("warm_s", "cold_s", "traced_s") if op[k]]
        print(f"   {op['op']:<24} exits={op['exits']} {' '.join(times)}")
    for problem in report["problems"]:
        print(f"   PROBLEM {problem}")
    for target in report["absent"]:
        print(f"   absent span target: {target}")
    for name, metric in result["metrics"].items():
        print(f"   {name:<30} {metric['value']:>16.6g} {metric['unit']}")


def prepare() -> None:
    """Pin numerical thread pools and import dopplerlab from this checkout."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)


def main(argv: Optional[List[str]] = None) -> int:
    from_package = os.path.isfile(os.path.join(SRC, "dopplerlab", "__init__.py"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time per run, split between its two phases")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass of each phase with all checks on")
    args = parser.parse_args(argv)
    if not from_package:
        print(f"perfbench: no dopplerlab sources under {SRC}", file=sys.stderr)
        return 2

    prepare()
    from perfbench import workloads
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; choose from "
              f"{list(workloads.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2

    print(json.dumps({"provenance": provenance(args.workload, args.seed, args.trace)}))
    reports = {}
    for name in names:
        reports[name] = run_workload(name, args.seed, args.seconds, args.trace, args.smoke)
        _print_report(name, reports[name])
    if len(names) == 1:
        final = reports[names[0]]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in reports.values()),
            "attempted": sum(r["result"]["attempted"] for r in reports.values()),
            "failed": sum(r["result"]["failed"] for r in reports.values()),
            "metrics": {f"{w}:{m}": v for w, r in reports.items()
                        for m, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
