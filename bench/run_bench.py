"""The emprob benchmark: one workload, one seed, one run.

    python3 bench/run_bench.py --workload report-default --seed 1 --seconds 30 --trace 0
    python3 bench/run_bench.py --workload all --seed 1 --seconds 30

A run sets up (timed in child processes), then repeats the workload's
operation in a closed loop until --seconds have passed (at least once),
checks every operation's output, and prints as its last line one JSON object
with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 is a separate run that
wraps emprob's public functions from outside (tracing.py) and reports the
per-layer metrics, plus the tracing overhead against untraced operations of
the same run.  --workload all runs every workload in turn and prints one
table of every end-to-end metric.

The benchmark reads and writes only inside the checkout it runs from, under
bench/_work/, and removes its files when it ends.  It imports emprob from
src/ of that checkout and exits non-zero without a result when there is none.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import checks
import tracing
from workloads import ROOT, THRESHOLDS, UNMERGED_BANDS, WORKLOADS, case_count, \
    shipped_questionnaire, unmerged_questionnaire_doc, write_inputs

BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# An operation takes 10-20 s at the baseline.  On a slow machine one
# operation could fill a whole run, and that run's median would be the first,
# slowest operation alone; at least two keeps runs comparable.
MIN_OPS = 2
# an operation takes about 20 s at the baseline; a hung one must not keep
# the run past its 180 s limit
OP_TIMEOUT_S = 120

E2E_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MiB", "pass_ratio": "ratio"}
# per-layer metrics a traced run adds to tracing.layer_metrics
TRACE_EXTRA = ("cli.process_overhead_s", "trace.overhead_s", "trace.wrapper_s",
               "trace.wrapped", "trace.missing")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def spawn(argv: list[str], stdout: Path, stderr: Path):
    """Run argv to completion; return (exit code, wall seconds from spawn to
    exit, the child's resource usage).  A child still running after
    OP_TIMEOUT_S is killed and reported with exit code -9."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        t0 = perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        signal.alarm(OP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(pid, 0)
        except _Timeout:
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = perf_counter() - t0
    return os.waitstatus_to_exitcode(status), wall, usage


def import_emprob():
    """Import emprob from this checkout's src/, never from elsewhere."""
    if not (SRC / "emprob" / "__init__.py").is_file():
        raise SystemExit(f"error: no emprob package under {SRC}")
    sys.path.insert(0, str(SRC))
    import emprob
    import emprob.cli
    import emprob.pipeline

    if not Path(emprob.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: emprob imported from {emprob.__file__}, not {SRC}")
    return emprob


def measure_setup(workload: str, seed: int, work: Path, inputs: dict[str, Path]) -> list[float]:
    """Time SETUP_REPEATS set-ups in fresh processes; each must write inputs
    byte-identical to this process's, or the generator is not deterministic."""
    times = []
    for k in range(SETUP_REPEATS):
        dest = work / f"setup-{k}"
        code, wall, _ = spawn([sys.executable, str(BENCH / "setup_probe.py"), workload,
                               str(seed), str(dest)], work / "setup.out", work / "setup.err")
        if code != 0:
            raise SystemExit(f"error: set-up probe exited {code}:\n"
                             + (work / "setup.err").read_text(errors="replace"))
        for path in inputs.values():
            if (dest / path.name).read_bytes() != path.read_bytes():
                raise SystemExit(f"error: {path.name} differs between set-ups of seed {seed}")
        shutil.rmtree(dest)
        times.append(wall)
    return times


class Run:
    """The state of one benchmark run: its inputs, its operations' wall
    times and the problems its output checks found."""

    def __init__(self, workload: str, work: Path, inputs: dict[str, Path], emprob):
        self.workload, self.work, self.emprob = workload, work, emprob
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest: str | None = None
        self.child_rss: list[float] = []
        self.cpu: list[float] = []
        if workload == "report-default":
            self.cfg = emprob.pipeline.PipelineConfig()
            self.n_cases = case_count(shipped_questionnaire())
        elif workload == "report-unmerged":
            self.cfg = emprob.pipeline.PipelineConfig(
                questionnaire_path=str(inputs["questionnaire"]),
                weights_path=str(inputs["weights"]),
                n_components=1, m_max=1, bands=UNMERGED_BANDS, thresholds=THRESHOLDS)
            self.n_cases = case_count(unmerged_questionnaire_doc())
        else:
            self.patients = json.loads(inputs["patients"].read_text(encoding="utf-8"))
            self.reference = checks.load_reference()

    def _record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.failures.extend(f"op {self.attempted} ({label}): {p}" for p in problems)

    def _guard(self, label: str, op) -> float | None:
        """Run op, turning an exception into a failed operation."""
        try:
            return op()
        except Exception:  # noqa: BLE001  (a crash is a failed operation)
            self._record(label, [traceback.format_exc()])
            return None

    def report_op(self) -> float | None:
        """prepare() + write_artifacts() in this process, then check."""
        out = self.work / f"out-{self.attempted}"

        def op() -> float:
            c0, t0 = process_time(), perf_counter()
            result = self.emprob.pipeline.prepare(self.cfg)
            self.emprob.pipeline.write_artifacts(result, out)
            wall = perf_counter() - t0
            self.cpu.append(process_time() - c0)
            return wall

        wall = self._guard("report", op)
        if wall is not None:
            problems = checks.check_report(out, self.cfg.bands, self.n_cases)
            digest = checks.artifact_digest(out)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append("artifacts differ from the run's first operation")
            self._record("report", problems)
        shutil.rmtree(out, ignore_errors=True)
        return wall

    def _patient(self) -> list[str]:
        patients = self.patients["patients"]
        return patients[self.attempted % len(patients)]

    def patient_op(self) -> float:
        """One `python -m emprob.cli score-patient` child, spawn to exit."""
        answers = self._patient()
        out, err = self.work / "patient.out", self.work / "patient.err"
        code, wall, usage = spawn([sys.executable, "-m", "emprob.cli", "score-patient",
                                   ",".join(answers)], out, err)
        self.child_rss.append(usage.ru_maxrss / 1024)
        self.cpu.append(usage.ru_utime + usage.ru_stime)
        stdout = out.read_text(encoding="utf-8", errors="replace")
        problems = checks.check_patient(stdout, code, answers, self.patients, self.reference)
        if code != 0:
            problems.append(err.read_text(errors="replace")[-2000:])
        self._record("score-patient child", problems)
        return wall

    def patient_inprocess_op(self) -> float | None:
        """emprob.cli.main for the next patient inside this process."""
        answers = self._patient()
        buf = io.StringIO()

        def op() -> tuple[float, int]:
            with contextlib.redirect_stdout(buf):
                t0 = perf_counter()
                code = self.emprob.cli.main(["score-patient", ",".join(answers)])
                return perf_counter() - t0, code

        timed = self._guard("cli.main", op)
        if timed is None:
            return None
        wall, code = timed
        self._record("cli.main", checks.check_patient(buf.getvalue(), code, answers,
                                                      self.patients, self.reference))
        return wall


def run_untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    op = run.patient_op if run.workload == "patient-cli" else run.report_op
    walls = []
    deadline = perf_counter() + seconds
    while run.attempted < MIN_OPS or perf_counter() < deadline:
        wall = op()
        if wall is not None:
            walls.append(wall)
    if not walls:
        raise SystemExit("error: no operation completed")
    if run.workload == "patient-cli":
        rss = statistics.median(run.child_rss)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "op_s": statistics.median(walls),
        "peak_rss_mb": rss,
        "pass_ratio": 1 - run.failed / run.attempted,
    }
    return metrics, {"op_s": walls, "op_cpu_s": run.cpu, "peak_rss_mb": run.child_rss or [rss]}


def run_traced(run: Run, seconds: float) -> tuple[dict, dict, dict]:
    """One untraced warm-up operation, then rounds of (untraced op, traced
    op) in this process until the time is up.  The first operation of a
    process is the slowest, so without the warm-up the tracing overhead
    would come out negative.  For patient-cli a round first runs the CLI
    child, so that the process overhead around cli.main is measured in the
    same round."""
    patient = run.workload == "patient-cli"
    op = run.patient_inprocess_op if patient else run.report_op
    op()
    rounds: list[dict] = []
    spans_out: list[dict] = []
    missing: set[str] = set()
    deadline = perf_counter() + seconds
    while True:
        child = run.patient_op() if patient else None
        plain = op()
        with tracing.Tracer() as tracer:
            traced = op()
        missing.update(tracer.missing)
        if plain is not None and traced is not None:
            metrics = tracing.layer_metrics(tracer.spans)
            metrics["cli.process_overhead_s"] = child - plain if patient else 0.0
            metrics["trace.overhead_s"] = traced - plain
            metrics["trace.wrapper_s"] = tracer.wrapper_s
            metrics["trace.wrapped"] = len(tracer.wrapped)
            rounds.append(metrics)
            spans_out = tracing.span_records(tracer.spans)
        if perf_counter() >= deadline:
            break
    if not rounds:
        raise SystemExit("error: no traced operation completed")
    metrics = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    metrics["trace.missing"] = len(missing)
    return metrics, {"rounds": len(rounds)}, {"spans": spans_out, "missing": sorted(missing)}


def git_commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """SHA-256 over the package's files, which names the code where no
    commit does."""
    h = hashlib.sha256()
    for p in sorted((SRC / "emprob").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def provenance(emprob, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "emprob": getattr(emprob, "__version__", None),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("bytes_written") else "count"


def with_units(metrics: dict) -> dict:
    return {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}


def run_one(args) -> int:
    emprob = import_emprob()
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = write_inputs(args.workload, args.seed, work / "inputs")
        setup = measure_setup(args.workload, args.seed, work, inputs)
        run = Run(args.workload, work, inputs, emprob)
        if args.trace:
            metrics, samples, trace = run_traced(run, args.seconds)
        else:
            metrics, samples = run_untraced(run, args.seconds)
            metrics = {"setup_s": statistics.median(setup), **metrics}
            samples["setup_s"] = setup
            trace = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    record = {"workload": args.workload, "provenance": provenance(emprob, args.seed),
              "samples": {k: {"n": len(v), "values": v} if isinstance(v, list) else v
                          for k, v in samples.items()}}
    if trace is not None:
        record["trace"] = trace
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": with_units(metrics),
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process; prints one table."""
    results = {}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"error: {workload} exited {out.returncode}", file=sys.stderr)
            return out.returncode
        results[workload] = json.loads(out.stdout.strip().splitlines()[-1])
    for workload, res in results.items():
        print(f"{workload}: {res['attempted']} ops, fail_ratio "
              f"{res['failed'] / res['attempted']:.3f}")
        for name, m in res["metrics"].items():
            print(f"  {name:28s} {m['value']:14.6f} {m['unit']}")
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
