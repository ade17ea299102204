"""kgbound benchmark: the four CLI commands on seeded workloads.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 5

Run from the root of a source checkout; the program is imported from
``src``.  Each op is one call of ``kgbound.cli.main(argv)`` in this
process, with stdout and stderr captured in memory, in a closed loop with
one client.  Every op's output is checked (checks.py); an op fails on an
unexpected exit code, an uncaught exception or a failed check.

With ``--trace 0`` the run times ops with tracing off and reports the
end-to-end metrics.  With ``--trace 1`` it runs a fixed pass of ops
repeatedly, each op once untraced and once traced, and reports per-layer
metrics per pass (layers.py) plus the tracing overhead.  The last stdout
line is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it are for people.  A full record with the
environment stamp goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from calibration import calibrate  # noqa: E402
from layers import Tracer, layer_metric_specs  # noqa: E402

SETUP_REPEATS = 9
# The kernel backend the recorded numbers were taken with (Cython is not
# installed, so the NumPy fallback).  Results from another backend are
# flagged, not compared silently.
BASELINE_BACKEND = "fallback"

END_TO_END = (
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Machine speed on a shared host drifts: on the 2-vCPU Intel Xeon VM this
# benchmark was written on, the same op took anywhere from 1x to 2x its
# fastest time, switching within fractions of a second and drifting over
# minutes, and kgbound's op times moved with it.  Every timing is therefore
# scaled by CAL_REFERENCE_S over the time of a fixed calibration unit
# (calibration.py) measured next to it, so times read as milliseconds on a
# machine where the unit takes CAL_REFERENCE_S (its typical time on that VM
# with Python 3.11).  Raw wall-clock times are reported beside them.
CAL_REFERENCE_S = 0.0018
CAL_WINDOW = 3

_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from calibration import calibrate\n"
    "before = calibrate()\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "t = time.perf_counter()\n"
    "import kgbound.cli\n"
    "took = time.perf_counter() - t\n"
    "print(repr(took), repr(before), repr(calibrate()))\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


# ------------------------------------------------------------ program

def load_cli():
    """Import kgbound.cli from this checkout's sources, not elsewhere."""
    if not (SRC / "kgbound" / "cli.py").is_file():
        raise BenchError(f"no kgbound sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kgbound.cli
    if Path(kgbound.cli.__file__).resolve().parent != SRC / "kgbound":
        raise BenchError(f"kgbound imported from {kgbound.cli.__file__}, "
                         f"not from {SRC}")
    return kgbound.cli


def scaled(times, cal):
    """Scale times[i] by the machine speed around it.  cal[i] was measured
    just before op i and cal[i + 1] just after; the speed switches within
    fractions of a second, so the mean of a few calibrations on each side
    estimates the average speed an op ran at better than one sample."""
    out = []
    for i, t in enumerate(times):
        near = cal[max(0, i - CAL_WINDOW + 1):i + 1 + CAL_WINDOW]
        out.append(t * CAL_REFERENCE_S / statistics.fmean(near))
    return out


# NumPy's import starts a BLAS thread pool, about half of its import time
# and most of its run-to-run variance on a shared host.  kgbound calls no
# BLAS routine, so the import timer runs with one BLAS thread.
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": "1"}


def time_import():
    """One fresh interpreter's ``import kgbound.cli``: (scaled, raw)
    seconds.  The child calibrates itself before and after the import,
    because it may run on another CPU than this process."""
    proc = subprocess.run([sys.executable, "-I", "-c", _IMPORT_TIMER,
                           str(HERE), str(SRC)], cwd=ROOT,
                          env=dict(os.environ, **_ONE_BLAS_THREAD),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"import kgbound.cli failed:\n{proc.stderr}")
    took, before, after = map(float, proc.stdout.split())
    return took * CAL_REFERENCE_S / statistics.fmean((before, after)), took


def run_op(cli, argv):
    """One CLI call: (exit code, stdout, stderr, seconds).  The exit code
    is None when main raised; the traceback goes to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = None
        seconds = perf_counter() - start
        if rc is None:
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue(), seconds


class Checker:
    """Per-workload output check; remembers the first paper-grid CSV of
    each mode so repeats must match it byte for byte."""

    def __init__(self, workload: str):
        self.workload = workload
        self.reference = {}
        self.first_csv = {}
        if workload == "paper-grid":
            for mode in workloads.MODES:
                path = FIXTURES / f"reference_{mode}.csv"
                if not path.is_file():
                    raise BenchError(f"missing reference table {path}")
                self.reference[mode] = checks.load_reference(path)

    def __call__(self, op, rc, out, err) -> checks.Verdict:
        if rc is None:
            return checks.Verdict(ok=False, detail="uncaught exception:\n"
                                  + err)
        if self.workload == "paper-grid":
            mode = op.param("mode")
            first = self.first_csv.setdefault(mode, out)
            if out != first:
                return checks.Verdict(ok=False, detail=f"{mode} CSV differs "
                                      "from the first run of that mode")
            return checks.check_paper_grid(rc, out, self.reference[mode])
        if self.workload == "sweep":
            return checks.check_sweep(rc, out)
        if self.workload == "wavefunction":
            return checks.check_wavefunction(rc, out, op.param("n"),
                                             op.param("points"))
        return checks.check_aim(rc, out, op.param("perturb"))


# ---------------------------------------------------------- statistics

def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of values, p in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Tally:
    """Attempted and failed ops, the work they did, and the first few
    failure details."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.work = 0
        self.failures = []
        self.extra = {}

    def add(self, op, verdict: checks.Verdict):
        self.attempted += 1
        if not verdict.ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append({"argv": list(op.argv),
                                      "detail": verdict.detail})
            return
        self.work += verdict.work
        for key, value in verdict.extra.items():
            if key.endswith("_max_mev"):
                self.extra[key] = max(self.extra.get(key, 0.0), value)
            else:
                self.extra[key] = self.extra.get(key, 0) + value
        self.extra["ops_ok"] = self.extra.get("ops_ok", 0) + 1


# ------------------------------------------------------------- runs

def run_untraced(cli, workload: str, seed: int, seconds: float):
    """Closed loop over the seeded op stream for `seconds` of wall time,
    stopping only at the end of a round; returns (metrics, tally, info)."""
    check = Checker(workload)
    tally = Tally()
    time_import()  # writes the bytecode caches; not counted
    warm = next(workloads.ops(workload, seed))
    rc, out, err, _ = run_op(cli, warm.argv)
    tally.add(warm, check(warm, rc, out, err))

    # Set-up is timed between ops, spread over the run, so that its median
    # spans the same stretch of machine time as the ops.
    setups = []
    raw, cal = [], [calibrate()]
    work = 0
    start = perf_counter()
    for op in workloads.ops(workload, seed):
        rc, out, err, dt = run_op(cli, op.argv)
        cal.append(calibrate())
        verdict = check(op, rc, out, err)
        tally.add(op, verdict)
        raw.append(dt)
        work += verdict.work
        elapsed = perf_counter() - start
        if elapsed >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(time_import())
        if op.closes_round and elapsed >= seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(time_import())
    setups = setups[:SETUP_REPEATS]
    setup_s = statistics.median(s for s, _ in setups)
    setup_raw = statistics.median(r for _, r in setups)
    times = scaled(raw, cal)

    p = workloads.TAIL_PERCENTILE[workload]
    tail = percentile(times, p)
    metrics = {
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": tail * 1e3,
        "work_per_s": work / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "setup_s": setup_s,
    }
    info = {"ops_timed": len(times), "tail_percentile": p,
            "tail_samples_beyond": sum(1 for t in times if t > tail),
            "work_unit": workloads.WORK_UNIT[workload],
            "failed_frac": tally.failed / tally.attempted,
            "raw_op_p50_ms": statistics.median(raw) * 1e3,
            "raw_op_tail_ms": percentile(raw, p) * 1e3,
            "raw_work_per_s": work / sum(raw),
            "raw_setup_s": setup_raw,
            "calibration_median_s": statistics.median(cal)}
    info.update(tally.extra)
    return metrics, tally, info


def run_traced(cli, workload: str, seed: int, seconds: float, spans_path):
    """Repeat one fixed pass of ops, each untraced then traced, until
    `seconds` have passed; per-layer counts are per pass."""
    check = Checker(workload)
    tally = Tally()
    pass_ops = list(itertools.islice(workloads.ops(workload, seed),
                                     workloads.TRACE_PASS_OPS[workload]))
    rc, out, err, _ = run_op(cli, pass_ops[0].argv)
    tally.add(pass_ops[0], check(pass_ops[0], rc, out, err))

    tracer = Tracer()
    untraced, traced = [], []
    traced_work = aim_seeds = 0
    passes = 0
    start = perf_counter()
    while True:
        for i, op in enumerate(pass_ops):
            rc, out, err, dt = run_op(cli, op.argv)
            tally.add(op, check(op, rc, out, err))
            untraced.append(dt)

            tracer.op = i
            tracer.install()
            try:
                rc, out, err, dt = run_op(cli, op.argv)
            finally:
                tracer.uninstall()
            tracer.fold(keep=passes == 0)
            verdict = check(op, rc, out, err)
            tally.add(op, verdict)
            traced.append(dt)
            tracer.counts["cli.output_bytes"] += len(out.encode())
            traced_work += verdict.work
            if op.argv[0] == "aim-verify":
                aim_seeds += workloads.AIM_SEEDS
        passes += 1
        if perf_counter() - start >= seconds:
            break
    tracer.export(spans_path, start)

    m = tracer.metrics(passes)
    u_calls = tracer.counts["special.wavefunction_u.calls"]
    m["special.wavefunction_u.per_sample"] = (
        u_calls / traced_work if workload == "wavefunction" and traced_work
        else 0.0)
    m["aim.iterate.per_seed"] = (
        tracer.totals.get("aim.iterate", (0,))[0] / aim_seeds
        if aim_seeds else 0.0)
    m["trace.untraced_op_p50_ms"] = statistics.median(untraced) * 1e3
    m["trace.traced_op_p50_ms"] = statistics.median(traced) * 1e3
    m["trace.overhead_ms"] = (m["trace.traced_op_p50_ms"]
                              - m["trace.untraced_op_p50_ms"])
    info = {"passes": passes, "ops_per_pass": len(pass_ops),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "failed_frac": tally.failed / tally.attempted}
    return m, tally, info


# ------------------------------------------------------- environment

def git_sha() -> str:
    """Commit of the checkout, read from .git without running git; the
    benchmark may run in an export that has no .git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    from kgbound import _kernels
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": _kernels.BACKEND,
        "kgbound_pure": os.environ.get("KGBOUND_PURE"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


# -------------------------------------------------------------- report

def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report_untraced(workload, metrics, info, tally):
    unit = info["work_unit"]
    print(f"[{workload}] {tally.attempted} ops attempted, {tally.failed} "
          f"failed, failed_frac = {_fmt(info['failed_frac'])}")
    print(f"  times scaled to the reference machine speed; calibration "
          f"median {_fmt(info['calibration_median_s'] * 1e3)} ms vs "
          f"reference {_fmt(CAL_REFERENCE_S * 1e3)} ms; raw wall clock in "
          "brackets")
    print(f"  op_p50_ms    = {_fmt(metrics['op_p50_ms'])} ms "
          f"[{_fmt(info['raw_op_p50_ms'])}] (median of {info['ops_timed']} "
          "ops)")
    print(f"  op_tail_ms   = {_fmt(metrics['op_tail_ms'])} ms "
          f"[{_fmt(info['raw_op_tail_ms'])}] (p{info['tail_percentile']:g} "
          f"of {info['ops_timed']} ops, {info['tail_samples_beyond']} beyond "
          "it)")
    print(f"  work_per_s   = {_fmt(metrics['work_per_s'])} 1/s "
          f"[{_fmt(info['raw_work_per_s'])}] ({unit}_per_s)")
    print(f"  peak_rss_mb  = {_fmt(metrics['peak_rss_mb'])} MB")
    print(f"  setup_s      = {_fmt(metrics['setup_s'])} s "
          f"[{_fmt(info['raw_setup_s'])}] (median of {SETUP_REPEATS} fresh "
          "imports of kgbound.cli, one BLAS thread)")
    if "ref_dev_max_mev" in info:
        print(f"  ref_dev_max_mev = {_fmt(info['ref_dev_max_mev'])} MeV "
              "(worst |E - reference| over the compared cells)")
    ok = info.get("ops_ok", 0)
    if workload == "sweep" and info.get("lines"):
        print(f"  absent lines: {_fmt(info['absent_lines'] / info['lines'])}"
              f" of {info['lines']}")
    if workload == "wavefunction" and ok:
        print(f"  lines per op: {_fmt(info['lines'] / ok)}")
    if workload == "aim" and ok:
        print(f"  certificates per op: {_fmt(tally.work / ok)}")


def report_traced(workload, metrics, info, tally):
    print(f"[{workload} traced] {info['passes']} passes of "
          f"{info['ops_per_pass']} ops, {tally.attempted} ops attempted, "
          f"{tally.failed} failed; per-pass values, spans in "
          f"{info['spans_file']}")
    for name, unit, _ in layer_metric_specs():
        print(f"  {name:40s} = {_fmt(metrics[name])} {unit}")


def run_workload(cli, env, workload, seed, seconds, trace):
    RESULTS.mkdir(exist_ok=True)
    stem = f"BENCH_{workload}_seed{seed}" + ("_trace" if trace else "")
    if trace:
        metrics, tally, info = run_traced(cli, workload, seed, seconds,
                                          RESULTS / f"{stem}_spans.jsonl")
        report_traced(workload, metrics, info, tally)
        units = {name: unit for name, unit, _ in layer_metric_specs()}
    else:
        metrics, tally, info = run_untraced(cli, workload, seed, seconds)
        report_untraced(workload, metrics, info, tally)
        units = dict(END_TO_END)
    for failure in tally.failures:
        print(f"  FAILED {' '.join(failure['argv'])}: {failure['detail']}")
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": env, "info": info,
              "attempted": tally.attempted, "failed": tally.failed,
              "failures": tally.failures,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        cli = load_cli()
        env = environment()
        print("environment: " + json.dumps(env))
        if env["kernel_backend"] != BASELINE_BACKEND:
            print(f"WARNING: kernel backend {env['kernel_backend']!r} is not "
                  f"the baseline backend {BASELINE_BACKEND!r}; do not compare "
                  "these numbers with baseline results")
        names = (workloads.WORKLOADS if args.workload == "all"
                 else (args.workload,))
        records = [run_workload(cli, env, w, args.seed, args.seconds,
                                bool(args.trace)) for w in names]
    except BenchError as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records
                   for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
