"""The ris2x2 benchmark: the CLI's three slow commands, end to end and per layer.

Run from the root of a checkout (the program is imported from its ``src``):

    python3 perfbench/run.py --workload outage_fig --seed 1729 --seconds 20 --trace 0

Each workload is a closed loop with one client: one CLI run at a time, each
in a fresh child process (``child.py``), started until ``--seconds`` have
passed and at least ``MIN_RUNS`` have ended. Every output is checked
(``check.py``). With ``--trace 0`` the last line reports the end-to-end
metrics, medians over the runs:

* ``wall_s``: from entering ``ris2x2.cli.main`` until it returns;
* ``setup_s``: from spawning a child until ``import ris2x2`` has finished,
  over the CLI runs and, up to ``SETUP_SAMPLES``, import-only children;
* ``cpu_s``: user plus system CPU time of the child;
* ``peak_rss_mb``: peak resident memory of the child.

``fail_frac`` is ``failed / attempted`` of the result line. With
``--trace 1`` the benchmark runs the CLI once untraced and once traced and
reports the per-layer metrics of ``layers.py``. ``--workload all`` runs
every workload in turn and prefixes each metric with its workload's name.

Before the result line it prints the run environment and every metric by
name and unit. It exits 2 without a result if the checkout holds no
program.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib.metadata import version
from pathlib import Path

from check import check_curve, check_verify, load_reference
from layers import PER_LAYER, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"
CPUS = sorted(os.sched_getaffinity(0))
NPROC = len(CPUS)
# CLI runs per invocation at least, so that the median drops one slow run.
MIN_RUNS = 3
# Set-up samples per run: the CLI runs, topped up with import-only children.
SETUP_SAMPLES = 7
# Every run of one benchmark invocation must end well within 180 s.
DEADLINE_S = 170.0

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple  # CLI arguments before --seed/--out
    kind: str  # "outage", "throughput" or "verify"
    seeded: bool = True
    # Single-threaded apart from a sub-second MC pass: samples run pinned,
    # the first on the first vCPU and then one vCPU after the other. Every
    # invocation then uses the vCPUs in the same order, so vCPUs of unequal
    # speed (seen on shared hosts) shift all medians alike instead of
    # making them bimodal.
    pinned: bool = False

    def argv(self, seed, out_dir):
        args = list(self.command)
        if self.seeded:
            args += ["--seed", str(seed)]
        if self.kind != "verify":
            args += ["--out", str(Path(out_dir) / f"{self.kind}.csv")]
        return args


# BENCHMARK.json lists outage_fig and verify_smoke only: verify_smoke's
# three runs take over a minute, and a third workload would not leave the
# time for them in a full set of regression runs. throughput_fig's hot
# spot, analytic throughput, is also most of verify_smoke (C6); it still
# runs by name or with --workload all.
#
# verify_smoke keeps the CLI's default seed: at 10^4 trials the smoke
# profile's statistical criteria (C5, C6, C7) fail on about 1 seed in 22,
# which is a defect of those tolerances, not of the run being timed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("outage_fig", ("outage",), "outage"),
        Workload("throughput_fig",
                 ("throughput", "--snr-db-step", "10", "--trials", "100000"), "throughput",
                 pinned=True),
        Workload("verify_smoke", ("verify", "--level", "smoke"), "verify", seeded=False,
                 pinned=True),
    )
}


@dataclass
class Run:
    exit_code: int
    setup_s: float = None
    wall_s: float = None
    cpu_s: float = None
    peak_rss_mb: float = None
    elapsed_s: float = 0.0
    stdout: str = ""
    csv: str = ""
    record: dict = field(default_factory=dict)


class SetupError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(NPROC)
    return env


def spawn(work, args, deadline, trace=False, cpu=None):
    """One child process, on vCPU ``cpu`` if given; returns its Run once it
    has been reaped."""
    out_dir = Path(tempfile.mkdtemp(dir=work))
    result_path = out_dir / "result.json"
    cmd = [sys.executable, str(CHILD), str(result_path)]
    cmd += (["--trace"] if trace else []) + (["--"] + args if args else [])
    with open(out_dir / "stdout", "w+") as out, open(out_dir / "stderr", "w+") as err:
        t_spawn = time.monotonic()
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        proc = subprocess.Popen(cmd, cwd=out_dir, env=child_env(), stdout=out, stderr=err,
                                preexec_fn=pin)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.02)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        run = Run(proc.returncode, elapsed_s=time.monotonic() - t_spawn,
                  cpu_s=usage.ru_utime + usage.ru_stime, peak_rss_mb=usage.ru_maxrss / 1024.0)
        out.seek(0)
        run.stdout = out.read()
        err.seek(0)
        stderr = err.read()
    if result_path.exists():
        run.record = json.loads(result_path.read_text())
        run.setup_s = run.record["import_done"] - t_spawn
        run.wall_s = run.record.get("wall_s")
    else:
        run.exit_code = run.exit_code or 1
        print(f"child failed ({run.exit_code}): {stderr[-2000:]}", file=sys.stderr)
    csv_files = list(out_dir.glob("*.csv"))
    run.csv = csv_files[0].read_text() if csv_files else ""
    shutil.rmtree(out_dir)
    return run


def probe(work, deadline):
    """An import-only child: its set-up time."""
    run = spawn(work, [], deadline)
    origin = run.record.get("ris2x2_file", "")
    if run.exit_code != 0 or not Path(origin).is_relative_to(SRC):
        raise SetupError(f"cannot import ris2x2 from {SRC} (got {origin or 'nothing'})")
    return run.setup_s


def check(workload, run):
    if workload.kind == "verify":
        return check_verify(run.exit_code, run.stdout)
    return check_curve(workload.kind, run.exit_code, run.csv, load_reference(workload.kind))


def cli_run(work, workload, seed, deadline, trace=False, cpu=None):
    run = spawn(work, workload.argv(seed, "."), deadline, trace, cpu)
    attempted, failed, problems = check(workload, run)
    for problem in problems[:5]:
        print(f"{workload.name}: {problem}", file=sys.stderr)
    return run, attempted, failed


def timed(work, workload, seed, seconds, start):
    """End-to-end metrics, tracing off: medians over the runs."""
    deadline = start + DEADLINE_S
    runs, attempted, failed = [], 0, 0
    while len(runs) < MIN_RUNS or time.monotonic() - start < seconds:
        cpu = CPUS[len(runs) % NPROC] if workload.pinned else None
        run, a, f = cli_run(work, workload, seed, deadline, cpu=cpu)
        runs.append(run)
        attempted += a
        failed += f
    setups = [r.setup_s for r in runs]
    setups += [probe(work, deadline) for _ in range(SETUP_SAMPLES - len(runs))]
    samples = {
        "wall_s": [r.wall_s for r in runs],
        "setup_s": setups,
        "cpu_s": [r.cpu_s for r in runs],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
    }
    metrics = {}
    for name, unit in END_TO_END:
        values = [v for v in samples[name] if v is not None]
        value = statistics.median(values) if values else 0.0
        metrics[name] = (value, unit)
        shown = ", ".join(f"{v:.4g}" for v in values)
        print(f"{workload.name} {name}: {value:.6g} {unit} (median of {len(values)}: {shown})")
    return metrics, attempted, failed


def traced(work, workload, seed, start):
    """Per-layer metrics: one untraced and one traced run of the same input."""
    deadline = start + DEADLINE_S
    cpu = CPUS[0] if workload.pinned else None
    plain, a1, f1 = cli_run(work, workload, seed, deadline, cpu=cpu)
    run, a2, f2 = cli_run(work, workload, seed, deadline, trace=True, cpu=cpu)
    spans = run.record.get("spans", [])
    metrics = layer_metrics(spans, NPROC)
    metrics["trace.overhead_s"] = (run.wall_s or 0.0) - (plain.wall_s or 0.0)
    metrics["trace.spans"] = len(spans)
    for name, unit, _better in PER_LAYER:
        print(f"{workload.name} {name}: {metrics[name]:.6g} {unit}")
    return {n: (metrics[n], u) for n, u, _b in PER_LAYER}, a1 + a2, f1 + f2


def environment(seed):
    def cache_size(level):
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            try:
                if (index / "level").read_text().strip() == str(level):
                    return (index / "size").read_text().strip()
            except OSError:
                pass
        return None

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "ris2x2").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": NPROC,
        "cpu_model": cpu_model or platform.processor() or None,
        "l2": cache_size(2),
        "l3": cache_size(3),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "blas_threads": NPROC,
        "argv": {n: ["ris2x2"] + w.argv(seed, "<tmp>") for n, w in WORKLOADS.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still kills and reaps its child (see spawn).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "ris2x2" / "cli.py").is_file():
        print(f"error: no ris2x2 sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        start = time.monotonic()
        probe(work, start + DEADLINE_S)  # warm-up: byte-code caches, page cache
        print("env " + json.dumps(environment(args.seed)))
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            workload = WORKLOADS[name]
            if args.trace:
                m, a, f = traced(work, workload, args.seed, time.monotonic())
            else:
                m, a, f = timed(work, workload, args.seed, args.seconds, time.monotonic())
            print(f"{name} fail_frac: {f / a:.6g} ratio ({f} of {a} operations)")
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
            attempted += a
            failed += f
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
