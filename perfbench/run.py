"""twistcert benchmark: one closed-loop client, one process, in-process CLI ops.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload certify-words --seed 1 --seconds 30 --trace 0

The workload's op list (see workloads.py) runs in whole rounds, each op
starting when the previous one ends, until about --seconds have passed. Every
op is `twistcert.cli.main([...,"--format","json"])` with stdout captured, and
its exit code and JSON are checked afterwards against independent
computations (checks.py, oracle.py).

--trace 0 prints the end-to-end metrics: ops_per_s, op_p50_ms, op_p90_ms,
setup_s and peak_rss_mb. --trace 1 runs every op twice, untraced and traced
around twistcert's public functions (spans.py), and prints the per-layer
metrics, start-up costs measured in fresh interpreters, and the tracing
overhead. The last line of stdout is one JSON object.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import checks  # noqa: E402  (HERE is on sys.path as the script's directory)
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7        # fresh interpreters per run for setup_s
STARTUP_SAMPLES = 5      # fresh interpreters per start-up metric
CHILD_TIMEOUT_S = 60


class Runner:
    """Runs ops in-process and keeps every distinct outcome per op."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.outcomes: dict[int, Counter] = {}   # op key -> (rc, stdout, created) counts

    def run_op(self, key: int, op: workloads.Op) -> float:
        out, err = io.StringIO(), io.StringIO()
        argv = op.argv + ["--format", "json"]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash is an outcome the checks reject
                rc = f"raised {exc!r}"
        text = out.getvalue()
        latency = time.perf_counter() - t0
        writes = op.expect.get("writes")
        created = os.path.exists(writes) if writes else None
        if created and op.cleanup:
            os.remove(writes)
        if not text and err.getvalue():
            text = "stderr: " + err.getvalue()
        self.outcomes.setdefault(key, Counter())[(rc, text, created)] += 1
        return latency

    def rounds(self, ops: list[workloads.Op], seconds: float) -> tuple[list[float], int]:
        """As many whole rounds over ops as end nearest to `seconds`. Returns
        the op latencies and the number of rounds."""
        latencies: list[float] = []
        start = time.perf_counter()
        done = 0
        while True:
            round_start = time.perf_counter()
            for i, op in enumerate(ops):
                latencies.append(self.run_op(i, op))
            done += 1
            now = time.perf_counter()
            if now - start + (now - round_start) / 2 > seconds:
                return latencies, done

    def paired_rounds(self, ops: list[workloads.Op], seconds: float,
                      tracer: spans.Tracer) -> tuple[list[float], list[float]]:
        """Whole rounds in which every op runs twice back to back, untraced
        and traced, in alternating order, so that host speed drift cancels
        out of the tracing overhead. Returns (untraced, traced) latencies."""
        plain: list[float] = []
        traced: list[float] = []
        start = time.perf_counter()
        done = 0
        while True:
            round_start = time.perf_counter()
            for i, op in enumerate(ops):
                for with_trace in ((False, True) if (i + done) % 2 == 0 else (True, False)):
                    if not with_trace:
                        plain.append(self.run_op(i, op))
                        continue
                    tracer.op_id = len(traced)
                    tracer.op_cache = op.cache
                    tracer.install()
                    try:
                        traced.append(self.run_op(i, op))
                    finally:
                        tracer.uninstall()
            done += 1
            now = time.perf_counter()
            if now - start + (now - round_start) / 2 > seconds:
                return plain, traced


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("TWISTCERT_CACHE", None)
    return env


def _prelude() -> str:
    return f"import sys\nsys.path.insert(0, {SRC!r})\n"


def setup_seconds(wl: workloads.Workload) -> float:
    """Median, over fresh interpreters, of the time from spawning one to the
    point where it could time its first op: interpreter start, `import
    twistcert` and the workload's once-only work. One unmeasured spawn first
    warms the file cache."""
    samples = []
    for n in range(SETUP_SAMPLES + 1):
        cache = os.path.join(OUT, f"setup-{os.getpid()}-{n}.cache")
        code = (_prelude() + f"CACHE = {cache!r}\nimport twistcert.cli as cli\n"
                + wl.setup_code + "sys.stdout.write('ready\\n')\nsys.stdout.flush()\n")
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            try:
                line = proc.stdout.readline()
                t1 = time.perf_counter()
                _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except BaseException:
                proc.kill()
                raise
        if os.path.exists(cache):
            os.remove(cache)
        if line != "ready\n" or proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {err.strip()[-500:]}")
        if n:
            samples.append(t1 - t0)
    return statistics.median(samples)


def startup_metrics(spawn_op: workloads.Op, expected_rc) -> dict[str, tuple[float, str]]:
    """`import twistcert` wall and CPU time, and one whole CLI op in a fresh
    interpreter, each the median of several spawns after one warm-up."""
    code = (f"import json, sys, time\nw0 = time.perf_counter()\nc0 = time.process_time()\n"
            f"sys.path.insert(0, {SRC!r})\nimport twistcert\n"
            "print(json.dumps([time.perf_counter() - w0, time.process_time() - c0]))\n")
    walls, cpus, spawns = [], [], []
    for n in range(STARTUP_SAMPLES + 1):
        res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                             capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if res.returncode != 0:
            raise RuntimeError(f"import interpreter failed: {res.stderr.strip()[-500:]}")
        wall, cpu = json.loads(res.stdout)
        if n:
            walls.append(wall)
            cpus.append(cpu)
    spawn = (_prelude() + "from twistcert.cli import main\n"
             f"sys.exit(main({spawn_op.argv + ['--format', 'json']!r}))\n")
    for n in range(STARTUP_SAMPLES + 1):
        t0 = time.perf_counter()
        res = subprocess.run([sys.executable, "-c", spawn], cwd=ROOT, env=child_env(),
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                             timeout=CHILD_TIMEOUT_S)
        t1 = time.perf_counter()
        if res.returncode != expected_rc:
            raise RuntimeError(f"spawned op exited {res.returncode}, expected {expected_rc}")
        if n:
            spawns.append(t1 - t0)
    return {
        "twistcert.import_wall_ms": (1000 * statistics.median(walls), "ms"),
        "twistcert.import_cpu_ms": (1000 * statistics.median(cpus), "ms"),
        "cli.spawn_ms": (1000 * statistics.median(spawns), "ms"),
    }


def import_cli():
    sys.path.insert(0, SRC)
    import twistcert.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"twistcert was imported from {cli.__file__}, not from {SRC}")
    return cli


def check_all(runner: Runner, ops_by_key: dict[int, workloads.Op]) -> tuple[int, bool]:
    """Check every distinct outcome once. Returns the number of failed timed
    ops and whether the untimed set-up ops (negative keys) all passed."""
    checker = checks.Checker()
    failed, setup_ok = 0, True
    for key, outcomes in sorted(runner.outcomes.items()):
        op = ops_by_key[key]
        for (rc, text, created), count in outcomes.items():
            why = checker.check_op(op, rc, text, created)
            if why is None:
                continue
            sys.stderr.write(f"check failed: {' '.join(op.argv)}: {why}\n")
            if key < 0:
                setup_ok = False
            else:
                failed += count
    return failed, setup_ok


def class_table(ops: list[workloads.Op], latencies: list[float]) -> dict[str, dict]:
    """Per op class: count, median latency, and the class's share of the
    sorted latencies (so one can see which class holds p50 and p90)."""
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    by_class: dict[str, list] = {}
    for rank, n in enumerate(order):
        by_class.setdefault(ops[n % len(ops)].cls, []).append((latencies[n], rank))
    return {cls: {"ops": len(v), "median_ms": 1000 * statistics.median(x for x, _ in v),
                  "rank_range": [v[0][1] / len(order), v[-1][1] / len(order)]}
            for cls, v in sorted(by_class.items())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "twistcert", "cli.py")):
        sys.stderr.write(f"error: no twistcert sources under {SRC}; "
                         "run from the root of a twistcert checkout\n")
        return 2
    os.environ.pop("TWISTCERT_CACHE", None)
    os.makedirs(OUT, exist_ok=True)
    wl = workloads.BUILDERS[args.workload](args.seed, OUT)
    ops_by_key = dict(enumerate(wl.ops))
    ops_by_key.update({-1 - n: op for n, op in enumerate(wl.setup_ops)})

    setup_s = None if args.trace else setup_seconds(wl)
    cli = import_cli()
    runner = Runner(cli)
    for n, op in enumerate(wl.setup_ops):
        runner.run_op(-1 - n, op)

    metrics: dict[str, tuple[float, str]]
    if args.trace:
        tracer = spans.Tracer()
        latencies, traced = runner.paired_rounds(wl.ops, args.seconds, tracer)
        rounds = len(latencies) // len(wl.ops)
        attempted = len(latencies) + len(traced)
        spawn_key = next(k for k, op in ops_by_key.items() if op.argv == wl.spawn_op.argv)
        spawn_rc = next(iter(runner.outcomes[spawn_key]))[0]
        metrics = startup_metrics(wl.spawn_op, spawn_rc)
        metrics.update(tracer.metrics(len(traced)))
        metrics["bench.trace_overhead"] = (sum(traced) / sum(latencies), "1")
        tracer.write(os.path.join(OUT, f"trace-{args.workload}.spans"))
    else:
        latencies, rounds = runner.rounds(wl.ops, args.seconds)
        attempted = len(latencies)
        metrics = {
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
            "op_p90_ms": (1000 * statistics.quantiles(latencies, n=10)[-1], "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }

    failed, setup_ok = check_all(runner, ops_by_key)
    result = {
        "correct": setup_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({**result, "rounds": rounds, "classes": class_table(wl.ops, latencies),
                   "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
