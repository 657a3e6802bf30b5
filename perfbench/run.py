"""Benchmark of the etainv CLI: seeded workloads run in-process through ``etainv.cli.main``.

One process, one client in a closed loop, no threads.  Each request is an argv
list generated from the seed (see ``workloads.py``); the program sees only
that argv.  Outputs are checked after the timed window.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seconds 5            # every workload, untraced and traced
    python3 perfbench/run.py --workload poly --seed 1 --digest

``--trace 0`` runs whole request blocks until ``--seconds`` have passed and
reports the end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` runs a
fixed list of blocks, so that every count repeats exactly for a seed, once
untraced and once under ``tracing.Tracer``, and reports the per-layer metrics;
its spans go to ``perfbench/out/``.  ``--out FILE`` appends each result, with
its provenance and output digest, as one JSON line for ``compare.py``.

Times are divided by the host speed measured next to them (see ``HostClock``):
they are the times of a host on which the reference calculation takes
REFERENCE_S, so that the host's own swings do not read as program changes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
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
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

from tracing import CACHES, Tracer
from workloads import TAIL_PERCENTILE, WORKLOADS, Oracle, blocks, check, result_count

SETUP_WARMUPS = 2
SETUP_SPAWNS = 15
REFERENCE_S = 0.003
REFERENCE_REPS = 4
TRACE_BLOCKS = {"sweep": 2, "oneshot": 6, "poly": 2, "verify": 3}
SHOWN_PROBLEMS = 5


@dataclass
class Reply:
    argv: list
    code: object
    stdout: str
    stderr: str


def load_program():
    """Import etainv from this checkout's ``src``, never from an installed copy."""
    if not (SRC / "etainv" / "cli.py").is_file():
        sys.exit(f"error: no etainv sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import etainv
    import etainv.cli

    if Path(etainv.__file__).resolve().parent != SRC / "etainv":
        sys.exit(f"error: imported etainv from {etainv.__file__}, not from {SRC}")
    return etainv


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(etainv) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "backend": etainv.RATIONAL_BACKEND,
        "nproc": os.cpu_count(),
    }


def run_request(cli, argv) -> Reply:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "exception"
            traceback.print_exc()
    return Reply(argv, code, out.getvalue(), err.getvalue())


def digest(replies) -> str:
    return hashlib.sha256("".join(r.stdout for r in replies).encode()).hexdigest()


def reference_calculation():
    """Exact Fraction work that never touches etainv: 40 Bernoulli numbers (Akiyama-Tanigawa)."""
    a = []
    for m in range(40):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0]


class HostClock:
    """Host speed, read from the time of the reference calculation.

    On a shared host the speed of Python code swings by a quarter within
    seconds, and the program's exact arithmetic slows down with it.  Each
    timed step is therefore divided by the mean factor sampled just before and
    just after it, a factor being the reference time over REFERENCE_S.  The
    times reported are those of a host on which the reference takes
    REFERENCE_S.
    """

    def __init__(self):
        self.factors = []

    def sample(self) -> float:
        times = []
        for _ in range(REFERENCE_REPS):
            start = perf_counter()
            reference_calculation()
            times.append(perf_counter() - start)
        self.factors.append(statistics.median(times) / REFERENCE_S)
        return self.factors[-1]

    def median(self) -> float:
        return statistics.median(self.factors)

    def seconds(self, step):
        """Run ``step()``; return its result and its duration divided by the host factor."""
        before = self.factors[-1] if self.factors else self.sample()
        start = perf_counter()
        result = step()
        elapsed = perf_counter() - start
        return result, elapsed / ((before + self.sample()) / 2)


def clear_caches(etainv):
    for name in CACHES:
        getattr(etainv.invariants, name).cache_clear()


def measure_setup() -> float:
    """Median time of a fresh interpreter importing etainv.cli, as every CLI call pays."""
    clock = HostClock()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import etainv.cli"]
    times = []
    for _ in range(SETUP_WARMUPS):
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL, timeout=60)
    for _ in range(SETUP_SPAWNS):
        _, seconds = clock.seconds(lambda: subprocess.run(
            argv, env=env, check=True, stdout=subprocess.DEVNULL, timeout=60))
        times.append(seconds)
    return statistics.median(times)


def fresh_digest(workload: str, seed: int) -> str:
    """Digest of the seed's first block, computed by a second interpreter."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--digest"]
    done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=150)
    return done.stdout.split()[-1]


def check_all(replies, oracle) -> list:
    """One entry per reply: None when it is right, else a description of the fault."""
    problems = []
    for r in replies:
        try:
            problem = check(r.argv, r.code, r.stdout, oracle)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output ({exc!r})"
        problems.append(problem and f"{' '.join(r.argv)}: {problem} {r.stderr.strip()[-300:]}")
    return problems


def measure_untraced(etainv, workload: str, seed: int, seconds: float):
    """End-to-end metrics of one closed-loop window, plus info lines and problems."""
    clear_caches(etainv)
    setup_s = measure_setup()
    clock = HostClock()
    stream = blocks(workload, seed)
    replies, latencies = [], []
    done = []  # (first reply, end reply, seconds) of each block
    deadline = perf_counter() + seconds
    while len(done) < 2 or perf_counter() < deadline:
        first, block_s = len(replies), 0.0
        for argv in next(stream):
            reply, took = clock.seconds(lambda: run_request(etainv.cli, argv))
            replies.append(reply)
            latencies.append(1000 * took)
            block_s += took
        done.append((first, len(replies), block_s))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdicts = check_all(replies, Oracle())
    problems = [p for p in verdicts if p]
    failed = len(problems)
    counts = [0 if p else result_count(r.argv, r.stdout) for r, p in zip(replies, verdicts)]
    first_block = done[0][1]
    ours, theirs = digest(replies[:first_block]), fresh_digest(workload, seed)
    if ours != theirs:
        problems.append(f"first block stdout digest {ours} here, {theirs} in a fresh process")
        failed = min(len(replies), failed + first_block)

    percentile = TAIL_PERCENTILE[workload]
    tail = statistics.quantiles(latencies, n=100, method="inclusive")[percentile - 1]
    metrics = {
        "wall_s": statistics.median(s for _, _, s in done),
        "req_p50_ms": statistics.median(latencies),
        "req_tail_ms": tail,
        "results_per_s": statistics.median(sum(counts[a:b]) / s for a, b, s in done),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "requests": len(replies),
        "tail_percentile": percentile,
        "samples_beyond_tail": sum(x > tail for x in latencies),
        "blocks": len(done),
        "host_factor": clock.median(),
        "error_rate": failed / len(replies),
        "digest": ours,
    }
    return metrics, info, problems, len(replies), failed


def measure_traced(etainv, workload: str, seed: int, units: dict):
    """Per-layer metrics of a fixed request list, run untraced and then traced."""
    stream = blocks(workload, seed)
    requests = [argv for _ in range(TRACE_BLOCKS[workload]) for argv in next(stream)]
    clock = HostClock()
    clear_caches(etainv)
    plain, plain_s = clock.seconds(lambda: [run_request(etainv.cli, argv) for argv in requests])

    suite = etainv.verify.PAPER_SUITE
    tracer = Tracer()

    def traced_pass():
        # the host clock's reference calculation must stay outside the tracer
        replies = []
        with tracer.installed(suite):
            for i, argv in enumerate(requests):
                tracer.request_id = i
                replies.append(run_request(etainv.cli, argv))
        return replies

    clear_caches(etainv)
    traced, traced_s = clock.seconds(traced_pass)

    caches = {name: getattr(etainv.invariants, name).cache_info() for name in CACHES}
    metrics = tracer.metrics(caches, [name for name, _ in suite])
    metrics["cli.output_bytes"] = sum(len(r.stdout.encode()) for r in traced)
    factor = clock.median()
    for name, unit in units.items():
        if unit in ("s", "ms") and name in metrics:
            metrics[name] /= factor
    metrics["trace.overhead_s"] = traced_s - plain_s
    problems = [p for p in check_all(traced, Oracle()) if p]
    failed = len(problems)
    if digest(plain) != digest(traced):
        problems.append("stdout under tracing differs from stdout without it")
        failed = len(traced)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.csv"
    tracer.write_spans(spans_path)
    info = {"requests": len(traced), "spans": len(tracer.spans), "spans_file": str(spans_path),
            "host_factor": factor, "error_rate": failed / len(traced), "digest": digest(traced)}
    return metrics, info, problems, len(traced), failed


def select(values: dict, declared: list, workload: str) -> dict:
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        sys.exit(f"error: {workload} metrics differ from BENCHMARK.json: "
                 f"{sorted(set(values) ^ set(names))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run_one(etainv, spec, args, workload: str, traced: bool) -> dict:
    if traced:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, info, problems, attempted, failed = measure_traced(
            etainv, workload, args.seed, units)
        metrics = select(values, spec["per_layer"], workload)
    else:
        values, info, problems, attempted, failed = measure_untraced(
            etainv, workload, args.seed, args.seconds)
        metrics = select(values, spec["end_to_end"], workload)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    prov = provenance(etainv)
    print(f"== {workload} seed={args.seed} trace={int(traced)} {json.dumps(prov)}")
    for name, m in metrics.items():
        value = m["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{workload}.{name} = {shown} {m['unit']}")
    for key, value in info.items():
        print(f"{workload}.{key}: {value}")
    for problem in problems[:SHOWN_PROBLEMS]:
        print(f"{workload} check failed: {problem}")
    if args.out:
        record = {"provenance": prov, "workload": workload, "seed": args.seed,
                  "trace": int(traced), "info": info, "result": result}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    return result


def run_each(args, workloads, modes) -> dict:
    """Run every (workload, mode) in a fresh interpreter, as a single run would be."""
    results = {}
    for workload in workloads:
        for trace in modes:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + (["--out", args.out] if args.out else [])
            done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            lines = done.stdout.splitlines()
            results[workload, trace] = (
                json.loads(lines[-1]) if done.returncode in (0, 1) and lines
                else {"correct": False, "attempted": 0, "failed": 0, "metrics": {}})
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for (w, _), r in results.items()
                    for name, m in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    parser.add_argument("--out", default=None, help="append each result as a JSON line")
    parser.add_argument("--digest", action="store_true",
                        help="print the stdout digest of the seed's first block and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.digest and args.workload == "all":
        parser.error("--digest needs one --workload")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    etainv = load_program()

    if args.digest:
        print(digest([run_request(etainv.cli, a) for a in next(blocks(args.workload, args.seed))]))
        return 0
    if args.workload == "all" or args.trace is None:
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        modes = (0, 1) if args.trace is None else (args.trace,)
        result = run_each(args, workloads, modes)
    else:
        result = run_one(etainv, spec, args, args.workload, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
