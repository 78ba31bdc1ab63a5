"""Closed-loop benchmark of the ``mergraph`` command line.

One process, one thread, one caller: each op is a ``mergraph.cli.main(argv)``
call made after the previous one returned, with BLAS/OpenMP pools pinned to
one thread.  A run prepares its inputs from ``--seed``, then repeats the
workload's op list (at least 100 distinct ops) in whole passes until
``--seconds`` have elapsed and at least three passes are done, checking
every op's output.

Timing.  On a shared 2-vCPU virtual machine the CPU runs in a fast and a
slow state about 1.4x apart, each lasting from seconds to minutes, so a
whole run can fall in either.  A fixed probe (a pure-Python loop and a
numpy bit count, about 1 ms) therefore runs before each op, and each
latency is multiplied by ``PROBE_REF_S`` over the median of the last five
probe times: the result is the latency at the reference speed.  An op's
latency is the median of its repetitions; ``op_p50_ms`` and ``op_p90_ms``
are percentiles over the ops of a pass, and ``ops_per_s`` is the number of
ops in a pass over the sum of their latencies.  ``setup_s`` is the median
of three set-ups, each scaled by probes taken right after it.  The run
record repeats every figure unscaled under ``raw``.

    python3 bench/run.py --workload exact --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced run (see
``tracing.py``).  The lines before it show every metric by name and unit and
a JSON run record: machine, versions, seed, op count, run length, failures
and a sha256 digest of all outputs, so two commits can be checked for
byte-identical results.  The record and the spans are also written under
``.bench_out/``.  Run from the root of a checkout that has ``src/mergraph``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ".bench_out"
LAYERS = ("cli", "graph_core", "construction", "oracle", "certificates", "wmsr")
MIN_PASSES = 3
SETUP_RUNS = 3
# A run stops mid-pass past this wall time, so it ends well inside 180 s even
# on a much slower commit.
HARD_STOP_S = 120.0
# Probe time on a 2-vCPU 2.1 GHz Xeon VM while its CPU runs in the fast state.
PROBE_REF_S = 0.0005


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _probe_work() -> int:
    """About 1 ms of interpreter work and numpy bit counting, the two kinds
    of work the program's ops do.  numpy is imported here, not at the top,
    so that set-up time still includes its import."""
    import numpy as np

    acc, table = 0, {}
    for i in range(2000):
        acc += (i * 2654435761 >> 7) & 1023
        table[i & 127] = acc
    x = np.arange(1 << 14, dtype=np.uint64)
    for _ in range(3):
        x = np.bitwise_count(x ^ (x >> np.uint64(3))).astype(np.uint64) + x
    return acc


class Speed:
    """Tracks how fast the CPU runs now, from a fixed probe timed between ops.

    ``factor()`` is ``PROBE_REF_S`` over the median of the last few probe
    times: multiplying a latency by it gives the latency at reference speed.
    """

    def __init__(self, window: int = 5):
        self.window = window
        self.samples: list[float] = []

    def update(self) -> None:
        start = perf_counter()
        _probe_work()
        self.samples.append(perf_counter() - start)

    def factor(self) -> float:
        return PROBE_REF_S / statistics.median(self.samples[-self.window:])


def load_program() -> dict:
    """Import the package from the checkout's ``src`` tree."""
    if not (SRC / "mergraph" / "__init__.py").is_file():
        raise BenchError(f"no mergraph package under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"mergraph.{name}") for name in LAYERS}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported mergraph from {modules['cli'].__file__}, not {SRC}")
    return modules


def run_op(program: dict, argv) -> tuple[int | None, str, str, float]:
    """One timed call of the CLI entry point: exit code, stdout, stderr, seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = program["cli"].main(list(argv))
        except Exception:  # an op that raises is a failed op, not a failed run
            rc = None
            err.write(traceback.format_exc())
        seconds = perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), seconds


def prepare(plan: workloads.Plan, program: dict) -> None:
    """Write the plan's input files; constructions come from ``mergraph construct``."""
    shutil.rmtree(plan.work_dir, ignore_errors=True)
    Path(plan.work_dir).mkdir(parents=True)
    for item in plan.inputs:
        if isinstance(item, workloads.Construct):
            argv = ["construct", "--n", str(item.n), "--kind", item.kind, "--out", item.path]
            if item.variant is not None:
                argv += ["--variant", str(item.variant)]
            rc, _, err, _ = run_op(program, argv)
            problems = ([f"exit {rc}: {err.strip()}"] if rc != 0
                        else checks.construction_problems(item.path, item.n, item.kind))
            if problems:
                raise BenchError(f"construct n={item.n} kind={item.kind}: {problems}")
        elif isinstance(item, workloads.RemoveEdge):
            source = json.loads(Path(item.source).read_text())
            edges = sorted(map(tuple, source["edges"]))
            del edges[item.index]
            Path(item.path).write_text(workloads.graph_json(source["n"], edges))
        else:
            edges = workloads.random_edges(item.n, item.m, item.seed)
            Path(item.path).write_text(workloads.graph_json(item.n, edges))


def _input_size(op: workloads.Op) -> int:
    if "--graph" in op.argv:
        return os.path.getsize(op.argv[op.argv.index("--graph") + 1])
    return int(op.argv[op.argv.index("--n") + 1])


def setup(workload: str, seed: int, work_root: str) -> tuple[dict, workloads.Plan, float, float]:
    """Import, generate inputs and warm up.

    Returns the program, the plan, and the set-up time at reference speed
    and as measured.  The warm-up runs the smallest op of each subcommand
    once, so first-call costs land in set-up and not in op latencies.
    """
    start = perf_counter()
    program = load_program()
    plan = workloads.plan(workload, seed, work_root)
    prepare(plan, program)
    for command in dict.fromkeys(op.command for op in plan.ops):
        run_op(program, min((op for op in plan.ops if op.command == command), key=_input_size).argv)
    seconds = perf_counter() - start
    speed = Speed()
    for _ in range(speed.window):
        speed.update()
    return program, plan, seconds * speed.factor(), seconds


def setup_in_child(workload: str, seed: int, work_root: str) -> tuple[float, float]:
    """Set-up times of a fresh process, so every set-up sample starts cold."""
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed), "--work-root", work_root],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=False)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"set-up in a child process failed: {proc.stderr.strip()}")
    scaled, raw = proc.stdout.split()[-2:]
    return float(scaled), float(raw)


def _canonical_stdout(out: str) -> bytes:
    try:
        return json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")).encode()
    except json.JSONDecodeError:
        return out.encode()


def output_digest(rc, out: str, files: list[str], work_dir: str) -> str:
    """sha256 of an op's exit code, canonicalised stdout and written files.

    Paths are hashed relative to the run's work directory, so digests agree
    across runs and checkouts.
    """
    h = hashlib.sha256(f"{rc}\n".encode() + _canonical_stdout(out.replace(work_dir, "<work>")))
    for name in files:
        h.update(f"\n{name.replace(work_dir, '<work>')}\n".encode())
        h.update(Path(name).read_bytes() if Path(name).is_file() else b"<missing>")
    return h.hexdigest()


@dataclass
class Measurement:
    latencies: dict[int, list[float]] = field(default_factory=dict)
    raw: dict[int, list[float]] = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)
    digests: dict[int, str] = field(default_factory=dict)
    passes: int = 0
    wall_s: float = 0.0

    @property
    def ops(self) -> int:
        return sum(len(times) for times in self.latencies.values())

    @property
    def busy_s(self) -> float:
        """Time spent inside the program, as measured."""
        return sum(sum(times) for times in self.raw.values())

    def best(self, scaled: bool = True) -> list[float]:
        """Each op's median repetition, at reference speed unless ``scaled`` is false."""
        return [statistics.median(times)
                for times in (self.latencies if scaled else self.raw).values()]


def measure(program: dict, plan: workloads.Plan, seconds: float, passes: int | None = None,
            min_passes: int = MIN_PASSES, tracer: tracing.Tracer | None = None) -> Measurement:
    """Repeat whole passes over ``ops``, checking each result.

    Stops after ``passes`` passes if given, else at the first pass boundary
    past ``seconds`` with at least ``min_passes`` passes done.  A repeated op
    must reproduce its earlier output byte for byte; its check is then reused.
    """
    m = Measurement()
    speed = Speed()
    verdicts: dict[tuple[int, str], list[str]] = {}
    start = perf_counter()
    while True:
        for i, op in enumerate(plan.ops):
            if perf_counter() - start > HARD_STOP_S:
                m.wall_s = perf_counter() - start
                return m
            if tracer is not None:
                tracer.op = m.ops
            speed.update()
            rc, out, err, t = run_op(program, op.argv)
            m.raw.setdefault(i, []).append(t)
            m.latencies.setdefault(i, []).append(t * speed.factor())
            digest = output_digest(rc, out, checks.written_files(op), plan.work_dir)
            if (i, digest) not in verdicts:
                verdicts[(i, digest)] = checks.check(op, rc, out, err)
            problems = list(verdicts[(i, digest)])
            known_defect = op.known_defect
            if m.digests.setdefault(i, digest) != digest:
                problems.append("output differs from an earlier run of the same op")
                known_defect = None
            if problems:
                m.failures.append({"op": " ".join(op.argv), "problems": problems,
                                   "known_defect": known_defect})
        m.passes += 1
        if passes is not None and m.passes >= passes:
            break
        if passes is None and perf_counter() - start >= seconds and m.passes >= min_passes:
            break
    m.wall_s = perf_counter() - start
    return m


def workload_digest(plan: workloads.Plan, m: Measurement) -> str:
    h = hashlib.sha256()
    for i, op in enumerate(plan.ops):
        argv = " ".join(op.argv).replace(plan.work_dir, "<work>")
        h.update(f"{argv}\n{m.digests.get(i, 'not run')}\n".encode())
    return h.hexdigest()


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(m: Measurement, setup_times: list[float], scaled: bool = True) -> dict[str, float]:
    best = m.best(scaled)
    return {
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": 1000.0 * statistics.median(best),
        "op_p90_ms": 1000.0 * p90(best),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_rate": 1.0 - len(m.failures) / m.ops,
    }


def metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {x["name"]: x["unit"] for x in spec["end_to_end"] + spec["per_layer"]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # A work directory per process, so runs sharing a checkout never collide.
    work_root = f"{workloads.WORK_ROOT}/{os.getpid()}"
    tracer = None
    try:
        program, plan, *first_setup = setup(workload, seed, work_root)
        setups = [tuple(first_setup)] + [setup_in_child(workload, seed, f"{work_root}-setup{k}")
                                         for k in range(1, 1 if trace else SETUP_RUNS)]
        if trace:
            tracer = tracing.Tracer(program)
            with tracer:
                m = measure(program, plan, seconds / 2, min_passes=1, tracer=tracer)
            replay = measure(program, plan, 0.0, passes=m.passes)
            metrics = tracing.layer_metrics(tracer.spans, m.busy_s, replay.busy_s)
            attempted = m.ops + replay.ops
            failures = m.failures + replay.failures
        else:
            m = measure(program, plan, seconds)
            metrics = end_to_end(m, [scaled for scaled, _ in setups])
            attempted = m.ops
            failures = m.failures
        digest = workload_digest(plan, m)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    best = m.best()
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.import_module("numpy").__version__,
        "requested_s": seconds, "timed_s": m.busy_s, "wall_s": m.wall_s,
        "passes": m.passes, "ops_per_pass": len(plan.ops), "ops": m.ops,
        "op_p90_samples": len(best),
        "op_p90_samples_beyond": sum(1 for t in best if t > p90(best)),
        "setup_runs_s": [raw for _, raw in setups],
        "raw": end_to_end(m, [raw for _, raw in setups], scaled=False),
        "fail_rate": len(failures) / attempted,
        "failures": failures,
        "digest": digest,
    }
    out = Path(OUT_DIR)
    out.mkdir(exist_ok=True)
    stem = out / f"{workload}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps({**record, "metrics": metrics}, indent=1) + "\n")
    if tracer is not None:
        with stem.with_suffix(".spans.jsonl").open("w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
    correct = all(f["known_defect"] for f in failures)
    return {"record": record, "correct": correct, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def report(result: dict) -> None:
    record, units = result["record"], metric_units()
    print(f"workload {record['workload']}  seed {record['seed']}  passes {record['passes']}"
          f"  ops {record['ops']}  timed {record['timed_s']:.2f} s  nproc {record['nproc']}")
    for name, value in result["metrics"].items():
        note = ""
        if name == "op_p90_ms":
            note = (f"  ({record['op_p90_samples_beyond']} of {record['op_p90_samples']}"
                    " samples beyond)")
        print(f"  {name:<55} {value:>14.6g} {units[name]}{note}")
    seen: dict[str, int] = {}
    for failure in record["failures"]:
        tag = "known defect" if failure["known_defect"] else "FAILED"
        line = f"{tag}: {failure['op']}: {'; '.join(failure['problems'])}"
        seen[line] = seen.get(line, 0) + 1
    for line, count in seen.items():
        print(f"  {count}x {line}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work-root", default=workloads.WORK_ROOT, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.workload == "all":
        worst = 0
        for name in workloads.WORKLOADS:
            worst = max(worst, subprocess.call(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]))
        return worst
    try:
        if args.setup_only:
            _, _, scaled, raw = setup(args.workload, args.seed, args.work_root)
            print(repr(scaled), repr(raw))
            return 0
        report(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
