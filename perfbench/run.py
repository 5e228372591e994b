"""Benchmark of the kinetic_traffic package on three workloads.

    python3 perfbench/run.py --workload fd-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  Each run sets up the workload, then repeats whole passes over its
operations until --seconds have gone by, checking every output.  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it alternates
untraced and traced passes and reports the per-layer metrics.  The last
line of standard output is the result as one JSON object; the lines before
it are a readable report.  Workloads, metrics and the hard-case ledger are
described in perfbench/NOTES.md.
"""
import os
import time

T0 = time.perf_counter()
# One BLAS/OpenMP thread, set before numpy loads: with free threads the
# N=1001 timings swing by up to 17x and the output bytes change.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from harness import FAILED, KNOWN, OK, Tracer  # noqa: E402
from yardstick import Yardstick  # noqa: E402

WORKLOADS = ("fd-sweep", "refined-solve", "cli-runs")
SETUP_SAMPLES = 5
# Highest percentile with ten of one fd-sweep pass's 100 operations beyond
# it; the same percentile is reported on every workload.
TAIL_PERCENTILE = harness.tail_percentile(100)

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "solved_share": "share",
    "peak_rss_mb": "MB",
}


def import_package():
    """Import kinetic_traffic from ./src of this checkout, nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import kinetic_traffic

    where = Path(kinetic_traffic.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"kinetic_traffic imported from {where}, not from {ROOT / 'src'}")
    return kinetic_traffic


def run_pass(kt, workload, tracer: Tracer, traced: bool) -> dict:
    import layers
    import workloads

    tracer.spans, tracer.counters = [], {}
    records, texts = [], {}
    outputs = {}
    speed = Yardstick()
    with layers.installed(tracer) if traced else contextlib.nullcontext():
        t0 = time.perf_counter()
        for op in workload.ops:
            if op.before:
                op.before()
            tracer.op = op.key if traced else None
            start = time.perf_counter()
            out, error = None, None
            try:
                out = op.run()
            except Exception as exc:  # recorded and judged, never dropped
                error = exc
            latency = time.perf_counter() - start
            tracer.op = None
            speed.sample(0.01 * latency)
            outcome, note = harness.judge(op, out, error, (kt.NumericalError, harness.NoResult))
            outputs[op.key] = out if outcome == OK else None
            texts[op.key] = (op.digest(out) if outcome == OK
                             else f"{outcome} {type(error).__name__ if error else 'check'}")
            records.append({"op": op.key, "latency_s": latency, "outcome": outcome, "note": note})
        problems, tail = [], ""
        if workload.finish:
            tracer.op = "finish" if traced else None
            problems, tail = workload.finish(outputs)
            tracer.op = None
        wall = time.perf_counter() - t0 - speed.seconds
    result = {"traced": traced, "wall_s": wall, "speed_factor": speed.factor, "ops": records,
              "problems": problems, "digest": workloads.digest_of(texts, tail),
              "peak_rss_mb": peak_rss_mb()}
    if traced:
        result["layers"] = layers.pass_metrics(tracer.spans, tracer.counters)
        result["spans"] = tracer.spans
    return result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds() -> float:
    """Time since this process started, in reference seconds."""
    elapsed = time.perf_counter() - T0
    speed = Yardstick()
    speed.sample(0.02)
    return elapsed * speed.factor


def setup_probe(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def git_revision() -> str:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return "unavailable (not a git checkout)"
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unavailable ({exc})"


def environment() -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "workers": 1,
        "git": git_revision(),
    }


def scaled_walls(passes: list[dict]) -> list[float]:
    return [p["wall_s"] * p["speed_factor"] for p in passes]


def end_to_end(passes: list[dict], setup_samples: list[float]) -> dict:
    """End-to-end metrics; times are in reference seconds (see yardstick.py)."""
    plain = [p for p in passes if not p["traced"]]
    latencies = [r["latency_s"] * p["speed_factor"] for p in plain for r in p["ops"]]
    counts = harness.tally(r["outcome"] for p in plain for r in p["ops"])
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(scaled_walls(plain)),
        "ops_per_s": statistics.median(
            len(p["ops"]) / w for p, w in zip(plain, scaled_walls(plain))),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * harness.percentile(latencies, TAIL_PERCENTILE),
        "solved_share": counts.solved_share,
        # After the first pass: scipy's LSODA keeps its work arrays, so the
        # peak keeps growing with every pass and a later reading would
        # depend on how many passes fit into the run.
        "peak_rss_mb": plain[0]["peak_rss_mb"],
    }


def per_layer(passes: list[dict]) -> dict:
    import layers

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]

    def scaled(p: dict, k: str) -> float:
        time_unit = layers.METRICS[k] in ("s", "us")
        return p["layers"][k] * (p["speed_factor"] if time_unit else 1.0)

    out = {k: statistics.median(scaled(p, k) for p in traced)
           for k in layers.METRICS if k != "trace.overhead_share"}
    out["trace.overhead_share"] = (
        statistics.median(scaled_walls(traced)) / statistics.median(scaled_walls(plain)) - 1.0)
    return out


def write_spans(path: Path, passes: list[dict]) -> None:
    with path.open("w") as fh:
        for i, p in enumerate(passes):
            for s in p.get("spans", ()):
                fh.write(json.dumps({"pass": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op, "error": s.error}) + "\n")


def report(args, passes, metrics, units, env, setup_samples) -> list[str]:
    plain = [p for p in passes if not p["traced"]]
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}: "
             f"{len(passes)} passes ({len(plain)} untraced) of {len(passes[0]['ops'])} operations, "
             "closed loop, one client, workers=1",
             "environment " + json.dumps(env, sort_keys=True)]
    counts = harness.tally(r["outcome"] for p in plain for r in p["ops"])
    n = counts.attempted
    notes = {
        "setup_s": f"median of {len(setup_samples)} set-ups",
        "wall_s": f"median of {len(plain)} passes",
        "ops_per_s": f"median of {len(plain)} passes",
        "op_p50_ms": f"median of {n} operations",
        "op_tail_ms": f"p{TAIL_PERCENTILE} of {n} operations, "
                      f"{harness.samples_beyond(n, TAIL_PERCENTILE)} beyond",
        "solved_share": f"{counts.ok}/{counts.attempted}",
    }
    for name, value in metrics.items():
        lines.append(f"  {name} = {value:.6g} {units[name]}  {notes.get(name, '')}".rstrip())
    factors = [p["speed_factor"] for p in passes]
    lines.append(f"  times scaled to reference seconds: speed factor {statistics.median(factors):.4g} "
                 f"(from {min(factors):.4g} to {max(factors):.4g} over the passes); unscaled "
                 f"wall_s {statistics.median(p['wall_s'] for p in plain):.6g} s")
    if len(passes) > 1:
        growth =(passes[-1]["peak_rss_mb"] - passes[0]["peak_rss_mb"]) / (len(passes) - 1)
        lines.append(f"  peak RSS grows by {growth:.3g} MB per further pass")
    lines.append(f"  failed_share = {counts.failed_share:.6g}  "
                 f"({counts.known + counts.failed}/{counts.attempted}: "
                 f"{counts.known} hard cases from the ledger, {counts.failed} unexpected)")
    digests = sorted({p["digest"] for p in passes})
    lines.append(f"output digest sha256 {' / '.join(digests)} "
                 f"({'identical over' if len(digests) == 1 else 'DIFFERS between'} "
                 f"{len(passes)} passes; blas_threads={os.environ['OPENBLAS_NUM_THREADS']})")
    unsolved = collections.Counter(
        f"{r['outcome']}: {r['op']}: {r['note'][:200]}"
        for p in passes for r in p["ops"] if r["outcome"] != OK)
    unsolved.update(f"failed pass check: {problem}" for p in passes for problem in p["problems"])
    lines += [f"  {text}  (x{count})" for text, count in sorted(unsolved.items())]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        kt = import_package()
        import workloads
    except ImportError as exc:
        print(f"cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    tracer = Tracer()
    out_dir = OUT / ("setup-probe" if args.setup_probe else args.workload)
    workload = workloads.build(args.workload, args.seed, out_dir, tracer)
    if args.setup_probe:
        print(setup_seconds())
        return 0
    setup_samples = [setup_seconds()]
    setup_samples += [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]

    passes = []
    start = time.perf_counter()
    while (len(passes) < (2 if args.trace else 1)
           or time.perf_counter() - start < args.seconds):
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(kt, workload, tracer, traced))

    if args.trace:
        import layers

        metrics, units = per_layer(passes), layers.METRICS
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", passes)
    else:
        metrics, units = end_to_end(passes, setup_samples), E2E_UNITS
    env = environment()
    plain = [p for p in passes if not p["traced"]]
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(r["outcome"] == FAILED for p in passes for r in p["ops"])
    correct = failed == 0 and not any(p["problems"] for p in passes)
    for line in report(args, passes, metrics, units, env, setup_samples):
        print(line)
    detail = {
        "environment": env, "setup_samples_s": setup_samples, "metrics": metrics,
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
        "failed_share": harness.tally(r["outcome"] for p in plain for r in p["ops"]).failed_share,
        "known_hard_cases": sorted({r["op"] for p in passes for r in p["ops"]
                                    if r["outcome"] == KNOWN}),
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
