"""Layered benchmark of tanglekit.

Run from the root of a tanglekit checkout:

    python3 perfbench/run.py --workload twist-runs --seed 1 --seconds 15 --trace 0

One process runs one workload, single-threaded, on the sources in
./src.  With --trace 0 it prints the end-to-end metrics; with --trace 1
it alternates untraced and traced rounds and prints the per-layer
metrics and the tracing overhead.  Times are scaled to the host's
speed, measured by a fixed loop (see REFERENCE_S).  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  A record of the run (metrics, environment, latencies) and,
when traced, its spans are written under .perfbench-out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import checks, spans, workloads  # noqa: E402

perf = time.perf_counter
OUT_DIR = ".perfbench-out"
# setup_s is the median of SETUP_SAMPLES set-ups: this process's own,
# then the rest in fresh interpreters.  Not their minimum: the scaling
# below corrects set-up a little too much when the host is slow, and
# the minimum would pick those samples.
SETUP_SAMPLES = 5
# On a host shared with other tenants the same Python code runs at 60 to
# 100% of full speed from one few-second stretch to the next.  Reported
# times are therefore scaled to the host's speed: multiplied by
# REFERENCE_S over the time of a fixed loop timed just before and just
# after the measured stretch.  REFERENCE_S is about the loop's time at
# full speed on the machine the reference figures come from.  Run
# records keep the wall-clock figures too.
REFERENCE_S = 0.010
REFERENCE_LOOPS = 40000
PROBE_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result."""


def _source_dir(root: Path) -> Path:
    src = root / "src"
    if not (src / "tanglekit" / "__init__.py").is_file():
        raise BenchError(f"no tanglekit sources under {src}; run from the root of a checkout")
    return src


def reference_s() -> float:
    """Time of a fixed loop of dict, tuple and integer work, the kind of
    work tanglekit does."""
    start = perf()
    d = {}
    for i in range(REFERENCE_LOOPS):
        k = (i % 97, i & 3)
        d[k] = d.get(k, 0) + i * i
    return perf() - start


def speed_scale(before: float, after: float) -> float:
    return REFERENCE_S / ((before + after) / 2)


def setup(workload: str, src: Path, tracer=None) -> tuple:
    """Import tanglekit and make the first call of every warm-up
    operation.  Returns the seconds this took, the same scaled to the
    host's speed step by step (the import, then each call, with the
    reference loop timed between steps), and the outputs."""
    wall = scaled = 0.0
    outputs = []
    before = reference_s()
    for op in [None] + workloads.WARMUP[workload]:
        start = perf()
        if op is None:
            tk = importlib.import_module("tanglekit")
            importlib.import_module("tanglekit.cli")
        else:
            ok, out = workloads.execute(op)
        seconds = perf() - start
        after = reference_s()
        wall += seconds
        scaled += seconds * speed_scale(before, after)
        before = after
        if op is None:
            if Path(tk.__file__).resolve().parent != (src / "tanglekit").resolve():
                raise BenchError(f"tanglekit was imported from {tk.__file__}, not from {src}")
            if tracer is not None:
                tracer.install()
        elif not ok:
            raise BenchError(f"warm-up {op.argv()} failed: {str(out)[:200]}")
        else:
            outputs.append(out)
    if tracer is not None:
        tracer.uninstall()
    return wall, scaled, outputs


def probe_setup(workload: str) -> list:
    """setup() in a fresh interpreter; returns both times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", "0", "--seconds", "0", "--trace", "0", "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _summary(latencies: list, wall: list, tangles: int) -> dict:
    return {"latencies": latencies, "wall_latencies": wall, "tangles": tangles,
            "latency_p50_s": statistics.median(latencies),
            "tangles_per_s": tangles / sum(latencies),
            "wall_latency_p50_s": statistics.median(wall),
            "wall_tangles_per_s": tangles / sum(wall)}


def timed_phase(workload: str, seed: int, out_dir: Path, seconds: float, pt,
                tracer=None) -> dict:
    """Run rounds of new inputs until `seconds` have passed; whole rounds
    only.  Each round's outputs are checked as soon as the round ends,
    outside the timed calls, and then dropped, so that a faster program
    holds no more memory than a slower one.

    With a tracer, rounds alternate untraced and traced, so that both
    kinds see the same drift of machine speed; returns a summary per kind.
    """
    latencies = {False: [], True: []}
    wall = {False: [], True: []}
    tangles = {False: 0, True: 0}
    errors = []
    failed = attempted = n_rounds = 0
    start = perf()
    for ops in workloads.rounds(workload, seed, out_dir):
        traced = tracer is not None and n_rounds % 2 == 1
        outputs = []
        times = []
        before = reference_s()
        if traced:
            tracer.install()
        try:
            for op in ops:
                t0 = perf()
                ok, out = workloads.execute(op)
                times.append(perf() - t0)
                if not ok:
                    failed += 1
                    print(f"operation failed: {op.argv()}: {str(out).strip()[:300]}", file=sys.stderr)
                outputs.append(out if ok else None)
        finally:
            if traced:
                tracer.uninstall()
        scale = speed_scale(before, reference_s())
        latencies[traced] += [t * scale for t in times]
        wall[traced] += times
        errors += workloads.check_round(ops, outputs, pt)
        tangles[traced] += sum(op.tangles for op in ops)
        attempted += len(ops)
        n_rounds += 1
        if perf() - start >= seconds and (tracer is None or n_rounds % 2 == 0):
            break
    phase = {"failed": failed, "attempted": attempted, "rounds": n_rounds, "errors": errors,
             "untraced": _summary(latencies[False], wall[False], tangles[False])}
    if tracer is not None:
        phase["traced"] = _summary(latencies[True], wall[True], tangles[True])
    return phase


def environment(root: Path, src: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((src / "tanglekit").rglob("*")):
        if path.suffix in (".py", ".pyx") and path.is_file():
            digest.update(path.relative_to(src).as_posix().encode())
            digest.update(path.read_bytes())
    commit = "unknown"  # a checkout without .git, or no git
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "kernel_backend": importlib.import_module("tanglekit.kernel").BACKEND,
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> dict:
    root = Path.cwd()
    src = _source_dir(root)
    sys.path.insert(0, str(src))
    if args.setup_probe:
        return {"setup_s": setup(args.workload, src)[:2]}

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    pt = checks.Point(args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}

    tracer = spans.Tracer() if args.trace else None
    warm = spans.Tracer() if args.trace else None
    wall_setup_s, setup_s, warm_outputs = setup(args.workload, src, tracer=warm)
    # Set-up outputs are checked too: they are the only calls at width 3.
    errors = workloads.check_round(workloads.WARMUP[args.workload], warm_outputs, pt)
    if not args.trace:
        samples = [[wall_setup_s, setup_s]]
        samples += [probe_setup(args.workload) for _ in range(SETUP_SAMPLES - 1)]
        phase = timed_phase(args.workload, args.seed, out_dir, args.seconds, pt)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        stats = phase["untraced"]
        metrics = {
            "setup_s": metric(statistics.median(scaled for _, scaled in samples), "s"),
            "tangles_per_s": metric(stats["tangles_per_s"], "1/s"),
            "latency_p50_ms": metric(stats["latency_p50_s"] * 1000, "ms"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
        record["setup_samples_s"] = {"wall": [w for w, _ in samples],
                                     "scaled": [s for _, s in samples]}
    else:
        phase = timed_phase(args.workload, args.seed, out_dir, args.seconds, pt, tracer=tracer)
        metrics = tracer.layer_metrics(phase["traced"]["tangles"])
        for name, group in (("tl.build_s", "tl.build"), ("ring.mul_s", "ring.mul"),
                            ("ring.normalize_s", "ring.normalize")):
            metrics[f"setup.{name}"] = metric(warm.group_s.get(group, 0.0), "s")
        metrics["setup.traced_s"] = metric(setup_s, "s")
        rate_untraced = phase["untraced"]["tangles_per_s"]
        rate_traced = phase["traced"]["tangles_per_s"]
        metrics["trace.untraced_tangles_per_s"] = metric(rate_untraced, "1/s")
        metrics["trace.traced_tangles_per_s"] = metric(rate_traced, "1/s")
        metrics["trace.overhead_pct"] = metric((rate_untraced / rate_traced - 1) * 100, "%")
        missing = sorted(set(warm.missing + tracer.missing))
        record["missing_hooks"] = missing
        record["missing_metrics"] = tracer.missing_metrics()
        if missing:
            print(f"# missing hooks: {', '.join(missing)}; "
                  f"metrics reported as 0: {', '.join(record['missing_metrics'])}", file=sys.stderr)
        spans_path = out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write_spans(spans_path)
        record["spans_file"] = str(spans_path.relative_to(root))

    errors += phase["errors"]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    result = {"correct": not errors, "attempted": phase["attempted"], "failed": phase["failed"],
              "metrics": metrics}
    record.update(environment(root, src))
    record.update({
        "check_errors": len(errors),
        "rounds": phase["rounds"],
        "timing": {kind: phase[kind] for kind in ("untraced", "traced") if kind in phase},
        "result": result,
    })
    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    env = {k: record[k] for k in ("python", "nproc", "kernel_backend", "commit", "source_sha256")}
    print("# env " + json.dumps(env))
    untraced = phase["untraced"]
    print(f"# wall clock: {untraced['wall_tangles_per_s']:.4g} tangles/s, "
          f"latency p50 {untraced['wall_latency_p50_s'] * 1000:.4g} ms")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of tanglekit.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
