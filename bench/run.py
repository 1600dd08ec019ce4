"""brdlab benchmark: a closed-loop client over one workload.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all

One thread sends ops one after another: the next op starts when the previous
one has ended and its answer has been checked.  Each workload runs in its own
process (`--workload all` starts one per workload, in turn).

`--trace 0` prints the end-to-end metrics: set-up time, ops per second, op
latency p50/p90 and peak RSS.  `--trace 1` prints the per-layer metrics: it
runs the loop once on the plain program and once with every public layer
function wrapped in a span, and reports the second loop's per-op calls and
self time per layer, counts read from return values, the static source size
per layer and the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A fuller record with the run
metadata goes to `.bench_out/` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
# op_p90_ms is the highest percentile with at least 10 samples beyond it
MIN_OPS = 100
DIGEST_OPS = 100
# setup_s is the median of at least SETUP_MIN set-ups, repeated until they
# add up to SETUP_BUDGET_S (at most SETUP_MAX): a set-up of a few tens of
# milliseconds needs many samples to give a steady median
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 2.0
# a loop below MIN_OPS still stops here, so that a run ends within 180 s
HARD_STOP_S = 120.0
MAX_REPORTED_FAILURES = 5
# The shared hosts this benchmark runs on change CPU speed by up to +-20%
# within seconds.  A fixed pure-Python probe runs between ops, and every
# end-to-end time is scaled to the speed at which the probe takes
# PROBE_REF_S; the raw wall-clock values go to the record.
PROBE_REF_S = 0.001

sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Totals, Tracer  # noqa: E402

PROBE_RANKS = workloads._cost_ranks(Fraction(49, 2), 10)


class Run:
    """What one process measured and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(message)
            sys.stderr.write(message.rstrip() + "\n")


def setup(name: str, seed: int, work: Path, tracer: Tracer | None = None):
    """Import brdlab afresh, then build the workload's inputs.  Returns the
    ops, the seconds taken and a sha256 per instance file."""
    for mod in [m for m in sys.modules if m == "brdlab" or m.startswith("brdlab.")]:
        del sys.modules[mod]
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    start = perf_counter()
    importlib.import_module("brdlab.cli")  # imports every layer
    missing = layers.install(tracer) if tracer is not None else []
    ops = workloads.WORKLOADS[name](random.Random(seed), work)
    seconds = perf_counter() - start
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(work.iterdir())}
    return ops, seconds, files, missing


def attempt(run: Run, op: workloads.Op, call, first: dict, index: int):
    """Run one op; returns (latency, answer), or (latency, None) on failure.
    The answer check happens after the latency is taken."""
    run.attempted += 1
    start = perf_counter()
    try:
        raw = call()
    except Exception:
        latency = perf_counter() - start
        run.fail(f"{op.label}: raised\n{traceback.format_exc()}")
        return latency, None
    latency = perf_counter() - start
    try:
        answer = op.check(raw)
    except workloads.GateFailed as exc:
        run.fail(f"{op.label}: answer gate: {exc}")
        return latency, None
    except Exception:
        run.fail(f"{op.label}: unreadable answer\n{traceback.format_exc()}")
        return latency, None
    if index in first and first[index] != answer:
        run.fail(f"{op.label}: answer differs from the same op's earlier answer")
        return latency, None
    first.setdefault(index, answer)
    return latency, answer


def probe() -> float:
    """Seconds taken by a fixed pure-Python kernel of the kinds of work the
    ops do, none of it brdlab's: Fraction sums, dict updates, a small search
    over integer tuples and a JSON encoding."""
    start = perf_counter()
    x = Fraction(0)
    for i in range(1, 200):
        x += Fraction(i % 7 + 1, i % 5 + 1)
    counts: dict[int, int] = {}
    for i in range(1000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    workloads._coco_states(PROBE_RANKS, (2, 2, 3, 3))
    json.dumps({str(i): [str(x), counts[i]] for i in range(60)})
    return perf_counter() - start


def at_reference_speed(times: list[float], probes: list[float]) -> list[float]:
    """times[i] scaled by the probes around it (probes[i] ran just before,
    probes[i + 1] just after); the median of the four nearest probes damps a
    probe that an interrupt hit."""
    return [t * PROBE_REF_S / statistics.median(probes[max(0, i - 1): i + 3])
            for i, t in enumerate(times)]


def loop(run: Run, ops, calls, seconds: float, min_ops: int, whole_passes: bool,
         tracer: Tracer | None = None):
    """Cycle through `ops` until `seconds` have passed and `min_ops` ran;
    with `whole_passes`, on to the end of the pass over `ops` in progress.
    Returns the latencies, the probes around them, the first DIGEST_OPS
    answers (None for a failed op) and the wall time."""
    latencies, answers, first = [], [], {}
    start = perf_counter()
    probes = [probe()]
    i = 0
    while True:
        elapsed = perf_counter() - start
        done = elapsed >= seconds and i >= min_ops and not (whole_passes and i % len(ops))
        if done or elapsed >= HARD_STOP_S:
            break
        k = i % len(ops)
        latency, answer = attempt(run, ops[k], calls[k], first, k)
        if tracer is not None:
            tracer.fold(keep=True)
        latencies.append(latency)
        probes.append(probe())
        if len(answers) < DIGEST_OPS:
            answers.append(answer)
        i += 1
    return latencies, probes, answers, perf_counter() - start


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def metadata(args, run: Run) -> dict:
    sha = "unknown"  # a source tree without .git, such as an exported checkout
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "client": "closed loop, 1 thread",
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_ratio": run.failed / max(1, run.attempted),
        "failures": run.failures,
    }


def end_to_end(args, run: Run, meta: dict) -> dict:
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    whole = args.workload in workloads.WHOLE_PASSES
    setups, setup_probes, manifests = [], [probe()], []
    try:
        while len(setups) < SETUP_MIN or (
            len(setups) < SETUP_MAX and sum(setups) < SETUP_BUDGET_S
        ):
            gc.collect()  # the previous set-up's garbage, outside the timing
            ops, seconds, files, _ = setup(args.workload, args.seed, work)
            setups.append(seconds)
            gc.collect()  # else the probe pays for collecting the set-up's
            setup_probes.append(probe())
            manifests.append(files)
        if any(m != manifests[0] for m in manifests):
            run.fail("the same seed gave different instance files")
        attempt(run, ops[0], ops[0].run, {}, 0)  # warm-up, untimed
        latencies, probes, answers, wall = loop(
            run, ops, [op.run for op in ops], args.seconds, MIN_OPS, whole
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    scaled = at_reference_speed(latencies, probes)
    ranked, raw = sorted(scaled), sorted(latencies)
    p90_rank = math.ceil(0.9 * len(ranked))
    meta.update({
        "setup_samples_s": setups,
        "instance_files": len(manifests[0]),
        "ops": len(latencies),
        "distinct_ops": len(ops),
        "loop_wall_s": wall,
        "latency_samples": len(ranked),
        "op_p90_samples_beyond": len(ranked) - p90_rank,
        "probe_median_s": statistics.median(probes),
        "raw_setup_s": statistics.median(setups),
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_p50_ms": 1000 * statistics.median(raw),
        "raw_op_p90_ms": 1000 * nearest_rank(raw, 0.9),
    })
    if args.seed == DEFAULT_SEED and len(answers) >= DIGEST_OPS:
        digest = workloads.answer_digest(answers[:DIGEST_OPS])
        expected = json.loads((BENCH / "digests.json").read_text()).get(args.workload)
        meta["answer_digest"] = digest
        if digest != expected:
            run.fail(f"answer digest {digest} != stored {expected}")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(at_reference_speed(setups, setup_probes)), "s"),
        "ops_per_s": (len(ranked) / sum(ranked), "ops/s"),
        "op_p50_ms": (1000 * statistics.median(ranked), "ms"),
        "op_p90_ms": (1000 * nearest_rank(ranked, 0.9), "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer_metrics(setup_totals: Totals, totals: Totals, starts: int,
                      plain_ops_per_s: float, traced_ops_per_s: float) -> dict:
    """Per-op span totals of the traced loop (the fixtures layer runs in
    set-up only and is reported per run), counts, source size, overhead."""
    out = {}
    ops = max(1, totals.ops)
    for span in layers.SPANS:
        if span.startswith("fixtures."):
            t, per, units = setup_totals, 1, ("count", "s")
        else:
            t, per, units = totals, ops, ("1/op", "s/op")
        out[f"{span}.calls"] = (t.calls[span] / per, units[0])
        out[f"{span}.self_s"] = (t.self_s[span] / per, units[1])
        out[f"{span}.errors"] = (t.errors[span], "count")
    for count, unit in {c: u for c, _, _, u in layers.COUNTS}.items():
        out[count] = (totals.counts[count] / ops, unit)
    out["oracle.states_per_start"] = (totals.counts["oracle.states"] / starts if starts else 0.0, "1")
    for layer, lines in layers.sloc(SRC).items():
        out[f"{layer}.sloc"] = (lines, "lines")
    out["trace.ops_per_s"] = (traced_ops_per_s, "ops/s")
    out["trace.plain_ops_per_s"] = (plain_ops_per_s, "ops/s")
    out["trace.overhead"] = (plain_ops_per_s / traced_ops_per_s - 1 if traced_ops_per_s else 0.0, "1")
    return out


def traced(args, run: Run, meta: dict) -> dict:
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    whole = args.workload in workloads.WHOLE_PASSES
    half = args.seconds / 2
    try:
        ops, _, _, _ = setup(args.workload, args.seed, work)
        attempt(run, ops[0], ops[0].run, {}, 0)
        plain = at_reference_speed(*loop(run, ops, [op.run for op in ops], half, 1, whole)[:2])

        tracer = Tracer()
        ops, _, _, missing = setup(args.workload, args.seed, work, tracer)
        tracer.fold(keep=False)
        setup_totals = tracer.take()
        op_span = [tracer.wrap("bench.op", op.run) for op in ops]
        attempt(run, ops[0], op_span[0], {}, 0)
        tracer.fold(keep=False)
        tracer.take()
        traced_latencies, probes, _, _ = loop(run, ops, op_span, half, 1, whole, tracer)
        totals = tracer.take()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.json"
    tracer.write(spans)
    starts = sum(ops[i % len(ops)].starts for i in range(len(traced_latencies)))
    scaled = at_reference_speed(traced_latencies, probes)
    meta.update({
        "plain_ops": len(plain),
        "traced_ops": len(scaled),
        "distinct_ops": len(ops),
        "spans_file": str(spans.relative_to(ROOT)),
        "spans_kept": len(tracer.kept["start"]),
        "missing_span_targets": missing,
    })
    return per_layer_metrics(setup_totals, totals, starts, len(plain) / sum(plain),
                             len(scaled) / sum(scaled))


def one(args) -> int:
    run = Run()
    meta: dict = {}
    metrics = (traced if args.trace else end_to_end)(args, run, meta)
    meta.update(metadata(args, run))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, "meta": meta}, indent=1, sort_keys=True))
    for k, (v, u) in metrics.items():
        print(f"{args.workload:>9} {k:<34} {v:>14.6g} {u}")
    print(f"{args.workload:>9} {'fail_ratio':<34} {meta['fail_ratio']:>14.6g} 1")
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    print(json.dumps(result))
    return 0


def every(args) -> int:
    """Each workload in its own process, in turn; one table at the end."""
    rows, ok = [], True
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        rows.append((name, result))
    for name, result in rows:
        ratio = result["failed"] / result["attempted"]
        print(f"{name:>9} {'fail_ratio':<34} {ratio:>14.6g} 1  ({result['attempted']} ops)")
        for k, m in result["metrics"].items():
            print(f"{name:>9} {k:<34} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "brdlab" / "__init__.py").is_file():
        sys.stderr.write(f"no brdlab sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    return every(args) if args.workload == "all" else one(args)


if __name__ == "__main__":
    sys.exit(main())
