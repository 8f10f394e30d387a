#!/usr/bin/env python3
"""Benchmark for grsdual, driven through its public API in one process.

    python3 perfbench/run.py --workload construct_large --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout; grsdual is imported from ./src.  One
client runs a closed loop: the next op starts when the last returns.
Each workload has a fixed mix of ops (see workloads.py); a run repeats
the mix in rounds, each in a seeded order, until --seconds have passed.

--trace 0 prints the end-to-end metrics: set-up time (fresh
interpreters that import grsdual and build the workload's fields),
ops per second, median and tail op latency, the share of ops whose
outcome matches the pinned oracle, and peak resident memory.  Every
timing is scaled to a reference machine speed measured next to it by
machine_probe(), and the latency metrics are taken over one round's
mix, each op at its kind's median scaled latency over the run.

--trace 1 runs exactly one round without tracing and the same round
again with tracing.tracer wrapping every binding of the layer
functions, and prints the per-layer metrics plus the tracing overhead.
A fixed round keeps every count identical between runs of one seed.

Every op is checked against oracle.json, and every returned code is
re-checked with check_self_dual outside the timed region.  The line
before the result is a JSON run record: seed, commit, thread caps,
versions, rounds, probe times, tail percentile, per-op scaled and wall
median latencies and failures.
"""

from __future__ import annotations

import os
import sys

# Cap native thread pools before numpy is imported anywhere.
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from probe import machine_probe, scaled, smoothed  # noqa: E402

# Set-up is timed in fresh interpreters, this many before the first
# round, after it and after the last.
SETUP_PER_POINT = 2
SETUP_PROBES = 3
TAIL_PERCENTILE = 90

# ROADMAP baseline rows that overlap the pools (seconds per op).
ROADMAP_BASELINE = {
    "th10_code(13,1,3,0,3)": 2.3,
    "th4_code(11,3,2,2)": 0.73,
    "catalog(169,40)": 0.97,
    "run_selftest(200)": 1.2,
}

# Time one set-up in a fresh interpreter: import grsdual, build fields.
SETUP_SNIPPET = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import grsdual
for p, m in json.loads(sys.argv[2]):
    grsdual.make_field(p, m)
print(time.perf_counter() - t0)
"""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_grsdual():
    """grsdual from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "grsdual", "__init__.py")):
        sys.exit(f"grsdual sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import grsdual
    if not os.path.abspath(grsdual.__file__).startswith(SRC + os.sep):
        sys.exit(f"imported grsdual from {grsdual.__file__}, not {SRC}")
    return grsdual


def load_oracle():
    with open(os.path.join(HERE, "oracle.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git_commit():
    """HEAD of the checkout, or None when it is not a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def source_digest():
    """sha256 of src/grsdual; identifies the code in an exported
    checkout, which has no .git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "grsdual")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def time_setup(fields, count):
    """Import + field builds, each in a fresh interpreter.

    Returns (wall seconds, probe seconds) per set-up; the probe is the
    median of SETUP_PROBES taken before and as many after the
    interpreter runs.
    """
    times = []
    for _ in range(count):
        probes = [machine_probe() for _ in range(SETUP_PROBES)]
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, SRC, json.dumps(fields)],
            capture_output=True, text=True, timeout=120, check=True)
        wall = float(proc.stdout.strip().splitlines()[-1])
        probes += [machine_probe() for _ in range(SETUP_PROBES)]
        times.append((wall, statistics.median(probes)))
    return times


def run_rounds(rounds_fn, workdir, seconds=None, tracer=None, between=None,
               probe=False):
    """Closed loop over whole rounds; returns one sample dict per op and
    the number of rounds run.

    `rounds_fn(i)` gives the ops of round i.  With `seconds` the loop
    starts rounds until that much time has passed (at least one round);
    without it, it runs one round.  Input files are written before each
    round, and `between(i)` is called after round i, untimed.  With
    `probe`, machine_probe() runs before every op and after the last,
    and each sample holds the smoothed probe time at its op.
    """
    clock = time.perf_counter
    samples = []
    start = clock()
    index = 0
    while index == 0 or (seconds is not None and clock() - start < seconds):
        ops = rounds_fn(index)
        paths = []
        for i, op in enumerate(ops):
            path = None
            if op.text is not None:
                path = os.path.join(workdir, f"{i}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(op.text)
            paths.append(path)
        probes = [machine_probe()] if probe else None
        first = len(samples)
        for op, path in zip(ops, paths):
            covered = tracer.covered if tracer else 0.0
            t0 = clock()
            result, exc, stdout = workloads.run_op(op, path)
            latency = clock() - t0
            if tracer:
                covered = tracer.covered - covered
            samples.append({"op": op, "round": index, "latency": latency,
                            "result": result, "exc": exc, "stdout": stdout,
                            "covered": covered})
            if probe:
                probes.append(machine_probe())
        if probe:
            for i, sample in enumerate(samples[first:]):
                sample["probe"] = smoothed(probes, i)
        if between:
            between(index)
        index += 1
    return samples, index


def check_samples(grsdual, samples, oracle):
    """Compare every op with the oracle; re-check every returned code.

    Returns (failed, correct, failures).  An op listed as a known defect
    that still behaves as it did when pinned counts as failed but does
    not make the run incorrect; any other mismatch does.
    """
    verified = {}
    failed = 0
    correct = True
    failures = []
    for s in samples:
        op = s["op"]
        outcome, codes = workloads.digest(op, s["result"], s["exc"],
                                          s["stdout"])
        entry = oracle.get(op.key)
        ok = entry is not None and outcome == entry["expect"]
        for code in codes:
            key = code.to_json()
            if key not in verified:
                verified[key] = grsdual.check_self_dual(code.generator_matrix())
            ok = ok and verified[key]
        if ok:
            continue
        failed += 1
        defect = (entry or {}).get("known_defect")
        if not (defect and outcome == defect["observed"]):
            correct = False
        failures.append({"key": op.key, "got": outcome,
                         "known_defect": bool(defect)})
    return failed, correct, failures


def latency_summary(samples, mix):
    """Throughput, median and tail over one round's mix of ops, each op
    timed by the median over the run of its kind's scaled latencies.
    """
    by_key = {}
    for s in samples:
        by_key.setdefault(s["op"].key, []).append(
            scaled(s["latency"], s["probe"]))
    typical = {k: statistics.median(v) for k, v in by_key.items()}
    lat = sorted(typical[op.key] for op in mix)
    tail = statistics.quantiles(lat, n=100 // (100 - TAIL_PERCENTILE),
                                method="inclusive")[-1]
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail,
        "tail_percentile": TAIL_PERCENTILE,
        "mix_ops": len(lat),
        "mix_ops_beyond_tail": sum(v > tail for v in lat),
        "op_scaled_median_s": dict(sorted(typical.items())),
    }


def per_key_medians(samples):
    by_key = {}
    for s in samples:
        by_key.setdefault(s["op"].key, []).append(s["latency"])
    return {k: statistics.median(v) for k, v in sorted(by_key.items())}


def baseline_comparison(medians):
    return {key: {"roadmap_s": ref, "measured_median_s": medians[key],
                  "ratio": medians[key] / ref}
            for key, ref in ROADMAP_BASELINE.items() if key in medians}


def main(argv=None):
    args = parse_args(argv)
    # On SIGTERM, unwind so the input directory is removed and a running
    # set-up interpreter is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    grsdual = import_grsdual()
    import numpy
    oracle = load_oracle()
    mix_fn, fields_fn = workloads.WORKLOADS[args.workload]
    fields = fields_fn()
    rng = random.Random(f"{args.workload}:{args.seed}")
    mix = mix_fn(rng)

    def round_ops(index):
        return rng.sample(mix, len(mix))

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "nproc": NPROC, "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "client": "1 closed-loop client, in-process",
    }
    with tempfile.TemporaryDirectory(prefix=".inputs-", dir=HERE) as workdir:
        bindings_ok = True
        if args.trace:
            metrics, samples, bindings_ok = traced_run(
                grsdual, round_ops(0), fields, workdir, record)
        else:
            for p, m in fields:
                grsdual.make_field(p, m)
            # Set-ups before the first round, after it and after the
            # last, so they see the same machine as the ops do.
            setups = time_setup(fields, SETUP_PER_POINT)

            def setup_after(index):
                if index == 0:
                    setups.extend(time_setup(fields, SETUP_PER_POINT))

            samples, rounds = run_rounds(round_ops, workdir,
                                         seconds=args.seconds,
                                         between=setup_after, probe=True)
            setups.extend(time_setup(fields, SETUP_PER_POINT))
            setup_s = statistics.median(scaled(*t) for t in setups)
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            record["rounds"] = rounds
            record["setup_wall_probe_s"] = setups
            probes = [s["probe"] for s in samples]
            record["probe_s"] = {"median": statistics.median(probes),
                                 "min": min(probes), "max": max(probes)}
            metrics = None
    failed, correct, failures = check_samples(grsdual, samples, oracle)
    correct = correct and bindings_ok
    attempted = len(samples)
    if metrics is None:
        lat = latency_summary(samples, mix)
        record["op_tail"] = {k: lat[k] for k in
                             ("tail_percentile", "mix_ops",
                              "mix_ops_beyond_tail")}
        record["op_scaled_median_s"] = lat["op_scaled_median_s"]
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (lat["ops_per_s"], "1/s"),
            "op_p50_s": (lat["op_p50_s"], "s"),
            "op_tail_s": (lat["op_tail_s"], "s"),
            "pass_ratio": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    medians = per_key_medians(samples)
    record["op_median_s"] = medians
    record["roadmap_baseline"] = baseline_comparison(medians)
    record["failures"] = failures
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def traced_run(grsdual, ops, fields, workdir, record):
    """One untraced round, then the same round traced.

    Set-up (the workload's field builds) runs traced, so the field
    layer's numbers include the table builds.  Returns the per-layer
    metrics, the samples of both rounds, and whether every binding of
    every target was wrapped.
    """
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    unwrapped = tracer.unwrapped_bindings()
    for p, m in fields:
        grsdual.make_field(p, m)
    tracer.uninstall()
    plain, _ = run_rounds(lambda _: ops, workdir)
    tracer.install()
    unwrapped += tracer.unwrapped_bindings()
    traced, _ = run_rounds(lambda _: ops, workdir, tracer=tracer)
    tracer.uninstall()

    wall = sum(s["latency"] for s in traced)
    uncovered = sum(s["latency"] - s["covered"] for s in traced)
    metrics = tracer.metrics()
    metrics["bench.unattributed_share"] = (uncovered / wall, "ratio")
    metrics["bench.trace_overhead"] = (
        wall / sum(s["latency"] for s in plain), "ratio")
    record["unwrapped_bindings"] = sorted(set(unwrapped))
    record["exact_counts"] = tracer.exact_counts()
    # hits / attempts; undefined where the workload makes no attempt
    attempts = tracer.counts["search.attempts"]
    record["search_hit_ratio"] = (tracer.counts["search.hits"] / attempts
                                  if attempts else None)
    record["unattributed_by_op"] = [
        [s["op"].key, (s["latency"] - s["covered"]) / s["latency"]]
        for s in traced]
    if unwrapped:
        # an unwrapped binding silently drops a layer's numbers
        print(f"unwrapped bindings: {record['unwrapped_bindings']}",
              file=sys.stderr)
    return metrics, plain + traced, not unwrapped


if __name__ == "__main__":
    sys.exit(main())
