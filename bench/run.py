"""krn benchmark: closed-loop workloads with one client, end to end and per layer.

    python3 bench/run.py --workload whatif --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload, one table
    python3 bench/run.py --workload whatif --trace 1         # per-layer numbers
    python3 bench/run.py --workload store-full --trace 1 --sweep   # per-layer size sweep

Run from the repository root; krn is imported from `src/` beside this
directory. A plain run (`--trace 0`) makes a fixed number of rounds
(inputs drawn from the seed, set-up, then a fixed number of ops, each
sent after the previous one returned), as many as fit `--seconds` on the
machine the benchmark was written on and at least three, and reports the
end-to-end metrics. A traced run (`--trace 1`) runs a warm-up round,
one round plain and the same round again with every layer wrapped, and
reports the per-layer metrics. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the
lines before it stamp the run and print every metric by name and unit.
"""

from __future__ import annotations

import argparse
import gc
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
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ["whatif", "store-lazy", "store-full", "concepts"]
MIN_ROUNDS = 3


def import_engine():
    """Import krn from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "krn", "__init__.py")):
        raise ImportError(f"no krn package under {SRC}")
    sys.path.insert(0, SRC)
    import krn

    if os.path.dirname(os.path.dirname(os.path.abspath(krn.__file__))) != SRC:
        raise ImportError(f"krn imported from {krn.__file__}, not from {SRC}")


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


# The speed probe: a fixed loop of the benchmark's own that allocates no
# object the collector tracks, so no collection runs inside it and its
# time follows only how fast the machine runs Python at that moment.
# CAL_S is its time at full speed on the machine the benchmark was
# written on (see README, "Noise").
_CAL_KEYS = [("k", i) for i in range(113)]
_CAL_TABLE = dict.fromkeys(_CAL_KEYS, 0)
CAL_S = 0.00035


def speed() -> float:
    """How fast the machine runs Python now, relative to CAL_S.

    1.0 is full speed; 0.6 means code takes 1/0.6 times as long as it
    would at full speed. Fastest of three runs of the probe loop.
    """
    best = math.inf
    for _ in range(3):
        t = time.perf_counter()
        table, keys, acc = _CAL_TABLE, _CAL_KEYS, 0
        for i in range(3000):
            k = keys[i % 113]
            table[k] = i
            acc += (i * 7) & 15
        best = min(best, time.perf_counter() - t)
    return CAL_S / best


RAISED = object()


def holds(check, *args) -> bool:
    """Whether an output check holds; a check that raises fails, loudly."""
    try:
        if check(*args):
            return True
        print(f"check failed: {check.__qualname__}{args[:1]}", file=sys.stderr)
    except Exception:  # a broken check is a failed check, not a crash
        traceback.print_exc(file=sys.stderr)
    return False


def run_round(cls, size, seed, workdir, rec=None):
    """Set up one round and run its ops in a closed loop.

    Every round of a run gets the same inputs, drawn from the seed. A
    workload whose set-up is costly may ask for several passes over its
    ops per set-up (`size["passes"]`); `reset()` restores the state right
    after set-up between them. The machine's speed is probed before and
    after set-up and around every block of `size["block"]` ops, outside
    the timed code. Returns (set-up seconds, set-up speed, passes, ops
    failed, extra layer counts); a pass is (op latencies in seconds, one
    speed per block). An op fails when it raises or its output check
    fails; a failed end-of-pass check counts as one more failure.
    """
    os.makedirs(workdir, exist_ok=True)
    ops, block = size["ops"], size["block"]
    failed = 0
    before = speed()
    frame = rec.begin_op("setup") if rec else None
    t0 = time.perf_counter()
    w = cls(random.Random(f"krn-bench:{seed}"), size, workdir)
    setup_s = time.perf_counter() - t0
    if rec:
        rec.end_op(frame)
    setup_speed = (before + speed()) / 2
    # Set-up holds all of a round's inputs at once, which a user would not.
    # Frozen, they are not rescanned by every collection during the ops,
    # which would add pauses that measure the benchmark, not the engine.
    gc.collect()
    gc.freeze()
    passes = []
    try:
        for p in range(size.get("passes", 1)):
            if p:
                w.reset()
            gc.collect()    # every pass starts with the collector in one state
            latencies, speeds = [], []
            edge = speed()
            for i in range(ops):
                frame = rec.begin_op(p * ops + i) if rec else None
                t = time.perf_counter()
                try:
                    out = w.op(i)
                except Exception:  # the loop must go on; the failure is counted
                    out = RAISED
                    if not failed:
                        traceback.print_exc(file=sys.stderr)
                latencies.append(time.perf_counter() - t)
                if rec:
                    rec.end_op(frame)
                if out is RAISED or not holds(w.check, i, out):
                    failed += 1
                if (i + 1) % block == 0 or i + 1 == ops:
                    after = speed()
                    speeds.append((edge + after) / 2)
                    edge = after
            frame = rec.begin_op("finish") if rec else None
            ok = holds(w.finish)
            if rec:
                rec.end_op(frame)
            if not ok:
                failed = min(failed + 1, (p + 1) * ops)
            passes.append((latencies, speeds))
        extra = w.layer_counts()
    finally:
        w.close()
        del w
        shutil.rmtree(workdir, ignore_errors=True)
        gc.unfreeze()
        gc.collect()
    return setup_s, setup_speed, passes, failed, extra


def scaled(passes, block):
    """Each pass's op latencies, scaled to full speed by the speed probed
    around their block."""
    return [[x * speeds[k // block] for k, x in enumerate(latencies)]
            for latencies, speeds in passes]


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name, size, seed, seconds, workdir):
    """The plain run: a fixed number of rounds; end-to-end metrics.

    The round count follows from `seconds` and the workload's nominal
    round time (`size["round_s"]`) alone, so two commits run the same
    number of rounds whatever their speed. Every time is scaled to full
    machine speed by the speed probed around it (see `speed`), which
    removes the slow periods other load on the machine causes. The first
    pass of a run warms up the fresh process, which runs slower than
    later ones, and is left out of the latency metrics. For them each op
    of a pass gets the median of its scaled times over the later passes,
    which drops a disturbance that hit one repetition only. The samples so
    cover every op of a pass once, in their mix of cheap and costly ops,
    timeline growth and cold reads included. Every op still counts in
    `attempted` and `failed`.
    """
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    block = size["block"]
    rounds = max(MIN_ROUNDS, math.ceil(seconds / size["round_s"]))
    setups, passes, failed, speeds = [], [], 0, []
    for _ in range(rounds):
        s, s_speed, ps, f, _ = run_round(cls, size, seed, workdir)
        setups.append(s * s_speed)
        passes.extend(scaled(ps, block))
        speeds.extend(x for _, block_speeds in ps for x in block_speeds)
        failed += f
    pooled = sorted(statistics.median(reps) for reps in zip(*passes[1:]))
    p90 = percentile(pooled, 0.9)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(pooled) / sum(pooled), "1/s"),
        "op_p50_ms": (statistics.median(pooled) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {"rounds": rounds, "passes": len(passes), "warmup_passes": 1, "samples": len(pooled),
            "samples_beyond_p90": sum(1 for x in pooled if x > p90),
            "speed_median": statistics.median(speeds), "speed_min": min(speeds)}
    return metrics, len(passes) * size["ops"], failed, info


def traced(name, size, seed, workdir, spans_path=None):
    """A warm-up round, one round plain, the same round traced; per-layer
    metrics."""
    from tracing import Recorder
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    failed_plain = 0
    for _ in range(2):
        _, _, plain, f, _ = run_round(cls, size, seed, workdir)
        failed_plain += f
    rec = Recorder()
    rec.install()
    try:
        _, _, traced_passes, failed, extra = run_round(cls, size, seed, workdir, rec)
    finally:
        rec.uninstall()
    plain_s = sum(map(sum, scaled(plain, size["block"])))
    traced_s = sum(map(sum, scaled(traced_passes, size["block"])))
    metrics = rec.layer_metrics(extra)
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    if spans_path:
        rec.write_spans(spans_path)
    ops = len(traced_passes) * size["ops"]
    info = {"rounds": 3, "warmup_rounds": 1, "samples": ops, "spans": len(rec.spans),
            "spans_dropped": rec.dropped}
    return metrics, 3 * ops, failed_plain + failed, info


def sweep(name, seed, workdir):
    """Traced per-layer numbers at each size of the workload's sweep.

    Metric names are prefixed with the size, as in `n1000.sim.snapshot.self_ms`.
    """
    from workloads import SWEEP

    if name not in SWEEP:
        raise SystemExit(f"--sweep covers {', '.join(SWEEP)}, not {name}")
    metrics, attempted, failed = {}, 0, 0
    for size in SWEEP[name]:
        m, a, f, _ = traced(name, size, seed, workdir)
        metrics.update({f"n{size['objects']}.{k}": v for k, v in m.items()})
        attempted += a
        failed += f
    return metrics, attempted, failed, {"size": SWEEP[name]}


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter so its peak RSS is its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        for line in lines[:-1]:
            print(f"{name:<11} {line}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="input size; tiny is for the smoke test")
    parser.add_argument("--sweep", action="store_true",
                        help="traced per-layer numbers at 10^2, 10^3 and 10^4 objects")
    parser.add_argument("--out", help="also write the full result, stamped, to this JSON file")
    parser.add_argument("--spans", help="write the traced round's spans to this file")
    args = parser.parse_args(argv)

    # String hashing, and so the iteration order of sets and dicts the engine
    # builds, follows the seed, so that a seed repeats the same work.
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__),
                                  *(sys.argv[1:] if argv is None else argv)])
    try:
        import_engine()
    except ImportError as exc:
        print(f"cannot import krn: {exc}", file=sys.stderr)
        return 2
    os.environ.pop("KRN_VERB_TABLE", None)   # the checks expect the default verbs
    if args.workload == "all":
        return run_all(args)

    from workloads import SIZES

    size = SIZES[args.workload][args.size]
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "size": size, "python": platform.python_version(),
            "cpu_count": os.cpu_count(), "git_sha": git_sha()}
    try:
        if args.sweep:
            metrics, attempted, failed, info = sweep(args.workload, args.seed, workdir)
        elif args.trace:
            metrics, attempted, failed, info = traced(
                args.workload, size, args.seed, workdir, args.spans)
        else:
            metrics, attempted, failed, info = measure(
                args.workload, size, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    meta.update(info)
    meta["ops"] = attempted
    meta["error_rate"] = failed / attempted
    print("meta " + json.dumps(meta, ensure_ascii=False, sort_keys=True))
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    print(f"error_rate {meta['error_rate']:.6g} ratio")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, **result}, fh, indent=1, ensure_ascii=False)
            fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
