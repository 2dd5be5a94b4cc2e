#!/usr/bin/env python3
"""Train / sweep / serve benchmark for the gnndse libraries.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the repository root. The script builds perfbench/harness.cpp and
the libraries under src/ into .bench_build/ (first run only), generates the
workload's work list from --seed alone, runs the harness on a one-lane
pool, and prints every end-to-end metric (--trace 0) or every per-layer
metric (--trace 1). The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
carries the run's provenance. perfbench/README.md explains the workloads
and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD, "perfbench_harness")
HARNESS_TIMEOUT_S = 170

# The deterministic initial database (seed 42, nine training kernels,
# Table 1 budgets): each kernel's design points form one contiguous index
# range, and work lists name design points by index. The harness checks
# both against the database it generates.
DB_SIZE = 4370
KERNEL_RANGES = {
    "aes": (0, 15), "atax": (15, 605), "gemm-blocked": (620, 616),
    "gemm-ncubed": (1236, 432), "mvt": (1668, 571), "spmv-crs": (2239, 77),
    "spmv-ellpack": (2316, 77), "stencil": (2393, 1066), "nw": (3459, 911),
}

# Frozen workload definitions. Work scales with --seconds so a run lasts
# about that long on a 1-lane pool; the work itself never depends on time.
# Setup draws its training points and the held-out split with a seed of its
# own, so every run sets up (and scores quality against) the same models.
SETUP = {"seed": 20221, "repeats": 3, "draw": 240, "epochs": (3, 2, 2),
         "heldout": 128}
# A retrain job trains on `per_kernel` seeded points of each kernel, so every
# job has the same kernel mix.
TRAIN = {"jobs_per_s": 2.0, "per_kernel": 5, "epochs": (2, 1, 1), "blocks": 5}
SWEEP = {
    # (kernel, max_configs): 0 = exhaustive; budgets pin the beam path.
    # Every round sweeps each entry once, in a seeded order. Request times
    # cluster by entry, so the entry count is odd: with 6 rounds of 7 the
    # median (rank 21-22 of 42) and p75 (rank 32) fall inside a cluster
    # rather than on the edge between two.
    "pool": [("aes", 0), ("spmv-crs", 0), ("atax", 512), ("gemm-ncubed", 256),
             ("gemm-blocked", 256), ("stencil", 256), ("mvt", 256)],
    "rounds_per_s": 0.3,
    "top_m": 10,
}
# Requests cycle through the nine kernels (a seeded order per cycle) with a
# seeded design point of each; the open loop sends on a fixed-rate grid.
# Closed and open loops alternate over four segments of the run.
SERVE = {
    "max_batch": 16, "max_wait_us": 2000, "outstanding": 64,
    "closed_per_s": 160, "open_rate": 200.0, "open_share": 0.5, "blocks": 16,
    "segments": 4,
}
# Highest percentile a workload may report as its tail: the highest that
# repeated within a tenth across seeds when the benchmark was defined. For
# serve at 200 req/s p90 spread 19-22% (quartile distance over median, five
# seeds) while p75 spread 7%; train and sweep yield about 40 samples a run.
TAIL_CAP = 75.0
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = [
    ("setup_s", "s"), ("throughput_per_s", "1/s"), ("latency_ms", "ms"),
    ("tail_latency_ms", "ms"), ("quality", "ratio"), ("rmse_sum", "rmse"),
]
# (metric, unit, source, statistic). "total" sums the busy time of a layer
# span, "median_call_us"/"median_call_ms" take its median per call, and
# "figure" reads a count, ratio or stage time the harness measured outside
# spans (the sweep's from the product's own stage timers and spans).
PER_LAYER = [
    ("model.build_dataset_ms", "ms", "model.build_dataset", "total"),
    ("model.fit_ms.main", "ms", "model.fit.main", "total"),
    ("model.fit_ms.bram", "ms", "model.fit.bram", "total"),
    ("model.fit_ms.cls", "ms", "model.fit.cls", "total"),
    ("gnn.make_batch_ms", "ms", "gnn.make_batch", "total"),
    ("gnn.forward_tape_ms", "ms", "gnn.forward_tape", "total"),
    ("tensor.backward_ms", "ms", "tensor.backward", "total"),
    ("tensor.adam_step_ms", "ms", "tensor.adam_step", "total"),
    ("model.eval_heldout_ms", "ms", "model.eval_heldout", "total"),
    ("dspace.enumerate_ms", "ms", "dspace.enumerate_ms", "figure"),
    ("dspace.configs", "count", "dspace.configs", "figure"),
    ("model.featurize_ms", "ms", "model.featurize_ms", "figure"),
    ("gnn.predict_batch_ms.main", "ms", "gnn.predict_batch_ms.main", "figure"),
    ("gnn.predict_batch_ms.bram", "ms", "gnn.predict_batch_ms.bram", "figure"),
    ("gnn.predict_batch_ms.cls", "ms", "gnn.predict_batch_ms.cls", "figure"),
    ("dse.rank_ms", "ms", "dse.rank_ms", "figure"),
    ("dse.configs_scored", "count", "dse.configs_scored", "figure"),
    ("oracle.evaluate_ms", "ms", "oracle.evaluate_batch", "total"),
    ("oracle.evals", "count", "oracle.evals", "figure"),
    ("oracle.hit_ratio", "ratio", "oracle.hit_ratio", "figure"),
    ("dse.top_valid_ratio", "ratio", "dse.top_valid_ratio", "figure"),
    ("serve.parse_us", "us", "serve.parse", "median_call_us"),
    ("model.featurize_single_us", "us", "model.featurize_single",
     "median_call_us"),
    ("gnn.predict_batch_ms.small", "ms", "gnn.predict_batch.small",
     "median_call_ms"),
    ("serve.batch_size", "count", None, "batch_size"),
    ("serve.gen_late_ms", "ms", None, "gen_late"),
    ("process.peak_rss_mb", "MB", None, "peak_rss"),
    ("trace.overhead_ms", "ms", None, "overhead"),
    ("trace.span_cost_ms", "ms", None, "span_cost"),
    ("trace.layer_coverage", "ratio", None, "coverage"),
]
COVERAGE_FLOOR = 0.9


# ------------------------------------------------------------ statistics

def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q2, q3) as statistics.quantiles(values, n=4) gives them."""
    return tuple(statistics.quantiles(values, n=4))


def nearest_rank(n, p):
    # The epsilon keeps 90 * 100 / 100 from rounding up to rank 91.
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def tail_percentile(n, cap):
    """Highest ladder percentile <= cap with at least 10 of n samples
    beyond it, or None when even the median has fewer."""
    for p in PERCENTILE_LADDER:
        if p <= cap and n - nearest_rank(n, p) >= 10:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), p) - 1]


def account(raw):
    """(correct, attempted, failed) for one run: every output check the
    harness made is an attempted operation, and a run is correct only when
    none failed."""
    attempted = max(1, int(raw["attempted"]))
    failed = int(raw["failed"])
    return failed == 0, attempted, failed


# ------------------------------------------------------------- work lists

def draw_points(rng, count, exclude=()):
    excluded = set(exclude)
    pool = [i for i in range(DB_SIZE) if i not in excluded]
    return rng.sample(pool, count)


def kernel_cycle_points(rng, count):
    """`count` design points cycling through the kernels in a fresh seeded
    order per cycle, so every stretch of requests has the same mix."""
    out = []
    while len(out) < count:
        names = sorted(KERNEL_RANGES)
        rng.shuffle(names)
        for name in names:
            start, n = KERNEL_RANGES[name]
            out.append(start + rng.randrange(n))
    return out[:count]


def work_list(workload, seed, seconds):
    """The directives the harness runs, generated from the seed alone."""
    setup_rng = random.Random(SETUP["seed"])
    setup = draw_points(setup_rng, SETUP["draw"])
    heldout = draw_points(setup_rng, SETUP["heldout"], exclude=setup)
    lines = [f"workload {workload}", f"db_size {DB_SIZE}"]
    lines += ["kernel_range %s %d %d" % (k, *r)
              for k, r in sorted(KERNEL_RANGES.items())]
    lines += [
        "epochs %d %d %d" % SETUP["epochs"],
        f"setup_repeats {SETUP['repeats']}",
        "setup " + " ".join(map(str, setup)),
        "heldout " + " ".join(map(str, heldout)),
    ]
    rng = random.Random(seed)
    if workload == "train":
        lines.append("job_epochs %d %d %d" % TRAIN["epochs"])
        jobs = max(2 * TRAIN["blocks"], round(seconds * TRAIN["jobs_per_s"]))
        used = set(setup) | set(heldout)
        free = {k: [i for i in range(start, start + n) if i not in used]
                for k, (start, n) in sorted(KERNEL_RANGES.items())}
        for _ in range(jobs):
            job = [i for k in sorted(free)
                   for i in rng.sample(free[k], TRAIN["per_kernel"])]
            lines.append("job " + " ".join(map(str, job)))
        lines.append(f"repeat_job {rng.randrange(jobs)}")
    elif workload == "sweep":
        rounds = max(2, round(seconds * SWEEP["rounds_per_s"]))
        kernel_seed = {k: rng.randrange(1, 2**31) for k, _ in SWEEP["pool"]}
        lines.append(f"top_m {SWEEP['top_m']}")
        for _ in range(rounds):
            order = list(SWEEP["pool"])
            rng.shuffle(order)
            lines += ["sweep %s %d %d" % (k, kernel_seed[k], budget)
                      for k, budget in order]
    elif workload == "serve":
        lines.append("serve_batch %d %d" % (SERVE["max_batch"],
                                            SERVE["max_wait_us"]))
        lines.append(f"segments {SERVE['segments']}")
        lines.append("warmup " + " ".join(
            map(str, kernel_cycle_points(rng, 2 * len(KERNEL_RANGES)))))
        closed = max(200, round(seconds * SERVE["closed_per_s"]))
        lines.append(f"closed {SERVE['outstanding']} " + " ".join(
            map(str, kernel_cycle_points(rng, closed))))
        n_open = max(200, round(seconds * SERVE["open_share"] *
                                SERVE["open_rate"]))
        gap_us = 1e6 / SERVE["open_rate"]
        for i, idx in enumerate(kernel_cycle_points(rng, n_open)):
            lines.append("open %d %d" % (idx, round((i + 1) * gap_us)))
    else:
        raise ValueError(f"unknown workload {workload}")
    return lines


# ------------------------------------------------------------------ build

def build():
    """Configures and builds the harness; returns False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write(f"perfbench: build step failed: {cmd}\n")
            return False
    return True


# ------------------------------------------------------------- provenance

def steal_ticks():
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except (OSError, ValueError):
        return None


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    """HEAD of the checkout, or None where it is not a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


# ---------------------------------------------------------------- metrics

def blocks(values, count):
    """`values` split into `count` consecutive, near-equal blocks."""
    n = len(values)
    return [values[i * n // count:(i + 1) * n // count] for i in range(count)]


def throughput(workload, raw):
    """Median over blocks of work done per second. Train and sweep blocks
    are runs of consecutive jobs / sweep rounds (the same kernel mix each);
    serve blocks are stretches of closed-loop completions."""
    if workload == "serve":
        done = raw["closed_done_s"]
        rates, prev = [], 0.0
        for block in blocks(done, SERVE["blocks"]):
            rates.append(len(block) / (block[-1] - prev))
            prev = block[-1]
        return median(rates)
    count = (TRAIN["blocks"] if workload == "train"
             else len(raw["unit_ms"]) // len(SWEEP["pool"]))
    pairs = list(zip(raw["unit_work"], raw["unit_ms"]))
    return median([sum(w for w, _ in b) / (sum(ms for _, ms in b) / 1e3)
                   for b in blocks(pairs, count)])


def latency_blocks(samples, cap):
    """The most blocks (up to 8) that each still hold ten samples beyond
    the workload's tail percentile."""
    for count in range(8, 0, -1):
        if tail_percentile(len(samples) // count, cap) == cap:
            return count
    return 1


def end_to_end(workload, raw):
    units = raw["unit_ms"]
    cap = TAIL_CAP
    parts = blocks(units, latency_blocks(units, cap))
    tail_p = tail_percentile(min(len(p) for p in parts), cap)
    values = {
        "setup_s": median(raw["setup_s"]),
        "throughput_per_s": throughput(workload, raw),
        "latency_ms": median([median(p) for p in parts]),
        "tail_latency_ms": (median([percentile(p, tail_p) for p in parts])
                            if tail_p else None),
        "quality": raw["quality"],
        "rmse_sum": raw["rmse_sum"],
    }
    info = {"samples": len(units), "latency_blocks": len(parts),
            "tail_percentile": tail_p,
            "unit_ms_quartiles": quartiles(units) if len(units) > 1 else None}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END if values[name] is not None}, info


def layer_coverage(raw):
    """Share of the coverable traced time inside the named layers: layer
    spans (nested layer spans counted once) plus the stage times the
    harness attributed outside spans."""
    wall_ms = raw["coverage_wall_s"] * 1e3
    return raw["covered_ms"] / wall_ms if wall_ms > 0 else 0.0


def per_layer(raw):
    layers, figures = raw["layers"], raw["figures"]
    out = {}
    for name, unit, src, stat in PER_LAYER:
        calls = layers.get(src, {}).get("call_us", []) if src else []
        if stat == "total":
            v = layers.get(src, {}).get("total_ms", 0.0)
        elif stat == "figure":
            v = figures.get(src, 0.0)
        elif stat == "median_call_us":
            v = median(calls) if calls else 0.0
        elif stat == "median_call_ms":
            v = median(calls) / 1e3 if calls else 0.0
        elif stat == "batch_size":
            v = statistics.fmean(raw["batch_sizes"]) if raw["batch_sizes"] else 0.0
        elif stat == "gen_late":
            late = raw["gen_late_ms"]
            tail_p = tail_percentile(len(late), TAIL_CAP)
            v = percentile(late, tail_p) if late and tail_p else 0.0
        elif stat == "peak_rss":
            v = raw["provenance"]["peak_rss_mb"]
        elif stat == "overhead":
            v = raw["overhead_s"] * 1e3
        elif stat == "span_cost":
            v = raw["span_cost_ms"]
        else:  # coverage
            v = layer_coverage(raw)
        out[name] = {"value": v, "unit": unit}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("train", "sweep", "serve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not build():
        return 1
    os.makedirs(os.path.join(BUILD, "runs"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl_path = os.path.join(BUILD, "runs", tag + ".worklist")
    lines = work_list(args.workload, args.seed, args.seconds)
    lines.append(f"trace {args.trace}")
    if args.trace:
        lines.append("trace_out " + os.path.join(BUILD, "runs", tag + ".trace.json"))
    with open(wl_path, "w") as f:
        f.write("\n".join(lines) + "\n")

    # The harness sees only the generated inputs: no GNNDSE_* knobs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GNNDSE_")}
    steal_before = steal_ticks()
    try:
        proc = subprocess.run([HARNESS, wl_path], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: harness exceeded {HARNESS_TIMEOUT_S} s\n")
        return 1
    steal_after = steal_ticks()
    sys.stderr.write(proc.stderr[-4000:])
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(f"perfbench: harness exited {proc.returncode}\n")
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(BUILD, "runs", tag + ".raw.json"), "w") as f:
        json.dump(raw, f)

    correct, attempted, failed = account(raw)
    for note in raw["failures"]:
        sys.stderr.write(f"perfbench: check failed: {note}\n")
    if args.trace:
        metrics = per_layer(raw)
        info = {}
        if metrics["trace.layer_coverage"]["value"] < COVERAGE_FLOOR:
            sys.stderr.write("perfbench: FLAG named layers cover only "
                             f"{metrics['trace.layer_coverage']['value']:.3f} "
                             "of the traced wall time\n")
    else:
        metrics, info = end_to_end(args.workload, raw)

    prov = dict(raw["provenance"])
    prov.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(), "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)), "db_seed": 42,
        "setup_seed": SETUP["seed"],
        "steal_ticks": (steal_after - steal_before
                        if steal_before is not None and steal_after is not None
                        else None),
        "untraced_wall_s": raw["untraced_wall_s"],
        "traced_wall_s": raw["traced_wall_s"],
        "setup_repeats_s": raw["setup_s"],
    })
    prov.update(info)
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
