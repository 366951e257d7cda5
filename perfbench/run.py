#!/usr/bin/env python3
"""The repo benchmark: seeded workloads through the dtaint library.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_six|fleet_cold|fleet_warm \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (the library from src/ plus perfbench.cpp) into
$CARGO_TARGET_DIR (default .bench_build), synthesizes the seeded corpus,
scans it and prints a human summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of an untraced scan. --trace 1
runs the untraced scan and then a traced scan of the same images in a
fresh process, and reports the per-layer metrics of the traced scan.
Every corpus synthesis and every scan runs in a process of its own, so no
measured process analyses an image twice or inherits warmed state.
Workloads, metrics and the layer map are described in workloads.json.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Each workload's `run` block: corpus (generator in perfbench.cpp),
# threads (summary-phase threads per analysing process), workers (forked
# ScanSupervisor workers, 0 = scan in-process), passes (untraced scans of
# the corpus, each by a fresh process; an image's latency is its fastest
# pass and throughput is the fastest pass's), cache (summary cache on
# disk), warm (populate the cache in set-up). A run's corpus holds
# max(floor, per_s * seconds) images, rounded up to `step`.
WORKLOADS = {
    name: w["run"] for name, w in
    json.loads((HERE / "workloads.json").read_text())["workloads"].items()
}
SETUP_REPEATS = 5
PAPER_VULNS_PER_REPLICA = 21
PAPER_IMAGES_PER_REPLICA = 6
RUN_LIMIT_S = 170.0

LAYER_MS = ["extract.ms", "load.ms", "lift.ms", "filter.ms", "callgraph.ms",
            "bottomup.pass1_ms", "bottomup.pass2_ms", "structsim.ms",
            "pathfind.sinkcount_ms", "pathfind.ms", "sanitize.ms"]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_child(cmd, deadline, capture=False):
    """Runs one child in its own process group and waits for it (and,
    on timeout, for the whole group: the supervisor's workers too)."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen(cmd, text=True, start_new_session=True,
                            stdout=subprocess.PIPE if capture else sys.stderr)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"timed out: {' '.join(map(str, cmd))}")
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(map(str, cmd))}")
    return out


def build(build_dir):
    src_cmake = HERE.parent / "src" / "CMakeLists.txt"
    if not src_cmake.is_file():
        raise BenchError(f"library sources not found ({src_cmake})")
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return build_dir / "perfbench"


def image_count(spec, seconds):
    n = max(spec["floor"], math.ceil(spec["per_s"] * seconds))
    return math.ceil(n / spec["step"]) * spec["step"]


def synth(exe, corpus, seed, images, out_dir, deadline):
    """Synthesizes a corpus in a child process; returns its JSON summary
    (CPU `seconds` and corpus `fingerprint`)."""
    text = run_child([str(exe), "synth", "--corpus", corpus, "--seed",
                      str(seed), "--images", str(images), "--out",
                      str(out_dir)], deadline, capture=True)
    return json.loads(text.strip().splitlines()[-1])


def scan(exe, work, name, spec, corpus, mode, deadline, cache_dir=None,
         workers=None):
    out = work / f"{name}.json"
    workers = spec["workers"] if workers is None else workers
    cmd = [str(exe), "scan", "--dir", str(corpus), "--mode", mode,
           "--threads", str(spec["threads"]), "--out", str(out),
           "--workers", str(workers)]
    if cache_dir is not None:
        cmd += ["--cache-dir", str(cache_dir)]
    run_child(cmd, deadline)
    return json.loads(out.read_text())


def dir_mb(path):
    if path is None or not path.is_dir():
        return 0.0
    return sum(f.stat().st_size for f in path.iterdir()) / (1 << 20)


def quantile(values, q):
    """Harrell-Davis estimate of quantile q: the order statistics weighted
    by a Beta((n+1)q, (n+1)(1-q)) density. A single order statistic jumps
    when the median falls between two clusters of image sizes (as it does
    for paper_six's six image kinds); this weighted mean moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) +
                        (b - 1) * math.log1p(-x))

    steps = 16  # Simpson's rule on each order statistic's interval
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        inner = sum((4 if k % 2 else 2) * pdf(lo + k * h)
                    for k in range(1, steps))
        weights.append((pdf(lo) + inner + pdf(lo + steps * h)) * h / 3)
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, xs)) / total


def ok_images(result):
    return [r for r in result["images"] if r["status"] == "ok"]


def score(result):
    imgs = result["images"]
    tp = sum(r["tp"] for r in imgs)
    fp = sum(r["fp"] for r in imgs)
    fn = sum(r["fn"] for r in imgs)
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    return tp, precision, recall


def best_image_ms(passes):
    """Per analysed image, its fastest scan over the passes (each pass is
    a fresh process). Interference from the host only adds time, so the
    minimum is the steadiest estimate of what an image costs."""
    return [min(p["images"][i]["ms"] for p in passes)
            for i, r in enumerate(passes[0]["images"]) if r["status"] == "ok"]


def end_to_end(spec, passes, setup_s):
    ms = best_image_ms(passes)
    functions = sum(r["functions"] for r in ok_images(passes[0]))
    if spec["workers"]:
        rss_kb = max(r["rss_kb"] for p in passes for r in p["images"])
    else:
        rss_kb = max(p["rss_kb"] for p in passes)
    _, precision, recall = score(
        {"images": [r for p in passes for r in p["images"]]})
    return {
        "functions_per_s": (functions / min(p["cpu_s"] for p in passes),
                            "1/s"),
        "image_ms_p50": (quantile(ms, 0.5), "ms"),
        "image_ms_p90": (quantile(ms, 0.9), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
        "precision": (precision, "ratio"),
        "recall": (recall, "ratio"),
    }


def per_layer(spec, untraced, traced, cache_dir):
    imgs = traced["images"]
    layers = {name: sum(r["layers"][name] for r in imgs) for name in LAYER_MS}
    counts = {}
    for r in imgs:
        for key, value in r["counts"].items():
            counts[key] = counts.get(key, 0) + value
    c = lambda key: counts.get(key, 0)  # noqa: E731
    ratio = lambda num, den: num / den if den else 0.0  # noqa: E731
    image_ms = sum(r["ms"] for r in imgs)
    span_ms = sum(layers.values())
    run_ms = traced["wall_s"] * 1e3 if spec["workers"] else 0.0
    task_ms = sum(r["task_ms"] for r in imgs)
    metrics = {name: (value, "ms") for name, value in layers.items()}
    metrics.update({
        "extract.unextractable": (c("extract.unextractable"), "count"),
        "lift.functions": (c("lift.functions"), "count"),
        "lift.blocks": (c("lift.blocks"), "count"),
        "filter.functions_dropped": (c("filter.functions_dropped"), "count"),
        "bottomup.passes": (c("bottomup.passes"), "count"),
        "summary.functions": (c("summary.functions"), "count"),
        "link.defs_propagated": (c("link.defs_propagated"), "count"),
        "engine.state_forks": (c("engine.state_forks"), "count"),
        "engine.memo_hit_ratio": (ratio(c("engine.block_memo_hits"),
                                        c("engine.block_memo_lookups")),
                                  "ratio"),
        "intern.nodes": (c("intern.nodes"), "count"),
        "cache.hits": (c("cache.hits"), "count"),
        "cache.misses": (c("cache.misses"), "count"),
        "cache.stores": (c("cache.stores"), "count"),
        "cache.hit_ratio": (ratio(c("cache.hits"),
                                  c("cache.hits") + c("cache.misses")),
                            "ratio"),
        "cache.disk_mb": (dir_mb(cache_dir), "MB"),
        "structsim.resolved": (c("structsim.resolved"), "count"),
        "pathfind.sinks_visited": (c("pathfind.sinks_visited"), "count"),
        "pathfind.paths_explored": (c("pathfind.paths_explored"), "count"),
        "sanitize.paths_in": (c("sanitize.paths_in"), "count"),
        "sanitize.kept_ratio": (ratio(c("sanitize.paths_kept"),
                                      c("sanitize.paths_in")), "ratio"),
        "supervisor.run_ms": (run_ms, "ms"),
        "supervisor.task_ms": (task_ms if spec["workers"] else 0.0, "ms"),
        "supervisor.busy_ratio": (ratio(task_ms, spec["workers"] * run_ms),
                                  "ratio"),
        "supervisor.workers_spawned": (traced["workers_spawned"], "count"),
        "trace.overhead_ratio": (
            traced["cpu_s"] / statistics.median(p["cpu_s"] for p in untraced),
            "ratio"),
        "trace.span_coverage": (ratio(span_ms, image_ms), "ratio"),
        "unattributed_ms": (image_ms - span_ms, "ms"),
    })
    return metrics


def check_pass(name, result, problems):
    for label, r in zip(result["labels"], result["images"]):
        if r["status"] == "failed":
            problems.append(f"{name}: {label} failed: {r['error']}")
        elif r["status"] == "ok" and (r["fp"] or r["fn"]):
            problems.append(f"{name}: {label} fp={r['fp']} fn={r['fn']} "
                            f"missed={r['missed']}")


def check_same(name, ref, other, problems):
    """Per image: same status, findings digest and analysed functions."""
    for label, a, b in zip(ref["labels"], ref["images"], other["images"]):
        if (a["status"], a["digest"], a["functions"]) != \
                (b["status"], b["digest"], b["functions"]):
            problems.append(f"{name}: {label} differs ({a['functions']} vs "
                            f"{b['functions']} functions)")


def bench(args):
    spec = WORKLOADS[args.workload]
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    exe = build(build_dir.resolve())
    deadline = time.monotonic() + RUN_LIMIT_S

    images = image_count(spec, args.seconds)
    work = Path(".bench_work").resolve() / \
        f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, spec, exe, work, images, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def measure(args, spec, exe, work, images, deadline):
    problems = []
    corpus = work / "corpus"
    synth_s, fingerprints = [], set()
    for k in range(SETUP_REPEATS):
        out_dir = corpus if k == 0 else work / f"corpus{k}"
        info = synth(exe, spec["corpus"], args.seed, images, out_dir,
                     deadline)
        synth_s.append(info["seconds"])
        fingerprints.add(info["fingerprint"])
        if k:
            shutil.rmtree(out_dir)
    if len(fingerprints) != 1:
        problems.append("corpus synthesis is not deterministic for one seed")
    setup_s = statistics.median(synth_s)

    # A cold cache starts empty in every scan; a warm one is populated in
    # set-up by a child process, so the parent that forks the measured
    # workers never analyses anything itself.
    def cache_for(name):
        if not spec["cache"]:
            return None
        return work / ("cache" if spec["warm"] else f"cache-{name}")

    cold_ref = None
    if spec["warm"]:
        cold_ref = scan(exe, work, "populate", spec, corpus, "facade",
                        deadline, cache_dir=cache_for("populate"), workers=0)
        setup_s += cold_ref["cpu_s"]
        check_pass("populate", cold_ref, problems)

    # Each pass is a fresh scan process over the whole corpus.
    untraced = []
    for p in range(spec["passes"]):
        name = f"untraced{p}"
        result = scan(exe, work, name, spec, corpus, "facade", deadline,
                      cache_dir=cache_for(name))
        check_pass(name, result, problems)
        if untraced:
            check_same(f"{name} vs first pass", untraced[0], result, problems)
        if cold_ref is not None:
            check_same(f"{name} (warm) vs cold", cold_ref, result, problems)
            misses = sum(r["cache_misses"] for r in result["images"])
            if misses:
                problems.append(f"{name}: {misses} warm cache misses")
        tp, precision, recall = score(result)
        replicas = images // PAPER_IMAGES_PER_REPLICA
        if spec["corpus"] == "paper_six" and \
                tp != PAPER_VULNS_PER_REPLICA * replicas:
            problems.append(f"{name}: {tp} of "
                            f"{PAPER_VULNS_PER_REPLICA * replicas} found")
        untraced.append(result)
    scans = list(untraced)

    if args.trace:
        traced = scan(exe, work, "traced", spec, corpus, "staged", deadline,
                      cache_dir=cache_for("traced"))
        check_pass("traced", traced, problems)
        check_same("staged vs facade", untraced[0], traced, problems)
        scans.append(traced)
        metrics = per_layer(spec, untraced, traced, cache_for("traced"))
    else:
        metrics = end_to_end(spec, untraced, setup_s)
    attempted = sum(len(s["images"]) for s in scans)
    failed = sum(r["status"] == "failed" for s in scans for r in s["images"])

    ok = ok_images(untraced[0])
    functions = sum(r["functions"] for r in ok)
    print(f"workload {args.workload}: seed {args.seed}, {attempted} image "
          f"scans, {len(ok)} analysed images x {len(untraced)} untraced "
          f"pass(es), host nproc {os.cpu_count()}, threads "
          f"{spec['threads']}, workers {spec['workers']}, Release build")
    print(f"  image latency samples: {len(ok)} (median and p90 of each "
          f"image's fastest pass); precision {precision:.2f} recall "
          f"{recall:.2f}")
    for p in untraced:
        wall_ms = [r["wall_ms"] for r in ok_images(p)]
        print(f"  untraced pass: {p['cpu_s']:.3f} CPU s, "
              f"{p['wall_s']:.3f} wall s "
              f"({functions / p['wall_s']:.1f} functions per wall s); "
              f"wall image ms p50 {quantile(wall_ms, 0.5):.1f} "
              f"p90 {quantile(wall_ms, 0.9):.1f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.4f} {unit}")
    for p in problems:
        log(f"CHECK FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        return bench(args)
    except BenchError as err:
        log(f"perfbench: {err}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
