#!/usr/bin/env python3
"""Seed self-test of the repo benchmark.

Usage (from the repository root): python3 perfbench/selftest.py

Checks, on small corpora of both generators:
  * the same seed gives identical corpus fingerprints;
  * two fresh-process traced scans of one corpus give identical
    deterministic counts (per-image findings digests, analysed functions,
    and the layer counters that do not depend on timing);
  * the traced (staged) scan gives the facade's findings digests;
  * a different seed gives a different corpus that still scores
    precision = recall = 1.00 with no failed image.
Exits 0 when every check passes.
"""

import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

# Counters that must repeat exactly for one corpus (timing-free).
DETERMINISTIC = ["lift.functions", "lift.blocks", "filter.functions_dropped",
                 "bottomup.passes", "summary.functions",
                 "link.defs_propagated", "structsim.resolved",
                 "engine.state_forks", "engine.block_memo_lookups",
                 "pathfind.sinks_visited", "pathfind.paths_explored",
                 "sanitize.paths_in", "sanitize.paths_kept",
                 "cache.hits", "cache.misses", "cache.stores"]
CORPORA = {"paper_six": ("paper_six", 12), "fleet_cold": ("fleet", 30)}


def fingerprint(exe, corpus, seed, images, out, deadline):
    return run.synth(exe, corpus, seed, images, out, deadline)["fingerprint"]


def deterministic_counts(result):
    return [(r["status"], r["digest"], r["functions"],
             {k: r["counts"].get(k, 0) for k in DETERMINISTIC})
            for r in result["images"]]


def main():
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    exe = run.build(build_dir.resolve())
    deadline = time.monotonic() + 600
    failures = []
    Path(".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=".bench_work"))
    try:
        for workload, (corpus, images) in CORPORA.items():
            spec = run.WORKLOADS[workload]
            a, b, c = work / f"{workload}-a", work / f"{workload}-b", \
                work / f"{workload}-c"
            fp_a = fingerprint(exe, corpus, 7, images, a, deadline)
            fp_b = fingerprint(exe, corpus, 7, images, b, deadline)
            fp_c = fingerprint(exe, corpus, 8, images, c, deadline)
            if fp_a != fp_b:
                failures.append(f"{workload}: seed 7 fingerprints differ")
            if fp_a == fp_c:
                failures.append(f"{workload}: seeds 7 and 8 give one corpus")

            def scan(name, corpus_dir, mode):
                cache = work / f"{name}-cache" if spec["cache"] else None
                return run.scan(exe, work, name, spec, corpus_dir, mode,
                                deadline, cache_dir=cache, workers=0)

            first = scan(f"{workload}-s1", a, "staged")
            second = scan(f"{workload}-s2", b, "staged")
            facade = scan(f"{workload}-f", a, "facade")
            if deterministic_counts(first) != deterministic_counts(second):
                failures.append(f"{workload}: counts differ between runs")
            run.check_same(workload, facade, first, failures)
            other = scan(f"{workload}-o", c, "facade")
            run.check_pass(f"{workload} seed 8", other, failures)
            _, precision, recall = run.score(other)
            if (precision, recall) != (1.0, 1.0):
                failures.append(f"{workload} seed 8: precision {precision} "
                                f"recall {recall}")
            print(f"{workload}: fingerprint {fp_a}, "
                  f"{len(first['images'])} images, seed 8 precision "
                  f"{precision:.2f} recall {recall:.2f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for f in failures:
        print(f"FAIL: {f}")
    print("selftest:", "ok" if not failures else f"{len(failures)} failures")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
