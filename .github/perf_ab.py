#!/usr/bin/env python3
"""Same-runner A/B perf gate: the parent's perfbench against the change's.

    python3 .github/perf_ab.py BASE_DIR HEAD_DIR

BASE_DIR and HEAD_DIR are checkouts of the parent and of the change. Each
side runs BENCHMARK.json's command in its own checkout, with its own
target dir, so the first run of a side also builds it. Every gated
workload runs PAIRS interleaved pairs; both runs of a pair share a seed,
and the side that runs first alternates between pairs, so both builds
see the same host noise ("Duet Benchmarking", Bulej et al., ICPE 2020).

The gate fails (exit 1) when a run exits nonzero or reports
`correct: false`, when head's failed/attempted share is above base's, when
a head run of store-uniform-rw peaks above RSS_CEILING_MIB, or when the
median per-pair change/parent ratio of an end_to_end metric is worse than
1 + bound in the direction BENCHMARK.json's `better` names.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 5
# 2^18 one-block MwLlSc objects peak at 117.4 MiB; splitting each object
# back into four allocations takes that to about 172 MiB.
RSS_CEILING_MIB = 160.0
RSS_WORKLOAD = "store-uniform-rw"


def run(root, command, workload, seed, seconds):
    """One untraced run; returns (problem or None, perfbench's JSON line)."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(root / "perfbench" / "target"))
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(command + args, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        out = {}
    if p.returncode != 0 or out.get("correct") is not True:
        print(p.stdout, end="")
        return f"exit {p.returncode}, correct: {out.get('correct')}", out
    return None, out


def value(out, metric):
    return out.get("metrics", {}).get(metric, {}).get("value")


def main():
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} BASE_DIR HEAD_DIR")
    dirs = {"base": Path(sys.argv[1]).resolve(), "head": Path(sys.argv[2]).resolve()}
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    failures = []
    rows = [f"{'workload':<18} {'metric':<20} {'base':>12} {'head':>12} "
            f"{'worse':>6} {'pair min':>8} {'pair max':>8} {'limit':>6}  verdict"]
    for w in (w["name"] for w in spec["workloads"]):
        outs = {"base": [], "head": []}
        for i in range(PAIRS):
            seed = i + 1
            for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                problem, out = run(dirs[side], spec["command"], w, seed, spec["run_seconds"])
                if problem:
                    failures.append(f"{w} {side} seed {seed}: {problem}")
                rss = value(out, "peak_rss_mib") or 0.0
                if side == "head" and w == RSS_WORKLOAD and rss > RSS_CEILING_MIB:
                    failures.append(f"{w} head seed {seed}: peak_rss_mib {rss:.1f} > {RSS_CEILING_MIB}")
                outs[side].append(out)
                vals = " ".join(f"{m['name']}={value(out, m['name'])}" for m in metrics)
                print(f"{w} pair {i + 1}/{PAIRS} {side}: {problem or 'ok'} {vals}", flush=True)
        share = {s: sum(o.get("failed", 0) for o in v) / max(1, sum(o.get("attempted", 0) for o in v))
                 for s, v in outs.items()}
        if share["head"] > share["base"]:
            failures.append(f"{w}: failed share {share['head']:.3g} > base {share['base']:.3g}")
        for m in metrics:
            pairs = [(value(b, m["name"]), value(h, m["name"])) for b, h in zip(outs["base"], outs["head"])]
            pairs = [(b, h) for b, h in pairs if b is not None and h is not None]
            if not pairs:
                failures.append(f"{w} {m['name']}: no paired values")
                continue
            # Oriented so that above 1 is worse, whichever way `better` points.
            worse = [n / d if d else float("inf")
                     for n, d in ((h, b) if m["better"] == "lower" else (b, h) for b, h in pairs)]
            med, limit = statistics.median(worse), 1 + m["bound"]
            if med > limit:
                failures.append(f"{w} {m['name']}: median worse-ratio {med:.3f} > {limit:.2f}")
            rows.append(f"{w:<18} {m['name']:<20} {statistics.median(b for b, _ in pairs):>12.4g} "
                        f"{statistics.median(h for _, h in pairs):>12.4g} {med:>6.3f} {min(worse):>8.3f} "
                        f"{max(worse):>8.3f} {limit:>6.2f}  {'FAIL' if med > limit else 'ok'}")
    print("\n" + "\n".join(rows))
    for f in failures:
        print(f"FAIL {f}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
