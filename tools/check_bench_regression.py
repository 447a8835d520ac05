#!/usr/bin/env python3
"""Compare a bench --json run against the committed baseline.

The benchmarks run on a deterministic simulator, so cycle counts are
exact and machine-independent: any drift at all is a real behavior
change in the rewriter, verifier, runtime, or cost model -- not noise.
Usage:

    bench_coremark --json current.json
    bench_table5_microbench --json current.json   # merges into same file
    tools/check_bench_regression.py BENCH_BASELINE.json current.json

Only `.cycles`, `.bytes`, and `.exact` metrics gate, and each must
equal its baseline exactly: the first two are deterministic simulator
outputs, and `.exact` metrics are pass/fail facts (e.g. "the warm pool
decoded its handler once"). A change that moves one on purpose
regenerates BENCH_BASELINE.json and says why. Derived metrics like
overhead_pct, ns, and Minsts/s rates are reported but never fail the
check, since they either amplify small cycle deltas or depend on the
host machine. Exit status is 0 unless --strict is given and a gated
metric differs from its baseline.

One class of failure is loud even without --strict: a metric present in
the baseline but absent from the run. A silently vanished metric usually
means a bench section stopped running (or a metric was renamed without
regenerating BENCH_BASELINE.json), and "report only" mode must not let
that rot — exit status is 2 whenever baseline coverage is lost.
"""

import argparse
import json
import sys

GATED_SUFFIXES = (".cycles", ".bytes", ".exact")


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    if not isinstance(data, dict):
        sys.exit(f"error: {path}: expected a flat JSON object")
    return {k: float(v) for k, v in data.items()
            if isinstance(v, (int, float))}


def fmt(value):
    if value == int(value) and abs(value) >= 1000:
        return f"{int(value):,}"
    return f"{value:.2f}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="committed BENCH_BASELINE.json")
    ap.add_argument("current", help="json from this run's benches")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 on regressions (default: report only)")
    ap.add_argument("--markdown", metavar="PATH",
                    help="also write the report as a markdown table")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)

    rows = []          # (metric, base, cur, delta_pct, flag)
    regressions = []
    missing = []
    for metric in sorted(set(base) | set(cur)):
        b, c = base.get(metric), cur.get(metric)
        if b is None:
            rows.append((metric, None, c, None, "new"))
            continue
        if c is None:
            rows.append((metric, b, None, None, "missing"))
            missing.append(metric)
            continue
        delta = 0.0 if b == c else (100.0 * (c - b) / b if b else float("inf"))
        ok = b == c or not metric.endswith(GATED_SUFFIXES)
        rows.append((metric, b, c, delta, "ok" if ok else "REGRESSION"))
        if not ok:
            regressions.append(metric)

    header = ("bench regression check: .cycles/.bytes/.exact metrics "
              "must equal the baseline")
    lines_md = [f"### {header}", "",
                "| metric | baseline | current | delta | |",
                "|---|---:|---:|---:|---|"]
    print(header)
    for metric, b, c, delta, flag in rows:
        bs = fmt(b) if b is not None else "-"
        cs = fmt(c) if c is not None else "-"
        ds = f"{delta:+.2f}%" if delta is not None else "-"
        mark = {"ok": "", "new": "(new)", "missing": "(missing!)",
                "REGRESSION": "<-- REGRESSION"}[flag]
        print(f"  {metric:<42} {bs:>14} -> {cs:>14}  {ds:>8} {mark}")
        md_mark = {"ok": "", "new": "new", "missing": ":warning: missing",
                   "REGRESSION": ":x: **regression**"}[flag]
        lines_md.append(f"| `{metric}` | {bs} | {cs} | {ds} | {md_mark} |")

    verdicts = []
    if missing:
        verdicts.append(f"{len(missing)} baseline metric(s) MISSING from "
                        f"the run: " + ", ".join(missing))
    if regressions:
        verdicts.append(f"{len(regressions)} gated metric(s) changed: "
                        + ", ".join(regressions))
    if not verdicts:
        verdicts.append("all gated metrics equal the baseline")
    for verdict in verdicts:
        print(verdict)
    lines_md += [""] + verdicts

    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write("\n".join(lines_md) + "\n")

    if missing:
        # Lost baseline coverage fails even in report-only mode: a bench
        # section that silently stopped emitting a metric is exactly the
        # failure "report only" must not hide.
        return 2
    if regressions and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
