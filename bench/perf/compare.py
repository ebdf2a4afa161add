#!/usr/bin/env python3
"""Compare two sets of perf_ladder runs, or record a baseline.

  compare.py run BASE_DIR HEAD_DIR [--pairs 10] [--save DIR]
      Run bench/perf/run.sh in two checkouts (say a parent and a
      change) in alternating pairs for every workload in BENCHMARK.json
      -- pair i uses seed 2020+i on both sides, and odd pairs run HEAD
      first -- then compare. --save writes each side's reports to
      DIR/base.jsonl and DIR/head.jsonl.
  compare.py files BASE.jsonl HEAD.jsonl
      Compare saved reports: one `perf_ladder --json` report per line,
      as `run --save` writes them.
  compare.py baseline
      Run this checkout 5 times per workload and write medians,
      quartiles, nproc and the compiler version to baseline.json.

Runs last BENCHMARK.json's run_seconds. Per (metric, workload) row,
`run` and `files` print each side's median and quartiles, the fraction
of pairs HEAD wins (ties count for neither), HEAD/BASE with its base,
and a verdict against the metric's bound in BENCHMARK.json: regressed,
improved, equal (every pair identical), no-regression, or unresolved
when BASE's own quartile spread exceeds the bound. The output digest
must match exactly per seed. Exits 1 when any row regressed or an
output digest changed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SEED = 2020  # the golden seed
BASELINE_RUNS = 5


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds):
    """One run.sh invocation; returns its --json report."""
    fd, path = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        proc = subprocess.run(
            ["bash", "bench/perf/run.sh", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--json", path],
            cwd=checkout, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        with open(path) as f:
            text = f.read()
        if not text:
            sys.exit(f"compare.py: {checkout}: {workload} produced no report")
        return json.loads(text)
    finally:
        os.unlink(path)


def metric(report, name):
    return report["end_to_end"][name]["value"]


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


def fmt(v):
    return f"{v:.6g}"


def verdict(m, b, h, wins):
    """Verdict for metric @m on paired values @b (base) and @h (head),
    where HEAD won the fraction @wins of the pairs."""
    if b == h:
        return "equal"
    higher = m["better"] == "higher"
    bq, hq = quartiles(b), quartiles(h)
    worse = (bq[1] - hq[1] if higher else hq[1] - bq[1]) / bq[1]
    if (bq[2] - bq[0]) / bq[1] > m["bound"]:
        all_better = min(h) > max(b) if higher else max(h) < min(b)
        return "improved" if all_better else "unresolved"
    if worse > m["bound"]:
        return "regressed"
    if wins >= 0.9 and abs(hq[1] - bq[1]) > bq[2] - bq[0]:
        return "improved"
    return "no-regression"


def compare(base, head, metrics):
    """base/head: lists of reports. Returns True when nothing regressed."""
    ok = True
    pairs = {}
    for side, reports in (("base", base), ("head", head)):
        for r in reports:
            pairs.setdefault((r["workload"], r["seed"]), {})[side] = r
    print(f"{'metric':16} {'workload':15} {'base median [q1, q3]':34} "
          f"{'head median [q1, q3]':34} {'wins':>5} {'head/base':>10} "
          f"verdict")
    for w in sorted({w for w, _ in pairs}):
        matched = [p for (pw, _), p in sorted(pairs.items())
                   if pw == w and len(p) == 2]
        if not matched:
            continue
        for p in matched:
            if p["base"]["digest"] != p["head"]["digest"]:
                print(f"{'digest':16} {w:15} seed {p['base']['seed']}: "
                      f"{p['base']['digest']} -> {p['head']['digest']} "
                      f"OUTPUT CHANGED")
                ok = False
        for m in metrics:
            name = m["name"]
            higher = m["better"] == "higher"
            b = [metric(p["base"], name) for p in matched]
            h = [metric(p["head"], name) for p in matched]
            bq, hq = quartiles(b), quartiles(h)
            wins = sum((y > x) if higher else (y < x)
                       for x, y in zip(b, h)) / len(matched)
            v = verdict(m, b, h, wins)
            ok = ok and v != "regressed"
            print(f"{name:16} {w:15} "
                  f"{fmt(bq[1]) + ' [' + fmt(bq[0]) + ', ' + fmt(bq[2]) + ']':34} "
                  f"{fmt(hq[1]) + ' [' + fmt(hq[0]) + ', ' + fmt(hq[2]) + ']':34} "
                  f"{wins:5.2f} {fmt(hq[1] / bq[1]):>10} "
                  f"{v} (base {fmt(bq[1])} {m['unit']}, "
                  f"bound {m['bound']:g}, n={len(matched)})")
    return ok


def read_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run")
    run.add_argument("base")
    run.add_argument("head")
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--save")
    files = sub.add_parser("files")
    files.add_argument("base")
    files.add_argument("head")
    sub.add_parser("baseline")
    args = parser.parse_args()
    if args.mode == "run" and args.pairs < 10:
        parser.error("a comparison needs at least 10 alternating pairs")

    spec = load_spec()
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]

    if args.mode == "files":
        sys.exit(0 if compare(read_jsonl(args.base), read_jsonl(args.head),
                              metrics) else 1)

    if args.mode == "baseline":
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        out = {"git_head": git.stdout.strip() or None,
               "seconds": seconds, "runs": BASELINE_RUNS, "workloads": {}}
        for w in names:
            reports = [run_once(ROOT, w, SEED + i, seconds)
                       for i in range(BASELINE_RUNS)]
            out["nproc"] = reports[0]["nproc"]
            out["compiler"] = reports[0]["compiler"]
            row = {"digest_seed2020": reports[0]["digest"],
                   "units_per_round": reports[0]["units_per_round"]}
            for m in metrics:
                vals = [metric(r, m["name"]) for r in reports]
                q = quartiles(vals)
                row[m["name"]] = {"median": q[1], "q1": q[0], "q3": q[2],
                                  "unit": m["unit"], "values": vals}
            out["workloads"][w] = row
            print(f"{w}: {json.dumps(row)}")
        path = os.path.join(HERE, "baseline.json")
        with open(path, "w") as f:
            json.dump(out, f, indent=2)
            f.write("\n")
        print(f"wrote {path}")
        return

    runs = {"base": [], "head": []}
    for w in names:
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                report = run_once(getattr(args, side), w, SEED + i, seconds)
                runs[side].append(report)
                print(f"{side} {w} seed {SEED + i}: "
                      f"{fmt(metric(report, 'units_per_s'))} units/s",
                      file=sys.stderr)
    if args.save:
        os.makedirs(args.save, exist_ok=True)
        for side, reports in runs.items():
            with open(os.path.join(args.save, side + ".jsonl"), "w") as f:
                for r in reports:
                    f.write(json.dumps(r) + "\n")
    sys.exit(0 if compare(runs["base"], runs["head"], metrics) else 1)


if __name__ == "__main__":
    main()
