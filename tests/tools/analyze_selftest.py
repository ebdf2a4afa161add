#!/usr/bin/env python3
"""Self-test for tools/analyze/accel_analyze.py.

Runs the analyzer, with all ten rules, over two fixture corpora. Each
is a fake repo root, so the scoped rules apply:
tests/tools/fixtures (token rules) and tests/tools/fixtures/analyze
(structural rules). Asserts that every rule fires exactly where the
fixtures say it must, that allow() comments suppress, that
--audit-suppressions catches the planted stale allows, that the JSON
report is well-formed, that the default scope reaches tests/ for the
token rules only, and that the regression roots pin the planted
real-source defects (and their fixed forms stay clean).

Usage: analyze_selftest.py <case> [token|structural]
where <case> is a rule name, "suppression", "clean", "exit-code",
"audit-stale", "scope", "regression-dangling", "regression-rng",
"regression-validate", or "report". The optional second argument
limits the suppression, clean, exit-code, audit-stale and report cases
to one corpus; without it they check both.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ANALYZE = os.path.join(HERE, "..", "..", "tools", "analyze",
                       "accel_analyze.py")
TOKEN_CORPUS = os.path.join(HERE, "fixtures")
STRUCTURAL_CORPUS = os.path.join(TOKEN_CORPUS, "analyze")
CORPORA = {"token": TOKEN_CORPUS, "structural": STRUCTURAL_CORPUS}
STALE_ROOT = os.path.join(STRUCTURAL_CORPUS, "stale")
SCOPE_ROOT = os.path.join(STRUCTURAL_CORPUS, "scope")
REGRESSION = os.path.join(STRUCTURAL_CORPUS, "regression")

# Every finding in the JSON report carries exactly these keys.
FINDING_KEYS = {"file", "line", "rule", "message", "suppressed"}

# Expected *unsuppressed* findings per rule: (corpus, {file: count}).
# The fixture headers pin the same numbers; keep them in sync.
EXPECTED = {
    "banned-random": (TOKEN_CORPUS, {"src/model/bad_random.cc": 4}),
    "banned-clock": (TOKEN_CORPUS, {"src/model/bad_clock.cc": 4}),
    "unordered-float-iter": (TOKEN_CORPUS,
                             {"src/stats/bad_unordered.cc": 2}),
    "fn-by-value": (TOKEN_CORPUS, {"src/sim/bad_fn_value.cc": 2,
                                   "src/sim/bad_inline_value.cc": 3}),
    "parfor-pushback": (TOKEN_CORPUS, {"src/model/bad_parfor.cc": 2}),
    "header-standalone": (TOKEN_CORPUS, {"src/model/bad_header.hh": 1}),
    "dangling-capture": (STRUCTURAL_CORPUS,
                         {"src/sim/bad_dangling.cc": 3}),
    "rng-discipline": (STRUCTURAL_CORPUS, {"src/sim/bad_rng.cc": 5}),
    "validate-coverage": (STRUCTURAL_CORPUS,
                          {"src/model/bad_validate.cc": 3}),
    "metrics-accounting": (STRUCTURAL_CORPUS,
                           {"src/microsim/bad_metrics.cc": 3}),
}

# Suppressed findings per file. Beyond those, a file listed here has
# exactly its EXPECTED unsuppressed findings: suppressed.cc has none,
# and every bad structural fixture carries one suppressed finding.
SUPPRESSED = {
    TOKEN_CORPUS: {"src/model/suppressed.cc": 4},
    STRUCTURAL_CORPUS: {
        "src/sim/bad_dangling.cc": 1,
        "src/sim/bad_rng.cc": 1,
        "src/model/bad_validate.cc": 1,
        "src/microsim/bad_metrics.cc": 1,
    },
}

# Each corpus's clean fixture: no finding under any rule.
CLEAN = {
    TOKEN_CORPUS: "src/model/clean.cc",
    STRUCTURAL_CORPUS: "src/model/clean_analyze.cc",
}

# --audit-suppressions over each root reports exactly these stale
# allow()s, as (file, line). Keyed by corpus: the structural corpus
# keeps its planted stale allow() in a root of its own.
STALE = {
    TOKEN_CORPUS: {TOKEN_CORPUS: [("src/model/stale_allow.cc", 5)]},
    STRUCTURAL_CORPUS: {STRUCTURAL_CORPUS: [],
                        STALE_ROOT: [("src/stale.cc", 18)]},
}

# Regression roots: (root dir, rule, defect file, fixed file or None).
REGRESSIONS = {
    "regression-dangling": ("dangling", "dangling-capture",
                            "src/microsim/service_defect.cc",
                            "src/microsim/service_fixed.cc"),
    "regression-rng": ("rng", "rng-discipline",
                       "src/microsim/hedge_defect.cc",
                       "src/microsim/hedge_fixed.cc"),
    "regression-validate": ("validate", "validate-coverage",
                            "src/model/plan_defect.cc", None),
}


def run_analyze(root, extra=None, paths=("src",)):
    with tempfile.NamedTemporaryFile(suffix=".json",
                                     delete=False) as tmp:
        report_path = tmp.name
    try:
        argv = [sys.executable, ANALYZE, "--root", root,
                "--json", report_path] + list(extra or []) + list(paths)
        proc = subprocess.run(argv, capture_output=True, text=True)
        with open(report_path, encoding="utf-8") as f:
            report = json.load(f)
    finally:
        os.unlink(report_path)
    return proc, report


def count(report, path, rule=None, suppressed=False):
    """Findings in path, of one rule and suppression state when given
    (None matches any)."""
    return sum(1 for f in report["findings"]
               if f["file"] == path and rule in (None, f["rule"]) and
               suppressed in (None, f["suppressed"]))


def fail(msg, proc):
    print("FAIL:", msg)
    print("--- analyzer stdout ---")
    print(proc.stdout)
    print("--- analyzer stderr ---")
    print(proc.stderr)
    return 1


def main():
    if len(sys.argv) not in (2, 3) or \
            sys.argv[2:] and sys.argv[2] not in CORPORA:
        print(__doc__)
        return 2
    case = sys.argv[1]
    corpora = ([CORPORA[sys.argv[2]]] if len(sys.argv) == 3
               else list(CORPORA.values()))

    if case in EXPECTED:
        root, want_by_file = EXPECTED[case]
        proc, report = run_analyze(root)
        for path, want in want_by_file.items():
            got = count(report, path, case)
            if got != want:
                return fail("rule %s: expected %d finding(s) in %s, "
                            "got %d" % (case, want, path, got), proc)
        stray = count(report, CLEAN[root], case, suppressed=None)
        if stray:
            return fail("rule %s fired %d time(s) on the clean "
                        "fixture" % (case, stray), proc)
    elif case == "suppression":
        for root in corpora:
            proc, report = run_analyze(root)
            for path, want in SUPPRESSED[root].items():
                got = count(report, path, suppressed=True)
                if got != want:
                    return fail("%s: expected %d suppressed finding(s),"
                                " got %d" % (path, want, got), proc)
                live = count(report, path)
                pinned = sum(files.get(path, 0)
                             for r, files in EXPECTED.values()
                             if r == root)
                if live != pinned:
                    return fail("%s: expected %d unsuppressed "
                                "finding(s), got %d"
                                % (path, pinned, live), proc)
    elif case == "clean":
        for root in corpora:
            proc, report = run_analyze(root)
            path = CLEAN[root]
            stray = [f for f in report["findings"] if f["file"] == path]
            if stray:
                return fail("clean fixture %s produced findings: %r"
                            % (path, stray), proc)
    elif case == "exit-code":
        for root in corpora:
            path = CLEAN[root]
            proc, _ = run_analyze(root)
            if proc.returncode != 1:
                return fail("expected exit 1 with unsuppressed findings"
                            " in %s, got %d" % (root, proc.returncode),
                            proc)
            clean_proc, _ = run_analyze(root, paths=(path,))
            if clean_proc.returncode != 0:
                return fail("expected exit 0 on the clean fixture %s, "
                            "got %d" % (path, clean_proc.returncode),
                            clean_proc)
        bad_rule = subprocess.run(
            [sys.executable, ANALYZE, "--root", STRUCTURAL_CORPUS,
             "--rules", "no-such-rule", "src"],
            capture_output=True, text=True)
        if bad_rule.returncode != 2:
            return fail("expected exit 2 on an unknown rule, got %d"
                        % bad_rule.returncode, bad_rule)
    elif case == "audit-stale":
        for corpus in corpora:
            for root, want in STALE[corpus].items():
                proc, report = run_analyze(
                    root, extra=["--audit-suppressions"])
                got = [(s["file"], s["line"])
                       for s in report.get("stale", [])]
                if got != want:
                    return fail("%s: expected stale suppressions %r, "
                                "got %r" % (root, want, got), proc)
                if proc.returncode != (1 if want else 0):
                    return fail("%s: audit exit %d does not match %d "
                                "stale suppression(s)"
                                % (root, proc.returncode, len(want)),
                                proc)
    elif case == "scope":
        # No path arguments: the token rules reach tests/, the
        # structural rules stop at src/.
        proc, report = run_analyze(SCOPE_ROOT, paths=())
        test_file = "tests/sim/deferred_test.cc"
        for path, rule, want in (
                (test_file, "parfor-pushback", 1),
                (test_file, "dangling-capture", 0),
                ("src/sim/deferred.cc", "dangling-capture", 1)):
            got = count(report, path, rule, suppressed=None)
            if got != want:
                return fail("default scope: expected %d %s finding(s) "
                            "in %s, got %d" % (want, rule, path, got),
                            proc)
        # The audit only weighs allow()s of rules that ran on the file.
        proc, report = run_analyze(SCOPE_ROOT, paths=(),
                                   extra=["--audit-suppressions"])
        if proc.returncode != 0 or report.get("stale"):
            return fail("default-scope audit should be clean, exit %d, "
                        "stale %r" % (proc.returncode,
                                      report.get("stale")), proc)
        # A path argument feeds every rule, so naming tests/ reports
        # the same frame.
        proc, report = run_analyze(SCOPE_ROOT, paths=("tests",))
        got = count(report, test_file, "dangling-capture",
                    suppressed=True)
        if got != 1:
            return fail("explicit tests/: expected 1 suppressed "
                        "dangling-capture finding in %s, got %d"
                        % (test_file, got), proc)
    elif case in REGRESSIONS:
        sub, rule, defect, fixed = REGRESSIONS[case]
        proc, report = run_analyze(os.path.join(REGRESSION, sub))
        findings = report["findings"]
        hits = [f for f in findings if f["file"] == defect]
        if len(hits) != 1 or hits[0]["rule"] != rule:
            return fail("%s: expected exactly one %s finding in %s, "
                        "got %r" % (case, rule, defect, hits), proc)
        if fixed is not None:
            leak = [f for f in findings if f["file"] == fixed]
            if leak:
                return fail("%s: fixed form %s produced findings: %r"
                            % (case, fixed, leak), proc)
    elif case == "report":
        for root in corpora:
            proc, report = run_analyze(root)
            if report.get("version") != 1 or \
                    report.get("tool") != "accel-analyze":
                return fail("report must be version 1 of accel-analyze, "
                            "got version %r, tool %r"
                            % (report.get("version"), report.get("tool")),
                            proc)
            if report.get("rules") != sorted(EXPECTED):
                return fail("report must list the ten rules, got %r"
                            % report.get("rules"), proc)
            findings = report["findings"]
            for f in findings:
                if set(f) != FINDING_KEYS:
                    return fail("finding keys must be %r, got %r"
                                % (sorted(FINDING_KEYS), sorted(f)),
                                proc)
            keys = [(f["file"], f["line"], f["rule"]) for f in findings]
            if len(keys) != len(set(keys)):
                return fail("findings contain (file, line, rule) "
                            "duplicates after dedupe", proc)
    else:
        print("unknown case:", case)
        return 2

    print("PASS:", case)
    return 0


if __name__ == "__main__":
    sys.exit(main())
