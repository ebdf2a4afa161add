"""SARIF 2.1.0 emission for tools/analyze/accel_analyze.py: one run,
one result per finding, with in-source (allow() comment) and external
(baseline) suppressions.
"""

import json

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")


def make_sarif(tool_name, tool_version, rule_descriptions, findings,
               base_uri=None):
    """Build a SARIF log dict.

    rule_descriptions: {rule_id: one-line description}
    findings: iterable of dicts with keys file, line, rule, message and
    optionally suppressed (bool) / baselined (bool).
    """
    rules = [
        {
            "id": rid,
            "shortDescription": {"text": desc},
        }
        for rid, desc in sorted(rule_descriptions.items())
    ]
    results = []
    for f in findings:
        result = {
            "ruleId": f["rule"],
            "level": "error",
            "message": {"text": f["message"]},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f["file"],
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {"startLine": max(1, int(f["line"]))},
                    }
                }
            ],
        }
        suppressions = []
        if f.get("suppressed"):
            suppressions.append({
                "kind": "inSource",
                "justification": "accel-lint: allow() comment",
            })
        if f.get("baselined"):
            suppressions.append({
                "kind": "external",
                "justification": "baseline file entry",
            })
        if suppressions:
            result["suppressions"] = suppressions
        results.append(result)

    run = {
        "tool": {
            "driver": {
                "name": tool_name,
                "version": tool_version,
                "informationUri":
                    "https://github.com/accelerometer-reproduction",
                "rules": rules,
            }
        },
        "columnKind": "utf16CodeUnits",
        "results": results,
    }
    if base_uri:
        run["originalUriBaseIds"] = {
            "SRCROOT": {"uri": "file://" + base_uri.rstrip("/") + "/"}
        }
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [run],
    }


def write_sarif(path, sarif):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(sarif, f, indent=2, sort_keys=True)
        f.write("\n")

