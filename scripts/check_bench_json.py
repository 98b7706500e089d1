#!/usr/bin/env python3
"""Schema check for BENCH_*.json result files.

Accepts both result formats the repo produces:
  - JsonResultWriter (bench/bench_common.h custom mains):
      {"scale": "...", "benchmarks": [{"name": "...", "<metric>": <num>}]}
  - google-benchmark --benchmark_out JSON:
      {"context": {...}, "benchmarks": [{"name": "...", "real_time": ...}]}

Fails (exit 1) when a file is unparsable, has no benchmarks, a record is
missing its name, a record carries no numeric metrics, or any metric is
NaN/inf — the ways a half-broken bench silently ships garbage to CI. Files
listed in REQUIRED must also carry their top-level keys and the named
records with the named metrics.

Usage: check_bench_json.py FILE [FILE...]
"""

import json
import math
import os
import sys

# Per file name: top-level keys, and metrics each named record must carry.
REQUIRED = {
    "BENCH_bufferpool.json": {
        "top": ["host"],
        "records": {
            "eviction_stall": ["spill_s", "stall_s", "absorbed_ratio",
                               "free_drops"],
            "loop_prefetch": ["prefetch_issued", "prefetch_hits"],
            "scan_resistance": ["restores_2q", "scan_evictions"],
            "spill_restore": ["dense_spill_mb_s", "dense_restore_mb_s",
                              "sparse_spill_mb_s", "sparse_restore_mb_s"],
        },
    },
}


def check_record(path: str, rec: dict) -> list[str]:
    errors = []
    name = rec.get("name")
    if not name or not isinstance(name, str):
        errors.append(f"{path}: benchmark record missing 'name': {rec}")
        name = "<unnamed>"
    numeric = 0
    for key, value in rec.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        numeric += 1
        if isinstance(value, float) and not math.isfinite(value):
            errors.append(f"{path}: {name}.{key} is {value!r}")
    if numeric == 0:
        errors.append(f"{path}: {name} has no numeric metrics")
    return errors


def check_file(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return [f"{path}: unreadable or invalid JSON: {e}"]
    if not isinstance(doc, dict):
        return [f"{path}: top-level value is not an object"]
    if "scale" not in doc and "context" not in doc:
        return [f"{path}: neither 'scale' (JsonResultWriter) nor "
                f"'context' (google-benchmark) present"]
    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        return [f"{path}: 'benchmarks' missing or empty"]
    errors = []
    for rec in benchmarks:
        if not isinstance(rec, dict):
            errors.append(f"{path}: non-object benchmark record: {rec!r}")
            continue
        errors.extend(check_record(path, rec))
    errors.extend(check_required(path, doc, benchmarks))
    return errors


def check_required(path: str, doc: dict, benchmarks: list) -> list[str]:
    required = REQUIRED.get(os.path.basename(path))
    if required is None:
        return []
    errors = [f"{path}: missing top-level '{key}'"
              for key in required["top"] if key not in doc]
    by_name = {rec.get("name"): rec for rec in benchmarks
               if isinstance(rec, dict)}
    for name, metrics in required["records"].items():
        rec = by_name.get(name)
        if rec is None:
            errors.append(f"{path}: missing record '{name}'")
            continue
        for metric in metrics:
            value = rec.get(metric)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                errors.append(f"{path}: {name} lacks numeric '{metric}'")
    return errors


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    errors = []
    for path in argv[1:]:
        errors.extend(check_file(path))
    for e in errors:
        print(f"ERROR: {e}", file=sys.stderr)
    if not errors:
        print(f"ok: {len(argv) - 1} file(s) pass the bench JSON schema")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
