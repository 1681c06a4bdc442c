#!/usr/bin/env python3
"""Validate ldx-obs output files against schemas/obs_schema.json.

Usage:
    check_obs_output.py --trace obs_trace.json --metrics obs_metrics.json

Stdlib-only: implements the JSON-Schema subset the schema file actually
uses (type, required, properties, additionalProperties-as-schema, items,
enum, minimum, minItems, $ref into #/definitions). On top of the schema,
it asserts trace semantics the schema cannot express: the span categories
the acceptance criteria require, monotonically plausible timestamps, and
`dur` present exactly on complete ("X") events.
"""

import argparse
import json
import sys
from pathlib import Path

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "schemas" / "obs_schema.json"

# `barrier-wait` is not required: it holds only the slave's alignment
# waits, and a run where the slave never waits has none.
REQUIRED_TRACE_CATEGORIES = {
    "compile",
    "master",
    "slave",
    "syscall-decision",
}

TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "number": (int, float),
}


class Invalid(Exception):
    pass


def fail(path, message):
    raise Invalid(f"{path or '$'}: {message}")


def validate(value, schema, defs, path=""):
    if "$ref" in schema:
        name = schema["$ref"].rsplit("/", 1)[-1]
        validate(value, defs[name], defs, path)
        return
    if "enum" in schema:
        if value not in schema["enum"]:
            fail(path, f"{value!r} not in {schema['enum']}")
        return
    typ = schema.get("type")
    if typ == "integer":
        if not isinstance(value, int) or isinstance(value, bool):
            fail(path, f"expected integer, got {type(value).__name__}")
    elif typ is not None:
        expected = TYPES[typ]
        if not isinstance(value, expected) or (
            typ == "number" and isinstance(value, bool)
        ):
            fail(path, f"expected {typ}, got {type(value).__name__}")
    if "minimum" in schema and value < schema["minimum"]:
        fail(path, f"{value} < minimum {schema['minimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                fail(path, f"missing required key {key!r}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, item in value.items():
            if key in props:
                validate(item, props[key], defs, f"{path}.{key}")
            elif isinstance(extra, dict):
                validate(item, extra, defs, f"{path}.{key}")
    if isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            fail(path, f"{len(value)} items < minItems {schema['minItems']}")
        item_schema = schema.get("items")
        if isinstance(item_schema, dict):
            for i, item in enumerate(value):
                validate(item, item_schema, defs, f"{path}[{i}]")


def check_trace(events, defs):
    validate(events, defs["trace"], defs, "trace")
    cats = {e["cat"] for e in events}
    missing = REQUIRED_TRACE_CATEGORIES - cats
    if missing:
        fail("trace", f"missing required span categories: {sorted(missing)}")
    flow_starts, flow_finishes = {}, {}
    for i, e in enumerate(events):
        if e["ph"] == "X" and "dur" not in e:
            fail(f"trace[{i}]", "complete event without dur")
        if e["ph"] == "i" and e.get("s") != "t":
            fail(f"trace[{i}]", 'instant event without "s": "t"')
        if e["ph"] in ("s", "f"):
            if "id" not in e:
                fail(f"trace[{i}]", "flow event without id")
            if "dur" in e:
                fail(f"trace[{i}]", "flow event with dur")
            side = flow_starts if e["ph"] == "s" else flow_finishes
            side[e["id"]] = (e["cat"], e["name"])
            if e["ph"] == "f" and e.get("bp") != "e":
                fail(f"trace[{i}]", 'flow finish without "bp": "e"')
    # Every arrow that has both ends must agree on cat+name (the Chrome
    # pairing key); one-ended arrows are legal (the peer span may have
    # been evicted from the ring).
    for fid in flow_starts.keys() & flow_finishes.keys():
        if flow_starts[fid] != flow_finishes[fid]:
            fail("trace", f"flow id {fid} ends disagree on cat/name")
    print(
        f"trace ok: {len(events)} events, "
        f"{len(cats)} categories ({', '.join(sorted(cats))}), "
        f"{len(flow_starts)} flow arrows"
    )


def check_metrics(metrics, defs):
    validate(metrics, defs["metrics"], defs, "metrics")
    counters = metrics["counters"]
    if counters["dualex.runs"] == 0:
        fail("metrics.counters", "dualex.runs is 0 — nothing was measured")
    if counters["cache.compiles"] == 0:
        fail("metrics.counters", "cache.compiles is 0 — nothing was compiled")
    print(
        f"metrics ok: {len(counters)} counters, "
        f"{len(metrics['histograms'])} histograms, "
        f"{len(metrics['stalls'])} stall barriers, "
        f"{metrics['trace']['recorded']} trace events recorded"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", type=Path, help="Chrome trace_event JSON")
    parser.add_argument("--metrics", type=Path, help="flat metrics JSON")
    args = parser.parse_args()
    if not args.trace and not args.metrics:
        parser.error("nothing to check: pass --trace and/or --metrics")

    defs = json.loads(SCHEMA_PATH.read_text())["definitions"]
    try:
        if args.trace:
            check_trace(json.loads(args.trace.read_text()), defs)
        if args.metrics:
            check_metrics(json.loads(args.metrics.read_text()), defs)
    except Invalid as err:
        print(f"FAIL {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
