#!/usr/bin/env python3
"""Validator for imc::trace Chrome/Perfetto exports.

Checks that a trace written via IMC_TRACE=<path> is well-formed: valid
JSON, every traceEvent one of the phases the exporter emits (M metadata /
X complete span / C counter) with integer non-negative ts/dur and pid/tid
present, and an "imc" summary block holding exactly the schema tag, the
runs (each with a digest and a well-formed metrics map) and the chain
digest, which must recompute from the runs' digests. A trace holds
simulated time only; wall-clock data lives in imc::prof's own report
(IMC_PROF=<path>), never here.

Usage:
  scripts/check_trace.py TRACE.json [--require CAT ...] [--print-digest]

--require CAT fails unless at least one span carries that category (the
span-name prefix before the first dot: fabric, ds, workflow, ...), a
counter does (mem gauges export as ph=C counters, not spans), or a run's
aggregated metrics map does — the metrics maps fold every event, so a
category whose spans land beyond the IMC_TRACE_EVENTS cap (e.g. repl
resilver spans late in a long chaos run) still proves its presence there.
--print-digest writes the chain digest to stdout for cheap shell diffs.
"""

import argparse
import json
import sys

SCHEMA = "imc-trace-v1"
DIGEST_HEX_LEN = 16
FNV_OFFSET = 1469598103934665603
FNV_PRIME = 1099511628211
STAT_KINDS = ("c", "g", "h")
STAT_FIELDS = ("kind", "count", "sum", "min", "max", "last")


def fnv1a(text, seed=FNV_OFFSET):
    """64-bit FNV-1a, matching trace::fnv1a (src/trace/trace.cpp)."""
    h = seed
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def check_events(events):
    """Returns (error, span_count, categories_seen)."""
    categories = set()
    spans = 0
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        ph = event.get("ph")
        if ph not in ("M", "X", "C"):
            return f"{where}: unexpected ph {ph!r}", spans, categories
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                return f"{where}: missing integer {key}", spans, categories
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, int) or ts < 0:
            return f"{where}: ts must be a non-negative integer", \
                spans, categories
        if "name" not in event:
            return f"{where}: missing name", spans, categories
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, int) or dur < 0:
                return f"{where}: dur must be a non-negative integer", \
                    spans, categories
            spans += 1
            categories.add(event.get("cat", ""))
        else:  # C
            args = event.get("args", {})
            if "value" not in args:
                return f"{where}: counter without args.value", \
                    spans, categories
            categories.add(event["name"].split(".", 1)[0])
    return None, spans, categories


def check_imc_block(imc):
    extra = sorted(set(imc) - {"schema", "runs", "digest"})
    if extra:
        return f"imc carries unexpected keys {extra}; a trace holds only " \
               "schema, runs and digest"
    if imc.get("schema") != SCHEMA:
        return f"imc.schema is {imc.get('schema')!r}, want {SCHEMA!r}"
    digest = imc.get("digest")
    if not isinstance(digest, str) or len(digest) != DIGEST_HEX_LEN:
        return "imc.digest missing or not a 16-hex-char string"
    runs = imc.get("runs")
    if not isinstance(runs, list):
        return "imc.runs missing"
    for i, run in enumerate(runs):
        run_digest = run.get("digest")
        if not isinstance(run_digest, str) or \
                len(run_digest) != DIGEST_HEX_LEN:
            return f"imc.runs[{i}].digest missing or malformed"
        if "label" not in run or "metrics" not in run:
            return f"imc.runs[{i}] missing label/metrics"
        error = check_metrics_map(run["metrics"], f"imc.runs[{i}]")
        if error:
            return error
    return None


def check_metrics_map(metrics, where):
    if not isinstance(metrics, dict):
        return f"{where}.metrics is not an object"
    for name, stat in metrics.items():
        if not isinstance(stat, dict):
            return f"{where}.metrics[{name!r}] is not an object"
        missing = [f for f in STAT_FIELDS if f not in stat]
        if missing:
            return f"{where}.metrics[{name!r}] missing {missing}"
        if stat["kind"] not in STAT_KINDS:
            return f"{where}.metrics[{name!r}].kind is " \
                   f"{stat['kind']!r}, want one of {STAT_KINDS}"
    return None


def check_digest_chain(imc):
    """Recomputes the chain digest from the runs' digests alone."""
    chain = fnv1a(SCHEMA)
    for run in imc["runs"]:
        chain = fnv1a(run["digest"], chain)
    expected = format(chain, "016x")
    if imc["digest"] != expected:
        return f"imc.digest {imc['digest']} does not recompute from the " \
               f"runs' digests (want {expected})"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="trace JSON written via IMC_TRACE")
    parser.add_argument("--require", action="append", default=[],
                        metavar="CAT",
                        help="fail unless a span with this category exists")
    parser.add_argument("--print-digest", action="store_true",
                        help="print the chain digest to stdout")
    args = parser.parse_args()

    try:
        with open(args.trace, encoding="utf-8") as f:
            trace = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"cannot load {args.trace}: {e}")

    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return fail("no traceEvents array")
    error, spans, categories = check_events(events)
    if error:
        return fail(error)
    if spans == 0:
        return fail("no complete spans (ph=X) in the trace")

    imc = trace.get("imc")
    if not isinstance(imc, dict):
        return fail("no imc summary block")
    error = check_imc_block(imc)
    if error:
        return fail(error)
    error = check_digest_chain(imc)
    if error:
        return fail(error)

    # The event list is capped (IMC_TRACE_EVENTS); the per-run metrics maps
    # are not. A category counts as present if either mentions it.
    for run in imc["runs"]:
        for name in run["metrics"]:
            categories.add(name.split(".", 1)[0])
    missing = sorted(set(args.require) - categories)
    if missing:
        return fail(f"required span categories absent: {missing} "
                    f"(present: {sorted(categories)})")

    if args.print_digest:
        print(imc["digest"])
    else:
        print(f"ok: {spans} spans, {len(imc['runs'])} runs, "
              f"categories {sorted(c for c in categories if c)}, "
              f"digest {imc['digest']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
