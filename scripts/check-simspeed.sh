#!/usr/bin/env bash
# check-simspeed.sh CURRENT.json[,...] [BASELINE.json[,...]] — the
# simspeed regression gate CI runs.
#
# Compares per-shape tick throughput (cycles_per_sec) in CURRENT
# against a baseline (default: the committed
# bench/BENCH_simspeed.baseline.json). Either side may list several
# runs, comma-separated; each side then counts its best run per shape,
# so a same-runner A/B (CI builds the merge base and the change and
# alternates their runs) compares like with like. A shape regresses
# when
#
#   current/baseline < SIMSPEED_MIN_RATIO   (default 0.9, i.e. a
#                                            >10% throughput loss)
#
# Exits 1 if any shape regresses. Skips cleanly (exit 0) when:
#  - the baseline file does not exist (fresh branch, no baseline yet);
#  - the two sides were measured on different hosts (the fingerprint
#    field differs) — absolute throughput is not comparable across
#    machines. Set SIMSPEED_IGNORE_HOST=1 to compare anyway.
#
# Shapes present in only one of the two sides are reported but never
# fail the gate, so adding or retiring a machine shape does not
# require regenerating the baseline in the same commit.
set -u

repo="$(cd "$(dirname "$0")/.." && pwd)"
current="${1:-}"
baseline="${2:-$repo/bench/BENCH_simspeed.baseline.json}"
min_ratio="${SIMSPEED_MIN_RATIO:-0.9}"

if [ -z "$current" ]; then
    echo "usage: check-simspeed.sh CURRENT.json[,...] [BASELINE.json[,...]]" >&2
    exit 2
fi
IFS=, read -r -a current_runs <<<"$current"
IFS=, read -r -a baseline_runs <<<"$baseline"
for f in "${current_runs[@]}"; do
    if [ ! -f "$f" ]; then
        echo "check-simspeed: current results not found: $f" >&2
        exit 2
    fi
done
for f in "${baseline_runs[@]}"; do
    if [ ! -f "$f" ]; then
        echo "check-simspeed: no baseline at ${f#"$repo"/}; skipping."
        exit 0
    fi
done

python3 - "$current" "$baseline" "$min_ratio" <<'PY'
import json
import os
import sys

cur_arg, base_arg, min_ratio = sys.argv[1], sys.argv[2], float(sys.argv[3])


def load(arg):
    """Every run a side lists, schema-checked."""
    docs = []
    for path in arg.split(","):
        doc = json.load(open(path))
        if doc.get("schema") != "smt-simspeed-v1":
            sys.exit(f"check-simspeed: {path}: unexpected schema "
                     f"{doc.get('schema')!r} (want smt-simspeed-v1)")
        docs.append(doc)
    return docs


def best(docs):
    """Each shape's best run on one side."""
    shapes = {}
    for doc in docs:
        for s in doc.get("shapes", []):
            prev = shapes.get(s["name"])
            if prev is None or s["cycles_per_sec"] > prev["cycles_per_sec"]:
                shapes[s["name"]] = s
    return shapes


cur = load(cur_arg)
base = load(base_arg)

hosts = {d.get("host", {}).get("fingerprint") for d in cur + base}
if len(hosts) > 1 and not os.environ.get("SIMSPEED_IGNORE_HOST"):
    print("check-simspeed: host differs from baseline; skipping.")
    for h in sorted(map(str, hosts)):
        print(f"  {h}")
    sys.exit(0)

cur_shapes = best(cur)
base_shapes = best(base)

failed = []
print(f"{'shape':<20} {'baseline':>12} {'current':>12} {'ratio':>7}")
for name in base_shapes:
    if name not in cur_shapes:
        print(f"{name:<20} {'(not measured this run)':>33}")
        continue
    b = base_shapes[name]["cycles_per_sec"]
    c = cur_shapes[name]["cycles_per_sec"]
    ratio = c / b if b > 0 else float("inf")
    mark = ""
    if ratio < min_ratio:
        failed.append(name)
        mark = f"  << regressed (>{(1 - min_ratio) * 100:.0f}% loss)"
    print(f"{name:<20} {b:>12.0f} {c:>12.0f} {ratio:>7.2f}{mark}")
for name in cur_shapes:
    if name not in base_shapes:
        print(f"{name:<20} {'(new shape, no baseline)':>33}")

if failed:
    print(f"\ncheck-simspeed: FAILED — {len(failed)} shape(s) below "
          f"{min_ratio}x of baseline: {', '.join(failed)}")
    sys.exit(1)
print(f"\ncheck-simspeed: OK — no shape below {min_ratio}x of baseline.")
PY
