#!/usr/bin/env bash
# check-simspeed.sh CURRENT.json[,...] BASELINE.json[,...] — the
# simspeed regression gate scripts/simspeed-ab.sh runs.
#
# Compares per-shape tick throughput (cycles_per_sec) in CURRENT
# against BASELINE. Either side may list several runs,
# comma-separated; each side then counts its median run per shape, so
# one fast or slow outlier on a shared host cannot decide the verdict.
# A shape regresses when
#
#   current/baseline < SIMSPEED_MIN_RATIO   (default 0.9, i.e. a
#                                            >10% throughput loss)
#
# Exits 1 if any shape regresses, and 2 on a usage error, a missing
# file, a foreign schema, or runs measured on different hosts (the
# fingerprint field differs): absolute throughput is not comparable
# across machines, so both sides must come from one host.
#
# Shapes present in only one of the two sides are reported but never
# fail the gate, so adding or retiring a machine shape does not need
# both trees to know it.
set -u

current="${1:-}"
baseline="${2:-}"
min_ratio="${SIMSPEED_MIN_RATIO:-0.9}"

if [ -z "$current" ] || [ -z "$baseline" ]; then
    echo "usage: check-simspeed.sh CURRENT.json[,...] BASELINE.json[,...]" >&2
    exit 2
fi
IFS=, read -r -a runs <<<"$current,$baseline"
for f in "${runs[@]}"; do
    if [ ! -f "$f" ]; then
        echo "check-simspeed: results not found: $f" >&2
        exit 2
    fi
done

python3 - "$current" "$baseline" "$min_ratio" <<'PY'
import json
import statistics
import sys

cur_arg, base_arg, min_ratio = sys.argv[1], sys.argv[2], float(sys.argv[3])


def load(arg):
    """Every run a side lists, schema-checked."""
    docs = []
    for path in arg.split(","):
        try:
            doc = json.load(open(path))
        except ValueError as e:
            print(f"check-simspeed: {path}: {e}", file=sys.stderr)
            sys.exit(2)
        if doc.get("schema") != "smt-simspeed-v1":
            print(f"check-simspeed: {path}: unexpected schema "
                  f"{doc.get('schema')!r} (want smt-simspeed-v1)",
                  file=sys.stderr)
            sys.exit(2)
        docs.append(doc)
    return docs


def median(docs):
    """Each shape's median cycles_per_sec over one side's runs."""
    samples = {}
    for doc in docs:
        for s in doc.get("shapes", []):
            samples.setdefault(s["name"], []).append(s["cycles_per_sec"])
    return {name: statistics.median(v) for name, v in samples.items()}


cur = load(cur_arg)
base = load(base_arg)

hosts = {d.get("host", {}).get("fingerprint") for d in cur + base}
if len(hosts) > 1:
    print("check-simspeed: the runs come from different hosts:",
          file=sys.stderr)
    for h in sorted(map(str, hosts)):
        print(f"  {h}", file=sys.stderr)
    sys.exit(2)

cur_shapes = median(cur)
base_shapes = median(base)

failed = []
print(f"{'shape':<20} {'baseline':>12} {'current':>12} {'ratio':>7}")
for name, b in base_shapes.items():
    if name not in cur_shapes:
        print(f"{name:<20} {'(not measured this run)':>33}")
        continue
    c = cur_shapes[name]
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
