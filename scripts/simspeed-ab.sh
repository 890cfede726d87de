#!/usr/bin/env bash
# simspeed-ab.sh BASE_SRC CHANGE_SRC [OUT_DIR] — the same-runner
# simulator-speed gate CI runs on pull requests.
#
# Builds smtsweep alone (Release) from each source tree into OUT_DIR
# (default simspeed-ab), runs `smtsweep --bench-simspeed` on the two in
# alternation, A B A B ... for six rounds, and compares each shape's
# tick throughput (cycles_per_sec) and machine build time (build_us).
# Each side counts its median run per shape, so one fast or slow
# outlier on a shared host cannot decide the verdict. A shape regresses
# when
#
#   change/base < 0.9             (a >10% throughput loss), or
#   change/base build_us > 2      (building a machine got 2x slower:
#                                  a lost program cache reads ~10x)
#
# Exits 1 if any shape regresses, and 2 on a usage error or a run
# whose schema is not smt-simspeed-v1 (a merge base may write another
# version). Shapes present on one side only, and build times when a
# side's runs lack build_us (a base older than the field), are reported
# but never fail the gate, so adding a shape or a field does not need
# both trees to know it.
#
# The change side builds with -DSMT_WERROR=ON, so a Release-only
# warning fails the job; the base side keeps the default flags, since a
# merge base older than a warning fix could not build with them.
#
# A shared host's speed drifts by tens of percent within a minute, so
# each run is short (best of 3 windows per shape) and six rounds spread
# each side's samples over the whole job; on a 4-vCPU VM an A/A run of
# identical trees read per-shape best-run ratios of 0.95-1.27, where
# the medians read 0.99-1.07.
set -eu

if [ $# -lt 2 ]; then
    echo "usage: simspeed-ab.sh BASE_SRC CHANGE_SRC [OUT_DIR]" >&2
    exit 2
fi
out="${3:-simspeed-ab}"
declare -A src=([base]="$1" [change]="$2")
declare -A flags=([base]="" [change]="-DSMT_WERROR=ON")

for side in base change; do
    cmake -S "${src[$side]}" -B "$out/build-$side" -G Ninja \
        -DCMAKE_BUILD_TYPE=Release ${flags[$side]} > /dev/null
    cmake --build "$out/build-$side" --target smtsweep
done
declare -A runs=([base]="" [change]="")
for round in 1 2 3 4 5 6; do
    for side in base change; do
        "$out/build-$side/smtsweep" --bench-simspeed --runs 3 \
            --json "$out/$side-$round.json"
        runs[$side]+="${runs[$side]:+,}$out/$side-$round.json"
    done
done

python3 - "${runs[base]}" "${runs[change]}" <<'PY'
import json
import statistics
import sys

MIN_RATIO = 0.9
MAX_BUILD_RATIO = 2.0


def medians(paths):
    """Each shape's median cycles_per_sec and build_us over one side's
    runs; the build median is None when a run lacks the field."""
    samples, builds = {}, {}
    for path in paths.split(","):
        try:
            doc = json.load(open(path))
        except ValueError as e:
            print(f"simspeed-ab: {path}: {e}", file=sys.stderr)
            sys.exit(2)
        if doc.get("schema") != "smt-simspeed-v1":
            print(f"simspeed-ab: {path}: unexpected schema "
                  f"{doc.get('schema')!r} (want smt-simspeed-v1)",
                  file=sys.stderr)
            sys.exit(2)
        for s in doc.get("shapes", []):
            samples.setdefault(s["name"], []).append(s["cycles_per_sec"])
            builds.setdefault(s["name"], []).append(s.get("build_us"))
    return ({name: statistics.median(v) for name, v in samples.items()},
            {name: None if None in v else statistics.median(v)
             for name, v in builds.items()})


base, base_build = medians(sys.argv[1])
change, change_build = medians(sys.argv[2])

failed = []
print(f"{'shape':<20} {'base':>12} {'change':>12} {'ratio':>7} "
      f"{'base us':>9} {'change us':>9} {'ratio':>7}")
for name, b in base.items():
    if name not in change:
        print(f"{name:<20} {'(not measured on the change)':>33}")
        continue
    c = change[name]
    ratio = c / b if b > 0 else float("inf")
    marks = []
    if ratio < MIN_RATIO:
        marks.append(f"throughput regressed (>{(1 - MIN_RATIO) * 100:.0f}% "
                     "loss)")
    bb, cb = base_build[name], change_build[name]
    if bb is None or cb is None:
        us = ["-" if v is None else f"{v:.0f}" for v in (bb, cb)]
        build = f"{us[0]:>9} {us[1]:>9} (no build_us on a side, not gated)"
    else:
        build_ratio = cb / bb if bb > 0 else float("inf")
        build = f"{bb:>9.0f} {cb:>9.0f} {build_ratio:>7.2f}"
        if build_ratio > MAX_BUILD_RATIO:
            marks.append(f"build >{MAX_BUILD_RATIO:.0f}x the base")
    if marks:
        failed.append(name)
    mark = f"  << {'; '.join(marks)}" if marks else ""
    print(f"{name:<20} {b:>12.0f} {c:>12.0f} {ratio:>7.2f} {build}{mark}")
for name in change:
    if name not in base:
        print(f"{name:<20} {'(new shape, no base)':>33}")

if failed:
    print(f"\nsimspeed-ab: FAILED — {len(failed)} shape(s) below "
          f"{MIN_RATIO}x of the base's throughput or above "
          f"{MAX_BUILD_RATIO:.0f}x its build time: {', '.join(failed)}")
    sys.exit(1)
print(f"\nsimspeed-ab: OK — no shape below {MIN_RATIO}x of the base's "
      f"throughput or above {MAX_BUILD_RATIO:.0f}x its build time.")
PY
