#!/usr/bin/env bash
# simspeed-ab.sh BASE_SRC CHANGE_SRC [OUT_DIR] — the same-runner
# simulator-speed A/B that CI runs on pull requests.
#
# Builds smtsweep alone (Release) from each source tree into OUT_DIR
# (default simspeed-ab), runs `smtsweep --bench-simspeed` on the two in
# alternation, A B A B ... for six rounds, and gates the change's
# median run per shape against the base's with check-simspeed.sh
# (SIMSPEED_MIN_RATIO, default 0.9). Both sides run on one host, so
# their fingerprints match and the gate always compares.
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
here="$(cd "$(dirname "$0")" && pwd)"
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
bash "$here/check-simspeed.sh" "${runs[change]}" "${runs[base]}"
