#!/usr/bin/env bash
# check-docs.sh [BUILD_DIR] — the docs link check CI runs.
#
# Verifies, over README.md, ARCHITECTURE.md and docs/*.md:
#  1. every relative markdown link resolves to a file in the repo;
#  2. every tool the docs name (any `smt...` word) exists in tools/;
#  3. with a BUILD_DIR: every `--flag` the docs cite appears in the
#     --help output of some tool built from tools/*.cc — the help text
#     is the canonical flag list, and the docs must not drift from it;
#  4. with a BUILD_DIR: every `--experiment NAME` the docs cite appears
#     in `smtsweep --list`, the canonical experiment list;
#  5. every SMTSIM_*, SMTSWEEP_* or SMTSTORE_* environment variable the
#     docs name is read somewhere: it appears as a quoted string literal
#     in src/ or tools/;
#  6. every script the docs name (any `scripts/NAME.sh`) exists;
#  7. the counter table in section 1 of docs/OBSERVABILITY.md names
#     exactly the counters in StallStats' field list
#     (src/stats/stats.hh), no more and no fewer.
set -u

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-}"
fail=0

docs=("$repo/README.md" "$repo/ARCHITECTURE.md")
for f in "$repo"/docs/*.md; do
    docs+=("$f")
done

# 1. Relative links resolve.
for f in "${docs[@]}"; do
    dir="$(dirname "$f")"
    while IFS= read -r target; do
        case "$target" in
        http://* | https://* | mailto:*) continue ;;
        esac
        path="${target%%#*}"
        [ -z "$path" ] && continue
        if [ ! -e "$dir/$path" ]; then
            echo "broken link in ${f#"$repo"/}: ($target)"
            fail=1
        fi
    done < <(grep -oE '\]\([^)]+\)' "$f" | sed 's/^](//; s/)$//')
done

# 2. Tools named in the docs exist. ("smtsim" is the project, "smt"
#    the library namespace prefix.)
allow_tools="smtsim smt"
for f in "${docs[@]}"; do
    while IFS= read -r name; do
        skip=0
        for a in $allow_tools; do
            [ "$name" = "$a" ] && skip=1
        done
        [ "$skip" = 1 ] && continue
        if [ ! -e "$repo/tools/$name.cc" ]; then
            echo "unknown tool named in ${f#"$repo"/}: $name"
            fail=1
        fi
    done < <(grep -ohE '\bsmt[a-z][a-z-]*' "$f" | sed 's/-$//' | sort -u)
done

# 3. Flags cited in the docs exist in a tool's --help.
#    (--output-on-failure and --build belong to ctest/cmake, cited in
#    build lines; --expand and --digest-- are ASCII arrows in
#    ARCHITECTURE.md's diagrams.)
allow_flags="--output-on-failure --build --expand --digest--"
# Example experiment names in prose, not registered experiments.
allow_experiments="myexp NAME"
if [ -n "$build" ]; then
    if [ ! -x "$build/smtsweep" ]; then
        echo "no tools in build dir $build"
        exit 2
    fi
    # Every tool's help, one per tools/*.cc, so a tool added or
    # deleted there cannot leave this list behind.
    help_all=""
    for src in "$repo"/tools/*.cc; do
        tool="$(basename "$src" .cc)"
        if [ ! -x "$build/$tool" ]; then
            echo "tool $tool is not built in $build"
            fail=1
            continue
        fi
        help_all+="$("$build/$tool" --help)"$'\n'
    done
    for f in "${docs[@]}"; do
        while IFS= read -r flag; do
            skip=0
            for a in $allow_flags; do
                [ "$flag" = "$a" ] && skip=1
            done
            [ "$skip" = 1 ] && continue
            if ! printf '%s' "$help_all" | grep -q -- "$flag"; then
                echo "flag cited in ${f#"$repo"/} missing from every" \
                     "tool --help: $flag"
                fail=1
            fi
        done < <(grep -ohE '(^|[^a-zA-Z-])--[a-z][a-z-]+' "$f" \
                 | grep -oE -- '--[a-z][a-z-]+' | sort -u)
    done

    # 4. Experiments cited in the docs are registered.
    experiments="$("$build/smtsweep" --list | awk '{print $1}')"
    for f in "${docs[@]}"; do
        while IFS= read -r name; do
            case " $allow_experiments " in
            *" $name "*) continue ;;
            esac
            if ! printf '%s\n' "$experiments" | grep -qxF -- "$name"; then
                echo "experiment cited in ${f#"$repo"/} missing from" \
                     "smtsweep --list: $name"
                fail=1
            fi
        done < <(grep -ohE -- '--experiment +[A-Za-z0-9_.-]+' "$f" \
                 | awk '{print $2}' | sort -u)
    done
fi

# 5. Environment variables named in the docs are read by some code.
for f in "${docs[@]}"; do
    while IFS= read -r name; do
        if ! grep -rqF -- "\"$name\"" "$repo/src" "$repo/tools"; then
            echo "environment variable named in ${f#"$repo"/} is read" \
                 "nowhere in src/ or tools/: $name"
            fail=1
        fi
    done < <(grep -ohE '\b(SMTSIM|SMTSWEEP|SMTSTORE)_[A-Z0-9_]+' "$f" \
             | sort -u)
done

# 6. Scripts named in the docs exist (rule 2's twin for scripts/).
for f in "${docs[@]}"; do
    while IFS= read -r script; do
        if [ ! -e "$repo/$script" ]; then
            echo "unknown script named in ${f#"$repo"/}: $script"
            fail=1
        fi
    done < <(grep -ohE '\bscripts/[A-Za-z0-9_.-]+\.sh' "$f" | sort -u)
done

# 7. The stall-ledger table names exactly StallStats' field list.
obs="docs/OBSERVABILITY.md"
listed="$(awk '/^struct StallStats/,/^};/' "$repo/src/stats/stats.hh" \
          | grep -oE '^ +f\("[A-Za-z]+"' | grep -oE '[A-Za-z]+' \
          | grep -vx f | sort)"
documented="$(awk '/^## 1\./,/^## 2\./' "$repo/$obs" \
              | grep -oE '^\| `[A-Za-z]+` \|' | grep -oE '[A-Za-z]+' \
              | sort)"
if [ -z "$listed" ]; then
    echo "no StallStats field list found in src/stats/stats.hh"
    fail=1
fi
while IFS= read -r name; do
    echo "stall counter in StallStats' field list missing from the" \
         "table in $obs section 1: $name"
    fail=1
done < <(comm -23 <(printf '%s\n' "$listed") \
                  <(printf '%s\n' "$documented") | grep .)
while IFS= read -r name; do
    echo "counter in the table in $obs section 1 is not in" \
         "StallStats' field list: $name"
    fail=1
done < <(comm -13 <(printf '%s\n' "$listed") \
                  <(printf '%s\n' "$documented") | grep .)

if [ "$fail" = 0 ]; then
    echo "docs check: OK (${#docs[@]} files)"
fi
exit "$fail"
