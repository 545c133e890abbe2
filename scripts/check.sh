#!/usr/bin/env bash
# Tier-1 verification: configure with warnings-as-errors, build
# everything, run the test suite tier by tier (ctest labels: tier1,
# fuzz, golden).  This is what CI runs; run it locally before pushing.
# The eval-lint gate (tools/lint) is the tier-1 test lint_test.
#
# Usage: scripts/check.sh [build-dir]     (default: build-check)
#        scripts/check.sh --tsan [build-dir]
#        scripts/check.sh --asan [build-dir]
#        scripts/check.sh --ubsan [build-dir]
#        scripts/check.sh --tidy [build-dir]
#        scripts/check.sh --coverage [build-dir]
#        scripts/check.sh --prof-smoke [build-dir]
#
# --tsan (or CHECK_TSAN=1) configures with -DEVAL_TSAN=ON and runs the
# concurrency-sensitive test subset (exec, stats, trace, core, cmp)
# under ThreadSanitizer instead of the full Werror build.
#
# --asan / --ubsan (or CHECK_ASAN=1 / CHECK_UBSAN=1) configure with
# -DEVAL_ASAN=ON / -DEVAL_UBSAN=ON and run the tier-1 suite under
# AddressSanitizer(+Leak) / UndefinedBehaviorSanitizer.  Together with
# --tsan these form the sanitizer matrix (TESTING.md "Static analysis
# and sanitizers").
#
# --tidy (or CHECK_TIDY=1) runs clang-tidy over src/ with the curated
# .clang-tidy config, using the build dir's compile_commands.json.
# Degrades to a warning if clang-tidy is not installed.
#
# --coverage (or CHECK_COVERAGE=1) configures with -DEVAL_COVERAGE=ON,
# runs the tier1+fuzz tests, and reports line coverage over src/ with
# gcovr, enforcing the ratchet threshold below.  Degrades to a warning
# if gcovr is not installed.
#
# No mode gates performance: `python3 perfbench/run.py` with the
# bounds in BENCHMARK.json is the one performance measurement (see
# TESTING.md "Measuring performance").
#
# --prof-smoke (or CHECK_PROF_SMOKE=1) is the span-profiling
# end-to-end check (DESIGN.md §5j): a fast fig13 run with
# --profile-out must leave a profile.json behind, with non-zero
# characterize.app and arch.core_run buckets and no pe.eval bucket;
# eval_prof tree/flame/diff must render it.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# Line-coverage ratchet: raise when coverage improves, never lower.
coverage_floor=70

mode="build"
case "${1:-}" in
  --tsan)     mode="tsan";     shift ;;
  --asan)     mode="asan";     shift ;;
  --ubsan)    mode="ubsan";    shift ;;
  --tidy)     mode="tidy";     shift ;;
  --coverage) mode="coverage"; shift ;;
  --prof-smoke) mode="prof-smoke"; shift ;;
esac
[[ "${CHECK_TSAN:-0}" == "1" ]] && mode="tsan"
[[ "${CHECK_ASAN:-0}" == "1" ]] && mode="asan"
[[ "${CHECK_UBSAN:-0}" == "1" ]] && mode="ubsan"
[[ "${CHECK_TIDY:-0}" == "1" ]] && mode="tidy"
[[ "${CHECK_COVERAGE:-0}" == "1" ]] && mode="coverage"
[[ "${CHECK_PROF_SMOKE:-0}" == "1" ]] && mode="prof-smoke"

if [[ "$mode" == "tsan" ]]; then
    build_dir="${1:-$repo_root/build-tsan}"
    cmake -B "$build_dir" -S "$repo_root" -DEVAL_TSAN=ON
    cmake --build "$build_dir" -j"$(nproc)"
    # Exercise the parallel layer for real: the determinism test and the
    # stats test both fan out on multi-thread pools, and the span
    # profile folds from several threads.
    EVAL_THREADS=4 ctest --test-dir "$build_dir" --output-on-failure \
        -R 'exec_|stats_|trace_|core_|cmp_'
    echo "check.sh: TSan tests passed"
    exit 0
fi

if [[ "$mode" == "asan" || "$mode" == "ubsan" ]]; then
    build_dir="${1:-$repo_root/build-$mode}"
    flag="EVAL_ASAN"
    [[ "$mode" == "ubsan" ]] && flag="EVAL_UBSAN"
    cmake -B "$build_dir" -S "$repo_root" -D${flag}=ON
    cmake --build "$build_dir" -j"$(nproc)"
    # halt_on_error so a leak/UB finding fails the run, not just logs.
    ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
        ctest --test-dir "$build_dir" --output-on-failure -j"$(nproc)" \
            -L tier1
    echo "check.sh: tier-1 tests passed under ${mode}"
    exit 0
fi

if [[ "$mode" == "tidy" ]]; then
    build_dir="${1:-$repo_root/build-check}"
    if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "check.sh: WARNING clang-tidy not found, skipping tidy pass"
        exit 0
    fi
    cmake -B "$build_dir" -S "$repo_root" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
    # Headers are covered through the .cc files that include them
    # (HeaderFilterRegex in .clang-tidy).
    mapfile -t tidy_sources < <(find "$repo_root/src" -name '*.cc' | sort)
    clang-tidy -p "$build_dir" --quiet "${tidy_sources[@]}"
    echo "check.sh: clang-tidy clean"
    exit 0
fi

if [[ "$mode" == "coverage" ]]; then
    build_dir="${1:-$repo_root/build-coverage}"
    cmake -B "$build_dir" -S "$repo_root" -DEVAL_COVERAGE=ON
    cmake --build "$build_dir" -j"$(nproc)"
    ctest --test-dir "$build_dir" --output-on-failure -j"$(nproc)" \
        -L 'tier1|fuzz'
    if command -v gcovr >/dev/null 2>&1; then
        gcovr --root "$repo_root" --filter "$repo_root/src/" \
            --exclude-throw-branches \
            --fail-under-line "$coverage_floor" \
            --print-summary "$build_dir"
        echo "check.sh: coverage >= ${coverage_floor}% line floor"
    else
        echo "check.sh: WARNING gcovr not found, skipping coverage report"
    fi
    exit 0
fi

if [[ "$mode" == "prof-smoke" ]]; then
    build_dir="${1:-$repo_root/build-check}"

    cmake -B "$build_dir" -S "$repo_root"
    build_dir="$(cd "$build_dir" && pwd)" # runs happen in scratch dirs
    cmake --build "$build_dir" -j"$(nproc)" --target eval_cli eval_prof

    cli="$build_dir/examples/eval_cli"
    prof="$build_dir/tools/eval_prof/eval_prof"
    run_dir="$build_dir/prof-smoke"
    rm -rf "$run_dir" && mkdir -p "$run_dir"

    # 1. Fast campaign with the profile on: the run must leave
    #    its profile.json behind.
    echo "check.sh: prof smoke -- profiled fig13"
    profile="$run_dir/fig13.profile.json"
    (cd "$run_dir" && "$cli" fig13 --chips=6 --seed=7 \
        --sim-insts=20000 --apps=gzip,swim --scheme=exh \
        --out=fig13 --manifest= --profile-out="$profile" \
        > fig13.stdout 2>&1) || {
        echo "check.sh: ERROR profiled fig13 failed"
        cat "$run_dir/fig13.stdout"
        exit 1
    }
    if [[ ! -s "$profile" ]]; then
        echo "check.sh: ERROR missing span profile $profile"
        exit 1
    fi

    # The profile covers characterization (the largest cold-start
    # layer) and counts every Core::run; per-access PE evaluations
    # are counters, never spans, so no pe.eval bucket.
    buckets="$(tr -d ' \n' < "$profile")"
    for span in characterize.app arch.core_run; do
        if ! grep -qE "\"name\":\"$span\",\"count\":[1-9]" \
                <<< "$buckets"; then
            echo "check.sh: ERROR profile has no $span bucket" \
                 "with a non-zero count"
            exit 1
        fi
    done
    if grep -q '"name":"pe.eval"' <<< "$buckets"; then
        echo "check.sh: ERROR profile has a pe.eval bucket"
        exit 1
    fi

    # 2. eval_prof must render the profile; a self-compare diff must
    #    succeed.
    echo "check.sh: prof smoke -- eval_prof tree/flame/diff"
    "$prof" tree "$profile" > /dev/null
    "$prof" tree "$profile" --bottom-up --top=10 > /dev/null
    "$prof" flame "$profile" --out="$run_dir/stacks.txt"
    [[ -s "$run_dir/stacks.txt" ]]
    "$prof" diff "$profile" "$profile" > /dev/null
    echo "check.sh: prof smoke passed (profile: $profile)"
    exit 0
fi

build_dir="${1:-$repo_root/build-check}"

cmake -B "$build_dir" -S "$repo_root" -DEVAL_WERROR=ON
cmake --build "$build_dir" -j"$(nproc)"

# Tier 1 (fast unit/integration) and fuzz first: fail fast before the
# slower golden tier, and keep per-tier timing visible.
ctest --test-dir "$build_dir" --output-on-failure -j"$(nproc)" -L tier1
ctest --test-dir "$build_dir" --output-on-failure -j"$(nproc)" -L fuzz

# Golden tier: bit-stability, paper anchors, differential runs.  Diff
# artifacts land in EVAL_GOLDEN_DIFF_DIR (default: golden-diffs/) on
# mismatch; CI uploads them.
ctest --test-dir "$build_dir" --output-on-failure -L golden

echo "check.sh: all tiers passed"
