#!/usr/bin/env bash
# Line coverage of src/*.cc, twice: under the golden test alone (what a
# refactor guarded by golden stats is actually guarded by), then under
# the whole ctest suite. Builds an unoptimized gcc --coverage tree in
# build-cov/ and reads it back with gcov; no other tool is needed.
# Prints both totals and a per-file table (lines, golden %, suite %).
# Run from anywhere; operates on the repo root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
cov="$root/build-cov"
objs="$cov/src/CMakeFiles/dimmlink.dir"

echo "==> coverage build (Debug, --coverage)"
cmake -S "$root" -B "$cov" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage \
    > /dev/null
cmake --build "$cov" -j "$jobs" > /dev/null

# measure <out file>: one "<src path> <executed> <total>" line per
# translation unit of the library, from the counters collected so far.
measure() {
    local out="$1"
    : > "$out"
    find "$objs" -name '*.cc.gcno' | LC_ALL=C sort |
        while read -r gcno; do
            local rel="${gcno#"$objs"/}"
            local src="src/${rel%.gcno}"
            (cd "$root" && gcov -n -o "${gcno%.gcno}.o" "$src" 2>/dev/null) |
                awk -v want="$root/$src" -v name="$src" '
                    /^File / { f = $2; gsub(/\x27/, "", f) }
                    /^Lines executed:/ && f == want && !done {
                        split($2, p, "%"); sub(/^executed:/, "", p[1])
                        n = $NF; done = 1; printf "%s %d %d\n", name,
                            int(p[1] * n / 100 + 0.5), n
                    }' >> "$out"
        done
}

total() { # <measure file>
    awk '{ e += $2; n += $3 }
         END { printf "%.1f%% (%d of %d lines)", 100 * e / n, e, n }' "$1"
}

echo "==> golden test alone"
find "$cov" -name '*.gcda' -delete
"$cov/tests/golden_test" > "$cov/golden.log" 2>&1 ||
    echo "    golden test failed (see $cov/golden.log); counting what ran"
measure "$cov/golden.cov"

echo "==> full ctest suite"
find "$cov" -name '*.gcda' -delete
ctest --test-dir "$cov" -j "$jobs" > "$cov/suite.log" ||
    echo "    some tests failed (see $cov/suite.log); counting what ran"
measure "$cov/suite.cov"

echo
printf '%-36s %6s %8s %8s\n' file lines golden suite
LC_ALL=C join "$cov/golden.cov" "$cov/suite.cov" | awk '{
    printf "%-36s %6d %7.1f%% %7.1f%%\n", $1, $3,
        $3 ? 100 * $2 / $3 : 0, $5 ? 100 * $4 / $5 : 0 }'
echo
echo "golden-only line coverage: $(total "$cov/golden.cov")"
echo "full-suite line coverage:  $(total "$cov/suite.cov")"
