#!/usr/bin/env bash
# Rewrite the golden stats under tests/golden/ from the current source:
# builds golden_test in build/ and runs every scenario with
# DIMMLINK_GOLDEN_WRITE pointing at tests/golden. Run it only when a
# change is meant to move simulated results, then review the diff
# (git diff --stat tests/golden) before committing it.
# Run from anywhere; operates on the repo root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

cmake -S "$root" -B "$root/build" > /dev/null
cmake --build "$root/build" -j "$jobs" --target golden_test
DIMMLINK_GOLDEN_WRITE="$root/tests/golden" \
    "$root/build/tests/golden_test" \
    --gtest_filter='Golden/GoldenStats.MatchesCheckedInDump/*'
git -C "$root" status --short -- tests/golden
