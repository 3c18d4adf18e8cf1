#!/usr/bin/env bash
#
# clang-format driver.
#
#   scripts/format.sh            reformat the covered files in place
#   scripts/format.sh --check    dry-run; non-zero exit on drift
#                                (this is what CI's `format` job runs)
#
# Coverage is an explicit allowlist, not the whole tree: the format
# gate was introduced together with the parallel execution layer, and
# older files are brought under it as they are next touched — a
# tree-wide reformat would bury real history in whitespace commits.
# Add files/directories here when you touch them.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

covered=(
    src/support/thread_pool.hh
    src/support/thread_pool.cc
    src/compiler/cache.hh
    src/compiler/cache.cc
    src/fuzz/sharded.hh
    src/fuzz/sharded.cc
    tests/test_thread_pool.cc
    tests/test_parallel.cc
)

if ! command -v clang-format > /dev/null 2>&1; then
    echo "format.sh: clang-format not installed; skipping" >&2
    exit 0
fi

mode_args=(-i)
if [ "${1:-}" = "--check" ]; then
    mode_args=(--dry-run --Werror)
fi

clang-format "${mode_args[@]}" --style=file "${covered[@]}"
echo "format.sh: OK (${#covered[@]} files)"
