#!/usr/bin/env bash
# rust-lines: tracked Rust lines outside perfbench/, per crate and in total.
#
# A crate is a directory under crates/ or vendor/; the top-level src/,
# tests/ and examples/ belong to the root package. Each file's lines are
# split in two: `code` counts a file from its start up to its first
# `#[cfg(test)]` line, `test` counts the rest of it, and every line of a
# file under a tests/ directory. perfbench/ is the benchmark, a separate
# workspace, and is not counted.
#
# With PATHs (files or directories), prints one row per tracked Rust file
# under them instead of one per crate. -C counts another git checkout,
# for example a clone of the parent commit.
#
# Usage: scripts/rust_lines.sh [-C CHECKOUT] [PATH...]
set -euo pipefail

DIR="$(dirname "$0")/.."
if [ "${1:-}" = -C ]; then
    if [ "$#" -lt 2 ]; then
        echo "usage: $0 [-C CHECKOUT] [PATH...]" >&2
        exit 2
    fi
    DIR="$2"
    shift 2
fi
cd "$DIR"
BY_FILE=$(($# > 0))

git ls-files -- "$@" | grep '\.rs$' | grep -v '^perfbench/' | awk -v by_file="$BY_FILE" '
    {
        file = $0
        split(file, part, "/")
        if (by_file)
            key = file
        else if (part[1] == "crates" || part[1] == "vendor")
            key = part[1] "/" part[2]
        else
            key = "(root)"
        keys[key] = 1
        in_test = file ~ /(^|\/)tests\//
        while ((getline line < file) > 0) {
            if (!in_test && line ~ /^[ \t]*#\[cfg\(test\)\]/)
                in_test = 1
            if (in_test) test[key]++; else code[key]++
        }
        close(file)
    }
    END {
        printf "%-40s %8s %8s %8s\n", by_file ? "file" : "crate", "code", "test", "total"
        sorter = "sort"
        for (k in keys) {
            printf "%-40s %8d %8d %8d\n", k, code[k], test[k], code[k] + test[k] | sorter
            all_code += code[k]; all_test += test[k]
        }
        close(sorter)
        printf "%-40s %8d %8d %8d\n", "total", all_code, all_test, all_code + all_test
    }'
