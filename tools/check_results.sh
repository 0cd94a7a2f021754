#!/bin/sh
# Regenerate every committed results/*.txt and diff it against the
# committed file. Each file is the standard output of the bench program
# of the same name at its defaults (20 M instructions after a 2 M
# fast-forward, seed 42). The simulator is deterministic, so every
# rerun must match byte for byte.
#
# usage: tools/check_results.sh BUILD_DIR
#
# BUILD_DIR must hold the built bench programs (build them with
# `cmake --build BUILD_DIR --target NAME...`, one NAME per file). They
# run four at a time; their outputs go to BUILD_DIR/results-check/.
# Exit status: 0 when every file matches, 1 when a file differs or its
# program failed, 2 on a usage error.

set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 BUILD_DIR" >&2
    exit 2
fi
BUILD_DIR="$1"
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"
OUT_DIR="$BUILD_DIR/results-check"
rm -rf "$OUT_DIR"
mkdir -p "$OUT_DIR"

for f in "$SRC_DIR"/results/*.txt; do
    basename "$f" .txt
done | xargs -P 4 -I NAME sh -c '
    if "$1/bench/$2" > "$3/$2.txt" 2> "$3/$2.err"; then
        echo "ran $2"
    else
        echo "$1/bench/$2 failed (stderr: $3/$2.err)"
        touch "$3/$2.failed"
    fi' sh "$BUILD_DIR" NAME "$OUT_DIR"

status=0
for f in "$SRC_DIR"/results/*.txt; do
    name="$(basename "$f" .txt)"
    if [ -e "$OUT_DIR/$name.failed" ]; then
        echo "FAIL $name: the program failed"
        status=1
    elif ! diff -u "$f" "$OUT_DIR/$name.txt"; then
        echo "FAIL $name: differs from results/$name.txt"
        status=1
    else
        echo "ok   $name"
    fi
done
exit "$status"
