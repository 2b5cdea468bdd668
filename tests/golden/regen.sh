#!/bin/sh
# Rewrite the golden outputs from a collapse_tool binary:
#   tests/golden/regen.sh build/example_collapse_tool
# For each NAME.nest here: NAME.describe.txt (--emit=describe) and
# NAME.STYLE.c (--emit=function --style=...) for the four styles
# tests/codegen/golden_test.cpp compares.  Review the diff before
# committing: the goldens are the reference, not a snapshot to refresh.
set -eu
tool=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
cd "$(dirname "$0")"
for nest in *.nest; do
  name=${nest%.nest}
  "$tool" --emit=describe "$nest" > "$name.describe.txt"
  "$tool" --emit=function --style=thread "$nest" > "$name.thread.c"
  "$tool" --emit=function --style=iteration "$nest" > "$name.iteration.c"
  "$tool" --emit=function --style=chunk=64 "$nest" > "$name.chunk64.c"
  "$tool" --emit=function --style=simd=8 "$nest" > "$name.simd8.c"
done
