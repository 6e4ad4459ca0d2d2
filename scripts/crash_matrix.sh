#!/bin/sh
# crash_matrix.sh — exhaustive crash-point injection over the adapter
# store. Every log append, fsync, truncate and rename in a
# representative faccd workload is a numbered crash site; the store is
# crashed at every site in every mode (clean loss, torn write, bit flip)
# and must recover to a consistent, byte-identical-or-recompilable state
# each time.
#
# Environment:
#   CRASH_OUT   directory for CI artifacts; when set, keeps
#               CRASH_OUT/CRASH_MATRIX.json plus every crashed store
#               (quarantine/ evidence included) under CRASH_OUT/stores
#
# Needs only POSIX sh + the Go toolchain. Run from the repo root:
#     ./scripts/crash_matrix.sh
set -eu

OUT="${CRASH_OUT:-}"
if [ -n "$OUT" ]; then
    mkdir -p "$OUT"
    go run ./cmd/faccbench -experiment crashmatrix \
        -bench-out "$OUT/CRASH_MATRIX.json" -crash-dir "$OUT/stores"
else
    go run ./cmd/faccbench -experiment crashmatrix -bench-out CRASH_MATRIX.json
fi
echo "crash-matrix: every site recovered"
