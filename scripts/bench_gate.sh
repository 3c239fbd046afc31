#!/usr/bin/env bash
# Virtual-time golden gate: builds and runs the six ext_* benches that own a
# checked-in BENCH_*.json, collects each bench's "RESULT {json}" lines and
# compares them, as parsed JSON values and in order, with the checked-in
# array. Every number in these files is virtual time or a count, so any
# drift is a behaviour change: the gate exits non-zero and prints the first
# differing record of each drifted file.
#
# Usage: scripts/bench_gate.sh
# Environment:
#   BUILD_DIR  build tree to build the benches in (default build)
#   JOBS       parallel build jobs (default 4)
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"
BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-4}"

# bench binary -> golden file
PAIRS=(
  "ext_fault_tolerance BENCH_fault.json"
  "ext_integrity BENCH_integrity.json"
  "ext_service BENCH_service.json"
  "ext_soak BENCH_soak.json"
  "ext_staging BENCH_staging.json"
  "ext_streaming BENCH_streaming.json"
)

TARGETS=()
for pair in "${PAIRS[@]}"; do TARGETS+=("${pair%% *}"); done
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" --target "${TARGETS[@]}"

# Benches may drop trace files into their working directory.
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

status=0
for pair in "${PAIRS[@]}"; do
  bench="${pair%% *}"
  golden="${pair##* }"
  start=$SECONDS
  # A fixed chaos seed: the goldens are recorded at the default weather.
  (cd "$WORK" && env -u COLCOM_CHAOS_SEED -u COLCOM_CHECK \
    "$ROOT/$BUILD_DIR/bench/$bench") >"$WORK/$bench.out"
  if python3 - "$WORK/$bench.out" "$golden" <<'EOF'
import json
import sys

out_path, golden_path = sys.argv[1], sys.argv[2]
got = [json.loads(line[len("RESULT "):])
       for line in open(out_path) if line.startswith("RESULT ")]
want = json.load(open(golden_path))
if got == want:
    sys.exit(0)
print(f"  {golden_path}: {len(got)} RESULT lines, {len(want)} golden records")
for i, (g, w) in enumerate(zip(got, want)):
    if g != w:
        keys = sorted(k for k in set(g) | set(w) if g.get(k) != w.get(k))
        print(f"  first drift at record {i}: " +
              ", ".join(f"{k}: {w.get(k)!r} -> {g.get(k)!r}" for k in keys))
        break
sys.exit(1)
EOF
  then
    echo "bench_gate: $bench matches $golden ($((SECONDS - start)) s)"
  else
    echo "bench_gate: $bench DRIFTED from $golden" >&2
    status=1
  fi
done
exit $status
