#!/usr/bin/env bash
# Offline CI: build, test, lint, fault/trace smokes and a perfbench correctness smoke.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release (workspace)"
cargo build --release --workspace

echo "== cargo test -q (workspace)"
cargo test -q --release --workspace

echo "== cargo clippy -- -D warnings (workspace, all targets)"
cargo clippy --release --workspace --all-targets -- -D warnings

echo "== wfs-analyze (banned-pattern scan vs analyze-allow.txt)"
cargo run --release -p wfs-analyze -- --workspace

echo "== fault-injection smoke grid (2 workflows x 2 policies, fixed seeds)"
WFS=target/release/wfs
CI_TMP=$(mktemp -d)
trap 'rm -rf "$CI_TMP"' EXIT
"$WFS" gen montage 30 --seed 1 -o "$CI_TMP/montage30.json" >/dev/null
"$WFS" gen ligo 30 --seed 2 -o "$CI_TMP/ligo30.json" >/dev/null
for wf in montage30 ligo30; do
  for pol in retry reschedule; do
    # --lint makes violations a non-zero exit: recovered plans must stay
    # invariant-clean in every epoch.
    "$WFS" faults "$CI_TMP/$wf.json" --budget 3.0 --policy "$pol" \
      --mtbf 600 --boot-fail 0.1 --seed 7 --max-epochs 24 --lint >/dev/null
    echo "  faults $wf/$pol: lint-clean"
  done
done

echo "== trace round-trip smoke (wfs trace + faults --trace/--ledger)"
"$WFS" trace "$CI_TMP/montage30.json" --budget 2.0 --seed 3 --ledger --counters \
  -o "$CI_TMP/montage30.trace.json" | grep -q "reconciles  yes (exact)"
python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$CI_TMP/montage30.trace.json" \
  2>/dev/null || test -s "$CI_TMP/montage30.trace.json"
"$WFS" faults "$CI_TMP/ligo30.json" --budget 3.0 --mtbf 600 --boot-fail 0.1 \
  --seed 7 --trace "$CI_TMP/ligo30.trace.json" --ledger | grep -q "reconciles  yes (exact)"
test -s "$CI_TMP/ligo30.trace.json"
echo "  trace exports written, ledgers reconcile exactly"

echo "== perfbench contract tests + correctness smoke (one traced pass per workload, seed 0)"
# Each pass checks every op's pinned output digest and the exact to_bits
# ledger reconcile, so the verdict is the same on any host. perfbench exits
# 0 even when a check fails; the last output line (JSON) carries the
# verdict. Speed is not gated here: perfbench/steady.py judges runs against
# BENCHMARK.json's bounds.
cargo test --offline --release -q --manifest-path perfbench/Cargo.toml
for w in plan-400 refine-60 execute-400; do
  cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$w" --seed 0 --seconds 0 --trace 1 --out "$CI_TMP" | tail -n 1 |
    python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
ok = r.get("correct") is True and r.get("failed") == 0
print("  perfbench %s: correct=%s failed=%s/%s"
      % (sys.argv[1], r.get("correct"), r.get("failed"), r.get("attempted")))
sys.exit(0 if ok else 1)
' "$w"
done

echo "CI OK"
