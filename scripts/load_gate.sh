#!/usr/bin/env bash
# load_gate.sh — the serving-latency regression gate: boot a roxserve over a
# deterministic people corpus, fire a short calibrated open-loop burst with
# roxload, and diff the per-class p50/p99 against the committed
# LOAD_BASELINE.json with loadgate. Also proves the gate is live by running
# loadgate's self-test (an injected 2x p99 inflation must fail).
#
#   scripts/load_gate.sh                 # gate against LOAD_BASELINE.json
#   LOADGATE_WRITE=1 scripts/load_gate.sh  # regenerate LOAD_BASELINE.json
#
# The slacks are deliberately huge (default 3x allowed on p50, 6x on p99):
# shared CI runners are noisy and the committed baseline was recorded on a
# different machine. The gate exists to catch a serving-path catastrophe — a
# lost index, an accidental O(n^2) merge, a blocking lock on the hot path —
# not single-digit regressions (roxmark, benchmark/, resolves those).
set -euo pipefail
cd "$(dirname "$0")/.."

# Keep the rate well below single-core saturation: an open-loop generator
# near saturation queues unboundedly and the p99 becomes a coin flip, which
# is exactly the flake a latency gate cannot afford.
RATE="${LOADGATE_RATE:-60}"
DURATION="${LOADGATE_DURATION:-5s}"
P50_SLACK="${LOADGATE_P50_SLACK:-3.0}"
P99_SLACK="${LOADGATE_P99_SLACK:-6.0}"

work="$(mktemp -d)"
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

echo "building roxserve, roxload, loadgate..."
go build -o "$work/roxserve" ./cmd/roxserve
go build -o "$work/roxload" ./cmd/roxload
go build -o "$work/loadgate" ./cmd/loadgate

# Same deterministic corpus shape as cluster_smoke.sh, but bigger: four
# shards x 250 people, enough that ordered merges and scatters do real work.
for s in 0 1 2 3; do
  {
    printf '<people>'
    for i in $(seq 0 249); do
      id=$((s * 250 + i))
      printf '<person id="p%04d"><name>n%d</name><age>%d</age><salary>%d</salary></person>' \
        "$id" "$id" "$((20 + (id * 7) % 50))" "$((1000 + (id * 37) % 900))"
    done
    printf '</people>\n'
  } > "$work/ppl-$s.xml"
done

echo "booting roxserve on an ephemeral port..."
"$work/roxserve" -addr 127.0.0.1:0 -portfile "$work/server.port" -seed 1 \
  -collection "ppl=$work/ppl-*.xml" &
pids+=($!)
addr=""
for _ in $(seq 1 100); do
  if [ -s "$work/server.port" ]; then addr="$(cat "$work/server.port")"; break; fi
  sleep 0.05
done
if [ -z "$addr" ]; then
  echo "FAIL: roxserve never wrote its port file" >&2
  exit 1
fi
for _ in $(seq 1 50); do
  if curl -sf "http://$addr/v1/healthz" > /dev/null 2>&1; then break; fi
  sleep 0.1
done

burst() {
  echo "load burst: ${RATE}/s for ${DURATION} against http://$addr ..."
  "$work/roxload" -addr "http://$addr" -collection ppl \
    -rate "$RATE" -duration "$DURATION" -out "$work/report.json" \
    -note "load_gate.sh burst (rate=$RATE duration=$DURATION)"
}

burst

if [ -n "${LOADGATE_REPORT_OUT:-}" ]; then
  cp "$work/report.json" "$LOADGATE_REPORT_OUT"
fi

if [ "${LOADGATE_WRITE:-}" = "1" ]; then
  cp "$work/report.json" LOAD_BASELINE.json
  echo "wrote LOAD_BASELINE.json (rate=$RATE duration=$DURATION)"
  exit 0
fi

echo "gate self-test (injected 2x p99 must fail)..."
"$work/loadgate" -baseline LOAD_BASELINE.json -selftest

# A short burst records ~50 samples per class, so the p99 is effectively the
# worst sample and a single scheduler pause can fail an honest run. One free
# retry with a fresh burst de-flakes that: a genuine serving-path regression
# fails every burst, a one-off blip does not repeat.
gate() {
  "$work/loadgate" -baseline LOAD_BASELINE.json -current "$work/report.json" \
    -p50-slack "$P50_SLACK" -p99-slack "$P99_SLACK"
}
echo "gating against LOAD_BASELINE.json (p50 slack $P50_SLACK, p99 slack $P99_SLACK)..."
if ! gate; then
  echo "gate failed; retrying once with a fresh burst..."
  burst
  gate
fi
