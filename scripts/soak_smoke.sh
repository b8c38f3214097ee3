#!/usr/bin/env bash
# soak_smoke.sh — soak a real roxserve process with roxload, then kill it
# without a drain and check that a warm restart recovers the soak's ingests.
#
#   scripts/soak_smoke.sh DURATION      # e.g. 30s (nightly) or 3s (CI)
#
# One roxserve holds a two-shard "ppl" collection and a durable ingest
# directory (-waldir). roxload runs its chaos soak against it for DURATION:
# ordered paginated queries, mid-stream cancellations, shard swaps through
# /v1/collections/load and append+commit batches through the ingest
# endpoint; it exits 1 on a broken stream, a failed reload or ingest, or a
# soak that exercised nothing. Then the server gets kill -9, a second one
# starts on the same -waldir, and the soak's ingest document must hold a
# non-zero number of entries: every committed batch is replayed from the WAL.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: $0 DURATION" >&2
  exit 2
fi
duration="$1"

work="$(mktemp -d)"
server=""
cleanup() {
  if [ -n "$server" ]; then kill "$server" 2>/dev/null || true; fi
  wait 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

echo "building roxserve and roxload..."
go build -o "$work/roxserve" ./cmd/roxserve
go build -o "$work/roxload" ./cmd/roxload

for s in 0 1; do
  {
    printf '<people>'
    for i in $(seq 0 99); do
      id=$((s * 100 + i))
      printf '<person id="p%04d"><name>n%d</name><age>%d</age><salary>%d</salary></person>' \
        "$id" "$id" "$((20 + (id * 7) % 50))" "$((1000 + (id * 37) % 900))"
    done
    printf '</people>\n'
  } > "$work/ppl-$s.xml"
done

# start_server boots roxserve on an ephemeral port over the same corpus and
# WAL directory, and sets $server and $addr.
start_server() {
  : > "$work/server.port"
  "$work/roxserve" -addr 127.0.0.1:0 -portfile "$work/server.port" -seed 1 \
    -collection "ppl=$work/ppl-*.xml" -waldir "$work/wal" &
  server=$!
  for _ in $(seq 1 100); do [ -s "$work/server.port" ] && break; sleep 0.05; done
  if [ ! -s "$work/server.port" ]; then
    echo "FAIL: roxserve never wrote its port file" >&2
    exit 1
  fi
  addr="$(cat "$work/server.port")"
}

start_server
echo "soaking roxserve on $addr for $duration..."
"$work/roxload" -addr "http://$addr" -collection ppl -duration "$duration"

# Kill-and-recover: SIGKILL the server (no graceful drain), restart it on the
# same WAL dir, and check the soak's ingested document survived.
kill -9 "$server"
wait "$server" 2>/dev/null || true
start_server
entries="$(curl -sf "http://$addr/v1/query" --get \
  --data-urlencode 'q=for $e in doc("soak-log.xml")//entry return count($e)' \
  | sed -n 's/.*"items":\["\([0-9]*\)"\].*/\1/p')"
echo "recovered soak-log.xml entries: ${entries:-none}"
if [ -z "$entries" ] || [ "$entries" = 0 ]; then
  echo "FAIL: the warm restart lost the ingested document" >&2
  exit 1
fi
echo "soak smoke passed"
