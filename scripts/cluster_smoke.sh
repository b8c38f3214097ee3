#!/usr/bin/env bash
# cluster_smoke.sh — boot a two-shard-server ROX cluster on loopback and
# verify that distributed scatter-gather answers are byte-identical to a
# single roxserve process holding the same corpus.
#
#   scripts/cluster_smoke.sh
#
# Topology: two `roxserve -role shard` processes each serving two shards of a
# four-shard "ppl" collection, one coordinator registering them via
# -remote-collection, and one single-process reference server loading all
# four shards locally. Every query class the gather distinguishes — plain
# concat, ordered merge, algebraic aggregate, limit window — is run against
# both through the streaming NDJSON surface, diffed on the item lines, and
# through the buffered surface, diffed on the items array, before and after
# the same fragments are ingested into both.
set -euo pipefail
cd "$(dirname "$0")/.."

work="$(mktemp -d)"
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

echo "building roxserve..."
go build -o "$work/roxserve" ./cmd/roxserve

# Four shards of deterministic people data (ids straddle shard boundaries so
# the ordered merge has real interleaving to do).
for s in 0 1 2 3; do
  {
    printf '<people>'
    for i in $(seq 0 24); do
      id=$((s * 25 + i))
      # age cycles so the ordered merge interleaves shards; salary varies.
      printf '<person id="p%04d"><name>n%d</name><age>%d</age><salary>%d</salary></person>' \
        "$id" "$id" "$((20 + (id * 7) % 50))" "$((1000 + (id * 37) % 900))"
    done
    printf '</people>\n'
  } > "$work/ppl-$s.xml"
done

# Ephemeral ports: every server binds 127.0.0.1:0 and publishes its bound
# address through -portfile, so parallel runs on shared CI runners cannot
# collide — no PID arithmetic, no race against other suites.
read_addr() { # portfile
  for _ in $(seq 1 100); do
    if [ -s "$1" ]; then cat "$1"; return 0; fi
    sleep 0.05
  done
  echo "FAIL: $1 was never written — did the server boot?" >&2
  return 1
}

wait_healthy() { # host:port
  for _ in $(seq 1 50); do
    if curl -sf "http://$1/v1/healthz" > /dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "FAIL: server on $1 never became healthy" >&2
  return 1
}

echo "booting shard servers on ephemeral ports..."
"$work/roxserve" -role shard -addr 127.0.0.1:0 -portfile "$work/shard_a.port" \
  -doc "$work/ppl-0.xml" -doc "$work/ppl-1.xml" -seed 1 &
pids+=($!)
"$work/roxserve" -role shard -addr 127.0.0.1:0 -portfile "$work/shard_b.port" \
  -doc "$work/ppl-2.xml" -doc "$work/ppl-3.xml" -seed 1 &
pids+=($!)
shard_a="$(read_addr "$work/shard_a.port")"
shard_b="$(read_addr "$work/shard_b.port")"
wait_healthy "$shard_a"
wait_healthy "$shard_b"

echo "booting coordinator and single-process reference..."
"$work/roxserve" -addr 127.0.0.1:0 -portfile "$work/coord.port" -seed 1 \
  -remote-collection "ppl=http://$shard_a,http://$shard_b" &
pids+=($!)
"$work/roxserve" -addr 127.0.0.1:0 -portfile "$work/single.port" -seed 1 \
  -collection "ppl=$work/ppl-*.xml" &
pids+=($!)
coord="$(read_addr "$work/coord.port")"
single="$(read_addr "$work/single.port")"
wait_healthy "$coord"
wait_healthy "$single"

# A shard server must not serve client queries.
code="$(curl -s -o /dev/null -w '%{http_code}' "http://$shard_a/v1/query?q=1")"
if [ "$code" != "404" ]; then
  echo "FAIL: shard server answered /v1/query with $code, want 404" >&2
  exit 1
fi

queries=(
  'for $p in collection("ppl")//person/name return $p'
  'for $p in collection("ppl")//person order by $p/age descending return $p'
  'for $p in collection("ppl")//person return sum($p/salary)'
  'for $p in collection("ppl")//person order by $p/age return $p limit 10 offset 5'
)

fail=0
check() { # label form query got want
  if [ -z "$5" ]; then
    echo "FAIL ($1, $2): reference returned no items for: $3" >&2
    fail=1
  elif [ "$4" != "$5" ]; then
    echo "FAIL ($1, $2): cluster and single-process answers differ for: $3" >&2
    diff <(printf '%s\n' "$5") <(printf '%s\n' "$4") | head -10 >&2
    fail=1
  else
    echo "ok ($1, $2): $3"
  fi
}
compare() { # label
  for q in "${queries[@]}"; do
    got="$(curl -sG "http://$coord/v1/query" --data-urlencode "q=$q" \
      --data-urlencode "stream=ndjson" | grep '"item"' || true)"
    want="$(curl -sG "http://$single/v1/query" --data-urlencode "q=$q" \
      --data-urlencode "stream=ndjson" | grep '"item"' || true)"
    check "$1" stream "$q" "$got" "$want"
    # The buffered body up to its stats, which differ (elapsed time, the
    # per-shard breakdown): an unescaped ,"stats": cannot occur inside a
    # JSON string, so the cut falls after the items array.
    got="$(curl -sG "http://$coord/v1/query" --data-urlencode "q=$q" | sed 's/,"stats":.*//')"
    want="$(curl -sG "http://$single/v1/query" --data-urlencode "q=$q" | sed 's/,"stats":.*//')"
    case "$want" in '{"items":["'*) ;; *) want="" ;; esac
    check "$1" buffered "$q" "$got" "$want"
  done
}

compare warm-up
compare replay # the second run replays each server's own cached plans

# Remote ingest: the coordinator forwards each fragment to the shard server
# holding its round-robin shard, through that server's public ingest
# endpoint. Both sides list the four shards in the same order, so each
# fragment lands in the same shard on both.
fragments=(
  '<person id="p0100"><name>n100</name><age>71</age><salary>1234</salary></person>'
  '<person id="p0101"><name>n101</name><age>18</age><salary>1777</salary></person>'
)
for f in "${fragments[@]}"; do
  for addr in "$coord" "$single"; do
    code="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
      -H 'Content-Type: application/xml' --data-binary "$f" \
      "http://$addr/v1/collections/ppl/ingest")"
    if [ "$code" != "200" ]; then
      echo "FAIL: ingest into ppl on $addr answered $code, want 200" >&2
      exit 1
    fi
  done
done
compare after-ingest
exit $fail
