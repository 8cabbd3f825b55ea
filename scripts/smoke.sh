#!/usr/bin/env bash
# Smoke test of the cmd/ binaries against the registry-driven CLI surface:
# builds p2htool, p2hbench and the p2hd daemon, generates a tiny data set,
# drives -index / -spec and save-then--load flows end to end for every
# persistable kind plus two build-only kinds, checks that `p2htool eval`
# sweeps a built and a saved-then-loaded tree identically, and exercises the daemon's
# HTTP API (search, batch, insert/delete, snapshot, hot reload, metrics,
# health, graceful drain) with curl, sending queries both as decimal arrays
# and as base64 float32 strings. CI runs this so the CLI flags, the
# container format and the service surface cannot silently rot.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
daemon_pid=""
cluster_pids=()
cleanup() {
  [ -n "$daemon_pid" ] && kill -TERM "$daemon_pid" 2>/dev/null && wait "$daemon_pid" 2>/dev/null || true
  for p in "${cluster_pids[@]}"; do
    kill -TERM "$p" 2>/dev/null && wait "$p" 2>/dev/null || true
  done
  rm -rf "$tmp"
}
trap cleanup EXIT
bin="$tmp/bin"

echo "== build binaries"
go build -o "$bin/" ./cmd/...
for b in p2htool p2hbench p2hd; do
  [ -x "$bin/$b" ] || { echo "missing binary $b"; exit 1; }
done

data="$tmp/data.fvecs"
queries="$tmp/queries.fvecs"

echo "== generate data + queries + attribute payloads"
"$bin/p2htool" gen -set Music -n 2000 -seed 1 -out "$data"
"$bin/p2htool" queries -data "$data" -nq 10 -seed 2 -out "$queries"

# Per-row attribute payloads (gen dedups, so derive the row count from the
# fvecs file itself: each row is one int32 dim plus dim float32s).
attrs="$tmp/attrs.json"
fdim=$(od -An -td4 -N4 "$data" | tr -d ' ')
nrows=$(( $(stat -c %s "$data") / (4 * (fdim + 1)) ))
awk -v n="$nrows" 'BEGIN{
  printf "["
  for (i = 0; i < n; i++) {
    t = ""
    if (i % 100 == 0) t = "\"hot\""
    if (i % 10 == 0)  t = (t == "" ? "" : t ",") "\"warm\""
    if (i % 2 == 0)   t = (t == "" ? "" : t ",") "\"even\""
    printf "%s{\"tags\":[%s],\"floats\":{\"score\":%.3f}}", (i ? "," : ""), t, (i % 1000) / 1000
  }
  print "]"
}' > "$attrs"

echo "== build/save/info/search/eval each persistable kind via -index/-spec/-load"
for kind in balltree bctree sharded dynamic; do
  spec='{"leaf_size":50}'
  extra=()
  if [ "$kind" = sharded ]; then
    # The sharded container doubles as the cluster stage's attributed
    # single-node oracle, so it carries the payloads.
    spec='{"leaf_size":50,"shards":3,"workers":2}'
    extra=(-attrs "$attrs")
  fi
  ix="$tmp/ix-$kind.p2h"
  "$bin/p2htool" build -index "$kind" -spec "$spec" -seed 1 -data "$data" -out "$ix" "${extra[@]}"
  "$bin/p2htool" info -load "$ix" | grep "type=$kind" >/dev/null || { echo "info: wrong kind for $kind"; exit 1; }
  out="$("$bin/p2htool" search -load "$ix" -queries "$queries" -k 3)"
  grep "^query 0:" >/dev/null <<<"$out" || { echo "search: no results for $kind"; exit 1; }
done

echo "== eval (ground-truth recall) on the saved bctree"
out="$("$bin/p2htool" eval -load "$tmp/ix-bctree.p2h" -data "$data" -queries "$queries" -k 5 -budgets "0.1,1.0")"
grep "100.0%" >/dev/null <<<"$out" || { echo "eval: full budget not exact"; exit 1; }

echo "== spec JSON can carry the kind by itself"
out="$("$bin/p2htool" build -spec '{"kind":"balltree","leaf_size":25}' -data "$data" -out "$tmp/ix-speconly.p2h")"
grep "built balltree" >/dev/null <<<"$out" || { echo "spec-only kind failed"; exit 1; }

echo "== build-only kinds refuse to save with a clear diagnostic"
for kind in nh kdtree; do
  if "$bin/p2htool" build -index "$kind" -data "$data" -out "$tmp/ix-$kind.p2h" 2>"$tmp/$kind.err"; then
    echo "build-only kind $kind saved unexpectedly"; exit 1
  fi
  grep -q "build-only" "$tmp/$kind.err" || { echo "build-only diagnostic missing for $kind"; exit 1; }
done

echo "== eval sweeps a build-only kind built in process (-index/-spec)"
out="$("$bin/p2htool" eval -index kdtree -spec '{"leaf_size":50}' -data "$data" -queries "$queries" -k 3)"
grep "index: kdtree built" >/dev/null <<<"$out" || { echo "eval -index kdtree failed: $out"; exit 1; }

echo "== eval: a built tree and the same Spec saved then loaded sweep identically"
# The saved bctree above was built with leaf_size 50 and seed 1. Every sweep
# row must match once the index line and the ms/query column are cut.
sweep_rows() { grep -v "^index:" | awk '{$3 = ""; print}'; }
built="$("$bin/p2htool" eval -index bctree -spec '{"leaf_size":50,"seed":1}' -data "$data" -queries "$queries" -k 5 | sweep_rows)"
loaded="$("$bin/p2htool" eval -load "$tmp/ix-bctree.p2h" -data "$data" -queries "$queries" -k 5 | sweep_rows)"
[ "$built" = "$loaded" ] || { echo "eval: built and loaded bctree sweep differently:"; echo "$built"; echo "$loaded"; exit 1; }

echo "== p2htool inspect: header-only container description"
out="$("$bin/p2htool" inspect "$tmp/ix-sharded.p2h")"
grep "kind=sharded" >/dev/null <<<"$out" || { echo "inspect: wrong kind: $out"; exit 1; }
grep "points=" >/dev/null <<<"$out" || { echo "inspect: no point count: $out"; exit 1; }
grep '"shards":3' >/dev/null <<<"$out" || { echo "inspect: spec not recorded: $out"; exit 1; }
grep "attrs=present tags=\[even,hot,warm\]" >/dev/null <<<"$out" \
  || { echo "inspect: attribute section not reported: $out"; exit 1; }
grep "fields=\[score:float\]" >/dev/null <<<"$out" \
  || { echo "inspect: attribute schema wrong: $out"; exit 1; }
out="$("$bin/p2htool" inspect "$tmp/ix-bctree.p2h")"
grep "attrs=present" >/dev/null <<<"$out" \
  && { echo "inspect: unattributed container reports attrs: $out"; exit 1; }

echo "== p2hd: start the daemon on two indexes (container + inline spec)"
cat >"$tmp/p2hd.json" <<CFG
{
  "drain_timeout": "5s",
  "server": {"workers": 2},
  "indexes": {
    "trees": {"path": "$tmp/ix-bctree.p2h"},
    "dyn":   {"spec": {"kind": "dynamic", "leaf_size": 50}, "data": "$data"}
  }
}
CFG
"$bin/p2hd" -listen 127.0.0.1:0 -config "$tmp/p2hd.json" >"$tmp/p2hd.log" 2>&1 &
daemon_pid=$!
url=""
for _ in $(seq 1 100); do
  url="$(sed -n 's|.*listening on \(http://[0-9.:]*\).*|\1|p' "$tmp/p2hd.log" | head -1)"
  [ -n "$url" ] && break
  sleep 0.1
done
[ -n "$url" ] || { echo "p2hd never came up"; cat "$tmp/p2hd.log"; exit 1; }

echo "== p2hd: healthz + search + search_batch + insert/delete + snapshot + metrics"
curl -fsS "$url/healthz" | grep '"indexes":2' >/dev/null || { echo "healthz failed"; exit 1; }

dim=$(curl -fsS "$url/v1/indexes/trees" | sed -n 's/.*"dim":\([0-9]*\).*/\1/p')
q="[1$(for _ in $(seq 2 $((dim + 1))); do printf ',0'; done)]"
# The same query as Go clients send it: a JSON string of standard padded
# base64 over the little-endian float32 bytes (1.0 is 00 00 80 3f, then dim
# zeros). Either form must get the same answer bytes.
qb64="\"$({ printf '\000\000\200\077'; head -c $((4 * dim)) /dev/zero; } | base64 -w0)\""
curl -fsS -X POST "$url/v1/indexes/trees/search" -d "{\"query\":$q,\"k\":3}" >"$tmp/ans-dec"
grep '"results":\[{' "$tmp/ans-dec" >/dev/null || { echo "search failed"; exit 1; }
curl -fsS -X POST "$url/v1/indexes/trees/search" -d "{\"query\":$qb64,\"k\":3}" >"$tmp/ans-b64"
cmp -s "$tmp/ans-dec" "$tmp/ans-b64" \
  || { echo "base64 search answer differs from decimal"; cat "$tmp/ans-dec" "$tmp/ans-b64"; exit 1; }
curl -fsS -X POST "$url/v1/indexes/trees/search_batch" -d "{\"queries\":[$q,$q],\"k\":2}" >"$tmp/ans-dec"
grep '"results":\[\[' "$tmp/ans-dec" >/dev/null || { echo "search_batch failed"; exit 1; }
curl -fsS -X POST "$url/v1/indexes/trees/search_batch" -d "{\"queries\":[$qb64,$qb64],\"k\":2}" >"$tmp/ans-b64"
cmp -s "$tmp/ans-dec" "$tmp/ans-b64" \
  || { echo "base64 search_batch answer differs from decimal"; cat "$tmp/ans-dec" "$tmp/ans-b64"; exit 1; }

point="[9$(for _ in $(seq 2 "$dim"); do printf ',0'; done)]"
handle=$(curl -fsS -X POST "$url/v1/indexes/dyn/insert" -d "{\"point\":$point}" \
  | sed -n 's/.*"handle":\([0-9]*\).*/\1/p')
[ -n "$handle" ] || { echo "insert failed"; exit 1; }
curl -fsS -X DELETE "$url/v1/indexes/dyn/points/$handle" \
  | grep '"deleted":true' >/dev/null || { echo "delete point failed"; exit 1; }
# Mutating the immutable index maps onto 405/immutable.
code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST "$url/v1/indexes/trees/insert" -d "{\"point\":$point}")
[ "$code" = 405 ] || { echo "immutable insert returned $code, want 405"; exit 1; }

curl -fsS -X POST "$url/v1/indexes/dyn/snapshot" -d "{\"path\":\"$tmp/dyn-snap.p2h\"}" \
  | grep '"bytes":' >/dev/null || { echo "snapshot failed"; exit 1; }
[ -s "$tmp/dyn-snap.p2h" ] || { echo "snapshot file missing"; exit 1; }

echo "== p2hd: hot reload the snapshot and keep serving"
curl -fsS -X POST "$url/v1/indexes/dyn" -d "{\"path\":\"$tmp/dyn-snap.p2h\",\"replace\":true}" \
  | grep '"kind":"dynamic"' >/dev/null || { echo "hot reload failed"; exit 1; }
curl -fsS -X POST "$url/v1/indexes/dyn/search" -d "{\"query\":$q,\"k\":1}" \
  | grep '"results":\[{' >/dev/null || { echo "post-reload search failed"; exit 1; }

curl -fsS "$url/metrics" | grep 'p2hd_index_queries_total{index="trees"' >/dev/null \
  || { echo "metrics missing index counters"; exit 1; }
curl -fsS "$url/metrics" | grep 'p2hd_http_request_duration_seconds_bucket' >/dev/null \
  || { echo "metrics missing latency histogram"; exit 1; }

echo "== p2hd: graceful drain on SIGTERM"
kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "p2hd exited non-zero"; cat "$tmp/p2hd.log"; exit 1; }
daemon_pid=""
grep "p2hd: drained" "$tmp/p2hd.log" >/dev/null || { echo "p2hd did not drain"; cat "$tmp/p2hd.log"; exit 1; }

echo "== p2hd: durable dynamic — mutate, kill -9, restart, recover"
"$bin/p2htool" build -index dynamic -spec '{"leaf_size":50}' -seed 1 -data "$data" -out "$tmp/durable.p2h"
"$bin/p2hd" -listen 127.0.0.1:0 -name live -load "$tmp/durable.p2h" -wal -walsync always -compact \
  >"$tmp/p2hd-wal.log" 2>&1 &
daemon_pid=$!
url=""
for _ in $(seq 1 100); do
  url="$(sed -n 's|.*listening on \(http://[0-9.:]*\).*|\1|p' "$tmp/p2hd-wal.log" | head -1)"
  [ -n "$url" ] && break
  sleep 0.1
done
[ -n "$url" ] || { echo "durable p2hd never came up"; cat "$tmp/p2hd-wal.log"; exit 1; }

n0=$(curl -fsS "$url/v1/indexes/live" | sed -n 's/.*"n":\([0-9]*\).*/\1/p')
h1=$(curl -fsS -X POST "$url/v1/indexes/live/insert" -d "{\"point\":$point}" \
  | sed -n 's/.*"handle":\([0-9]*\).*/\1/p')
h2=$(curl -fsS -X POST "$url/v1/indexes/live/insert" -d "{\"point\":$point}" \
  | sed -n 's/.*"handle":\([0-9]*\).*/\1/p')
h3=$(curl -fsS -X POST "$url/v1/indexes/live/insert" -d "{\"point\":$point}" \
  | sed -n 's/.*"handle":\([0-9]*\).*/\1/p')
[ -n "$h1" ] && [ -n "$h2" ] && [ -n "$h3" ] || { echo "durable insert failed"; exit 1; }

kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""

"$bin/p2hd" -listen 127.0.0.1:0 -name live -load "$tmp/durable.p2h" -wal -walsync always -compact \
  >"$tmp/p2hd-wal2.log" 2>&1 &
daemon_pid=$!
url=""
for _ in $(seq 1 100); do
  url="$(sed -n 's|.*listening on \(http://[0-9.:]*\).*|\1|p' "$tmp/p2hd-wal2.log" | head -1)"
  [ -n "$url" ] && break
  sleep 0.1
done
[ -n "$url" ] || { echo "durable p2hd never came back"; cat "$tmp/p2hd-wal2.log"; exit 1; }

info="$(curl -fsS "$url/v1/indexes/live")"
grep "\"n\":$((n0 + 3))" >/dev/null <<<"$info" || { echo "acked inserts lost across kill -9: $info"; exit 1; }
grep '"replayed":3' >/dev/null <<<"$info" || { echo "WAL replay count wrong: $info"; exit 1; }
curl -fsS "$url/healthz" | grep '"wal_replayed_records":3' >/dev/null \
  || { echo "healthz does not report replay completion"; exit 1; }
curl -fsS -X POST "$url/v1/indexes/live/search" -d "{\"query\":$q,\"k\":1}" \
  | grep '"results":\[{' >/dev/null || { echo "post-recovery search failed"; exit 1; }
curl -fsS -X DELETE "$url/v1/indexes/live/points/$h2" \
  | grep '"deleted":true' >/dev/null || { echo "recovered handle not live"; exit 1; }

echo "== p2hd: snapshot absorbs the write-ahead log"
curl -fsS -X POST "$url/v1/indexes/live/snapshot" -d "{\"path\":\"$tmp/durable.p2h\"}" \
  | grep '"bytes":' >/dev/null || { echo "durable snapshot failed"; exit 1; }
curl -fsS "$url/v1/indexes/live" | grep '"records":0' >/dev/null \
  || { echo "snapshot did not truncate the WAL"; exit 1; }
kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "durable p2hd exited non-zero"; cat "$tmp/p2hd-wal2.log"; exit 1; }
daemon_pid=""

echo "== p2hd: chaos — injected faults, flood, shed, recover, no acked loss"
# A deliberately tiny daemon (one worker, two queue slots) under injected
# slow fsyncs and slow searches: a flood must split into clean 200s and
# 429s, the shed counter must surface in /metrics, and inserts acked during
# the chaos must survive a kill -9 with the faults gone.
"$bin/p2htool" build -index dynamic -spec '{"leaf_size":50}' -seed 1 -data "$data" -out "$tmp/chaos.p2h"
P2HD_FAULTS="wal.fsync=delay:2ms;engine.search=delay:10ms" \
  "$bin/p2hd" -listen 127.0.0.1:0 -name chaos -load "$tmp/chaos.p2h" -wal -walsync always \
  -workers 1 -cache=-1 -maxqueue 2 -maxtimeout 5s \
  >"$tmp/p2hd-chaos.log" 2>&1 &
daemon_pid=$!
url=""
for _ in $(seq 1 100); do
  url="$(sed -n 's|.*listening on \(http://[0-9.:]*\).*|\1|p' "$tmp/p2hd-chaos.log" | head -1)"
  [ -n "$url" ] && break
  sleep 0.1
done
[ -n "$url" ] || { echo "chaos p2hd never came up"; cat "$tmp/p2hd-chaos.log"; exit 1; }
grep "fault injection armed" "$tmp/p2hd-chaos.log" >/dev/null \
  || { echo "faults not armed"; cat "$tmp/p2hd-chaos.log"; exit 1; }

: >"$tmp/chaos-codes"
flood_pids=()
for i in $(seq 1 24); do
  curl -sS -o /dev/null -w '%{http_code}\n' -X POST "$url/v1/indexes/chaos/search" \
    -d "{\"query\":$q,\"k\":1}" >>"$tmp/chaos-codes" &
  flood_pids+=($!)
done
wait "${flood_pids[@]}"
grep -q '^200$' "$tmp/chaos-codes" || { echo "flood: nothing served"; sort "$tmp/chaos-codes" | uniq -c; exit 1; }
grep -q '^429$' "$tmp/chaos-codes" || { echo "flood: nothing shed"; sort "$tmp/chaos-codes" | uniq -c; exit 1; }
if grep -Eqv '^(200|429)$' "$tmp/chaos-codes"; then
  echo "flood: unexpected status"; sort "$tmp/chaos-codes" | uniq -c; exit 1
fi
curl -fsS "$url/metrics" | grep -E 'p2hd_index_shed_total\{index="chaos"[^}]*\} [1-9]' >/dev/null \
  || { echo "metrics missing shed count"; exit 1; }
# Flood over: the very next request is served.
curl -fsS -X POST "$url/v1/indexes/chaos/search" -d "{\"query\":$q,\"k\":1}" \
  | grep '"results":\[{' >/dev/null || { echo "post-flood search failed"; exit 1; }

cn0=$(curl -fsS "$url/v1/indexes/chaos" | sed -n 's/.*"n":\([0-9]*\).*/\1/p')
for i in 1 2 3; do
  h=$(curl -fsS -X POST "$url/v1/indexes/chaos/insert" -d "{\"point\":$point}" \
    | sed -n 's/.*"handle":\([0-9]*\).*/\1/p')
  [ -n "$h" ] || { echo "chaos insert $i failed"; exit 1; }
done
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""

"$bin/p2hd" -listen 127.0.0.1:0 -name chaos -load "$tmp/chaos.p2h" -wal -walsync always \
  >"$tmp/p2hd-chaos2.log" 2>&1 &
daemon_pid=$!
url=""
for _ in $(seq 1 100); do
  url="$(sed -n 's|.*listening on \(http://[0-9.:]*\).*|\1|p' "$tmp/p2hd-chaos2.log" | head -1)"
  [ -n "$url" ] && break
  sleep 0.1
done
[ -n "$url" ] || { echo "chaos p2hd never came back"; cat "$tmp/p2hd-chaos2.log"; exit 1; }
info="$(curl -fsS "$url/v1/indexes/chaos")"
grep "\"n\":$((cn0 + 3))" >/dev/null <<<"$info" \
  || { echo "acked inserts lost across chaos kill -9: $info"; exit 1; }
grep '"replayed":3' >/dev/null <<<"$info" || { echo "chaos WAL replay count wrong: $info"; exit 1; }
kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "chaos p2hd exited non-zero"; cat "$tmp/p2hd-chaos2.log"; exit 1; }
daemon_pid=""

echo "== cluster: split, boot 3 members + router, verify byte-identity with single node"
# The same spec the single-node sharded container above was built with, so
# the routed cluster and the single daemon serve the same logical index and
# must answer byte-identically.
cdir="$tmp/cluster"
"$bin/p2htool" cluster split -data "$data" -name trees \
  -spec '{"leaf_size":50,"shards":3,"workers":2,"seed":1}' \
  -attrs "$attrs" -members 3 -replicas 1 -out "$cdir" >/dev/null

for i in 0 1 2; do
  ( cd "$cdir" && exec "$bin/p2hd" -listen 127.0.0.1:0 -config "member-m$i.json" ) \
    >"$tmp/member-m$i.log" 2>&1 &
  cluster_pids+=($!)
done
for i in 0 1 2; do
  murl=""
  for _ in $(seq 1 100); do
    murl="$(sed -n 's|.*listening on \(http://[0-9.:]*\).*|\1|p' "$tmp/member-m$i.log" | head -1)"
    [ -n "$murl" ] && break
    sleep 0.1
  done
  [ -n "$murl" ] || { echo "member m$i never came up"; cat "$tmp/member-m$i.log"; exit 1; }
  sed -i "s|@m$i@|$murl|" "$cdir/cluster.json"
done

"$bin/p2hd" -mode router -listen 127.0.0.1:0 -config "$cdir/cluster.json" \
  >"$tmp/router.log" 2>&1 &
cluster_pids+=($!)
rurl=""
for _ in $(seq 1 100); do
  rurl="$(sed -n 's|.*listening on \(http://[0-9.:]*\).*|\1|p' "$tmp/router.log" | head -1)"
  [ -n "$rurl" ] && break
  sleep 0.1
done
[ -n "$rurl" ] || { echo "router never came up"; cat "$tmp/router.log"; exit 1; }

# Single-node oracle: the ix-sharded.p2h container built earlier with the
# same spec, served by one daemon.
"$bin/p2hd" -listen 127.0.0.1:0 -name trees -load "$tmp/ix-sharded.p2h" \
  >"$tmp/oracle.log" 2>&1 &
cluster_pids+=($!)
ourl=""
for _ in $(seq 1 100); do
  ourl="$(sed -n 's|.*listening on \(http://[0-9.:]*\).*|\1|p' "$tmp/oracle.log" | head -1)"
  [ -n "$ourl" ] && break
  sleep 0.1
done
[ -n "$ourl" ] || { echo "oracle daemon never came up"; cat "$tmp/oracle.log"; exit 1; }

curl -fsS "$rurl/healthz" | grep '"status":"ok"' >/dev/null \
  || { echo "router unhealthy"; curl -sS "$rurl/healthz"; exit 1; }
curl -fsS "$rurl/v1/indexes/trees" | grep '"kind":"cluster"' >/dev/null \
  || { echo "router index info wrong"; exit 1; }

# The router answers the decimal and the base64 form with the single node's
# decimal-form bytes.
for opts in '"k":5' '"k":5,"budget":200' '"k":9999' '"k":5,"filter":{"tag":"hot"}' \
            '"k":5,"filter":{"and":[{"tag":"even"},{"field":"score","min":0.5}]}'; do
  curl -fsS -X POST "$ourl/v1/indexes/trees/search" -d "{\"query\":$q,$opts}" >"$tmp/ans-oracle"
  for form in "$q" "$qb64"; do
    curl -fsS -X POST "$rurl/v1/indexes/trees/search" -d "{\"query\":$form,$opts}" >"$tmp/ans-router"
    cmp -s "$tmp/ans-oracle" "$tmp/ans-router" \
      || { echo "router answer differs from single node for {\"query\":$form,$opts}"; cat "$tmp/ans-oracle" "$tmp/ans-router"; exit 1; }
  done
done
# The selective predicate must actually prune subtrees, not just post-filter.
grep '"filter_skipped_nodes":[1-9]' "$tmp/ans-router" >/dev/null \
  || { echo "routed filtered search skipped no subtrees"; cat "$tmp/ans-router"; exit 1; }
code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST "$rurl/v1/indexes/trees/search" \
  -d "{\"query\":$q,\"k\":5,\"filter\":{\"bogus\":1}}")
[ "$code" = 400 ] || { echo "malformed filter answered $code, want 400"; exit 1; }
curl -fsS -X POST "$ourl/v1/indexes/trees/search_batch" -d "{\"queries\":[$q,$q],\"k\":4}" >"$tmp/ans-oracle"
for form in "$q" "$qb64"; do
  curl -fsS -X POST "$rurl/v1/indexes/trees/search_batch" -d "{\"queries\":[$form,$form],\"k\":4}" >"$tmp/ans-router"
  cmp -s "$tmp/ans-oracle" "$tmp/ans-router" || { echo "router batch answer differs for $form"; exit 1; }
done
curl -fsS -X POST "$ourl/v1/indexes/trees/search_batch" -d "{\"queries\":[$q,$q],\"k\":4,\"filter\":{\"tag\":\"warm\"}}" >"$tmp/ans-oracle"
curl -fsS -X POST "$rurl/v1/indexes/trees/search_batch" -d "{\"queries\":[$q,$q],\"k\":4,\"filter\":{\"tag\":\"warm\"}}" >"$tmp/ans-router"
cmp -s "$tmp/ans-oracle" "$tmp/ans-router" || { echo "router filtered batch answer differs"; exit 1; }

echo "== cluster: status, ship"
out="$("$bin/p2htool" cluster status -config "$cdir/cluster.json")"
grep "healthy" >/dev/null <<<"$out" || { echo "cluster status shows no healthy member"; echo "$out"; exit 1; }
grep "primary" >/dev/null <<<"$out" || { echo "cluster status shows no placement"; echo "$out"; exit 1; }
curl -fsS -X POST "$rurl/v1/cluster/ship" -d '{"index":"trees"}' \
  | grep '"ok":true' >/dev/null || { echo "ship failed"; exit 1; }

echo "== cluster: kill a member, searches keep answering off the replica"
kill -9 "${cluster_pids[0]}"
wait "${cluster_pids[0]}" 2>/dev/null || true
for i in $(seq 1 8); do
  code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST "$rurl/v1/indexes/trees/search" -d "{\"query\":$q,\"k\":5}")
  [ "$code" = 200 ] || { echo "search $i after member kill returned $code"; cat "$tmp/router.log"; exit 1; }
done
curl -fsS -X POST "$rurl/v1/indexes/trees/search" -d "{\"query\":$q,\"k\":5}" >"$tmp/ans-router"
curl -fsS -X POST "$ourl/v1/indexes/trees/search" -d "{\"query\":$q,\"k\":5}" >"$tmp/ans-oracle"
cmp -s "$tmp/ans-oracle" "$tmp/ans-router" || { echo "replica answer differs from single node"; exit 1; }
sleep 1.2   # a probe round marks the member down
curl -fsS "$rurl/healthz" | grep '"status":"degraded"' >/dev/null \
  || { echo "router healthz not degraded after member kill"; curl -sS "$rurl/healthz"; exit 1; }
curl -fsS "$rurl/metrics" | grep 'p2hd_router_member_state{member="m0"} 4' >/dev/null \
  || { echo "metrics do not mark m0 down"; exit 1; }

echo "smoke OK"
