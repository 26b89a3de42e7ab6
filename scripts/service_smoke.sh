#!/usr/bin/env bash
# service_smoke.sh — end-to-end smoke test of the vbmcd daemon.
#
# Starts vbmcd on an ephemeral port with a temp disk store, runs the
# same vbmc -remote sweep twice and asserts:
#
#   1. the two passes produce byte-identical verdicts (and witness
#      digests) for every benchmark;
#   2. the second pass is answered ≥90% from the cache, measured by
#      scraping ravbmc_cache_{hits,subsumed_hits}_total off /metrics;
#   3. the ravbmc_serve_request_seconds and ravbmc_cache_lookup_seconds
#      histogram families are present on /metrics and were observed;
#   4. the run ledger works end to end: /v1/runs lists the sweep's
#      runs, /v1/runs/{id} returns a record with a span tree, and the
#      -run-log audit file is non-empty;
#   5. the SSE event stream works both ways: a completed run's
#      /v1/runs/{id}/events replays ≥1 search frame and ends with a
#      done frame, and a live in-flight run (addressed by its
#      client_ref alias) streams ≥1 search frame mid-run;
#   6. the same rows posted as one POST /v1/batch come back ok, each
#      item with the verdict the vbmc -remote sweep reported and every
#      UNSAFE item with the SHA-256 of the witness the sweep received;
#   7. a SIGTERM delivered while a long verification is in flight
#      drains gracefully: the daemon exits 0 and logs "drained, bye".
#
# Usage:
#   scripts/service_smoke.sh
#   SMOKE_TIMEOUT=60 scripts/service_smoke.sh   # per-request budget (s)
set -euo pipefail
cd "$(dirname "$0")/.."

req_timeout="${SMOKE_TIMEOUT:-30}"
tmp="$(mktemp -d)"
daemon_pid=""
trap '[ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null; rm -rf "$tmp"' EXIT

go build -o "$tmp/vbmcd" ./cmd/vbmcd
go build -o "$tmp/vbmc" ./cmd/vbmc

"$tmp/vbmcd" -addr 127.0.0.1:0 -disk "$tmp/cache.jsonl" -drain-grace 5s \
  -run-log "$tmp/runs.jsonl" \
  >"$tmp/vbmcd.out" 2>"$tmp/vbmcd.err" &
daemon_pid=$!

base=""
for _ in $(seq 1 100); do
  base="$(sed -n 's/^vbmcd listening on //p' "$tmp/vbmcd.out")"
  [ -n "$base" ] && break
  kill -0 "$daemon_pid" 2>/dev/null || { cat "$tmp/vbmcd.err" >&2; exit 1; }
  sleep 0.1
done
[ -n "$base" ] || { echo "FAIL: daemon never printed its address" >&2; exit 1; }
echo "daemon up at $base (pid $daemon_pid)" >&2

# The quick Tables 1-2 rows: "bench k l" triples at the paper's bounds.
sweep_rows() {
  cat <<'EOF'
dekker 2 2
peterson_0 2 2
sim_dekker 2 2
peterson_1(3) 4 2
szymanski_1(3) 2 2
szymanski_1(4) 2 2
EOF
}

# sweep FILE — run every row through vbmc -remote, recording one stable
# line per row: bench, verdict, state count and witness digest. Timing
# fields are deliberately excluded so the two passes can be compared
# byte for byte.
sweep() {
  : >"$1"
  while read -r bench k l; do
    # vbmc exits 1 for UNSAFE; that's a verdict, not a failure.
    "$tmp/vbmc" -remote "$base" -bench "$bench" -k "$k" -l "$l" \
      -timeout "${req_timeout}s" -json >"$tmp/resp.json" || true
    jq -r --arg b "$bench" \
      '[$b, .verdict, (.states // 0), (.witness_jsonl // "" | @base64)] | @tsv' \
      "$tmp/resp.json" >>"$1"
  done < <(sweep_rows)
}

scrape() { # scrape METRIC — current counter value (0 if absent)
  curl -fsS "$base/metrics" | awk -v m="$1" '$1 == m { print $2; found = 1 } END { if (!found) print 0 }'
}

sweep "$tmp/pass1.tsv"
h1=$(( $(scrape ravbmc_cache_hits_total) + $(scrape ravbmc_cache_subsumed_hits_total) ))
sweep "$tmp/pass2.tsv"
h2=$(( $(scrape ravbmc_cache_hits_total) + $(scrape ravbmc_cache_subsumed_hits_total) ))

if ! cmp -s "$tmp/pass1.tsv" "$tmp/pass2.tsv"; then
  echo "FAIL: cold and warm sweeps disagree:" >&2
  diff "$tmp/pass1.tsv" "$tmp/pass2.tsv" >&2 || true
  exit 1
fi
grep -q 'UNSAFE' "$tmp/pass1.tsv" || { echo "FAIL: sweep found no UNSAFE verdicts" >&2; exit 1; }

rows=$(sweep_rows | wc -l)
hits=$((h2 - h1))
# ≥90% of the warm pass must be cache-answered (integer math: 10*hits ≥ 9*rows).
if [ $((10 * hits)) -lt $((9 * rows)) ]; then
  echo "FAIL: warm pass made $rows requests but only $hits were cache hits" >&2
  curl -fsS "$base/metrics" | grep '^ravbmc_cache' >&2
  exit 1
fi
echo "warm pass: $hits/$rows cache hits" >&2

[ -s "$tmp/cache.jsonl" ] || { echo "FAIL: disk store is empty" >&2; exit 1; }

# Observability: the latency histogram families must exist on /metrics
# with proper HELP/TYPE lines and a non-zero observation count.
metrics="$(curl -fsS "$base/metrics")"
for fam in ravbmc_serve_request_seconds ravbmc_cache_lookup_seconds; do
  grep -q "^# HELP $fam " <<<"$metrics" || { echo "FAIL: /metrics lacks HELP for $fam" >&2; exit 1; }
  grep -q "^# TYPE $fam histogram" <<<"$metrics" || { echo "FAIL: /metrics lacks $fam histogram family" >&2; exit 1; }
  cnt="$(awk -v m="${fam}_count" '$1 == m { print $2 }' <<<"$metrics")"
  [ "${cnt:-0}" -gt 0 ] || { echo "FAIL: $fam never observed (count=${cnt:-absent})" >&2; exit 1; }
done
echo "latency histograms present and populated" >&2

# Run ledger: the sweep's runs must be listed, the newest run's detail
# record must carry a span tree, and the audit log must be non-empty.
run_id="$(curl -fsS "$base/v1/runs?n=1" | jq -r '.runs[0].id // empty')"
[ -n "$run_id" ] || { echo "FAIL: /v1/runs returned no runs" >&2; exit 1; }
curl -fsS "$base/v1/runs/$run_id" | jq -e '(.spans | length) > 0 and .status == "done"' >/dev/null \
  || { echo "FAIL: /v1/runs/$run_id has no span tree" >&2; exit 1; }
[ -s "$tmp/runs.jsonl" ] || { echo "FAIL: run log is empty" >&2; exit 1; }
grep -q "\"id\":\"$run_id\"" "$tmp/runs.jsonl" || {
  echo "FAIL: run $run_id missing from the audit log" >&2; exit 1; }
echo "run ledger OK (latest run $run_id, audit log $(wc -l <"$tmp/runs.jsonl") lines)" >&2

# SSE replay: a completed run's event stream must carry at least one
# search frame (the sampler's terminal sample at minimum) and exactly
# one terminal done frame.
curl -sN --max-time 10 "$base/v1/runs/$run_id/events" >"$tmp/replay.sse" || true
grep -q '^event: search' "$tmp/replay.sse" || {
  echo "FAIL: completed-run SSE replay has no search frame:" >&2
  cat "$tmp/replay.sse" >&2; exit 1; }
[ "$(grep -c '^event: done' "$tmp/replay.sse")" -eq 1 ] || {
  echo "FAIL: completed-run SSE replay lacks a single done frame" >&2
  cat "$tmp/replay.sse" >&2; exit 1; }
echo "SSE replay OK ($(grep -c '^event: search' "$tmp/replay.sse") search frames)" >&2

# Live SSE: park a long verification carrying a client_ref alias and
# stream its events mid-flight — at least one search frame must arrive
# while the run executes. Killing the parked POST disconnects its
# request context, which cancels the run server-side.
curl -fsS -X POST "$base/v1/verify" -H 'Content-Type: application/json' \
  -d '{"bench":"peterson_4(3)","mode":"vbmc","k":2,"unroll":1,"timeout_seconds":120,"client_ref":"smoke-live-1"}' \
  >/dev/null 2>&1 &
live_pid=$!
live_ok=""
for _ in $(seq 1 25); do
  curl -sN --max-time 3 "$base/v1/runs/smoke-live-1/events" >"$tmp/live.sse" 2>/dev/null || true
  if grep -q '^event: search' "$tmp/live.sse"; then live_ok=1; break; fi
  kill -0 "$live_pid" 2>/dev/null || break
  sleep 0.2
done
kill "$live_pid" 2>/dev/null || true
wait "$live_pid" 2>/dev/null || true
[ -n "$live_ok" ] || {
  echo "FAIL: no live search frame arrived on the in-flight stream:" >&2
  cat "$tmp/live.sse" >&2; exit 1; }
echo "live SSE OK (in-flight stream delivered search frames)" >&2

# Batch: the sweep rows as one /v1/batch. Every item must succeed with
# the verdict the vbmc -remote pass reported for its row, and every
# UNSAFE item must carry the digest of the witness that pass received.
batch_payload() {
  sweep_rows | jq -Rs --argjson t "$req_timeout" '
    {items: [split("\n")[] | select(length > 0) | split(" ") |
      {bench: .[0], mode: "vbmc", k: (.[1] | tonumber),
       unroll: (.[2] | tonumber), timeout_seconds: $t}]}'
}

# run_batch BASE OUT.tsv RESP.json — POST the sweep as one batch and
# extract one row per item: bench, verdict, witness digest.
run_batch() {
  batch_payload | curl -fsS -X POST "$1/v1/batch" \
    -H 'Content-Type: application/json' -d @- >"$3"
  jq -e '.ok == true' "$3" >/dev/null || {
    echo "FAIL: batch against $1 not ok:" >&2
    jq '{ok, failed, items: [.items[] | select(.status != 200)]}' "$3" >&2
    exit 1
  }
  jq -r '.items | sort_by(.index)[] |
    [.program, .verdict // "", (.witness_sha256 // "")] | @tsv' \
    "$3" >"$2"
}

run_batch "$base" "$tmp/batch.tsv" "$tmp/batch.json"
if ! cmp -s <(cut -f2 "$tmp/pass1.tsv") <(cut -f2 "$tmp/batch.tsv"); then
  echo "FAIL: batch verdicts differ from the vbmc -remote sweep:" >&2
  paste <(cut -f1,2 "$tmp/pass1.tsv") <(cut -f2 "$tmp/batch.tsv") >&2
  exit 1
fi
if awk -F'\t' '$2 == "UNSAFE" && $3 == "" { bad = 1 } END { exit !bad }' "$tmp/batch.tsv"; then
  echo "FAIL: an UNSAFE batch item carries no witness_sha256:" >&2
  cat "$tmp/batch.tsv" >&2
  exit 1
fi
# The batch is answered from the warm cache, so each digest is that of
# the witness the sweep received.
while IFS=$'\t' read -r _ _ _ w64; do
  [ -n "$w64" ] && printf '%s' "$w64" | base64 -d | sha256sum | cut -d' ' -f1 || echo
done <"$tmp/pass1.tsv" >"$tmp/pass1.sha"
if ! cmp -s "$tmp/pass1.sha" <(cut -f3 "$tmp/batch.tsv"); then
  echo "FAIL: batch witness digests differ from the sweep's witnesses:" >&2
  paste "$tmp/pass1.sha" <(cut -f3 "$tmp/batch.tsv") >&2
  exit 1
fi
echo "batch OK ($(wc -l <"$tmp/batch.tsv") items, verdicts match the sweep)" >&2

# Graceful drain under fire: park a long verification on the daemon,
# then SIGTERM it mid-run. The daemon must exit 0 within the grace.
"$tmp/vbmc" -remote "$base" -bench 'peterson_4(3)' -k 2 -l 1 -timeout 120s \
  >/dev/null 2>&1 || true &
client_pid=$!
sleep 1
kill -TERM "$daemon_pid"
rc=0
wait "$daemon_pid" || rc=$?
daemon_pid=""
wait "$client_pid" 2>/dev/null || true
if [ "$rc" -ne 0 ]; then
  echo "FAIL: daemon exited $rc after SIGTERM" >&2
  cat "$tmp/vbmcd.err" >&2
  exit 1
fi
grep -q 'drained, bye' "$tmp/vbmcd.err" || {
  echo "FAIL: daemon never reported a clean drain" >&2
  cat "$tmp/vbmcd.err" >&2
  exit 1
}

echo "service smoke OK: $rows rows byte-identical across passes, $hits warm hits, batch verdicts match, clean drain" >&2
