#!/usr/bin/env bash
# bench_snapshot.sh — record a VBMC performance trajectory point.
#
# Runs `vbmc -json` over the paper's Table 1 benchmarks (the unfenced
# mutual-exclusion protocols, K=2, L=2) and writes the run reports as a
# JSON array to BENCH_vbmc.json at the repo root. Each report carries
# the verdict, per-phase wall times and all engine counters, so future
# PRs can diff states/sec, dedup hit rate and probe behaviour against
# this snapshot.
#
# Every benchmark is run four times: once plainly, once with
# -trace-out (witness export + view capture during replay), once with
# -span-out (span-tree phase tracing) and once with -sample-interval
# 250ms (live search-telemetry sampling). The sweeps' reports carry
# config.trace / config.spans / config.sampling = "enabled"
# respectively, so diffing seconds between the sweeps measures each
# overhead: witness tracing should be confined to the
# lift/replay/export phases, span tracing should be unmeasurable —
# spans piggyback on the existing phase instrumentation, off the
# search hot path — and sampling should stay within ~2%: the engines
# flush a handful of atomics per kilostep and the sampler polls them
# from its own goroutine.
#
# A reduction sweep then pairs plain and -reduce runs over an
# UNSAFE/SAFE benchmark mix and appends a "reduce" entry per SAFE
# benchmark with the full/reduced sc.states counts and their ratio —
# the source-DPOR reduction factor on the recording machine.
#
# After the per-benchmark reports, the quick Tables 1-4 sweep is run
# twice through cmd/ratables — once serial (-jobs 1), once with one
# worker per CPU (-jobs 0) — and both wall-clock times are appended as
# "ratables" entries, so the snapshot records the scheduler's speedup
# on the recording machine (a 1-core runner legitimately shows none).
#
# Next the quick Tables 1-2 rows are swept twice through a vbmcd
# daemon (temp disk store, ephemeral port) via vbmc -remote: the cold
# pass computes and memoizes every cell, the warm pass repeats the
# identical requests and must be answered from the content-addressed
# cache. Both wall-clock times land as "vbmcd" entries together with
# the speedup, so the snapshot records how much the result cache buys
# on the recording machine (acceptance: warm ≥5x faster than cold).
#
# The same rows are then swept as one POST /v1/batch against a fresh
# daemon, cold and then warm; both passes land as "vbmcd" entries on
# the "tables_1-2_quick_batch" bench with their wall seconds.
#
# Finally BenchmarkDedupModes is run (serial, -benchmem) and each
# sub-benchmark line is appended as a "dedup" entry with ns/op, B/op,
# allocs/op and (for ra/sc) states/s — the before/after record for the
# fingerprinted-visited-set work: comparing the fingerprint and exact
# rows of one snapshot shows the win on the recording machine, and
# comparing snapshots across PRs shows the trajectory.
#
# Usage:
#   scripts/bench_snapshot.sh            # 60s per-run budget
#   VBMC_TIMEOUT=10s scripts/bench_snapshot.sh
#   VBMC_OUT=/tmp/b.json scripts/bench_snapshot.sh
set -euo pipefail
cd "$(dirname "$0")/.."

out="${VBMC_OUT:-BENCH_vbmc.json}"
timeout="${VBMC_TIMEOUT:-60s}"
table_timeout="${RATABLES_TIMEOUT:-10s}"
benches=(bakery burns dekker lamport peterson_0 'peterson_0(3)' sim_dekker szymanski_0)
tracedir="$(mktemp -d)"
trap 'rm -rf "$tracedir"' EXIT

go build -o /tmp/vbmc-bench ./cmd/vbmc
go build -o /tmp/ratables-bench ./cmd/ratables
go build -o /tmp/vbmcd-bench ./cmd/vbmcd

# table_sweep jobs — quick Tables 1-4 at the given pool width, printing
# the elapsed wall-clock seconds.
table_sweep() {
  local t0 t1
  t0=$(date +%s%N)
  for t in 1 2 3 4; do
    /tmp/ratables-bench -table "$t" -quick -timeout "$table_timeout" -jobs "$1" >/dev/null
  done
  t1=$(date +%s%N)
  awk -v ns=$((t1 - t0)) 'BEGIN { printf "%.3f", ns / 1e9 }'
}

# remote_sweep base — the quick Tables 1-2 rows through a vbmcd daemon,
# printing the elapsed wall-clock seconds.
remote_sweep() {
  local t0 t1
  t0=$(date +%s%N)
  while read -r b bk bl; do
    /tmp/vbmc-bench -remote "$1" -bench "$b" -k "$bk" -l "$bl" \
      -timeout "$table_timeout" >/dev/null || true
  done <<'EOF'
dekker 2 2
peterson_0 2 2
sim_dekker 2 2
peterson_1(3) 4 2
szymanski_1(3) 2 2
szymanski_1(4) 2 2
EOF
  t1=$(date +%s%N)
  awk -v ns=$((t1 - t0)) 'BEGIN { printf "%.3f", ns / 1e9 }'
}

# batch_sweep base — the same rows as one POST /v1/batch, printing the
# elapsed wall-clock seconds.
batch_sweep() {
  local t0 t1
  t0=$(date +%s%N)
  jq -Rs --argjson t "${table_timeout%s}" '
    {items: [split("\n")[] | select(length > 0) | split(" ") |
      {bench: .[0], mode: "vbmc", k: (.[1] | tonumber),
       unroll: (.[2] | tonumber), timeout_seconds: $t}]}' <<'EOF' |
dekker 2 2
peterson_0 2 2
sim_dekker 2 2
peterson_1(3) 4 2
szymanski_1(3) 2 2
szymanski_1(4) 2 2
EOF
    curl -fsS -X POST "$1/v1/batch" -H 'Content-Type: application/json' -d @- >/dev/null
  t1=$(date +%s%N)
  awk -v ns=$((t1 - t0)) 'BEGIN { printf "%.3f", ns / 1e9 }'
}

# start_daemon DIR — launch vbmcd with a disk store in DIR on an
# ephemeral port, setting daemon (its pid) and base (its URL).
start_daemon() {
  /tmp/vbmcd-bench -addr 127.0.0.1:0 -disk "$1/cache.jsonl" \
    >"$1/vbmcd.out" 2>"$1/vbmcd.err" &
  daemon=$!
  base=""
  for _ in $(seq 1 100); do
    base="$(sed -n 's/^vbmcd listening on //p' "$1/vbmcd.out")"
    [ -n "$base" ] && break
    sleep 0.1
  done
}

{
  echo '['
  first=1
  for mode in disabled enabled spans sampled; do
    for b in "${benches[@]}"; do
      [ "$first" -eq 1 ] || echo ','
      first=0
      args=(-json -k 2 -l 2 -timeout "$timeout" -bench "$b")
      if [ "$mode" = enabled ]; then
        args+=(-trace-out "$tracedir/${b//[^a-z0-9_]/_}.jsonl")
      elif [ "$mode" = spans ]; then
        args+=(-span-out "$tracedir/${b//[^a-z0-9_]/_}.spans.jsonl")
      elif [ "$mode" = sampled ]; then
        args+=(-sample-interval 250ms)
      fi
      # vbmc exits 1 for UNSAFE / 2 for INCONCLUSIVE; both still emit a
      # report, so don't let set -e kill the sweep.
      /tmp/vbmc-bench "${args[@]}" || true
    done
  done
  # Intra-query parallel sweep: peterson_4 (fenced, SAFE — the search
  # must cover its whole bounded space, so states/s measures raw
  # exploration throughput) at work-stealing widths 1/2/4/8 (0 is the
  # same one-worker pool as 1). Each report carries config.workers; on
  # a multi-core recorder the 4-worker run should show ≥2x the
  # one-worker states/s, while a 1-core runner legitimately shows none
  # (the partest harness guarantees the verdict and census are
  # identical either way).
  for w in 1 2 4 8; do
    echo ','
    /tmp/vbmc-bench -json -k 2 -l 2 -timeout "$timeout" -bench peterson_4 -workers "$w" || true
  done
  # Source-DPOR reduction sweep: each benchmark once plainly and once
  # with -reduce (the -reduce reports carry config.reduce = "enabled").
  # tbar and peterson_4 are SAFE, so both searches exhaust the bounded
  # space and the sc.states ratio between the paired reports IS the
  # reduction factor (~5x and ~6x across the driver's deepening
  # rounds); the unfenced UNSAFE pair stops at its first violation,
  # where only the verdict is comparable, so no factor is recorded. An
  # explicit "reduce" entry records each factor so the trajectory can
  # be read without re-deriving the ratios.
  for b in peterson_0 tbar peterson_4; do
    for r in '' '-reduce'; do
      echo ','
      # shellcheck disable=SC2086 — $r is intentionally word-split
      /tmp/vbmc-bench -json -k 2 -l 2 -timeout "$timeout" -bench "$b" $r \
        >"$tracedir/red-$r-${b//[^a-z0-9_]/_}.json" || true
      cat "$tracedir/red-$r-${b//[^a-z0-9_]/_}.json"
    done
    full=$(sed -n 's/^ *"sc.states": \([0-9]*\).*/\1/p' "$tracedir/red--${b//[^a-z0-9_]/_}.json" | head -1)
    red=$(sed -n 's/^ *"sc.states": \([0-9]*\).*/\1/p' "$tracedir/red--reduce-${b//[^a-z0-9_]/_}.json" | head -1)
    verdict=$(sed -n 's/^ *"verdict": "\([A-Z]*\)".*/\1/p' "$tracedir/red--${b//[^a-z0-9_]/_}.json" | head -1)
    if [ "$verdict" = SAFE ] && [ -n "$full" ] && [ -n "$red" ] && [ "$red" -gt 0 ]; then
      echo ','
      awk -v b="$b" -v f="$full" -v r="$red" 'BEGIN {
        printf "{\"tool\": \"reduce\", \"bench\": \"%s\", \"full_states\": %s, \"reduced_states\": %s, \"factor\": %.2f}\n", b, f, r, f / r
      }'
    fi
  done
  for jobs in 1 0; do
    secs="$(table_sweep "$jobs")"
    echo ','
    printf '{"tool": "ratables", "bench": "tables_1-4_quick", "config": {"jobs": "%s", "timeout": "%s", "cpus": "%s"}, "wall_seconds": %s}\n' \
      "$jobs" "$table_timeout" "$(nproc)" "$secs"
  done
  start_daemon "$tracedir"
  cold="$(remote_sweep "$base")"
  warm="$(remote_sweep "$base")"
  kill "$daemon" 2>/dev/null && wait "$daemon" 2>/dev/null || true
  for pass in cold warm; do
    [ "$pass" = cold ] && secs="$cold" || secs="$warm"
    echo ','
    printf '{"tool": "vbmcd", "bench": "tables_1-2_quick_remote", "config": {"pass": "%s", "timeout": "%s", "cpus": "%s"}, "wall_seconds": %s}\n' \
      "$pass" "$table_timeout" "$(nproc)" "$secs"
  done
  echo ','
  awk -v c="$cold" -v w="$warm" 'BEGIN {
    printf "{\"tool\": \"vbmcd\", \"bench\": \"tables_1-2_quick_remote\", \"config\": {\"pass\": \"speedup\"}, \"cold_over_warm\": %.1f}\n", c / w
  }'
  mkdir -p "$tracedir/batch"
  start_daemon "$tracedir/batch"
  bcold="$(batch_sweep "$base")"
  bwarm="$(batch_sweep "$base")"
  kill "$daemon" 2>/dev/null && wait "$daemon" 2>/dev/null || true
  for pass in cold warm; do
    [ "$pass" = cold ] && secs="$bcold" || secs="$bwarm"
    echo ','
    printf '{"tool": "vbmcd", "bench": "tables_1-2_quick_batch", "config": {"pass": "%s", "timeout": "%s", "cpus": "%s"}, "wall_seconds": %s}\n' \
      "$pass" "$table_timeout" "$(nproc)" "$secs"
  done
  go test -run '^$' -bench BenchmarkDedupModes -benchmem -benchtime "${DEDUP_BENCHTIME:-2s}" . 2>/dev/null |
    awk '/^BenchmarkDedupModes\// {
      name = $1; sub(/^BenchmarkDedupModes\//, "", name); sub(/-[0-9]+$/, "", name)
      ns = ""; bytes = ""; allocs = ""; rate = ""
      for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "B/op") bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
        if ($(i+1) == "states/s") rate = $i
      }
      printf ",\n{\"tool\": \"dedup\", \"bench\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", name, ns, bytes, allocs
      if (rate != "") printf ", \"states_per_sec\": %s", rate
      print "}"
    }'
  echo ']'
} >"$out"

echo "wrote $out ($(grep -c '"tool"' "$out") reports)" >&2
