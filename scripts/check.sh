#!/usr/bin/env bash
# Repository check gate: formatting, lints, and the full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc --workspace --no-deps (no rustdoc or cargo warnings)"
# Cargo replays cached rustdoc diagnostics, so an up-to-date tree still
# reports every warning. A deleted item must not leave a dead link behind.
doc_log=$(cargo doc --workspace --no-deps --offline 2>&1)
if grep -q 'warning:' <<<"$doc_log"; then
  grep -A8 'warning:' <<<"$doc_log" >&2
  echo "cargo doc printed warnings" >&2
  exit 1
fi

echo "==> cargo test -q"
cargo test -q --workspace --offline

echo "==> perfbench builds (the benchmark of record, built against the workspace)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
TSDIST=target/debug/tsdist
cargo build -q --offline -p tsdist-cli

echo "==> examples run (every example under examples/ must exit zero)"
cargo build -q --offline --examples
for src in examples/*.rs; do
  name=$(basename "$src" .rs)
  # ucr_pipeline writes its demo dataset under the temp dir.
  if ! TMPDIR="$SMOKE" "target/debug/examples/$name" >/dev/null 2>"$SMOKE/example.log"; then
    echo "example $name exited non-zero" >&2
    cat "$SMOKE/example.log" >&2
    exit 1
  fi
done
echo "    every example ran to a zero exit"

echo "==> tsdist lint --deny-warnings --baseline (project invariants, results/lint/)"
mkdir -p results/lint
"$TSDIST" lint --deny-warnings --baseline results/lint/baseline.json \
  --graph-stats --out results/lint/report.json
echo "    no findings beyond the pinned baseline; machine-readable report refreshed"

echo "==> conformance gate (quick differential + committed golden bits)"
"$TSDIST" conformance --quick >/dev/null
echo "    quick oracle subset clean, golden bits match results/conformance/registry_v1.tsv"

echo "==> table6 golden (kernels through the distance path; committed tables)"
# Kernels are scored as distances, with each self-similarity computed
# once per cell; the tables must not move by a bit.
cargo build -q --offline -p tsdist-bench --bin table6
target/debug/table6 --quick --datasets 4 --out "$SMOKE/table6" >/dev/null 2>"$SMOKE/table6.log"
for f in table6.txt figure7.txt figure8.txt; do
  diff "results/conformance/table6_quick_d4/$f" "$SMOKE/table6/$f"
done
echo "    table6 --quick --datasets 4: table6.txt, figure7.txt, figure8.txt match the golden"

echo "==> table2 journal smoke (one ok line per cell; a rerun replays every cell, same bytes)"
# table2 runs every cell through the runner's column, so --journal
# covers the largest table: the second run computes nothing.
cargo build -q --offline -p tsdist-bench --bin table2
target/debug/table2 --quick --datasets 2 --journal --out "$SMOKE/t2" >/dev/null 2>"$SMOKE/t2_first.log"
cp "$SMOKE/t2/table2.txt" "$SMOKE/t2_first.txt"
cp "$SMOKE/t2/table2_full.csv" "$SMOKE/t2_first.csv"
target/debug/table2 --quick --datasets 2 --journal --out "$SMOKE/t2" >/dev/null 2>"$SMOKE/t2_second.log"
diff "$SMOKE/t2_first.txt" "$SMOKE/t2/table2.txt"
diff "$SMOKE/t2_first.csv" "$SMOKE/t2/table2_full.csv"
# One entrant per CSV row (the header aside), two datasets each.
cells=$(( ($(wc -l < "$SMOKE/t2/table2_full.csv") - 1) * 2 ))
journal="$SMOKE/t2/table2.journal.ndjson"
lines=$(wc -l < "$journal")
ok_lines=$(grep -c '"outcome":"ok"' "$journal")
keys=$(grep -o '"cell":"[^"]*"' "$journal" | sort -u | wc -l)
if [ "$lines" -ne "$cells" ] || [ "$ok_lines" -ne "$cells" ] || [ "$keys" -ne "$cells" ]; then
  echo "table2 journal holds $lines lines, $ok_lines ok, $keys distinct cells; expected $cells of each" >&2
  exit 1
fi
if ! grep -q "replayed $cells completed cell(s)" "$SMOKE/t2_second.log"; then
  echo "the second table2 run did not replay all $cells cells:" >&2
  cat "$SMOKE/t2_second.log" >&2
  exit 1
fi
echo "    table2 --quick --datasets 2 --journal: $cells ok cells journaled once, all replayed, artifacts byte-identical"

echo "==> bench_kernels smoke (lane/wavefront/row kernels vs scalar twins, wire codec, bit gates)"
cargo build -q --offline -p tsdist-bench --bin bench_kernels
target/debug/bench_kernels --quick --out "$SMOKE" >/dev/null 2>"$SMOKE/bench_kernels.log"
if [ ! -s "$SMOKE/BENCH_kernels.json" ]; then
  echo "bench_kernels wrote no BENCH_kernels.json" >&2
  exit 1
fi
# The binary exits non-zero on any gate failure; assert the gates it
# checked are recorded in the artifact rather than silently absent.
grep -q '"identical_bits": true' "$SMOKE/BENCH_kernels.json"
grep -q '"coverage": {"vectorized": ' "$SMOKE/BENCH_kernels.json"
# The batch-axis row kernels (MSM, TWE, banded DTW at the row length and
# at the long quick length, NCC_c) must be recorded bit-identical to
# their per-pair kernels.
for measure in 'MSM(c=0.5)' 'TWE(l=1,nu=1e-4)' 'DTW(δ=10)' 'DTW(δ=10)@256' 'NCC_c'; do
  if ! grep -F "{\"name\": \"$measure\", \"pair_seconds\"" "$SMOKE/BENCH_kernels.json" \
    | grep -q '"identical_bits": true'; then
    echo "bench_kernels recorded no bit-identical $measure row-kernel entry" >&2
    exit 1
  fi
done
# The anti-diagonal DPs (DTW, WDTW) must be recorded bit-identical to
# their row-major references.
for measure in 'DTW(10%)' 'WDTW(g=0.05)'; do
  if ! grep -F "{\"name\": \"$measure\", \"rowmajor_seconds\"" "$SMOKE/BENCH_kernels.json" \
    | grep -q '"identical_bits": true'; then
    echo "bench_kernels recorded no bit-identical $measure dp entry" >&2
    exit 1
  fi
done
# The serve request codec: every decoded wire line must give back the
# series it was rendered from, bit for bit.
if ! grep -F '"wire": {' "$SMOKE/BENCH_kernels.json" | grep -q '"identical_bits": true'; then
  echo "bench_kernels recorded no bit-identical wire entry" >&2
  exit 1
fi
if grep -q '"identical_bits": false' "$SMOKE/BENCH_kernels.json"; then
  echo "bench_kernels reported a wavefront/row-major or row/pair bit mismatch" >&2
  exit 1
fi
echo "    lane + wavefront + row kernel and wire codec bit/tolerance gates pass; artifact has coverage"

echo "==> resumable-study smoke (kill after one cell, resume, diff)"
"$TSDIST" generate "$SMOKE/archive" --datasets 2 --seed 7 --quick >/dev/null

# "Killed" run: the runner stops after the first completed cell, leaving a
# one-line journal behind.
"$TSDIST" evaluate-archive "$SMOKE/archive" --measures ed,sbd \
  --journal "$SMOKE/j.ndjson" --study smoke --max-cells 1 \
  >/dev/null 2>/dev/null
lines=$(wc -l < "$SMOKE/j.ndjson")
if [ "$lines" -ne 1 ]; then
  echo "expected 1 journal line after the killed run, got $lines" >&2
  exit 1
fi

# Resumed run: replays the journaled cell, executes the remaining three.
"$TSDIST" evaluate-archive "$SMOKE/archive" --measures ed,sbd \
  --journal "$SMOKE/j.ndjson" --study smoke \
  >"$SMOKE/resumed.txt" 2>/dev/null
lines=$(wc -l < "$SMOKE/j.ndjson")
if [ "$lines" -ne 4 ]; then
  echo "expected 4 journal lines after the resumed run, got $lines" >&2
  exit 1
fi

# Uninterrupted run: fresh journal, every cell computed in one go.
"$TSDIST" evaluate-archive "$SMOKE/archive" --measures ed,sbd \
  --journal "$SMOKE/fresh.ndjson" --study smoke \
  >"$SMOKE/fresh.txt" 2>/dev/null

diff "$SMOKE/resumed.txt" "$SMOKE/fresh.txt"
echo "    resumed report is byte-identical to the uninterrupted run"

echo "==> prune-equivalence smoke (exact vs --pruned journals, timing stripped)"
"$TSDIST" evaluate-archive "$SMOKE/archive" --measures ed,dtw,msm,twe,erp \
  --journal "$SMOKE/exact.ndjson" --study prune-smoke \
  >"$SMOKE/exact.txt" 2>/dev/null
"$TSDIST" evaluate-archive "$SMOKE/archive" --measures ed,dtw,msm,twe,erp --pruned \
  --journal "$SMOKE/pruned.ndjson" --study prune-smoke \
  >"$SMOKE/pruned.txt" 2>/dev/null

# Per-cell journal lines must agree on everything but the wall clock.
sed 's/"seconds":[^,}]*//' "$SMOKE/exact.ndjson" >"$SMOKE/exact.stripped"
sed 's/"seconds":[^,}]*//' "$SMOKE/pruned.ndjson" >"$SMOKE/pruned.stripped"
diff "$SMOKE/exact.stripped" "$SMOKE/pruned.stripped"
diff "$SMOKE/exact.txt" "$SMOKE/pruned.txt"
echo "    pruned study is byte-identical to the exact one (modulo timing)"

echo "==> bench_scan smoke (plan equivalence + golden accuracies and pruning counters)"
cargo build -q --offline -p tsdist-bench --bin bench_scan
target/debug/bench_scan --quick --out "$SMOKE" >/dev/null 2>"$SMOKE/bench_scan.log"
if [ ! -s "$SMOKE/BENCH_scan.json" ]; then
  echo "bench_scan wrote no BENCH_scan.json" >&2
  exit 1
fi
grep -q '"failures": 0' "$SMOKE/BENCH_scan.json"
if grep -q '"identical": false' "$SMOKE/BENCH_scan.json"; then
  echo "bench_scan recorded a plan whose answers differ from the Exact plan" >&2
  exit 1
fi
# Every (dataset, measure, normalization) must hold an Auto row, so the
# `identical` gate above covers the planner's answers too.
row_keys='"dataset": "[^"]*", "measure": "[^"]*", "norm": "[^"]*", "plan"'
workloads=$(grep -o "$row_keys" "$SMOKE/BENCH_scan.json" | sort -u | wc -l)
auto_rows=$(grep -o "$row_keys"': "Auto"' "$SMOKE/BENCH_scan.json" | sort -u | wc -l)
if [ "$workloads" -eq 0 ] || [ "$auto_rows" -ne "$workloads" ]; then
  echo "bench_scan recorded $auto_rows Auto rows for $workloads (dataset, measure, norm) workloads" >&2
  exit 1
fi
# The binary exits non-zero on a golden mismatch; double-check it actually
# reached both golden comparisons rather than silently skipping them.
grep -q 'identical to golden .*bench_prune_quick.tsv' "$SMOKE/bench_scan.log"
grep -q 'identical to golden .*bench_index_quick.tsv' "$SMOKE/bench_scan.log"
echo "    bench_scan smoke: every plan (Auto on every workload) byte-identical to Exact, accuracies and counters match the committed goldens"

echo "==> serve smoke (100 mixed queries, live vs replay, clean shutdown)"
"$TSDIST" serve "$SMOKE/archive" --addr 127.0.0.1:0 \
  --port-file "$SMOKE/port" --journal "$SMOKE/serve.ndjson" \
  >"$SMOKE/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$SMOKE/port" ] && break
  sleep 0.1
done
if [ ! -s "$SMOKE/port" ]; then
  echo "tsdist serve never wrote its port file" >&2
  exit 1
fi

"$TSDIST" serve-requests "$SMOKE/archive" --count 100 \
  --out "$SMOKE/requests.ndjson" >/dev/null
"$TSDIST" serve-client "$(cat "$SMOKE/port")" "$SMOKE/requests.ndjson" \
  --shutdown >"$SMOKE/live.txt"
if ! wait "$SERVE_PID"; then
  echo "tsdist serve exited non-zero" >&2
  cat "$SMOKE/serve.log" >&2
  exit 1
fi
grep -q "server shut down cleanly" "$SMOKE/serve.log"

lines=$(wc -l < "$SMOKE/live.txt")
if [ "$lines" -ne 100 ]; then
  echo "expected 100 live responses, got $lines" >&2
  exit 1
fi
if grep -q '"error"' "$SMOKE/live.txt"; then
  echo "serve smoke produced error responses:" >&2
  grep '"error"' "$SMOKE/live.txt" >&2
  exit 1
fi

# Replaying the journal offline must reproduce every live response
# byte-identically (both outputs are id-sorted to make this diffable).
"$TSDIST" serve-replay "$SMOKE/archive" "$SMOKE/serve.ndjson" \
  >"$SMOKE/replayed.txt"
diff "$SMOKE/live.txt" "$SMOKE/replayed.txt"
echo "    100 served answers clean; journal replay is byte-identical to the live run"

echo "==> --no-index serve smoke (same 100 queries, byte-identical to the indexed run)"
"$TSDIST" serve "$SMOKE/archive" --addr 127.0.0.1:0 --no-index \
  --port-file "$SMOKE/noindex_port" >"$SMOKE/noindex_serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$SMOKE/noindex_port" ] && break
  sleep 0.1
done
if [ ! -s "$SMOKE/noindex_port" ]; then
  echo "--no-index tsdist serve never wrote its port file" >&2
  exit 1
fi
"$TSDIST" serve-client "$(cat "$SMOKE/noindex_port")" "$SMOKE/requests.ndjson" \
  --shutdown >"$SMOKE/noindex_live.txt"
if ! wait "$SERVE_PID"; then
  echo "--no-index tsdist serve exited non-zero" >&2
  cat "$SMOKE/noindex_serve.log" >&2
  exit 1
fi
grep -q "server shut down cleanly" "$SMOKE/noindex_serve.log"
diff "$SMOKE/live.txt" "$SMOKE/noindex_live.txt"
echo "    100 answers without the index tier are byte-identical to the indexed run"

echo "==> kill-shard chaos smoke (supervisor restart, retrying client recovers)"
"$TSDIST" serve "$SMOKE/archive" --addr 127.0.0.1:0 --chaos kill-shard:3 \
  --port-file "$SMOKE/chaos_port" >"$SMOKE/chaos_serve.log" 2>&1 &
CHAOS_PID=$!
for _ in $(seq 1 100); do
  [ -s "$SMOKE/chaos_port" ] && break
  sleep 0.1
done
if [ ! -s "$SMOKE/chaos_port" ]; then
  echo "chaos tsdist serve never wrote its port file" >&2
  exit 1
fi
"$TSDIST" serve-client "$(cat "$SMOKE/chaos_port")" "$SMOKE/requests.ndjson" \
  --shutdown >"$SMOKE/chaos_live.txt"
if ! wait "$CHAOS_PID"; then
  echo "chaos tsdist serve exited non-zero" >&2
  cat "$SMOKE/chaos_serve.log" >&2
  exit 1
fi
# The kill must actually have fired (worker panic in the server log)...
grep -q "chaos kill-shard: aborting worker" "$SMOKE/chaos_serve.log"
grep -q "server shut down cleanly" "$SMOKE/chaos_serve.log"
# ...and the retrying client must still deliver every answer cleanly.
lines=$(wc -l < "$SMOKE/chaos_live.txt")
if [ "$lines" -ne 100 ]; then
  echo "expected 100 chaos responses, got $lines" >&2
  exit 1
fi
if grep -q '"error"' "$SMOKE/chaos_live.txt"; then
  echo "kill-shard smoke leaked error responses through the retrying client:" >&2
  grep '"error"' "$SMOKE/chaos_live.txt" >&2
  exit 1
fi
echo "    shard killed, supervisor restarted it, 100/100 answers via retry"

echo "==> ingress fuzz smoke (10k mutated requests, fixed seed, no panics/hangs)"
"$TSDIST" serve "$SMOKE/archive" --addr 127.0.0.1:0 \
  --port-file "$SMOKE/fuzz_port" >"$SMOKE/fuzz_serve.log" 2>&1 &
FUZZ_PID=$!
for _ in $(seq 1 100); do
  [ -s "$SMOKE/fuzz_port" ] && break
  sleep 0.1
done
if [ ! -s "$SMOKE/fuzz_port" ]; then
  echo "fuzz tsdist serve never wrote its port file" >&2
  exit 1
fi
"$TSDIST" serve-fuzz "$(cat "$SMOKE/fuzz_port")" "$SMOKE/requests.ndjson" \
  --seed 20 --iterations 10000 >"$SMOKE/fuzz.txt"
grep -q "fuzz ok" "$SMOKE/fuzz.txt"
"$TSDIST" serve-client "$(cat "$SMOKE/fuzz_port")" /dev/null --shutdown >/dev/null
if ! wait "$FUZZ_PID"; then
  echo "fuzz tsdist serve exited non-zero" >&2
  cat "$SMOKE/fuzz_serve.log" >&2
  exit 1
fi
grep -q "server shut down cleanly" "$SMOKE/fuzz_serve.log"
echo "    10k mutants, every line answered typed, zero worker restarts"

echo "All checks passed."
