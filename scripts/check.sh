#!/usr/bin/env bash
# Full local gate: build, tests, formatting, and a CLI observability smoke run.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> ftb round-trip + streamed-analysis agreement tests"
cargo test -q --test stream_agreement
cargo test -q -p ft-clock --test inline_heap_agreement

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> rustdoc (deny warnings) + doctests"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
cargo test -q --doc --workspace

echo "==> bench binaries compile (feature-gated, no external deps)"
cargo build -p ft-bench --features criterion --benches

echo "==> CLI profile smoke"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run --release -q -p ft-cli -- \
    generate --benchmark moldyn --ops 5000 -o "$tmp/moldyn.ftrace"
cargo run --release -q -p ft-cli -- \
    profile "$tmp/moldyn.ftrace" --metrics "$tmp/out.json"
python3 - "$tmp/out.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert any(k.startswith("rule.") and k.endswith(".percent")
           for k in doc["detector"]["gauges"]), "missing per-rule percentages"
assert any(".on_op_ns" in k for k in doc["pipeline"]["histograms"]), \
    "missing per-stage latency histograms"
assert "online.emit_ns" in doc["online_direct"]["histograms"], \
    "missing online overhead stats"
assert "online.queue_lag_ns" in doc["online_buffered"]["histograms"], \
    "missing buffered queue stats"
print("profile smoke OK:", sys.argv[1])
EOF

echo "==> CLI diagnostics smoke (report bundle + Prometheus exposition)"
cargo run --release -q -p ft-cli -- \
    generate --random --racy 0.3 --ops 5000 --seed 7 -o "$tmp/racy.ftrace"
cargo run --release -q -p ft-cli -- \
    report "$tmp/racy.ftrace" --recorder 8 -o "$tmp/bundle.json" > /dev/null
cargo run --release -q -p ft-cli -- \
    analyze "$tmp/racy.ftrace" --metrics-format prom > "$tmp/metrics.prom"
python3 - "$tmp/bundle.json" "$tmp/metrics.prom" <<'EOF'
import json, re, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "ftrace.report/1", "unknown bundle schema"
assert doc["warnings"], "racy workload produced no warnings"
rules = {r["rule"] for r in doc["rule_breakdown"] if r["hits"] > 0}
for w in doc["warnings"]:
    p = w["provenance"]
    assert p is not None, f"warning without provenance: {w}"
    assert p["rule"] in rules, f"provenance rule {p['rule']} not counted"
    assert p["recent"], "flight recorder drained no events"
    for tail in p["recent"]:
        assert 0 < len(tail["events"]) <= 8, "tail violates ring capacity"
assert doc["recorder"]["capacity"] == 8
assert doc["tiers"]["total"] > 0, "tier counters empty"
assert "ftrace_tier_governed_hits" in doc["metrics_prom"], \
    "bundle missing embedded Prometheus text"
# Validate the standalone exposition: every sample line must be
# `name[{labels}] value` with a legal metric name, and the per-tier
# counters must be present.
name_re = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \S+$')
text = open(sys.argv[2]).read()
samples = [l for l in text.splitlines() if l and not l.startswith("#")]
assert samples, "empty Prometheus exposition"
for line in samples:
    assert name_re.match(line), f"invalid exposition line: {line!r}"
    float(line.rsplit(" ", 1)[1])
assert any(l.startswith("ftrace_tier_") for l in samples), \
    "per-tier counters missing from Prometheus output"
assert any(l.startswith("ftrace_rule_") for l in samples), \
    "per-rule counters missing from Prometheus output"
print("diagnostics smoke OK: %d warning(s), %d prom sample(s)"
      % (len(doc["warnings"]), len(samples)))
EOF
# Keep the validated bundle + scrape at stable paths so CI can upload them
# as artifacts (the temp dir is removed on exit). Generated outputs live
# under results/ so smoke runs never dirty the tree.
mkdir -p results
cp "$tmp/bundle.json" results/diagnostics_bundle.json
cp "$tmp/metrics.prom" results/diagnostics_metrics.prom

echo "==> CLI ftb round-trip smoke (record -> convert -> analyze agree)"
cargo run --release -q -p ft-cli -- \
    trace record --benchmark tsp --ops 5000 -o "$tmp/tsp.ftb"
cargo run --release -q -p ft-cli -- \
    trace convert "$tmp/tsp.ftb" -o "$tmp/tsp.ftrace"
cargo run --release -q -p ft-cli -- \
    analyze "$tmp/tsp.ftb" --format ftb | grep -v '^streamed' > "$tmp/ftb.txt"
cargo run --release -q -p ft-cli -- \
    analyze "$tmp/tsp.ftrace" --format json > "$tmp/json.txt"
diff "$tmp/ftb.txt" "$tmp/json.txt"
echo "ftb smoke OK: streamed and materialized analyses agree"

echo "==> throughput smoke (events/sec per engine vs pre-change baseline)"
cargo run --release -q -p ft-bench --bin throughput -- --ops=20000 --reps=1
python3 - BENCH_throughput.json <<'EOF'
import json
doc = json.load(open("BENCH_throughput.json"))
agg = doc["aggregate"]
assert agg["events"] > 0, "throughput bench measured nothing"
# The >=1.5x acceptance number is recorded at full scale; the smoke run
# only insists the fused engine is not slower than the old architecture.
assert agg["speedup_vs_baseline"] > 1.0, \
    "fused engine slower than the pre-change baseline"
rec = doc["recorder"]
assert rec["capacity"] > 0, "recorder section missing from aggregate"
assert "enabled_overhead_pct" in rec and "disabled_within_2pct" in rec, \
    "recorder overhead fields missing"
print("throughput smoke OK: %.2fx vs baseline, recorder overhead %+.1f%%"
      % (agg["speedup_vs_baseline"], rec["enabled_overhead_pct"]))
EOF

echo "==> serve smoke (multi-tenant daemon: two concurrent clients, metrics, SIGTERM)"
cargo run --release -q -p ft-cli -- \
    trace record --random --racy 0.3 --ops 5000 --seed 9 -o "$tmp/alpha.ftb"
cargo run --release -q -p ft-cli -- \
    trace record --random --racy 0.3 --ops 5000 --seed 10 -o "$tmp/beta.ftb"
cargo run --release -q -p ft-cli -- \
    serve --addr 127.0.0.1:0 --mem-budget $((8 << 20)) > "$tmp/serve.log" 2>&1 &
serve_pid=$!
serve_addr=""
for _ in $(seq 1 100); do
    serve_addr="$(sed -n 's/^ftrace serve: listening on //p' "$tmp/serve.log")"
    [ -n "$serve_addr" ] && break
    sleep 0.1
done
if [ -z "$serve_addr" ]; then
    echo "serve smoke FAILED: daemon never reported its address"
    cat "$tmp/serve.log"
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
# Two tenants upload concurrently with ragged chunk sizes so their frames
# interleave on the daemon side.
cargo run --release -q -p ft-cli -- \
    client upload "$tmp/alpha.ftb" --addr "$serve_addr" --tenant alpha \
    --chunk 4096 > "$tmp/report_alpha.json" 2> /dev/null &
alpha_pid=$!
cargo run --release -q -p ft-cli -- \
    client upload "$tmp/beta.ftb" --addr "$serve_addr" --tenant beta \
    --chunk 1536 > "$tmp/report_beta.json" 2> /dev/null &
beta_pid=$!
wait "$alpha_pid" "$beta_pid"
cargo run --release -q -p ft-cli -- \
    client metrics --addr "$serve_addr" > "$tmp/serve.prom"
python3 - "$tmp/report_alpha.json" "$tmp/report_beta.json" "$tmp/serve.prom" <<'EOF'
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
for doc, tenant in ((a, "alpha"), (b, "beta")):
    assert doc["schema"] == "ftrace.serve.report/1", "unknown report schema"
    assert doc["tenant"] == tenant, f"tenant mislabeled: {doc['tenant']}"
    # The generator rounds --ops up to whole structures, so >= not ==.
    assert doc["events"] >= 5000, "events lost in flight"
    assert doc["dropped_events"] == 0, "Block policy must never shed"
    assert doc["warnings"], f"racy upload for {tenant} produced no warnings"
    assert doc["precision"] == "full", doc["precision"]
# Isolation: different traces through concurrent sessions must keep their
# own warning sets — shared shadow state would bleed one into the other.
assert a["warnings"] != b["warnings"], "tenants share warning state"
assert a["session"] != b["session"], "sessions share an id"
prom = open(sys.argv[3]).read().splitlines()
samples = {l.split(" ")[0]: l.split(" ")[1] for l in prom
           if l and not l.startswith("#")}
assert samples["ftrace_serve_sessions_opened"] == "2", samples
assert samples["ftrace_serve_sessions_closed"] == "2", samples
assert samples["ftrace_serve_sessions_live"] == "0", samples
assert int(samples["ftrace_serve_events_total"]) == a["events"] + b["events"], samples
print("serve smoke OK: 2 isolated tenants, %s + %s warning(s), metrics scraped"
      % (len(a["warnings"]), len(b["warnings"])))
EOF
# SIGTERM has the default disposition (the daemon is pure-std and installs
# no handlers), so 143 is the expected exit; the in-band graceful path
# (SHUTDOWN frame -> exit 0) is exercised by the ft-serve integration tests.
kill -TERM "$serve_pid"
serve_rc=0
wait "$serve_pid" || serve_rc=$?
if [ "$serve_rc" -ne 143 ] && [ "$serve_rc" -ne 0 ]; then
    echo "serve smoke FAILED: daemon exited $serve_rc after SIGTERM"
    cat "$tmp/serve.log"
    exit 1
fi
if cargo run --release -q -p ft-cli -- client metrics --addr "$serve_addr" \
    > /dev/null 2>&1; then
    echo "serve smoke FAILED: daemon still answering after SIGTERM"
    exit 1
fi
echo "serve shutdown OK: SIGTERM exit $serve_rc, port released"

echo "==> serve load bench (concurrent tenants, isolation oracle per report)"
cargo run --release -q -p ft-bench --bin serve_load -- \
    --tenants=4 --sessions=2 --ops=20000
python3 - BENCH_serve.json <<'EOF'
import json
doc = json.load(open("BENCH_serve.json"))
assert doc["tenants"] >= 4, "load bench must drive >= 4 concurrent tenants"
assert doc["isolation_violations"] == 0, "multi-tenant report diverged"
assert doc["sessions_total"] == doc["server_sessions_closed"], \
    "daemon closed a different number of sessions than clients opened"
assert doc["sessions_per_sec"] > 0 and doc["aggregate_mops"] > 0
assert doc["report_latency_p99_ms"] >= doc["report_latency_p50_ms"]
print("serve load OK: %.1f sessions/s, %.1f Mop/s aggregate, p99 %.1f ms"
      % (doc["sessions_per_sec"], doc["aggregate_mops"],
         doc["report_latency_p99_ms"]))
EOF

echo "==> guard degradation smoke (shrinking budgets, soundness sweep)"
cargo run --release -q -p ft-bench --bin guard -- --ops=20000 --reps=1
python3 - BENCH_guard.json <<'EOF'
import json
doc = json.load(open("BENCH_guard.json"))
assert doc["violations"] == 0, "guard degradation violated soundness"
rows = doc["rows"]
assert rows, "guard sweep produced no workloads"
for row in rows:
    for rung in row["budgets"]:
        assert rung["warnings_subset_of_baseline"], \
            f"{row['workload']}: fabricated warnings at {rung['budget_bytes']} B"
print("guard smoke OK:", len(rows), "workloads, 0 violations")
EOF

echo "==> sampling tier smoke (sampler soundness + recall at full admission)"
# Full admission rate so recall on racy workloads is deterministic and
# non-zero — the default 0.001 rate is an overhead setting, not a smoke
# setting. The bench itself exits nonzero on any fabricated race.
cargo run --release -q -p ft-bench --bin sampling -- --ops=20000 --reps=1 --rate=1.0
python3 - BENCH_sampling.json <<'EOF'
import json
doc = json.load(open("BENCH_sampling.json"))
assert doc["violations"] == 0, "sampler fabricated a race"
# On a racy workload (tsp ships a deliberate benign-race idiom), the
# sampler at full admission must catch races at two different budgets.
rows = {r["workload"]: r for r in doc["rows"]}
racy = [r for r in doc["rows"] if r["fasttrack_race_vars"] > 0]
assert racy, "no workload produced a FastTrack race at smoke scale"
row = rows.get("tsp", racy[0])
checked = 0
for rung in row["budgets"]:
    if rung["escalation"] or rung["budget"] not in (4, 16):
        continue
    checked += 1
    assert rung["sound"], f"{row['workload']}: unsound at budget {rung['budget']}"
    assert rung.get("recall_pct", 0) > 0, \
        f"{row['workload']}: zero recall at rate 1.0, budget {rung['budget']}"
print("sampling smoke OK: %s recall > 0 at %d budgets, 0 violations"
      % (row["workload"], checked))
EOF

echo "==> sync fast-lane smoke (O(1) acquire/release epochs, zero divergence)"
# Small ops keep the smoke fast; the >=1.3x sweep speedup is a full-scale
# acceptance number (machine-sensitive), so the smoke gates on semantics
# (bit-identical warnings everywhere) and on the fast lane actually firing.
cargo run --release -q -p ft-bench --bin sync -- --ops=20000 --reps=1
python3 - BENCH_sync.json <<'EOF'
import json
doc = json.load(open("BENCH_sync.json"))
assert doc["divergences"] == 0, "sync fast lane changed a warning"
rows = doc["sync_dense"]
assert rows, "sync-dense sweep produced no workloads"
hits = sum(r["fastpath_hits"] for r in rows)
assert hits > 0, "sync fast path never fired on the sync-dense sweep"
for r in rows:
    assert r["warnings_identical"], f"{r['workload']}: fused != ablated warnings"
    assert 0.0 <= r["fastpath_hit_rate"] <= 1.0, r
for r in doc["floor"]:
    assert r["fasttrack_warnings_identical"], f"{r['workload']}: core diverged"
    assert r["sampler_warnings_identical"], f"{r['workload']}: sampler diverged"
rate = hits / max(1, hits + sum(r["slow_joins"] for r in rows))
print("sync smoke OK: %d fast-path hits (%.0f%% hit rate), 0 divergences"
      % (hits, 100.0 * rate))
EOF

echo "==> sync fast-lane agreement property suite"
cargo test -q --release --test sync_fastpath_agreement

echo "==> all checks passed"
