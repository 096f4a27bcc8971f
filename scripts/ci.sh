#!/usr/bin/env bash
# Local CI gate: formatting, lints (warnings are errors), and the full
# test suite. Everything runs offline — the workspace routes rand,
# proptest, and criterion to the vendored shims under shims/.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy (criterion benches, microbench feature)"
cargo clippy -p sj-bench --all-targets --features microbench -- -D warnings

echo "==> cargo test (workspace)"
cargo test -q --workspace

echo "==> bench binaries (smoke mode)"
# Every bench bin must *run*, not just compile, so bench code can't
# bit-rot outside the test suite. --smoke shrinks workloads to a few
# dozen tuples and skips (re)writing the committed BENCH_*.json
# artifacts; bins without size knobs are already tiny and ignore the
# flag.
cargo build --release -q -p sj-bench
for bin in crates/bench/src/bin/*.rs; do
    name="$(basename "$bin" .rs)"
    echo "    -> $name --smoke"
    "./target/release/$name" --smoke >/dev/null
done

echo "==> trace smoke (--trace JSONL structural validation)"
# One bench bin runs with a live trace sink; every emitted line must be
# a JSON object carrying the span/dur_us/counters schema that external
# consumers rely on.
./target/release/parallel_scaling --smoke --trace /tmp/sj_trace_smoke.jsonl >/dev/null
python3 - /tmp/sj_trace_smoke.jsonl <<'PY'
import json, sys
n = 0
with open(sys.argv[1]) as f:
    for line in f:
        ev = json.loads(line)
        assert isinstance(ev, dict), f"not an object: {line!r}"
        for key in ("span", "dur_us", "counters"):
            assert key in ev, f"missing {key!r}: {line!r}"
        assert isinstance(ev["span"], str) and ev["span"]
        assert isinstance(ev["dur_us"], int) and ev["dur_us"] >= 0
        assert isinstance(ev["counters"], dict)
        n += 1
assert n > 0, "trace file is empty"
print(f"    -> {n} trace events OK")
PY
rm -f /tmp/sj_trace_smoke.jsonl

echo "==> service smoke (BENCH_service.json + service-trace JSONL validation)"
# The query service's closed-loop driver replays a mixed SELECT/JOIN
# pool, asserts zero divergence vs the sequential replay, and must shed
# under overload. Its artifact and trace schemas are validated here so
# external consumers can rely on them.
./target/release/service_scaling --smoke \
    --out /tmp/sj_bench_service_smoke.json \
    --trace /tmp/sj_service_trace_smoke.jsonl >/dev/null
python3 - /tmp/sj_bench_service_smoke.json /tmp/sj_service_trace_smoke.jsonl <<'PY'
import json, sys

# BENCH_service.json: the documented series must be present, with
# numeric points; shed counts and cache hit rate must be positive.
doc = json.load(open(sys.argv[1]))
series = {s["label"]: s["points"] for s in doc["series"]}
required = {
    "throughput_rps", "p50_us", "p95_us", "p99_us", "max_us",
    "queue_p95_us", "exec_p95_us", "cache_hit_rate", "cache_hit_p95_us",
    "shed_queue_full", "shed_deadline",
}
missing = required - series.keys()
assert not missing, f"missing series: {sorted(missing)}"
for label, points in series.items():
    assert points, f"empty series {label!r}"
    for x, y in points:
        assert isinstance(x, (int, float)) and isinstance(y, (int, float)), \
            f"non-numeric point in {label!r}: {(x, y)!r}"
assert all(y > 0 for _, y in series["cache_hit_rate"]), "no cache hits"
# The overload phase runs once per worker count: both shed series must
# carry a positive point at every pool size, not just the first.
workers = [x for x, _ in series["throughput_rps"]]
for label in ("shed_queue_full", "shed_deadline"):
    xs = [x for x, _ in series[label]]
    assert xs == workers, f"{label!r} must cover every worker count: {xs} vs {workers}"
    for x, y in series[label]:
        assert y > 0, f"no {label!r} sheds at {x:g} workers"

# Service trace: the full span vocabulary, with histogram summaries
# carrying count/p50/p95/p99/max.
spans = set()
with open(sys.argv[2]) as f:
    for line in f:
        ev = json.loads(line)
        for key in ("span", "dur_us", "counters"):
            assert key in ev, f"missing {key!r}: {line!r}"
        spans.add(ev["span"])
        if ev["span"].endswith("_us"):
            for q in ("count", "p50", "p95", "p99", "max"):
                assert q in ev["counters"], f"missing {q!r}: {line!r}"
want = {
    "service/latency_us", "service/queue_wait_us", "service/exec_us",
    "service/cache_hit_us", "service/summary", "service/cache",
    "service/admission", "service/pool", "service/wal", "service/apply",
}
assert want <= spans, f"missing spans: {sorted(want - spans)}"
print(f"    -> BENCH_service.json + {len(spans)} service spans OK")
PY
rm -f /tmp/sj_bench_service_smoke.json /tmp/sj_service_trace_smoke.jsonl

echo "==> chaos smoke (BENCH_chaos.json + service/fault span validation)"
# The chaos driver replays the query mix at increasing injected
# storage-fault rates and asserts the fail-stop contract (every
# completed response byte-identical to the fault-free replay). Its
# artifact and the fault-recovery span schema are validated here.
./target/release/chaos_scaling --smoke \
    --out /tmp/sj_bench_chaos_smoke.json \
    --trace /tmp/sj_chaos_trace_smoke.jsonl >/dev/null
python3 - /tmp/sj_bench_chaos_smoke.json /tmp/sj_chaos_trace_smoke.jsonl <<'PY'
import json, sys

# BENCH_chaos.json: one point per fault rate for every documented
# series; the baseline must be perfectly available and the top rate
# must actually inject faults.
doc = json.load(open(sys.argv[1]))
series = {s["label"]: s["points"] for s in doc["series"]}
required = {
    "availability", "failed", "degraded", "retried",
    "injected_faults", "mean_attempts", "backoff_units",
}
missing = required - series.keys()
assert not missing, f"missing series: {sorted(missing)}"
rates = [x for x, _ in series["availability"]]
assert len(rates) >= 4 and rates[0] == 0.0, f"bad fault-rate grid: {rates}"
for label, points in series.items():
    assert [x for x, _ in points] == rates, f"misaligned grid in {label!r}"
    for x, y in points:
        assert isinstance(x, (int, float)) and isinstance(y, (int, float)), \
            f"non-numeric point in {label!r}: {(x, y)!r}"
avail = dict(series["availability"])
assert avail[0.0] == 1.0, "fault-free baseline must answer everything"
assert all(0.0 <= a <= 1.0 for a in avail.values()), f"availability out of range: {avail}"
assert series["injected_faults"][-1][1] > 0, "top fault rate injected nothing"

# The service/fault span must carry the full recovery-counter schema.
fault_events = []
with open(sys.argv[2]) as f:
    for line in f:
        ev = json.loads(line)
        if ev["span"] == "service/fault":
            fault_events.append(ev)
assert fault_events, "no service/fault spans emitted"
for ev in fault_events:
    for key in ("injected_faults", "retried", "degraded", "failed",
                "worker_panics", "retry_backoff_units"):
        assert key in ev["counters"], f"missing {key!r}: {ev!r}"
assert any(ev["counters"]["injected_faults"] > 0 for ev in fault_events), \
    "no fault span recorded injected faults"
print(f"    -> BENCH_chaos.json + {len(fault_events)} service/fault spans OK")
PY
rm -f /tmp/sj_bench_chaos_smoke.json /tmp/sj_chaos_trace_smoke.jsonl

echo "==> simd smoke (BENCH_simd_join.json schema validation)"
# The kernel A/B bench asserts zero scalar/batched divergence internally
# (it aborts on any mismatch); here its artifact schema is pinned: all
# twelve {path}_{kernel}_{metric} series with numeric points, plus the
# top-level cpu_cores field every bench artifact now carries.
./target/release/simd_scaling --smoke --out /tmp/sj_bench_simd_smoke.json >/dev/null
python3 - /tmp/sj_bench_simd_smoke.json <<'PY'
import json, sys

doc = json.load(open(sys.argv[1]))
assert isinstance(doc.get("cpu_cores"), int) and doc["cpu_cores"] >= 1, \
    f"bad cpu_cores: {doc.get('cpu_cores')!r}"
series = {s["label"]: s["points"] for s in doc["series"]}
required = {
    f"{path}_{kernel}_{metric}"
    for path in ("sweep", "partition", "tree")
    for kernel in ("scalar", "batched")
    for metric in ("cps", "ms")
}
missing = required - series.keys()
assert not missing, f"missing series: {sorted(missing)}"
for label, points in series.items():
    assert points, f"empty series {label!r}"
    for x, y in points:
        assert isinstance(x, (int, float)) and isinstance(y, (int, float)), \
            f"non-numeric point in {label!r}: {(x, y)!r}"
print(f"    -> {len(series)} simd series OK (cpu_cores={doc['cpu_cores']})")
PY
rm -f /tmp/sj_bench_simd_smoke.json

echo "==> update smoke (BENCH_update.json schema validation)"
# The durable-mutation bench commits WAL-backed write batches in both
# apply modes and exercises region-aware cache invalidation; its
# artifact schema is pinned here.
./target/release/update_scaling --smoke --out /tmp/sj_bench_update_smoke.json >/dev/null
python3 - /tmp/sj_bench_update_smoke.json <<'PY'
import json, sys

doc = json.load(open(sys.argv[1]))
series = {s["label"]: s["points"] for s in doc["series"]}
required = {
    "updates_per_sec_incremental", "updates_per_sec_rebuild",
    "apply_pages_per_op_incremental", "apply_pages_per_op_rebuild",
    "cache_purged", "cache_retained",
}
missing = required - series.keys()
assert not missing, f"missing series: {sorted(missing)}"
for label, points in series.items():
    assert points, f"empty series {label!r}"
    for x, y in points:
        assert isinstance(x, (int, float)) and isinstance(y, (int, float)), \
            f"non-numeric point in {label!r}: {(x, y)!r}"
batches = [x for x, _ in series["updates_per_sec_incremental"]]
assert batches == [1.0, 16.0, 256.0], f"bad batch grid: {batches}"
assert [x for x, _ in series["updates_per_sec_rebuild"]] == batches, \
    "rebuild series must share the batch grid"
print(f"    -> {len(series)} update series OK")
PY
rm -f /tmp/sj_bench_update_smoke.json

echo "==> refine smoke (BENCH_refine.json schema validation)"
# The compressed-geometry bench asserts byte-identical pairs and an
# identical theta charge between the exact-decode and margin-governed
# refinement paths internally; here its artifact schema is pinned:
# exact vs margin series plus the decode-fraction field, all numeric,
# with every decode fraction a valid probability.
./target/release/refine_scaling --smoke --out /tmp/sj_bench_refine_smoke.json >/dev/null
python3 - /tmp/sj_bench_refine_smoke.json <<'PY'
import json, sys

doc = json.load(open(sys.argv[1]))
series = {s["label"]: s["points"] for s in doc["series"]}
required = {
    "exact_ms", "margin_ms", "exact_rps", "margin_rps",
    "decode_fraction", "exact_physical_reads", "margin_physical_reads",
}
missing = required - series.keys()
assert not missing, f"missing series: {sorted(missing)}"
for label, points in series.items():
    assert points, f"empty series {label!r}"
    for x, y in points:
        assert isinstance(x, (int, float)) and isinstance(y, (int, float)), \
            f"non-numeric point in {label!r}: {(x, y)!r}"
for x, f in series["decode_fraction"]:
    assert 0.0 <= f <= 1.0, f"decode fraction {f} out of [0, 1] at n={x:g}"
print(f"    -> {len(series)} refine series OK")
PY
rm -f /tmp/sj_bench_refine_smoke.json

echo "==> shard smoke (BENCH_shard.json schema + shard-trace validation)"
# The tile-sharded scatter-gather driver asserts zero divergence vs the
# single-node replay internally; here its artifact schema is pinned
# (throughput / single-node baseline / merged-phase / divergence /
# duplicate / skew-split series, all numeric, divergence identically
# zero) and the merged trace must namespace every shard's spans.
./target/release/shard_scaling --smoke \
    --out /tmp/sj_bench_shard_smoke.json \
    --trace /tmp/sj_shard_trace_smoke.jsonl >/dev/null
python3 - /tmp/sj_bench_shard_smoke.json /tmp/sj_shard_trace_smoke.jsonl <<'PY'
import json, sys

doc = json.load(open(sys.argv[1]))
series = {s["label"]: s["points"] for s in doc["series"]}
required = {
    "throughput_rps", "single_node_rps", "exec_p95_us", "queue_p95_us",
    "divergence", "duplicates_removed", "skew_splits",
}
missing = required - series.keys()
assert not missing, f"missing series: {sorted(missing)}"
for label, points in series.items():
    assert points, f"empty series {label!r}"
    for x, y in points:
        assert isinstance(x, (int, float)) and isinstance(y, (int, float)), \
            f"non-numeric point in {label!r}: {(x, y)!r}"
shards = [x for x, _ in series["throughput_rps"]]
assert shards == [1.0, 2.0, 4.0], f"shard counts {shards}"
for x, y in series["divergence"]:
    assert y == 0, f"scatter-gather diverged at {x:g} shards"

# Shard trace: per-shard namespacing plus the router summary. The
# router absorbs each shard's spans under shard:<i>/..., keeps the
# whole-world fallback under shard:fallback/..., and appends its own
# router/summary counters.
spans = set()
with open(sys.argv[2]) as f:
    for line in f:
        ev = json.loads(line)
        for key in ("span", "dur_us", "counters"):
            assert key in ev, f"missing {key!r}: {line!r}"
        spans.add(ev["span"])
assert "router/summary" in spans, "missing router/summary span"
assert any(s.startswith("shard:0/") for s in spans), "missing shard:0/ spans"
assert any(s.startswith("shard:fallback/") for s in spans), \
    "missing shard:fallback/ spans"
prefixed = {s.split("/", 1)[0] for s in spans if s.startswith("shard:")}
print(f"    -> {len(series)} shard series + spans from {sorted(prefixed)} OK")
PY
rm -f /tmp/sj_bench_shard_smoke.json /tmp/sj_shard_trace_smoke.jsonl

echo "==> committed-artifact gates (BENCH_service.json / BENCH_chaos.json)"
# The committed artifacts are the repo's perf contract. Throughput must
# not fall as the worker pool grows (the PR-6 tentpole: shared-nothing
# serving scales monotonically), the cache must be carrying the repeat
# mix, and the chaos curve must show the degraded path actually serving
# requests at the top fault rate (the pre-PR-6 dead-path regression).
python3 - BENCH_service.json BENCH_chaos.json <<'PY'
import json, sys

svc = {s["label"]: s["points"] for s in json.load(open(sys.argv[1]))["series"]}
rps = svc["throughput_rps"]
for (x0, y0), (x1, y1) in zip(rps, rps[1:]):
    assert y1 >= y0, \
        f"committed throughput fell {x0:g}->{x1:g} workers: {y0:.0f} -> {y1:.0f} rps"
assert rps[-1][1] >= rps[0][1], "top pool must beat one worker"
for x, rate in svc["cache_hit_rate"]:
    assert rate >= 0.99, f"cache hit rate {rate:.4f} < 0.99 at {x:g} workers"

chaos = {s["label"]: s["points"] for s in json.load(open(sys.argv[2]))["series"]}
assert chaos["degraded"][-1][1] > 0, \
    "committed chaos curve shows a dead degradation path at the top fault rate"
print(f"    -> throughput {' -> '.join(f'{y:.0f}' for _, y in rps)} rps, "
      f"top-rate degraded={chaos['degraded'][-1][1]:.0f} OK")
PY

echo "==> committed-artifact gate (BENCH_simd_join.json)"
# The PR-7 tentpole contract: on the committed run, the batched SoA
# kernel must beat the scalar kernel in comparisons/sec on all three
# filter paths at n=16k. (The bench itself already asserts the two
# kernels produce byte-identical results.)
python3 - BENCH_simd_join.json <<'PY'
import json, sys

simd = {s["label"]: dict(s["points"]) for s in json.load(open(sys.argv[1]))["series"]}
lines = []
for path in ("sweep", "partition", "tree"):
    scalar = simd[f"{path}_scalar_cps"][16000]
    batched = simd[f"{path}_batched_cps"][16000]
    assert batched >= scalar, \
        f"{path}: batched {batched:.0f} cps < scalar {scalar:.0f} cps at n=16k"
    lines.append(f"{path} +{batched / scalar - 1:.1%}")
print(f"    -> batched beats scalar at n=16k: {', '.join(lines)}")
PY

echo "==> committed-artifact gate (BENCH_update.json)"
# The PR-8 tentpole contract: on the committed run, incremental apply
# must beat the full-rebuild baseline in updates/sec at batch size 1
# (per-op maintenance is the paper's §4.2 argument for generalization
# trees), and disjoint-region writes must retain cached entries — the
# whole point of fine-grained invalidation over version stamping.
python3 - BENCH_update.json <<'PY'
import json, sys

upd = {s["label"]: dict(s["points"]) for s in json.load(open(sys.argv[1]))["series"]}
inc = upd["updates_per_sec_incremental"][1]
reb = upd["updates_per_sec_rebuild"][1]
assert inc >= reb, \
    f"incremental {inc:.0f} ups < rebuild {reb:.0f} ups at batch=1"
retained = sum(json_y for json_y in upd["cache_retained"].values())
assert retained > 0, "disjoint-region writes retained no cached entries"
pages = {s["label"]: dict(s["points"]) for s in json.load(open(sys.argv[1]))["series"]}
inc_pages = pages["apply_pages_per_op_incremental"][1]
reb_pages = pages["apply_pages_per_op_rebuild"][1]
assert inc_pages <= reb_pages, \
    f"incremental touches more pages per op ({inc_pages:.1f}) than rebuild ({reb_pages:.1f})"
print(f"    -> batch=1: incremental {inc:.0f} vs rebuild {reb:.0f} ups "
      f"({inc / reb:.1f}x), {inc_pages:.1f} vs {reb_pages:.1f} pages/op, "
      f"retained={retained:.0f} OK")
PY

echo "==> committed-artifact gate (BENCH_refine.json)"
# The PR-9 tentpole contract: on the committed run, margin-governed
# refinement over compressed pages must match or beat exact-decode
# refinement in refinements/sec at n=16k, and the decode fraction must
# be strictly below 1.0 — the margin test actually resolves pairs
# rather than punting every candidate to an exact decode.
python3 - BENCH_refine.json <<'PY'
import json, sys

ref = {s["label"]: dict(s["points"]) for s in json.load(open(sys.argv[1]))["series"]}
exact = ref["exact_rps"][16000]
margin = ref["margin_rps"][16000]
assert margin >= exact, \
    f"margin {margin:.0f} rps < exact {exact:.0f} rps at n=16k"
frac = ref["decode_fraction"][16000]
assert 0.0 <= frac < 1.0, \
    f"decode fraction {frac} at n=16k: the margin test resolved nothing"
reads = ref["margin_physical_reads"][16000] / ref["exact_physical_reads"][16000]
print(f"    -> margin beats exact at n=16k: +{margin / exact - 1:.1%} rps, "
      f"decode fraction {frac:.2e}, {reads:.2f}x the physical reads")
PY

echo "==> committed-artifact gate (BENCH_shard.json)"
# The PR-10 tentpole contract: on the committed run, the 4-shard
# scatter-gather deployment must beat the single-node baseline at the
# 16k scale, the shard curve must be monotone, divergence must be
# identically zero, and occupancy-driven skew splitting must have
# engaged somewhere on the curve.
python3 - BENCH_shard.json <<'PY'
import json, sys

shard = {s["label"]: s["points"] for s in json.load(open(sys.argv[1]))["series"]}
rps = shard["throughput_rps"]
for (x0, y0), (x1, y1) in zip(rps, rps[1:]):
    assert y1 >= y0, \
        f"committed shard throughput fell {x0:g}->{x1:g} shards: {y0:.0f} -> {y1:.0f} rps"
single = shard["single_node_rps"][0][1]
top = rps[-1][1]
assert top >= single, \
    f"committed 4-shard throughput {top:.0f} rps lags single-node {single:.0f} rps"
for x, y in shard["divergence"]:
    assert y == 0, f"committed artifact shows divergence at {x:g} shards"
assert any(y > 0 for _, y in shard["skew_splits"]), \
    "no point on the committed curve engaged the occupancy quad-split"
print(f"    -> shard curve {' -> '.join(f'{y:.0f}' for _, y in rps)} rps "
      f"vs single-node {single:.0f} rps ({top / single:.1f}x), divergence 0 OK")
PY

echo "==> no-alloc grep gate (soa.rs mask kernels)"
# The mask kernels promise straight-line, allocation-free lane
# arithmetic. Nothing between the mask-kernel-begin/end markers may
# allocate — any Vec/Box/String construction or collection growth there
# is a regression the optimizer cannot be trusted to hoist.
alloc_hits=$(
    awk '/mask-kernel-begin/ { scan = 1 }
         /mask-kernel-end/ { scan = 0 }
         scan && /vec!|Vec::|\.push\(|\.collect\(|Box::new|String::|format!|to_vec\(|with_capacity/ {
             print FILENAME ":" FNR ": " $0
         }' crates/geom/src/soa.rs
)
if [ -n "$alloc_hits" ]; then
    echo "    allocation inside the mask-kernel region:"
    echo "$alloc_hits"
    exit 1
fi
markers=$(grep -c "mask-kernel-begin\|mask-kernel-end" crates/geom/src/soa.rs)
if [ "$markers" -ne 2 ]; then
    echo "    expected exactly one mask-kernel-begin/end pair, found $markers markers"
    exit 1
fi
echo "    -> mask-kernel region is allocation-free"

echo "==> fail-stop grep gate (no unchecked panics in storage/service/joins)"
# The storage, service, and join-executor crates promise typed
# StorageError propagation. Non-test code there may not grow new
# unwrap()/expect(/panic! calls; deliberate infallible wrappers and
# logic-error panics carry a same-line "PANIC-OK" marker,
# and everything from the top-level #[cfg(test)] (the tests module) to
# EOF is test code. Indented cfg(test) attributes (test-only fields and
# hooks) do not end the scan.
violations=$(
    for f in crates/storage/src/*.rs crates/service/src/*.rs crates/joins/src/*.rs; do
        awk '/^#\[cfg\(test\)\]/ { exit }
             /PANIC-OK/ { next }
             /\.unwrap\(\)|\.expect\(|panic!/ { print FILENAME ":" FNR ": " $0 }' "$f"
    done
)
if [ -n "$violations" ]; then
    echo "    unchecked panic paths in fail-stop crates:"
    echo "$violations"
    exit 1
fi
echo "    -> storage + service + joins non-test code is panic-clean"

echo "CI OK"
