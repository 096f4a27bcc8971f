//! Nested-loop vs plane-sweep filter scaling: wall-clock and comparison
//! counts for `try_sweep_join` against `try_nested_loop_join` on uniform
//! point–rect workloads of growing size.
//!
//! Run: `cargo run --release -p sj-bench --bin sweep_scaling`
//! (`--smoke` shrinks to n=64 and skips the JSON artifact — CI mode;
//! `--trace out.jsonl` records per-phase spans of the last run per size
//! as JSONL).
//!
//! Prints a CSV row per size and writes the series — plus the sweep's
//! per-phase cost breakdown in the model's units — to
//! `BENCH_sweep_join.json`. The match sets are asserted identical; the
//! comparison counts are the cost model's `C_Θ`-priced units, so the
//! crossover is directly interpretable: the sweep's `O(n log n + k)`
//! filter must examine fewer pairs than the nested loop's `n·m` from the
//! smallest size up, and win wall-clock once the workload outgrows
//! constant overheads.

use std::time::Instant;

use sj_core::workload::{generate, GeometryKind, Placement, WorkloadSpec};
use sj_costmodel::series::Series;
use sj_costmodel::ModelParams;
use sj_geom::{Rect, ThetaOp};
use sj_joins::{JoinOperands, JoinRequest, Phase, StoredRelation, Strategy};
use sj_obs::CounterRegistry;
use sj_storage::{BufferPool, Disk, DiskConfig, Layout};

const SIZES: [usize; 3] = [1_000, 4_000, 16_000];
const SMOKE_SIZES: [usize; 1] = [64];
const REPS: usize = 3;

fn sorted(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    v.sort_unstable();
    v
}

/// Static per-phase series labels for the sweep executor.
fn phase_label(phase: Phase) -> &'static str {
    match phase {
        Phase::Partition => "sweep_partition_cost",
        Phase::Filter => "sweep_filter_cost",
        Phase::Refine => "sweep_refine_cost",
        Phase::IndexProbe => "sweep_index_probe_cost",
    }
}

fn main() {
    let args = sj_bench::BenchArgs::parse();
    let smoke = args.smoke();
    let mut sink = args.trace_sink();
    let sizes: &[usize] = if smoke { &SMOKE_SIZES } else { &SIZES };
    let world = Rect::from_bounds(0.0, 0.0, 1000.0, 1000.0);
    let theta = ThetaOp::WithinDistance(5.0);

    println!(
        "# plane-sweep vs nested-loop filter, uniform points vs rects, \
         theta=WithinDistance(5), |R|=|S|=n, best of {REPS} runs"
    );
    println!("n,nested_ms,sweep_ms,nested_cmp,sweep_cmp,pairs");

    let mut nested_ms = Series {
        label: "nested_ms",
        points: Vec::new(),
    };
    let mut sweep_ms = Series {
        label: "sweep_ms",
        points: Vec::new(),
    };
    let mut nested_cmp = Series {
        label: "nested_comparisons",
        points: Vec::new(),
    };
    let mut sweep_cmp = Series {
        label: "sweep_comparisons",
        points: Vec::new(),
    };
    let mut phase_series: Vec<Series> = Phase::ALL
        .iter()
        .map(|&p| Series {
            label: phase_label(p),
            points: Vec::new(),
        })
        .collect();

    for &n in sizes {
        let points = generate(
            &WorkloadSpec {
                count: n,
                world,
                kind: GeometryKind::Point,
                placement: Placement::Uniform,
                max_extent: 0.0,
                seed: 42,
            },
            0,
        );
        let rects = generate(
            &WorkloadSpec {
                count: n,
                world,
                kind: GeometryKind::Rect,
                placement: Placement::Uniform,
                max_extent: 8.0,
                seed: 43,
            },
            1_000_000,
        );
        let mut pool = BufferPool::new(Disk::new(DiskConfig::paper()), 256);
        let r = StoredRelation::build(&mut pool, &points, 300, Layout::Clustered);
        let s = StoredRelation::build(&mut pool, &rects, 300, Layout::Clustered);
        let ops = JoinOperands::flat(&r, &s, world);
        let mut nested = Strategy::NestedLoop
            .executor(&ops)
            .expect("flat operands present");
        let mut sweep = Strategy::Sweep
            .executor(&ops)
            .expect("flat operands present");

        let mut best = [f64::INFINITY; 2];
        let mut runs = (None, None);
        for rep in 0..REPS {
            // Only the last rep is traced (TraceSink::Null otherwise).
            let traced = rep + 1 == REPS;
            pool.clear();
            pool.reset_stats();
            let t0 = Instant::now();
            let nl = nested
                .try_execute(&JoinRequest::new(theta), &mut pool)
                .expect("in-memory disk cannot fault");
            best[0] = best[0].min(t0.elapsed().as_secs_f64() * 1e3);
            pool.clear();
            pool.reset_stats();
            let req = if traced {
                JoinRequest::new(theta).with_trace(std::mem::take(&mut sink))
            } else {
                JoinRequest::new(theta)
            };
            let t1 = Instant::now();
            let sw = sweep
                .try_execute(&req, &mut pool)
                .expect("in-memory disk cannot fault");
            best[1] = best[1].min(t1.elapsed().as_secs_f64() * 1e3);
            if traced {
                sink = req.take_trace();
            }
            // Bench-smoke guard: per-phase deltas must sum exactly to
            // the run's totals (sealed invariant), on both strategies.
            assert_eq!(nl.phases.total(), nl.stats, "nested-loop phase sums");
            assert_eq!(sw.phases.total(), sw.stats, "sweep phase sums");
            runs = (Some(nl), Some(sw));
        }
        let (nl, sw) = (runs.0.expect("REPS >= 1"), runs.1.expect("REPS >= 1"));
        assert_eq!(
            sorted(nl.pairs.clone()),
            sorted(sw.pairs.clone()),
            "sweep match set diverges from nested loop at n={n}"
        );
        println!(
            "{n},{:.2},{:.2},{},{},{}",
            best[0],
            best[1],
            nl.stats.comparisons(),
            sw.stats.comparisons(),
            sw.pairs.len()
        );
        let x = n as f64;
        nested_ms.points.push((x, best[0]));
        sweep_ms.points.push((x, best[1]));
        nested_cmp.points.push((x, nl.stats.comparisons() as f64));
        sweep_cmp.points.push((x, sw.stats.comparisons() as f64));
        let prices = ModelParams::paper();
        for (series, &phase) in phase_series.iter_mut().zip(Phase::ALL.iter()) {
            let cost = sw.phases.get(phase).cost(prices.c_theta, prices.c_io);
            series.points.push((x, cost));
        }

        // Storage-layer counters of the last size's pool, folded into
        // the trace next to the executor spans.
        if sink.is_enabled() {
            let mut reg = CounterRegistry::default();
            pool.export_counters(&mut reg);
            sink.emit("bufferpool", 0, reg.as_counters());
        }
    }
    sink.flush().expect("flush trace");

    if smoke {
        println!("# smoke mode: skipping BENCH_sweep_join.json");
        return;
    }
    let path = "BENCH_sweep_join.json";
    let mut series = vec![nested_ms, sweep_ms, nested_cmp, sweep_cmp];
    series.extend(phase_series);
    sj_bench::write_bench_json(path, &series).expect("write bench json");
    println!("# wrote {path}");
}
