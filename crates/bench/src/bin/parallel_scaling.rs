//! Wall-clock scaling of the PBSM-style parallel partition join on the
//! paper's house–lake scenario with UNIFORM placement (the filter-heavy
//! workload: tens of thousands of point houses against polygonal lakes).
//!
//! Run: `cargo run --release -p sj-bench --bin parallel_scaling`
//! (`--smoke` shrinks to 64 tuples per side and skips the JSON artifact
//! — CI mode; `--trace out.jsonl` records per-phase/per-tile/per-worker
//! spans of the last run at each thread count as JSONL).
//!
//! Prints a CSV of wall-clock milliseconds and speedup per thread count
//! and writes the same series — plus a per-phase cost breakdown in the
//! model's units — to `BENCH_parallel_join.json`.

use std::time::Instant;

use sj_core::workload::{generate, GeometryKind, Placement, WorkloadSpec};
use sj_costmodel::series::Series;
use sj_costmodel::ModelParams;
use sj_geom::{Rect, ThetaOp};
use sj_joins::parallel::Parallelism;
use sj_joins::{JoinOperands, JoinRequest, Phase, StoredRelation, Strategy};
use sj_obs::CounterRegistry;
use sj_storage::{BufferPool, Disk, DiskConfig, Layout};

const HOUSES: usize = 20_000;
const LAKES: usize = 2_000;
const REPS: usize = 3;
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Static per-phase series labels (Series carries `&'static str`).
fn phase_label(phase: Phase) -> &'static str {
    match phase {
        Phase::Partition => "partition_cost",
        Phase::Filter => "filter_cost",
        Phase::Refine => "refine_cost",
        Phase::IndexProbe => "index_probe_cost",
    }
}

fn main() {
    let args = sj_bench::BenchArgs::parse();
    let smoke = args.smoke();
    let mut sink = args.trace_sink();
    let (houses_n, lakes_n) = if smoke { (64, 64) } else { (HOUSES, LAKES) };
    let world = Rect::from_bounds(0.0, 0.0, 1000.0, 1000.0);
    let houses = generate(
        &WorkloadSpec {
            count: houses_n,
            world,
            kind: GeometryKind::Point,
            placement: Placement::Uniform,
            max_extent: 0.0,
            seed: 42,
        },
        0,
    );
    let lakes = generate(
        &WorkloadSpec {
            count: lakes_n,
            world,
            kind: GeometryKind::Polygon,
            placement: Placement::Uniform,
            max_extent: 40.0,
            seed: 43,
        },
        1_000_000,
    );
    let mut pool = BufferPool::new(Disk::new(DiskConfig::paper()), 256);
    let r = StoredRelation::build(&mut pool, &houses, 300, Layout::Clustered);
    let s = StoredRelation::build(&mut pool, &lakes, 300, Layout::Clustered);
    let theta = ThetaOp::WithinDistance(10.0);
    let ops = JoinOperands::flat(&r, &s, world);

    println!(
        "# parallel partition join, house-lake UNIFORM: |R|={houses_n} points, \
         |S|={lakes_n} polygons, theta=WithinDistance(10), best of {REPS} runs"
    );
    println!(
        "# host reports {} available core(s)",
        Parallelism::auto().threads
    );
    println!("threads,wall_ms,speedup,pairs,comparisons");

    let mut wall = Series {
        label: "wall_ms",
        points: Vec::new(),
    };
    let mut speedup = Series {
        label: "speedup",
        points: Vec::new(),
    };
    let mut phase_series: Vec<Series> = Phase::ALL
        .iter()
        .map(|&p| Series {
            label: phase_label(p),
            points: Vec::new(),
        })
        .collect();
    let mut base_ms = 0.0;
    let mut base_pairs = usize::MAX;
    let mut base_comparisons = u64::MAX;
    for threads in THREADS {
        let par = Parallelism::with_threads(threads);
        let mut exec = Strategy::Partition
            .executor(&ops)
            .expect("flat operands present");
        let mut best_ms = f64::INFINITY;
        let mut run = None;
        for rep in 0..REPS {
            pool.clear();
            pool.reset_stats();
            // Only the last rep is traced, so the timed reps pay nothing
            // for instrumentation (TraceSink::Null short-circuits).
            let req = if rep + 1 == REPS {
                JoinRequest::new(theta)
                    .with_parallelism(par)
                    .with_trace(std::mem::take(&mut sink))
            } else {
                JoinRequest::new(theta).with_parallelism(par)
            };
            let t0 = Instant::now();
            let out = exec
                .try_execute(&req, &mut pool)
                .expect("in-memory disk cannot fault");
            best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            if rep + 1 == REPS {
                sink = req.take_trace();
            }
            // Bench-smoke guard: per-phase deltas must sum exactly to
            // the run's totals on every strategy (sealed invariant).
            assert_eq!(
                out.phases.total(),
                out.stats,
                "phase deltas must sum to run totals"
            );
            run = Some(out);
        }
        let run = run.expect("REPS >= 1");
        if threads == 1 {
            base_ms = best_ms;
            base_pairs = run.pairs.len();
            base_comparisons = run.stats.comparisons();
        }
        // The match set and the comparison totals are thread-invariant;
        // fail loudly if a regression breaks that.
        assert_eq!(run.pairs.len(), base_pairs, "match set changed");
        assert_eq!(
            run.stats.comparisons(),
            base_comparisons,
            "comparison count changed"
        );
        let sp = base_ms / best_ms;
        println!(
            "{threads},{best_ms:.2},{sp:.3},{},{}",
            run.pairs.len(),
            run.stats.comparisons()
        );
        wall.points.push((threads as f64, best_ms));
        speedup.points.push((threads as f64, sp));
        let prices = ModelParams::paper();
        for (series, &phase) in phase_series.iter_mut().zip(Phase::ALL.iter()) {
            let cost = run.phases.get(phase).cost(prices.c_theta, prices.c_io);
            series.points.push((threads as f64, cost));
        }
    }

    // Fold the pool's lifetime counters into the trace so a JSONL
    // consumer sees storage-layer behavior next to the executor spans.
    if sink.is_enabled() {
        let mut reg = CounterRegistry::default();
        pool.export_counters(&mut reg);
        sink.emit("bufferpool", 0, reg.as_counters());
        sink.flush().expect("flush trace");
    }

    if smoke {
        println!("# smoke mode: skipping BENCH_parallel_join.json");
        return;
    }
    let path = "BENCH_parallel_join.json";
    let mut series = vec![wall, speedup];
    series.extend(phase_series);
    sj_bench::write_bench_json(path, &series).expect("write bench json");
    println!("# wrote {path}");
}
