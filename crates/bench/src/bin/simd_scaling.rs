//! Scalar vs batched (SoA mask-kernel) filter scaling on the three
//! filter-heavy join paths: the raw forward-scan sweep, the PBSM
//! partition join, and the depth-first tree join.
//!
//! Run: `cargo run --release -p sj-bench --bin simd_scaling`
//! (`--smoke` shrinks to n=64 and skips the JSON artifact — CI mode;
//! `--out <path>` redirects the artifact, used by the CI schema gate).
//!
//! Both kernels are exercised on identical inputs; the bin *asserts*
//! zero result divergence (same pair sequences, same comparison counts)
//! before reporting, so the artifact can only ever show a performance
//! difference, never a semantic one. Comparison counts are
//! kernel-invariant by construction — `comparisons/sec` is therefore a
//! direct throughput measure of the same logical work.
//!
//! Writes `BENCH_simd_join.json` with 12 series:
//! `{sweep,partition,tree}_{scalar,batched}_{cps,ms}`.

use std::time::Instant;

use sj_core::workload::{generate, GeometryKind, Placement, WorkloadSpec};
use sj_costmodel::series::Series;
use sj_gentree::rtree::{RTree, RTreeConfig};
use sj_gentree::{join, FlatChildren};
use sj_geom::sweep::{sweep_candidates_with, Kernel, SweepItem};
use sj_geom::{Bounded, Rect, ThetaOp};
use sj_joins::{JoinOperands, JoinRequest, StoredRelation, Strategy};
use sj_storage::{BufferPool, Disk, DiskConfig, Layout};

const SIZES: [usize; 4] = [1_000, 4_000, 16_000, 64_000];
const SMOKE_SIZES: [usize; 1] = [64];
const REPS: usize = 3;

/// One measured (comparisons, wall-ms, pairs) sample.
struct Sample {
    comparisons: u64,
    best_ms: f64,
    pairs: Vec<(u64, u64)>,
}

fn main() {
    let args = sj_bench::BenchArgs::parse();
    let smoke = args.smoke();
    let sizes: &[usize] = if smoke { &SMOKE_SIZES } else { &SIZES };
    let world = Rect::from_bounds(0.0, 0.0, 1000.0, 1000.0);
    let theta = ThetaOp::WithinDistance(5.0);

    println!(
        "# scalar vs batched SoA filter kernels, uniform points vs rects, \
         theta=WithinDistance(5), |R|=|S|=n, best of {REPS} runs"
    );
    println!("path,n,scalar_ms,batched_ms,scalar_cps,batched_cps,comparisons,pairs");

    let mut series: Vec<Series> = [
        "sweep_scalar_cps",
        "sweep_batched_cps",
        "sweep_scalar_ms",
        "sweep_batched_ms",
        "partition_scalar_cps",
        "partition_batched_cps",
        "partition_scalar_ms",
        "partition_batched_ms",
        "tree_scalar_cps",
        "tree_batched_cps",
        "tree_scalar_ms",
        "tree_batched_ms",
    ]
    .iter()
    .map(|&label| Series {
        label,
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

        let paths: [(&str, [Sample; 2]); 3] = [
            ("sweep", run_sweep(&points, &rects, theta)),
            ("partition", run_partition(&points, &rects, world, theta)),
            ("tree", run_tree(&points, &rects, theta)),
        ];
        for (pi, (path, [scalar, batched])) in paths.into_iter().enumerate() {
            assert_eq!(
                scalar.pairs, batched.pairs,
                "{path} kernels diverge at n={n}"
            );
            assert_eq!(
                scalar.comparisons, batched.comparisons,
                "{path} comparison counts diverge at n={n}"
            );
            let scalar_cps = scalar.comparisons as f64 / (scalar.best_ms / 1e3);
            let batched_cps = batched.comparisons as f64 / (batched.best_ms / 1e3);
            println!(
                "{path},{n},{:.3},{:.3},{:.0},{:.0},{},{}",
                scalar.best_ms,
                batched.best_ms,
                scalar_cps,
                batched_cps,
                scalar.comparisons,
                scalar.pairs.len()
            );
            let x = n as f64;
            series[pi * 4].points.push((x, scalar_cps));
            series[pi * 4 + 1].points.push((x, batched_cps));
            series[pi * 4 + 2].points.push((x, scalar.best_ms));
            series[pi * 4 + 3].points.push((x, batched.best_ms));
        }
    }

    if smoke && args.value_of("--out").is_none() {
        println!("# smoke mode: skipping BENCH_simd_join.json");
        return;
    }
    let path = args.value_of("--out").unwrap_or("BENCH_simd_join.json");
    sj_bench::write_bench_json(path, &series).expect("write bench json");
    println!("# wrote {path}");
}

/// Raw forward-scan sweep over prepared MBR lists — the purest view of
/// the filter kernel, no storage or refinement in the timed region.
fn run_sweep(
    points: &[(u64, sj_geom::Geometry)],
    rects: &[(u64, sj_geom::Geometry)],
    theta: ThetaOp,
) -> [Sample; 2] {
    let eps = theta.filter_radius().expect("bounded operator");
    let left: Vec<SweepItem> = points
        .iter()
        .enumerate()
        .map(|(i, (_, g))| SweepItem::expanded(i as u32, g.mbr(), eps))
        .collect();
    let right: Vec<SweepItem> = rects
        .iter()
        .enumerate()
        .map(|(j, (_, g))| SweepItem::new(j as u32, g.mbr()))
        .collect();
    [Kernel::Scalar, Kernel::Batched].map(|kernel| {
        let mut best_ms = f64::INFINITY;
        let mut comparisons = 0;
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        for _ in 0..REPS {
            let (mut l, mut r) = (left.clone(), right.clone());
            pairs.clear();
            let t0 = Instant::now();
            comparisons = sweep_candidates_with(&mut l, &mut r, theta, kernel, &mut |i, j| {
                pairs.push((points[i as usize].0, rects[j as usize].0));
            });
            best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        Sample {
            comparisons,
            best_ms,
            pairs,
        }
    })
}

/// Sequential PBSM partition join end-to-end (tile sweeps + refinement).
fn run_partition(
    points: &[(u64, sj_geom::Geometry)],
    rects: &[(u64, sj_geom::Geometry)],
    world: Rect,
    theta: ThetaOp,
) -> [Sample; 2] {
    let mut pool = BufferPool::new(Disk::new(DiskConfig::paper()), 4096);
    let r = StoredRelation::build(&mut pool, points, 300, Layout::Clustered);
    let s = StoredRelation::build(&mut pool, rects, 300, Layout::Clustered);
    let mut exec = Strategy::Partition
        .executor(&JoinOperands::flat(&r, &s, world))
        .expect("flat operands present");
    [Kernel::Scalar, Kernel::Batched].map(|kernel| {
        // A sequential request (the default) with the kernel pinned.
        let req = JoinRequest {
            kernel: Some(kernel),
            ..JoinRequest::new(theta)
        };
        let mut best_ms = f64::INFINITY;
        let mut run = None;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let out = exec
                .try_execute(&req, &mut pool)
                .expect("in-memory disk cannot fault");
            best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            run = Some(out);
        }
        let out = run.expect("REPS >= 1");
        Sample {
            comparisons: out.stats.comparisons(),
            best_ms,
            pairs: out.pairs,
        }
    })
}

/// In-memory depth-first tree join over bulk-loaded R-trees: the batched
/// side descends through [`FlatChildren`] snapshots, the scalar side
/// through per-child filter loops. No paged I/O in the timed region, so
/// the kernels' probe costs dominate. Fanout 32 matches the paper's
/// page-derived node sizes (2000-byte pages at 0.75 utilization hold
/// ~37 entries) and fills whole [`LANES`]-wide chunks.
fn run_tree(
    points: &[(u64, sj_geom::Geometry)],
    rects: &[(u64, sj_geom::Geometry)],
    theta: ThetaOp,
) -> [Sample; 2] {
    let rt_r = RTree::bulk_load(RTreeConfig::with_fanout(32), points.to_vec());
    let rt_s = RTree::bulk_load(RTreeConfig::with_fanout(32), rects.to_vec());
    let (tr, ts) = (rt_r.tree(), rt_s.tree());
    let (fr, fs) = (FlatChildren::build(tr), FlatChildren::build(ts));
    [Kernel::Scalar, Kernel::Batched].map(|kernel| {
        let (flat_r, flat_s) = match kernel {
            Kernel::Scalar => (None, None),
            Kernel::Batched => (Some(&fr), Some(&fs)),
        };
        let mut best_ms = f64::INFINITY;
        let mut run = None;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let out = join::join_depth_first_flat(tr, flat_r, ts, flat_s, theta, |_| {}, |_| {});
            best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            run = Some(out);
        }
        let out = run.expect("REPS >= 1");
        Sample {
            comparisons: out.stats.comparisons(),
            best_ms,
            pairs: out.pairs,
        }
    })
}
