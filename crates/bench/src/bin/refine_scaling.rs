//! Exact-decode vs margin-governed refinement on the forward-scan sweep
//! join over polygon relations — the decode-work half of the PR-9
//! compressed-geometry tentpole.
//!
//! Run: `cargo run --release -p sj-bench --bin refine_scaling`
//! (`--smoke` shrinks to n=64 and skips the JSON artifact — CI mode;
//! `--out <path>` redirects the artifact; `--trace <path>` records the
//! `refine/decode` spans of the margin runs).
//!
//! Both paths run on identical inputs and the bin *asserts* byte-equal
//! pair sequences and an identical `theta_evals` charge before
//! reporting — the artifact can only ever show a performance
//! difference, never a semantic one. The margin path reads the
//! quantized sidecar (v2 frames, u16 grid cells against the MBR
//! anchor), answers candidates from MBR interval rules and ε_q-padded
//! chain rules, and decodes exact coordinates only for `MustDecode`
//! pairs; `decode_fraction = decoded_exact / theta_evals` is the
//! fraction that still needed the exact record.
//!
//! Writes `BENCH_refine.json` with series
//! `{exact,margin}_{ms,rps}`, `decode_fraction`, and
//! `{exact,margin}_physical_reads`.

use std::time::Instant;

use sj_core::workload::{generate, GeometryKind, Placement, WorkloadSpec};
use sj_costmodel::series::Series;
use sj_geom::{Rect, ThetaOp};
use sj_joins::sweep::try_sweep_join;
use sj_joins::{JoinRequest, JoinRun, StoredRelation};
use sj_storage::{BufferPool, Disk, DiskConfig, Layout};

const SIZES: [usize; 3] = [1_000, 4_000, 16_000];
const SMOKE_SIZES: [usize; 1] = [64];
const REPS: usize = 3;

fn main() {
    let args = sj_bench::BenchArgs::parse();
    let smoke = args.smoke();
    let sizes: &[usize] = if smoke { &SMOKE_SIZES } else { &SIZES };
    let world = Rect::from_bounds(0.0, 0.0, 1000.0, 1000.0);
    let theta = ThetaOp::WithinDistance(5.0);
    let mut trace = args.trace_sink();

    println!(
        "# exact-decode vs margin-governed sweep refinement, uniform polygons, \
         theta=WithinDistance(5), |R|=|S|=n, best of {REPS} runs"
    );
    println!("n,exact_ms,margin_ms,exact_rps,margin_rps,decode_fraction,exact_reads,margin_reads");

    let mut series: Vec<Series> = [
        "exact_ms",
        "margin_ms",
        "exact_rps",
        "margin_rps",
        "decode_fraction",
        "exact_physical_reads",
        "margin_physical_reads",
    ]
    .iter()
    .map(|&label| Series {
        label,
        points: Vec::new(),
    })
    .collect();

    for &n in sizes {
        let r_tuples = generate(
            &WorkloadSpec {
                count: n,
                world,
                kind: GeometryKind::Polygon,
                placement: Placement::Uniform,
                max_extent: 12.0,
                seed: 42,
            },
            0,
        );
        let s_tuples = generate(
            &WorkloadSpec {
                count: n,
                world,
                kind: GeometryKind::Polygon,
                placement: Placement::Uniform,
                max_extent: 12.0,
                seed: 43,
            },
            1_000_000,
        );

        let mut pool = BufferPool::new(Disk::new(DiskConfig::paper()), 4096);
        let exact_r = StoredRelation::build(&mut pool, &r_tuples, 300, Layout::Clustered);
        let exact_s = StoredRelation::build(&mut pool, &s_tuples, 300, Layout::Clustered);
        let qr = StoredRelation::quant_record_size_for(&r_tuples);
        let qs = StoredRelation::quant_record_size_for(&s_tuples);
        let margin_r =
            StoredRelation::build_compressed(&mut pool, &r_tuples, 300, qr, Layout::Clustered);
        let margin_s =
            StoredRelation::build_compressed(&mut pool, &s_tuples, 300, qs, Layout::Clustered);
        assert!(
            margin_r.is_compressed() && margin_s.is_compressed(),
            "compressed build degraded to the exact path at n={n}"
        );

        let mut run_side = |r: &StoredRelation, s: &StoredRelation, req: &JoinRequest| {
            let mut best_ms = f64::INFINITY;
            let mut run: Option<JoinRun> = None;
            let mut reads = 0;
            for _ in 0..REPS {
                pool.clear();
                pool.reset_stats();
                let t0 = Instant::now();
                let out =
                    try_sweep_join(&mut pool, r, s, req).expect("in-memory disk cannot fault");
                best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
                reads = pool.stats().physical_reads;
                run = Some(out);
            }
            (run.expect("REPS >= 1"), best_ms, reads)
        };

        let (exact, exact_ms, exact_reads) = run_side(&exact_r, &exact_s, &JoinRequest::new(theta));
        let margin_req = JoinRequest::new(theta).with_trace(std::mem::take(&mut trace));
        let (margin, margin_ms, margin_reads) = run_side(&margin_r, &margin_s, &margin_req);
        trace = margin_req.take_trace();

        assert_eq!(
            exact.pairs, margin.pairs,
            "margin path diverges from exact at n={n}"
        );
        assert_eq!(
            exact.stats.theta_evals, margin.stats.theta_evals,
            "theta charge diverges at n={n}"
        );
        assert_eq!(
            margin.stats.margin_hits + margin.stats.margin_misses + margin.stats.decoded_exact,
            margin.stats.theta_evals,
            "margin ledger out of balance at n={n}"
        );

        let evals = margin.stats.theta_evals;
        let decode_fraction = if evals > 0 {
            margin.stats.decoded_exact as f64 / evals as f64
        } else {
            0.0
        };
        let exact_rps = evals as f64 / (exact_ms / 1e3);
        let margin_rps = evals as f64 / (margin_ms / 1e3);
        println!(
            "{n},{exact_ms:.3},{margin_ms:.3},{exact_rps:.0},{margin_rps:.0},\
             {decode_fraction:.4},{exact_reads},{margin_reads}"
        );

        let x = n as f64;
        for (i, y) in [
            exact_ms,
            margin_ms,
            exact_rps,
            margin_rps,
            decode_fraction,
            exact_reads as f64,
            margin_reads as f64,
        ]
        .into_iter()
        .enumerate()
        {
            series[i].points.push((x, y));
        }
    }

    if smoke && args.value_of("--out").is_none() {
        println!("# smoke mode: skipping BENCH_refine.json");
        return;
    }
    let path = args.value_of("--out").unwrap_or("BENCH_refine.json");
    sj_bench::write_bench_json(path, &series).expect("write bench json");
    println!("# wrote {path}");
}
