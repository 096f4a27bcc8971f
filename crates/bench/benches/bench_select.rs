//! Selection-strategy wall-clock: exhaustive scan (I) vs Algorithm SELECT
//! over the R-tree (II) vs the z-value index, plus kNN search.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sj_core::workload::{generate, GeometryKind, Placement, WorkloadSpec};
use sj_gentree::knn::nearest_k;
use sj_gentree::rtree::{RTree, RTreeConfig};
use sj_geom::{Geometry, Point, Rect, ThetaOp};
use sj_joins::nested_loop::try_exhaustive_select;
use sj_joins::tree_join::{try_tree_select, TraversalOrder};
use sj_joins::{StoredRelation, TreeRelation, ZIndex};
use sj_storage::{BufferPool, Disk, DiskConfig, Layout};
use sj_zorder::ZGrid;
use std::hint::black_box;

const WORLD: f64 = 1000.0;

fn bench_select_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("select_strategies");
    for &n in &[1_000usize, 10_000] {
        let tuples = generate(
            &WorkloadSpec {
                count: n,
                world: Rect::from_bounds(0.0, 0.0, WORLD, WORLD),
                kind: GeometryKind::Rect,
                placement: Placement::Uniform,
                max_extent: 5.0,
                seed: 3,
            },
            0,
        );
        let window = Geometry::Rect(Rect::from_bounds(400.0, 400.0, 480.0, 480.0));
        let theta = ThetaOp::Overlaps;

        group.bench_with_input(BenchmarkId::new("I_exhaustive", n), &n, |b, _| {
            let mut p = BufferPool::new(Disk::new(DiskConfig::paper()), 10_000);
            let rel = StoredRelation::build(&mut p, &tuples, 300, Layout::Clustered);
            b.iter(|| {
                let run = try_exhaustive_select(&mut p, &rel, &window, theta)
                    .expect("in-memory disk cannot fault");
                black_box(run.matches.len())
            });
        });

        group.bench_with_input(BenchmarkId::new("II_tree_select", n), &n, |b, _| {
            let mut p = BufferPool::new(Disk::new(DiskConfig::paper()), 10_000);
            let tr = TreeRelation::new(
                &mut p,
                RTree::bulk_load(RTreeConfig::with_fanout(10), tuples.clone())
                    .tree()
                    .clone(),
                300,
                Layout::Clustered,
            );
            b.iter(|| {
                let run =
                    try_tree_select(&mut p, &tr, &window, theta, TraversalOrder::BreadthFirst)
                        .expect("in-memory disk cannot fault");
                black_box(run.matches.len())
            });
        });

        group.bench_with_input(BenchmarkId::new("zvalue_index", n), &n, |b, _| {
            let mut p = BufferPool::new(Disk::new(DiskConfig::paper()), 10_000);
            let rel = StoredRelation::build(&mut p, &tuples, 300, Layout::Clustered);
            let idx = ZIndex::try_build(
                &mut p,
                &rel,
                ZGrid::new(Rect::from_bounds(0.0, 0.0, WORLD, WORLD), 8),
                100,
            )
            .expect("in-memory disk cannot fault");
            b.iter(|| {
                let run = idx
                    .try_select(&mut p, &rel, &window, theta)
                    .expect("in-memory disk cannot fault");
                black_box(run.matches.len())
            });
        });
    }
    group.finish();
}

fn bench_knn(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn");
    for &n in &[10_000usize, 100_000] {
        let tuples = generate(
            &WorkloadSpec {
                count: n,
                world: Rect::from_bounds(0.0, 0.0, WORLD, WORLD),
                kind: GeometryKind::Point,
                placement: Placement::Uniform,
                max_extent: 0.0,
                seed: 5,
            },
            0,
        );
        let rt = RTree::bulk_load(RTreeConfig::with_fanout(10), tuples);
        for &k in &[1usize, 10, 100] {
            group.bench_with_input(BenchmarkId::new(format!("k{k}"), n), &rt, |b, rt| {
                let q = Point::new(497.0, 503.0);
                b.iter(|| black_box(nearest_k(rt.tree(), &q, k, |_| {}).0.len()));
            });
        }
    }
    group.finish();
}

/// Short measurement windows: these benches compare executors whose
/// differences are orders of magnitude, so tight confidence intervals are
/// not worth minutes of wall-clock per target.
fn fast_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(700))
}

criterion_group!(
    name = benches;
    config = fast_config();
    targets = bench_select_strategies, bench_knn
);
criterion_main!(benches);
