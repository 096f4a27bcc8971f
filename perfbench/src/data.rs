//! Seeded inputs: the dataset, the request mixes and the write batches.
//! Everything here is a pure function of the benchmark seed.

use std::collections::HashSet;

use sj_core::workload::{generate, GeometryKind, Placement, WorkloadSpec};
use sj_geom::{Bounded, Geometry, Point, Rect, ThetaOp};
use sj_joins::{Side, Strategy, WriteBatch};
use sj_service::Request;

use crate::rng::{mix, Rng};

/// First id of the S relation (R ids start at 0).
const S_ID0: u64 = 1_000_000;
/// Generator seed of the S cluster layout (the `shard_scaling` one).
const S_LAYOUT_SEED: u64 = 43;
/// First id the write batches allocate for inserted tuples.
const NEW_ID0: u64 = 100_000_000;

/// θ-operators of the JOIN mix. Every filter radius is at most
/// [`HALO`], so shard joins scatter instead of using the fallback. The
/// distance radii keep the selectivity below what the advisor's 64-pair
/// sample can see on almost every seed, so `Auto` resolves the same way
/// on every seed (at radii 25 and 40 its pick flipped on 2 and 5 of 30
/// seeds).
pub const JOIN_THETAS: [ThetaOp; 4] = [
    ThetaOp::Overlaps,
    ThetaOp::WithinDistance(5.0),
    ThetaOp::ContainedIn,
    ThetaOp::WithinCenterDistance(8.0),
];
pub const JOIN_STRATEGIES: [Strategy; 4] = [
    Strategy::Auto,
    Strategy::Sweep,
    Strategy::Partition,
    Strategy::Tree,
];
pub const SELECT_THETAS: [ThetaOp; 3] = [
    ThetaOp::Overlaps,
    ThetaOp::WithinDistance(10.0),
    ThetaOp::ContainedIn,
];
/// Shard halo: covers every θ radius of both mixes.
pub const HALO: f64 = 40.0;

/// R = ¾ uniform points, S = ¼ clustered (HI-LOC) rectangles.
///
/// A dataset of `n` tuples is not a prefix of a larger one (S is drawn
/// from a pool sized by `n`).
#[derive(Debug, Clone)]
pub struct Dataset {
    pub r: Vec<(u64, Geometry)>,
    pub s: Vec<(u64, Geometry)>,
    pub world: Rect,
}

impl Dataset {
    pub fn generate(seed: u64, n: usize) -> Self {
        let world = Rect::from_bounds(0.0, 0.0, 1000.0, 1000.0);
        let nr = n * 3 / 4;
        let r = generate(
            &WorkloadSpec {
                count: nr,
                world,
                kind: GeometryKind::Point,
                placement: Placement::Uniform,
                max_extent: 0.0,
                seed: mix(seed ^ 0x5245),
            },
            0,
        );
        // S keeps one cluster layout for every seed: the layout comes
        // from a fixed generator seed, and the run seed picks which of
        // its rectangles (a quarter of them) make up S. Seeds then differ
        // in their tuples, not in where the hot spots are.
        let ns = n - nr;
        let pool = generate(
            &WorkloadSpec {
                count: 4 * ns,
                world,
                kind: GeometryKind::Rect,
                placement: Placement::Clustered {
                    clusters: 8,
                    sigma: 40.0,
                },
                max_extent: 12.0,
                seed: S_LAYOUT_SEED,
            },
            0,
        );
        let mut rng = Rng::new(mix(seed ^ 0x5345));
        let mut picked: Vec<usize> = (0..pool.len()).collect();
        for i in 0..ns {
            let j = i + rng.index(picked.len() - i);
            picked.swap(i, j);
        }
        picked.truncate(ns);
        picked.sort_unstable();
        let s = picked
            .into_iter()
            .enumerate()
            .map(|(i, k)| (S_ID0 + i as u64, pool[k].1.clone()))
            .collect();
        Dataset { r, s, world }
    }

    pub fn len(&self) -> usize {
        self.r.len() + self.s.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The JOIN cycle: every strategy of [`JOIN_STRATEGIES`] on every
/// operator of [`JOIN_THETAS`], 16 requests.
pub fn join_cycle() -> Vec<Request> {
    JOIN_THETAS
        .iter()
        .flat_map(|&theta| JOIN_STRATEGIES.map(|s| Request::join(s, theta)))
        .collect()
}

/// A SELECT drawn from continuous space: a point or a window probe, on
/// either side, under one of [`SELECT_THETAS`].
pub fn select_probe(rng: &mut Rng, world: &Rect) -> Request {
    let side = if rng.unit() < 0.5 { Side::R } else { Side::S };
    let theta = SELECT_THETAS[rng.index(SELECT_THETAS.len())];
    let x = rng.range(world.lo.x, world.hi.x);
    let y = rng.range(world.lo.y, world.hi.y);
    let probe = if rng.unit() < 0.5 {
        Geometry::Point(Point::new(x, y))
    } else {
        let (w, h) = (rng.range(2.0, 30.0), rng.range(2.0, 30.0));
        Geometry::Rect(Rect::from_bounds(x, y, x + w, y + h))
    };
    Request::select(side, probe, theta)
}

/// Plans 16-op write batches, each confined to one 30×30 region:
/// 8 inserts of fresh tuples, 4 upserts and 4 deletes of existing
/// tuples found in the region (fresh ids / absent ids when the region
/// holds too few). Outcomes are not assumed: the checker replays the
/// batches in commit order.
pub struct BatchPlanner {
    rng: Rng,
    world: Rect,
    /// Base tuples by side, for region lookups.
    base: Vec<(Side, u64, Rect)>,
    taken: HashSet<u64>,
    next_id: u64,
}

const BATCH_OPS: usize = 16;
const REGION: f64 = 30.0;

impl BatchPlanner {
    pub fn new(seed: u64, data: &Dataset) -> Self {
        let base = data
            .r
            .iter()
            .map(|(id, g)| (Side::R, *id, g.mbr()))
            .chain(data.s.iter().map(|(id, g)| (Side::S, *id, g.mbr())))
            .collect();
        BatchPlanner {
            rng: Rng::new(mix(seed ^ 0x5752)),
            world: data.world,
            base,
            taken: HashSet::new(),
            next_id: NEW_ID0,
        }
    }

    fn fresh_geometry(&mut self, side: Side, region: &Rect) -> Geometry {
        let x = self.rng.range(region.lo.x, region.hi.x - 12.0);
        let y = self.rng.range(region.lo.y, region.hi.y - 12.0);
        match side {
            Side::R => Geometry::Point(Point::new(x, y)),
            Side::S => {
                let (w, h) = (self.rng.range(0.5, 12.0), self.rng.range(0.5, 12.0));
                Geometry::Rect(Rect::from_bounds(x, y, x + w, y + h))
            }
        }
    }

    pub fn next_batch(&mut self) -> WriteBatch {
        let x = self.rng.range(self.world.lo.x, self.world.hi.x - REGION);
        let y = self.rng.range(self.world.lo.y, self.world.hi.y - REGION);
        let region = Rect::from_bounds(x, y, x + REGION, y + REGION);
        let mut in_region: Vec<(Side, u64)> = self
            .base
            .iter()
            .filter(|(_, id, mbr)| !self.taken.contains(id) && region.contains_rect(mbr))
            .map(|(side, id, _)| (*side, *id))
            .collect();
        let mut batch = WriteBatch::new();
        for i in 0..BATCH_OPS / 2 {
            let side = if i % 2 == 0 { Side::R } else { Side::S };
            let g = self.fresh_geometry(side, &region);
            batch = batch.insert(side, self.next_id, g);
            self.next_id += 1;
        }
        for i in 0..BATCH_OPS / 4 {
            let (side, id) = in_region.pop().unwrap_or_else(|| {
                self.next_id += 1;
                (if i % 2 == 0 { Side::R } else { Side::S }, self.next_id)
            });
            self.taken.insert(id);
            let g = self.fresh_geometry(side, &region);
            batch = batch.upsert(side, id, g);
        }
        for i in 0..BATCH_OPS / 4 {
            let (side, id) = in_region.pop().unwrap_or_else(|| {
                self.next_id += 1;
                (if i % 2 == 0 { Side::R } else { Side::S }, self.next_id)
            });
            self.taken.insert(id);
            batch = batch.delete(side, id);
        }
        batch
    }
}

/// Encoded bytes of the geometry a batch carries (inserts and upserts):
/// the user payload the write-ahead log is charged against.
pub fn user_bytes(batch: &WriteBatch) -> usize {
    batch
        .ops
        .iter()
        .map(|(_, op)| match op {
            sj_joins::Mutation::Insert { value, .. } | sj_joins::Mutation::Upsert { value, .. } => {
                sj_geom::codec::encoded_len(value)
            }
            sj_joins::Mutation::Delete { .. } => 0,
        })
        .sum()
}
