//! Direct calls into each layer's public functions, on a dataset built
//! exactly as the service builds its snapshot (same pool, record size,
//! fan-out and clustering), so the layer timings can be set against the
//! service's own execution time.

use std::time::Instant;

use sj_core::advisor::auto_chooser;
use sj_gentree::rtree::{RTree, RTreeConfig};
use sj_geom::{sweep_candidates, Bounded, SweepItem, ThetaOp};
use sj_joins::{
    ExecStats, JoinIndex, JoinOperands, JoinRequest, Parallelism, Phase, StoredRelation, Strategy,
    TraceSink, TreeRelation,
};
use sj_service::{QueryKind, Request, ServiceConfig, Side};
use sj_storage::{BufferPool, Disk, DiskConfig, IoStats, Layout};

use crate::data::Dataset;

/// B⁺-tree order the join-index executor builds with.
const JOIN_INDEX_Z: usize = 16;

/// The four executor phases, in [`Phase`] order.
pub const PHASES: [Phase; 4] = [
    Phase::Partition,
    Phase::Filter,
    Phase::Refine,
    Phase::IndexProbe,
];

pub struct Layers {
    config: ServiceConfig,
    pool: BufferPool,
    r: StoredRelation,
    s: StoredRelation,
    r_tree: TreeRelation,
    s_tree: TreeRelation,
    data: Dataset,
}

#[derive(Debug, Clone)]
pub struct SelectProbe {
    /// Wall time of `try_select_flat`, µs.
    pub us: f64,
    /// Wall time of forking the request's pool shard and of releasing
    /// it afterwards, µs.
    pub fork_us: f64,
    pub matches: usize,
    pub nodes: u64,
    pub theta_evals: u64,
    pub io: IoStats,
}

#[derive(Debug, Clone)]
pub struct JoinProbe {
    /// Wall time of `try_execute`.
    pub ms: f64,
    /// Wall time of forking the request's pool shard and of releasing
    /// it afterwards.
    pub fork_ms: f64,
    /// Wall time per executor phase, [`PHASES`] order.
    pub phase_ms: [f64; 4],
    pub stats: ExecStats,
    pub pairs: usize,
    pub resolved: Strategy,
    /// Physical reads charged to the refine phase.
    pub refine_reads: u64,
    pub io: IoStats,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn build_tree(pool: &mut BufferPool, rel: &StoredRelation, config: &ServiceConfig) -> TreeRelation {
    let tuples = rel.scan(pool);
    let rt = RTree::bulk_load(RTreeConfig::with_fanout(config.fanout), tuples);
    TreeRelation::new(
        pool,
        rt.tree().clone(),
        config.record_size,
        Layout::Clustered,
    )
}

impl Layers {
    pub fn build(config: &ServiceConfig, data: &Dataset) -> Self {
        let mut pool = BufferPool::new(Disk::new(DiskConfig::paper()), config.pool_capacity);
        let r = StoredRelation::build(&mut pool, &data.r, config.record_size, Layout::Clustered);
        let s = StoredRelation::build(&mut pool, &data.s, config.record_size, Layout::Clustered);
        let r_tree = build_tree(&mut pool, &r, config);
        let s_tree = build_tree(&mut pool, &s, config);
        Layers {
            config: *config,
            pool,
            r,
            s,
            r_tree,
            s_tree,
            data: data.clone(),
        }
    }

    pub fn data(&self) -> &Dataset {
        &self.data
    }

    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Height of the larger generalization tree.
    pub fn tree_height(&self) -> usize {
        self.r_tree.tree.height().max(self.s_tree.tree.height())
    }

    /// A private cold pool shard, as the service forks per request.
    fn shard(&self) -> BufferPool {
        self.pool.fork_view(self.config.shard_capacity)
    }

    /// Algorithm SELECT through `try_select_flat`, charging node I/O the
    /// way the service does.
    pub fn select(&self, req: &Request) -> SelectProbe {
        let QueryKind::Select { side, probe } = &req.kind else {
            panic!("select probe needs a SELECT request");
        };
        let tree = match side {
            Side::R => &self.r_tree,
            Side::S => &self.s_tree,
        };
        let t = Instant::now();
        let mut shard = self.shard();
        let fork_us = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        let out = sj_gentree::select::try_select_flat(
            &tree.tree,
            Some(&tree.flat),
            probe,
            req.theta,
            |node| tree.paged.try_touch_io(&mut shard, node),
        )
        .expect("no fault injector is armed");
        let us = t.elapsed().as_secs_f64() * 1e6;
        let io = shard.stats();
        let t = Instant::now();
        drop(shard);
        SelectProbe {
            us,
            fork_us: fork_us + t.elapsed().as_secs_f64() * 1e6,
            matches: out.matches.len(),
            nodes: out.stats.nodes_visited,
            theta_evals: out.stats.theta_evals,
            io,
        }
    }

    /// One executor run with phase spans captured.
    pub fn join(&self, strategy: Strategy, theta: ThetaOp, parallelism: Parallelism) -> JoinProbe {
        let chooser = self.chooser();
        let ops = JoinOperands::flat(&self.r, &self.s, self.data.world)
            .with_trees(&self.r_tree, &self.s_tree)
            .with_chooser(&chooser);
        let mut exec = strategy
            .executor(&ops)
            .expect("operands cover every strategy");
        let req = JoinRequest::new(theta)
            .with_parallelism(parallelism)
            .with_trace(TraceSink::vec());
        let t = Instant::now();
        let mut shard = self.shard();
        let fork_ms = ms_since(t);
        let t = Instant::now();
        let run = exec
            .try_execute(&req, &mut shard)
            .expect("no fault injector is armed");
        let ms = ms_since(t);
        let io = shard.stats();
        let t = Instant::now();
        drop(shard);
        let fork_ms = fork_ms + ms_since(t);
        let mut phase_ms = [0.0; 4];
        for ev in req.take_trace().events() {
            let tail = ev.span.rsplit('/').next().unwrap_or("");
            if let Some(k) = PHASES.iter().position(|p| p.name() == tail) {
                phase_ms[k] += ev.dur_us as f64 / 1e3;
            }
        }
        JoinProbe {
            ms,
            fork_ms,
            phase_ms,
            stats: run.stats,
            pairs: run.pairs.len(),
            resolved: exec.resolved_strategy(),
            refine_reads: run.phases.get(Phase::Refine).physical_reads,
            io,
        }
    }

    fn chooser(
        &self,
    ) -> impl Fn(ThetaOp, &mut BufferPool) -> Result<Strategy, sj_storage::StorageError> + '_ {
        auto_chooser(
            self.config.profile,
            &self.r,
            &self.s,
            self.config.selectivity_samples,
            self.config.seed,
        )
    }

    /// The `Auto` advisor's decision for `theta`, with its wall time (ms).
    pub fn choose(&self, theta: ThetaOp) -> (Strategy, f64) {
        let chooser = self.chooser();
        let mut shard = self.shard();
        let t = Instant::now();
        let pick = chooser(theta, &mut shard).expect("no fault injector is armed");
        (pick, ms_since(t))
    }

    /// Wall time (ms) of building the join index `Strategy::JoinIndex`
    /// materializes before it can probe.
    pub fn index_build(&self, theta: ThetaOp) -> f64 {
        let mut shard = self.shard();
        let t = Instant::now();
        let built = JoinIndex::try_build(&mut shard, &self.r, &self.s, theta, JOIN_INDEX_Z);
        let ms = ms_since(t);
        built.expect("no fault injector is armed");
        ms
    }

    /// The plane-sweep filter kernel over the join's MBRs: wall time (ms)
    /// and pairs examined. `None` for operators without a bounded filter.
    pub fn sweep(&self, theta: ThetaOp) -> Option<(f64, u64)> {
        let eps = theta.filter_radius()?;
        let mut left: Vec<SweepItem> = self
            .data
            .r
            .iter()
            .enumerate()
            .map(|(i, (_, g))| SweepItem::expanded(i as u32, g.mbr(), eps))
            .collect();
        let mut right: Vec<SweepItem> = self
            .data
            .s
            .iter()
            .enumerate()
            .map(|(i, (_, g))| SweepItem::new(i as u32, g.mbr()))
            .collect();
        let mut candidates = 0u64;
        let t = Instant::now();
        let examined = sweep_candidates(&mut left, &mut right, theta, &mut |_, _| candidates += 1);
        let ms = ms_since(t);
        std::hint::black_box(candidates);
        Some((ms, examined))
    }
}
