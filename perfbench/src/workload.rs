//! The workloads: how each starts its system, what load it offers, and
//! how its answers are checked.

use std::collections::HashMap;
use std::time::Duration;

use sj_geom::ThetaOp;
use sj_joins::Strategy;
use sj_service::{QueryKind, Reply, Request, ServiceConfig, SpatialService};
use sj_shard::{ShardConfig, ShardRouter};

use crate::check::{check_versioned, reply_matches, Observed, Shadow};
use crate::data::{join_cycle, select_probe, BatchPlanner, Dataset, HALO, JOIN_THETAS};
use crate::drive::{closed_loop, cpu_cores, open_loop, Answer, Class, Op, Outcome, Target};
use crate::rng::{mix, Rng, Zipf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    JoinAnalytic,
    ReadWrite,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::JoinAnalytic, Workload::ReadWrite];

    pub fn name(self) -> &'static str {
        match self {
            Workload::JoinAnalytic => "join-analytic",
            Workload::ReadWrite => "read-write",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The request class whose layers the workload stresses.
    pub fn primary(self) -> Class {
        match self {
            Workload::ReadWrite => Class::Select,
            Workload::JoinAnalytic => Class::Join,
        }
    }
}

/// Sizes and rates. [`Scale::full`] is the benchmark; [`Scale::smoke`]
/// is a seconds-long version for tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Tuples of join-analytic, and of every direct join-layer probe.
    pub join_n: usize,
    /// Tuples of read-write.
    pub rw_n: usize,
    /// read-write offered SELECT rate (1/s).
    pub rw_select_rate: f64,
    /// read-write offered commit rate (1/s). Commits stall the reads
    /// that overlap them; at this rate fewer than 5 % of reads do, so
    /// `query_p95_ms` stays clear of that population.
    pub rw_commit_rate: f64,
    /// read-write distinct probes (more than the 256-entry cache holds).
    pub probe_pool: usize,
    /// Setups per run; `setup_s` is their median.
    pub setups: usize,
    /// Minimum samples of every reported request class.
    pub min_samples: usize,
    /// Requests of cache warm-up before read-write is timed.
    pub warmup: usize,
    /// Least time each half of the commit probe spreads its commits over.
    pub commit_span: Duration,
    /// The traced run fails when the directly timed layers leave more
    /// than this share of one request group's execution time
    /// unattributed.
    pub ledger_bound: f64,
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            join_n: 8_000,
            rw_n: 16_000,
            rw_select_rate: 400.0,
            rw_commit_rate: 4.0,
            probe_pool: 1024,
            setups: 11,
            min_samples: 200,
            warmup: 2000,
            commit_span: Duration::from_secs(4),
            // Twice the worst group share measured over 10 traced runs
            // of the JOIN workloads (see `NOTES.md`).
            ledger_bound: 0.3,
        }
    }

    pub fn smoke() -> Self {
        Scale {
            join_n: 2_000,
            rw_n: 2_000,
            rw_select_rate: 200.0,
            rw_commit_rate: 4.0,
            probe_pool: 512,
            setups: 2,
            min_samples: 24,
            warmup: 200,
            commit_span: Duration::from_millis(200),
            // Smoke-sized requests take microseconds; timer and cache
            // effects dominate, so the ledger is reported, not enforced.
            ledger_bound: f64::INFINITY,
        }
    }

    pub fn tuples(&self, w: Workload) -> usize {
        match w {
            Workload::JoinAnalytic => self.join_n,
            Workload::ReadWrite => self.rw_n,
        }
    }
}

/// Per-node service configuration of each workload: two workers, the
/// 256-entry cache on where the workload serves repeated reads.
pub fn service_config(w: Workload) -> ServiceConfig {
    let cache_capacity = match w {
        Workload::ReadWrite => 256,
        Workload::JoinAnalytic => 0,
    };
    ServiceConfig {
        workers: 2,
        cache_capacity,
        ..ServiceConfig::default()
    }
}

/// Two tile shards (no skew splitting) with a halo covering every θ
/// radius, so every join scatters.
pub fn shard_config(service: ServiceConfig, tuples: usize) -> ShardConfig {
    ShardConfig {
        shards: 2,
        halo: HALO,
        split_threshold: tuples.max(1),
        max_split_depth: 0,
        service,
    }
}

/// The read-write probe pool.
fn probe_pool(seed: u64, data: &Dataset, n: usize) -> Vec<Request> {
    let mut rng = Rng::new(mix(seed ^ 0x504F));
    (0..n)
        .map(|_| select_probe(&mut rng, &data.world))
        .collect()
}

const ZIPF_S: f64 = 1.5;

/// Starts the workload's system and runs its warm-up: cache filling on
/// read-write.
pub fn start(w: Workload, scale: &Scale, seed: u64, data: &Dataset) -> Target {
    let svc = SpatialService::start(service_config(w), &data.r, &data.s, data.world);
    if w == Workload::ReadWrite {
        let pool = probe_pool(seed, data, scale.probe_pool);
        let zipf = Zipf::new(pool.len(), ZIPF_S);
        let mut rng = Rng::new(mix(seed ^ 0x5741));
        for _ in 0..scale.warmup {
            // Answers are checked on the timed stream; warm-up only
            // fills the cache.
            let _ = svc.call(pool[zipf.sample(&mut rng)].clone());
        }
    }
    Target::Node(svc)
}

/// Sends `Auto` joins until every shard's adaptive advisor has observed
/// every candidate strategy for every θ-family of the mix.
pub fn explore(router: &ShardRouter) {
    let candidates = |theta: ThetaOp| {
        sj_core::advisor::AdaptiveAdvisor::CANDIDATES
            .iter()
            .filter(|s| s.supports(theta))
            .count() as u64
    };
    for theta in JOIN_THETAS {
        let explored = || {
            (0..router.shard_count())
                .all(|shard| router.advisor_observations(shard, theta) >= candidates(theta))
        };
        for _ in 0..2 * sj_core::advisor::AdaptiveAdvisor::CANDIDATES.len() {
            if explored() {
                break;
            }
            let _ = router.call(Request::join(Strategy::Auto, theta));
        }
    }
}

/// The offered stream of one timed phase. `phase` seeds the requests
/// (two streams of one phase offer the same SELECTs); every request
/// class gets at least `min_samples` requests, even if that takes
/// longer than `seconds`. A `trace`d stream records one span per call.
pub struct Stream {
    pub outcomes: Vec<Outcome>,
    pub ops: Vec<Op>,
    pub wall: Duration,
    /// Spans recorded while the stream ran.
    pub spans: usize,
}

#[allow(clippy::too_many_arguments)]
pub fn run_stream(
    w: Workload,
    scale: &Scale,
    seed: u64,
    phase: u64,
    data: &Dataset,
    target: &Target,
    seconds: f64,
    min_samples: usize,
    planner: &mut BatchPlanner,
    trace: bool,
) -> Stream {
    let seconds = seconds.max(0.5);
    let threads = cpu_cores();
    match w {
        Workload::ReadWrite => {
            let pool = probe_pool(seed, data, scale.probe_pool);
            let zipf = Zipf::new(pool.len(), ZIPF_S);
            let mut rng = Rng::new(mix(seed ^ phase ^ 0x5257));
            let selects = ((scale.rw_select_rate * seconds) as usize).max(min_samples);
            let commits = ((scale.rw_commit_rate * seconds) as usize).max(1);
            let mut schedule: Vec<(Duration, Op)> = (0..selects)
                .map(|i| {
                    (
                        Duration::from_secs_f64(i as f64 / scale.rw_select_rate),
                        Op::Query(pool[zipf.sample(&mut rng)].clone()),
                    )
                })
                .chain((0..commits).map(|i| {
                    (
                        Duration::from_secs_f64((i as f64 + 0.5) / scale.rw_commit_rate),
                        Op::Commit(planner.next_batch()),
                    )
                }))
                .collect();
            schedule.sort_by_key(|(due, _)| *due);
            timed_open(target, schedule, threads, trace)
        }
        Workload::JoinAnalytic => {
            let cycle: Vec<Op> = join_cycle().into_iter().map(Op::Query).collect();
            let (outcomes, wall, spans) = closed_loop(
                target,
                &cycle,
                Duration::from_secs_f64(seconds),
                min_samples,
                trace,
            );
            Stream {
                outcomes,
                ops: cycle,
                wall,
                spans,
            }
        }
    }
}

fn timed_open(
    target: &Target,
    schedule: Vec<(Duration, Op)>,
    threads: usize,
    trace: bool,
) -> Stream {
    let started = std::time::Instant::now();
    let (outcomes, spans) = open_loop(target, &schedule, threads, trace);
    Stream {
        outcomes,
        ops: schedule.into_iter().map(|(_, op)| op).collect(),
        wall: started.elapsed(),
        spans,
    }
}

/// Commits on a system of the workload, for the commit latency at the
/// workload's data size. Commit `i` is sent no
/// earlier than `i · span / n` after the start, so the samples spread
/// over at least `span` instead of one short burst.
pub fn commit_probe(
    target: &Target,
    planner: &mut BatchPlanner,
    n: usize,
    span: Duration,
) -> Stream {
    let ops: Vec<Op> = (0..n).map(|_| Op::Commit(planner.next_batch())).collect();
    let started = std::time::Instant::now();
    let outcomes = ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let due = span.mul_f64(i as f64 / n.max(1) as f64);
            if let Some(wait) = due.checked_sub(started.elapsed()) {
                std::thread::sleep(wait);
            }
            let t = std::time::Instant::now();
            let mut out = target.execute(i, op);
            out.call_us = t.elapsed().as_secs_f64() * 1e6;
            out.latency_us = out.call_us;
            out
        })
        .collect();
    Stream {
        outcomes,
        ops,
        wall: started.elapsed(),
        spans: 0,
    }
}

/// `execute_reference` of every distinct oracle request, spread over
/// one thread per core.
fn reference_replies(
    reference: &SpatialService,
    oracles: HashMap<String, Request>,
) -> HashMap<String, Reply> {
    let oracles: Vec<(String, Request)> = oracles.into_iter().collect();
    let threads = cpu_cores();
    let chunk = oracles.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = oracles
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|(key, req)| (key.clone(), reference.execute_reference(req)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

/// Failures and wrong answers of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Verdict {
    pub attempted: u64,
    /// Shed or failed requests.
    pub rejected: u64,
    pub wrong: u64,
}

/// Checks every answer of `streams` (all sent to one system, in order).
/// Queries of static workloads are compared with the reference node;
/// every commit, and read-write's SELECTs, are replayed on the shadow.
pub fn check(w: Workload, data: &Dataset, streams: &[&Stream]) -> Verdict {
    let mut v = Verdict::default();
    let mut observed = Vec::new();
    let config = service_config(w);
    // Static queries, each with the request its reference executes:
    // `Auto` pairs are checked against a fixed strategy's execution.
    let mut fixed: Vec<(&Request, &Answer, String)> = Vec::new();
    let mut oracles: HashMap<String, Request> = HashMap::new();
    for stream in streams {
        for out in &stream.outcomes {
            v.attempted += 1;
            let answer = match &out.answer {
                Ok(a) => a,
                Err(_) => {
                    v.rejected += 1;
                    continue;
                }
            };
            match (&stream.ops[out.op], answer) {
                (Op::Commit(batch), Answer::Receipt { outcomes, .. }) => {
                    observed.push(Observed::Commit {
                        version: out.version,
                        batch,
                        outcomes,
                    })
                }
                (Op::Query(req), Answer::Reply(Reply::Select { matches }))
                    if w == Workload::ReadWrite =>
                {
                    observed.push(Observed::Select {
                        version: out.version,
                        req,
                        matches,
                    })
                }
                (Op::Query(req), answer) if w != Workload::ReadWrite => {
                    let oracle = match req.kind {
                        QueryKind::Join {
                            strategy: Strategy::Auto,
                        } => Request::join(Strategy::Sweep, req.theta),
                        _ => req.clone(),
                    };
                    let key = format!("{:?}", (&oracle.kind, oracle.theta));
                    oracles.entry(key.clone()).or_insert(oracle);
                    fixed.push((req, answer, key));
                }
                _ => v.wrong += 1,
            }
        }
    }
    if !oracles.is_empty() {
        let mut c = config;
        c.workers = 1;
        c.cache_capacity = 0;
        let reference = SpatialService::start(c, &data.r, &data.s, data.world);
        let wants = reference_replies(&reference, oracles);
        v.wrong += fixed
            .iter()
            .filter(|(req, answer, key)| !reply_matches(req, answer, &wants[key]))
            .count() as u64;
    }
    let shadow = Shadow::new(data, config.record_size);
    v.wrong += check_versioned(shadow, &observed);
    v
}
