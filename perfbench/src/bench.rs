//! One benchmark run: set up, offer the workload's stream, check every
//! answer, and report either the end-to-end metrics (untraced) or the
//! per-layer metrics (traced).

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use sj_costmodel::{join::d_iib_io, Distribution, ModelParams};
use sj_joins::{Parallelism, Strategy};
use sj_service::{QueryKind, Request, SpatialService};
use sj_shard::ShardRouter;

use crate::data::{join_cycle, select_probe, user_bytes, BatchPlanner, Dataset, JOIN_THETAS};
use crate::drive::{cpu_cores, Answer, Class, Op, Outcome, Target};
use crate::layers::{JoinProbe, Layers, SelectProbe};
use crate::rng::{mix, Rng};
use crate::stats::{mean, median, quantile, ratio};
use crate::workload::{
    check, commit_probe, explore, run_stream, service_config, shard_config, start, Scale, Stream,
    Verdict, Workload,
};

/// A run is invalid when the open-loop generator sent requests later
/// than their due time by more than this at the 99th percentile: twice
/// the worst p99 measured over full-size open-loop runs (see `NOTES.md`).
pub const LATENESS_BOUND_MS: f64 = 17.0;

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// A metric as reported: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

#[derive(Default)]
pub struct Report {
    pub verdict: Verdict,
    pub metrics: Vec<Metric>,
    /// Why the run is invalid, if it is.
    pub invalid: Option<String>,
    /// Extra facts for the run's artifact, as `(key, JSON value)`.
    pub facts: Vec<(String, String)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.verdict.wrong == 0 && self.invalid.is_none()
    }

    pub fn failed(&self) -> u64 {
        self.verdict.rejected + self.verdict.wrong
    }
}

fn ms(us: f64) -> f64 {
    us / 1e3
}

fn ok_of(stream: &Stream, class: Option<Class>) -> Vec<&Outcome> {
    stream
        .outcomes
        .iter()
        .filter(|o| o.answer.is_ok() && class.is_none_or(|c| o.class == c))
        .collect()
}

fn queries(stream: &Stream) -> Vec<&Outcome> {
    ok_of(stream, None)
        .into_iter()
        .filter(|o| o.class != Class::Commit)
        .collect()
}

fn latencies_ms(outs: &[&Outcome]) -> Vec<f64> {
    outs.iter().map(|o| ms(o.latency_us)).collect()
}

/// Resident set size of this process, MB.
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn lateness_facts(stream: &Stream, report: &mut Report) {
    let late: Vec<f64> = stream.outcomes.iter().map(|o| ms(o.lateness_us)).collect();
    let p99 = quantile(&late, 0.99);
    let max = late.iter().copied().fold(0.0, f64::max);
    report
        .facts
        .push(("lateness_p99_ms".into(), format!("{p99}")));
    report
        .facts
        .push(("lateness_max_ms".into(), format!("{max}")));
    if p99 > LATENESS_BOUND_MS {
        report.invalid = Some(format!(
            "generator lateness p99 {p99:.3} ms exceeds {LATENESS_BOUND_MS} ms"
        ));
    }
}

fn class_facts(label: &str, stream: &Stream, report: &mut Report) {
    for (class, name) in [
        (Class::Select, "select"),
        (Class::Join, "join"),
        (Class::Commit, "commit"),
    ] {
        let lat = latencies_ms(&ok_of(stream, Some(class)));
        if !lat.is_empty() {
            report.facts.push((
                format!("{label}_{name}_latency_ms"),
                format!(
                    "{{\"n\": {}, \"p50\": {}, \"p95\": {}}}",
                    lat.len(),
                    median(&lat),
                    quantile(&lat, 0.95)
                ),
            ));
        }
    }
}

fn data_for(args: &Args) -> Dataset {
    Dataset::generate(args.seed, args.scale.tuples(args.workload))
}

/// Runs of each request in the traced run's direct layer calls.
const REPS: usize = 3;

/// The untraced run: end-to-end metrics.
pub fn run_plain(args: &Args) -> Report {
    let w = args.workload;
    let scale = &args.scale;
    let data = data_for(args);
    let mut report = Report::default();

    // Set up several times; keep the first system, measure memory with
    // only it alive. Half the extra setups run before the stream and half
    // after it, so the median spans the host's speed over the whole run,
    // not one moment of it.
    let mut setup_s = Vec::new();
    let t = Instant::now();
    let target = start(w, scale, args.seed, &data);
    setup_s.push(t.elapsed().as_secs_f64());
    let rss = rss_mb();
    let set_up_again = |n: usize, setup_s: &mut Vec<f64>| {
        for _ in 0..n {
            let t = Instant::now();
            let extra = start(w, scale, args.seed, &data);
            setup_s.push(t.elapsed().as_secs_f64());
            drop(extra);
        }
    };
    let extra = scale.setups.saturating_sub(1);
    set_up_again(extra / 2, &mut setup_s);

    // The commit probe has a node of its own, set up like the workload's,
    // so its commits touch neither the stream's data nor its cache. Half
    // its commits run before the stream and half after it, for the same
    // reason as the setups.
    let prober = start(w, scale, args.seed, &data);
    let mut probe_planner = BatchPlanner::new(args.seed, &data);
    let half = scale.min_samples.div_ceil(2);
    let before = commit_probe(&prober, &mut probe_planner, half, scale.commit_span);

    let mut planner = BatchPlanner::new(args.seed, &data);
    let stream = run_stream(
        w,
        scale,
        args.seed,
        0,
        &data,
        &target,
        args.seconds,
        scale.min_samples,
        &mut planner,
        false,
    );
    let after = commit_probe(
        &prober,
        &mut probe_planner,
        scale.min_samples - half,
        scale.commit_span,
    );
    let commits = joined(before, after);
    set_up_again(extra - extra / 2, &mut setup_s);

    let (on_target, on_prober) = (check(w, &data, &[&stream]), check(w, &data, &[&commits]));
    report.verdict = Verdict {
        attempted: on_target.attempted + on_prober.attempted,
        rejected: on_target.rejected + on_prober.rejected,
        wrong: on_target.wrong + on_prober.wrong,
    };
    lateness_facts(&stream, &mut report);
    class_facts("stream", &stream, &mut report);
    class_facts("probe", &commits, &mut report);
    report.facts.push((
        "setups_s".into(),
        format!(
            "[{}]",
            setup_s
                .iter()
                .map(|s| format!("{s:.6}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ));

    let q = windows(&queries(&stream), scale.min_samples);
    let c = latencies_ms(&ok_of(&commits, Some(Class::Commit)));
    let done = ok_of(&stream, None).len() as f64;
    let over_windows =
        |stat: &dyn Fn(&[f64]) -> f64| median(&q.iter().map(|w| stat(w)).collect::<Vec<_>>());
    report.facts.push((
        "query_windows_ms".into(),
        format!(
            "[{}]",
            q.iter()
                .map(|w| format!("[{:.4}, {:.4}]", median(w), quantile(w, 0.95)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ));
    report.metrics = vec![
        ("setup_s", median(&setup_s), "s"),
        ("query_p50_ms", over_windows(&median), "ms"),
        ("query_p95_ms", over_windows(&|w| quantile(w, 0.95)), "ms"),
        ("commit_p50_ms", median(&c), "ms"),
        ("ops_per_s", done / stream.wall.as_secs_f64(), "1/s"),
        ("rss_mb", rss, "MB"),
    ];
    report
}

/// `b` sent after `a` to the same system, as one stream.
fn joined(mut a: Stream, b: Stream) -> Stream {
    let base = a.ops.len();
    a.outcomes.extend(b.outcomes.into_iter().map(|mut o| {
        o.op += base;
        o
    }));
    a.ops.extend(b.ops);
    a.wall += b.wall;
    a.spans += b.spans;
    a
}

/// The latencies (ms) of `outs` in send order, cut into consecutive
/// windows of at least `min` each. The end-to-end quantiles are medians
/// over windows: a burst of CPU time taken by the host inflates the
/// tail of the windows it falls in, not the median window. With `min` =
/// 200, each window's p95 has at least 10 samples beyond it.
fn windows(outs: &[&Outcome], min: usize) -> Vec<Vec<f64>> {
    let mut sent: Vec<(f64, f64)> = outs
        .iter()
        .map(|o| (o.start_us, ms(o.latency_us)))
        .collect();
    sent.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = sent.len();
    let k = (n / min.max(1)).max(1);
    (0..k)
        .map(|i| {
            sent[i * n / k..(i + 1) * n / k]
                .iter()
                .map(|(_, l)| *l)
                .collect()
        })
        .collect()
}

/// Per-combo medians of the stream's JOIN execution times (µs), keyed by
/// (strategy, θ) debug name.
fn join_exec_medians(stream: &Stream) -> HashMap<(Strategy, String), f64> {
    let mut by: HashMap<(Strategy, String), Vec<f64>> = HashMap::new();
    for o in ok_of(stream, Some(Class::Join)) {
        if let Op::Query(Request {
            kind: QueryKind::Join { strategy },
            theta,
            ..
        }) = &stream.ops[o.op]
        {
            by.entry((*strategy, format!("{theta:?}")))
                .or_default()
                .push(o.exec_us as f64);
        }
    }
    by.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// Auto's execution time over the best fixed strategy's, per θ, averaged
/// over the θ-operators of the mix.
fn regret(medians: &HashMap<(Strategy, String), f64>) -> f64 {
    let per_theta: Vec<f64> = JOIN_THETAS
        .iter()
        .filter_map(|theta| {
            let key = format!("{theta:?}");
            let auto = medians.get(&(Strategy::Auto, key.clone()))?;
            let best = [Strategy::Sweep, Strategy::Partition, Strategy::Tree]
                .iter()
                .filter_map(|s| medians.get(&(*s, key.clone())))
                .copied()
                .fold(f64::INFINITY, f64::min);
            Some(auto / best.max(1e-9))
        })
        .collect();
    mean(&per_theta)
}

/// Direct probes of the join layers on one dataset, `REPS` runs of every
/// `Auto` combination and `3 · REPS` of every fixed-strategy one (about
/// 5 ms each, so the extra runs cost under a second and steady the
/// ledger); per combination the median run. With a `node`, each direct
/// run follows the node serving the same request, so the ledger
/// compares timings taken moments apart.
struct JoinLayer {
    probes: HashMap<(Strategy, String), JoinProbe>,
    choose_ms: HashMap<String, (Strategy, f64)>,
    index_build_ms: HashMap<String, f64>,
    /// Per combination, with a node: its ledger entry (ms).
    ledger: HashMap<(Strategy, String), Ledger>,
}

/// One request's ledger entry: the fastest of its runs on the serving
/// node (`exec_us`), and the fastest sum of its directly timed layer
/// calls. Preemption and cold caches only add time, so each side's
/// fastest run is its repeatable cost.
#[derive(Debug, Clone, Copy)]
struct Ledger {
    service: f64,
    layers: f64,
}

impl Ledger {
    fn of(service: &[f64], layers: &[f64]) -> Option<Ledger> {
        let fastest = |v: &[f64]| v.iter().copied().reduce(f64::min);
        Some(Ledger {
            service: fastest(service)?,
            layers: fastest(layers)?,
        })
    }
}

/// The runs of one (strategy, θ) combination.
#[derive(Default)]
struct JoinRuns {
    runs: Vec<JoinProbe>,
    exec: Vec<f64>,
    attributed: Vec<f64>,
    choices: Vec<(Strategy, f64)>,
    builds: Vec<f64>,
}

fn probe_joins(layers: &Layers, node: Option<&SpatialService>) -> JoinLayer {
    // Rounds over the whole cycle, so each combination's runs spread
    // over the probe's seconds rather than sit in one burst: this box's
    // cores change speed under neighbouring load, and a burst can catch
    // the node's worker and the direct call on cores of different speed.
    let mut all: HashMap<(Strategy, String), JoinRuns> = HashMap::new();
    for round in 0..3 * REPS {
        for req in join_cycle() {
            let QueryKind::Join { strategy } = req.kind else {
                continue;
            };
            if strategy == Strategy::Auto && round % 3 != 0 {
                continue;
            }
            let theta = req.theta;
            let acc = all.entry((strategy, format!("{theta:?}"))).or_default();
            if let Some(resp) = node.and_then(|n| n.call(req.clone()).ok()) {
                acc.exec.push(resp.exec_us as f64 / 1e3);
            }
            // The request's layer work: the pool fork, the executor
            // phases, and for `Auto` the advisor's choice and the index
            // build.
            let run = layers.join(strategy, theta, Parallelism::sequential());
            let mut work = run.fork_ms + run.phase_ms.iter().sum::<f64>();
            acc.runs.push(run);
            if strategy == Strategy::Auto {
                let choice = layers.choose(theta);
                work += choice.1;
                if choice.0 == Strategy::JoinIndex {
                    let build = layers.index_build(theta);
                    work += build;
                    acc.builds.push(build);
                }
                acc.choices.push(choice);
            }
            acc.attributed.push(work);
        }
    }
    let mut jl = JoinLayer {
        probes: HashMap::new(),
        choose_ms: HashMap::new(),
        index_build_ms: HashMap::new(),
        ledger: HashMap::new(),
    };
    for ((strategy, key), mut acc) in all {
        acc.runs.sort_by(|a, b| a.ms.total_cmp(&b.ms));
        let mid = acc.runs.len() / 2;
        jl.probes
            .insert((strategy, key.clone()), acc.runs.swap_remove(mid));
        if let Some(entry) = Ledger::of(&acc.exec, &acc.attributed) {
            jl.ledger.insert((strategy, key.clone()), entry);
        }
        if !acc.choices.is_empty() {
            acc.choices.sort_by(|a, b| a.1.total_cmp(&b.1));
            jl.choose_ms
                .insert(key.clone(), acc.choices[acc.choices.len() / 2]);
        }
        if !acc.builds.is_empty() {
            jl.index_build_ms.insert(key, median(&acc.builds));
        }
    }
    jl
}

impl JoinLayer {
    fn get(&self, s: Strategy, theta: &sj_geom::ThetaOp) -> &JoinProbe {
        &self.probes[&(s, format!("{theta:?}"))]
    }
}

/// Shard-layer figures of routed queries.
struct ShardFigures {
    route_ms: f64,
    dup_share: f64,
    fanout: f64,
    splits: usize,
}

/// Routing time comes from the SELECTs of `outs`: each goes to one
/// shard, whose queue and exec its reply reports. A scattered JOIN's
/// reply reports the slowest queue and the slowest exec, possibly of
/// different shards, and their sum can exceed the call. Duplicates and
/// fan-out come from the requests of the `primary` class.
fn shard_figures(outs: &[&Outcome], primary: Class, splits: usize) -> ShardFigures {
    let route: Vec<f64> = outs
        .iter()
        .filter(|o| o.class == Class::Select)
        .map(|o| ms(o.call_us - (o.queue_us + o.exec_us) as f64).max(0.0))
        .collect();
    let outs: Vec<&Outcome> = outs
        .iter()
        .copied()
        .filter(|o| o.class == primary)
        .collect();
    let dups: u64 = outs.iter().map(|o| o.duplicates).sum();
    let results: usize = outs.iter().map(|o| o.results()).sum();
    ShardFigures {
        route_ms: median(&route),
        dup_share: ratio(dups as f64, (results as u64 + dups) as f64),
        fanout: mean(&outs.iter().map(|o| o.shards as f64).collect::<Vec<_>>()),
        splits,
    }
}

/// Routes `sample` through a two-shard router on the workload's data.
/// Before JOINs, every shard's adaptive advisor explores, as a routed
/// deployment's would; the routed stream then shows the shards' `Auto`.
fn router_probe(w: Workload, data: &Dataset, sample: Vec<Request>) -> (ShardFigures, Stream) {
    let mut config = service_config(w);
    config.cache_capacity = 0;
    let router = ShardRouter::start(shard_config(config, data.len()), &data.r, &data.s);
    if w.primary() == Class::Join {
        explore(&router);
    }
    let target = Target::Router(Box::new(router));
    let ops: Vec<Op> = sample.into_iter().map(Op::Query).collect();
    let started = Instant::now();
    let outcomes: Vec<Outcome> = ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let t = Instant::now();
            let mut o = target.execute(i, op);
            o.call_us = t.elapsed().as_secs_f64() * 1e6;
            o.compact();
            o
        })
        .collect();
    let splits = target.router().map_or(0, |r| r.plan().splits());
    let routed = Stream {
        outcomes,
        ops,
        wall: started.elapsed(),
        spans: 0,
    };
    let figures = shard_figures(&ok_of(&routed, None), w.primary(), splits);
    (figures, routed)
}

/// Commit-path figures: apply pages per op, WAL bytes per user byte,
/// cache purge share.
fn commit_figures(stream: &Stream, wal_growth: usize) -> (f64, f64, f64) {
    let mut pages = 0u64;
    let mut ops = 0usize;
    let mut user = 0usize;
    let (mut purged, mut retained) = (0usize, 0usize);
    for o in ok_of(stream, Some(Class::Commit)) {
        if let (
            Op::Commit(batch),
            Ok(Answer::Receipt {
                io,
                purged: p,
                retained: r,
                ..
            }),
        ) = (&stream.ops[o.op], &o.answer)
        {
            pages += io.physical_reads + io.physical_writes;
            ops += batch.len();
            user += user_bytes(batch);
            purged += p;
            retained += r;
        }
    }
    (
        ratio(pages as f64, ops as f64),
        ratio(wal_growth as f64, user as f64),
        ratio(purged as f64, (purged + retained) as f64),
    )
}

fn wal_len(svc: &SpatialService) -> usize {
    svc.wal_image().len()
}

/// The traced run: per-layer metrics.
pub fn run_traced(args: &Args) -> Report {
    let w = args.workload;
    let scale = &args.scale;
    let data = data_for(args);
    let mut report = Report::default();
    let share = args.seconds / 3.0;

    let mut phase_s: Vec<(&str, f64)> = Vec::new();
    let mut clock = Instant::now();
    let mut lap = |name: &'static str, phase_s: &mut Vec<(&str, f64)>| {
        phase_s.push((name, clock.elapsed().as_secs_f64()));
        clock = Instant::now();
    };
    let target = start(w, scale, args.seed, &data);
    lap("setup", &mut phase_s);

    // Direct layer calls. For the ledger, a single node with the same
    // data (no cache) serves each request of the primary class right
    // before the direct call repeats it.
    let layers = Layers::build(&service_config(w), &data);
    let join_layers;
    let jl = if data.len() == scale.join_n {
        &layers
    } else {
        join_layers = Layers::build(
            &service_config(w),
            &Dataset::generate(args.seed, scale.join_n),
        );
        &join_layers
    };
    let mut ledger_config = service_config(w);
    ledger_config.cache_capacity = 0;
    let ledger_node = SpatialService::start(ledger_config, &data.r, &data.s, data.world);
    let mut rng = Rng::new(mix(args.seed ^ 0x4C59));
    let sample: Vec<Request> = (0..scale.min_samples)
        .map(|_| select_probe(&mut rng, &data.world))
        .collect();
    // Every request runs `REPS` times, the node and the direct call in
    // alternation; per request, the median direct run.
    let selects: Vec<(SelectProbe, Option<Ledger>)> = sample
        .iter()
        .map(|req| {
            let mut exec = Vec::new();
            let mut runs = Vec::new();
            for _ in 0..REPS {
                if w.primary() == Class::Select {
                    if let Ok(r) = ledger_node.call(req.clone()) {
                        exec.push(r.exec_us as f64 / 1e3);
                    }
                }
                runs.push(layers.select(req));
            }
            runs.sort_by(|a, b| (a.fork_us + a.us).total_cmp(&(b.fork_us + b.us)));
            let work: Vec<f64> = runs.iter().map(|p| (p.fork_us + p.us) / 1e3).collect();
            let ledger = Ledger::of(&exec, &work);
            (runs.swap_remove(REPS / 2), ledger)
        })
        .collect();
    let joins = probe_joins(jl, (w.primary() == Class::Join).then_some(&ledger_node));
    drop(ledger_node);
    lap("layers", &mut phase_s);

    // Two streams of the same requests, the second one traced: one
    // span per call, recorded inside the timed interval.
    let mut planner = BatchPlanner::new(args.seed, &data);
    let plain = run_stream(
        w,
        scale,
        args.seed,
        1,
        &data,
        &target,
        share,
        0,
        &mut planner,
        false,
    );
    let wal_before = target.node().map_or(0, wal_len);
    let traced = run_stream(
        w,
        scale,
        args.seed,
        1,
        &data,
        &target,
        share,
        0,
        &mut planner,
        true,
    );
    if traced.spans != traced.outcomes.len() {
        report.invalid = Some(format!(
            "{} spans for {} traced calls",
            traced.spans,
            traced.outcomes.len()
        ));
    }
    let wal_after = target.node().map_or(0, wal_len);

    // Commit path: the stream's own commits on read-write; otherwise a
    // commit probe on the node after the streams.
    let (commit_stream, wal_growth) = if w == Workload::ReadWrite {
        (None, wal_after - wal_before)
    } else {
        let before = wal_after;
        let s = commit_probe(&target, &mut planner, 32, Duration::ZERO);
        (Some(s), target.node().map_or(0, wal_len) - before)
    };
    let (apply_pages, wal_ratio, purge_share) =
        commit_figures(commit_stream.as_ref().unwrap_or(&traced), wal_growth);

    lap("streams", &mut phase_s);
    report.verdict = check(w, &data, &[&plain, &traced]);
    // The commit probe's versions start at 1 on either system: the
    // streams before it committed nothing there.
    if let Some(s) = &commit_stream {
        let v = check(w, &data, &[s]);
        report.verdict.attempted += v.attempted;
        report.verdict.rejected += v.rejected;
        report.verdict.wrong += v.wrong;
    }
    lap("check", &mut phase_s);

    // Service layer, from the traced stream.
    let q = queries(&traced);
    let queue: Vec<f64> = q.iter().map(|o| ms(o.queue_us as f64)).collect();
    let exec: Vec<f64> = q
        .iter()
        .filter(|o| !o.cached)
        .map(|o| ms(o.exec_us as f64))
        .collect();
    let overhead: Vec<f64> = q
        .iter()
        .map(|o| ms(o.call_us - (o.queue_us + o.exec_us) as f64))
        .collect();
    let cached = q.iter().filter(|o| o.cached).count() as f64;
    let trace_overhead = ratio(
        median(&latencies_ms(&q)),
        median(&latencies_ms(&queries(&plain))),
    );

    let results: usize = selects.iter().map(|(p, _)| p.matches).sum();
    let select_us: Vec<f64> = selects.iter().map(|(p, _)| p.us).collect();
    let all_probes: Vec<&JoinProbe> = joins.probes.values().collect();
    let strategy_ms = |s: Strategy| {
        mean(
            &JOIN_THETAS
                .iter()
                .map(|t| joins.get(s, t).ms)
                .collect::<Vec<_>>(),
        )
    };
    let phase_mean = |k: usize| mean(&all_probes.iter().map(|p| p.phase_ms[k]).collect::<Vec<_>>());
    let theta_evals: u64 = all_probes.iter().map(|p| p.stats.theta_evals).sum();
    let pairs: usize = all_probes.iter().map(|p| p.pairs).sum();
    let mut sweep_ms = Vec::new();
    let mut sweep_cmp = Vec::new();
    for theta in JOIN_THETAS {
        let mut runs: Vec<(f64, u64)> = (0..3).filter_map(|_| jl.sweep(theta)).collect();
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        if let Some(&(m, c)) = runs.get(runs.len() / 2) {
            sweep_ms.push(m);
            sweep_cmp.push(c as f64);
        }
    }
    lap("service", &mut phase_s);
    let mut refine_p1 = 0u64;
    let mut refine_pn = 0u64;
    for theta in JOIN_THETAS {
        refine_p1 += jl
            .join(Strategy::Partition, theta, Parallelism::sequential())
            .refine_reads;
        refine_pn += jl
            .join(
                Strategy::Partition,
                theta,
                Parallelism::with_threads(cpu_cores()),
            )
            .refine_reads;
    }

    let fork_us = match w.primary() {
        Class::Select => median(&selects.iter().map(|(p, _)| p.fork_us).collect::<Vec<_>>()),
        _ => 1e3 * median(&all_probes.iter().map(|p| p.fork_ms).collect::<Vec<_>>()),
    };
    // Storage: per request of the workload's primary class.
    let (reads, logical, hits, n_ops) = match w.primary() {
        Class::Select => selects.iter().fold((0, 0, 0, 0), |a, (p, _)| {
            (
                a.0 + p.io.physical_reads,
                a.1 + p.io.logical_reads,
                a.2 + p.io.hits(),
                a.3 + 1,
            )
        }),
        _ => all_probes.iter().fold((0, 0, 0, 0), |a, p| {
            (
                a.0 + p.io.physical_reads,
                a.1 + p.io.logical_reads,
                a.2 + p.io.hits(),
                a.3 + 1,
            )
        }),
    };

    // The §4 model's clustered-tree join I/O against the measured reads
    // of the tree join, at the tree's height and the measured selectivity.
    let config = jl.config();
    let mut params = ModelParams::reduced(config.fanout, jl.tree_height().max(1));
    params.v = config.record_size as f64;
    params.m_mem = (config.shard_capacity as f64).max(11.0);
    let cross = (jl.data().r.len() * jl.data().s.len()).max(1) as f64;
    lap("sweep+partition", &mut phase_s);
    let read_ratio = mean(
        &JOIN_THETAS
            .iter()
            .map(|t| {
                let p = joins.get(Strategy::Tree, t);
                let predicted =
                    d_iib_io(&params, Distribution::Uniform, p.pairs as f64 / cross) / params.c_io;
                ratio(p.stats.physical_reads as f64, predicted)
            })
            .collect::<Vec<_>>(),
    );

    // Advisor regret: from the stream where it sends Auto joins, else
    // from the direct runs.
    let regret_value = if w == Workload::JoinAnalytic {
        regret(&join_exec_medians(&traced))
    } else {
        regret(
            &joins
                .probes
                .iter()
                .map(|(k, p)| (k.clone(), p.ms))
                .collect(),
        )
    };

    // Shard layer: the workload's SELECT sample, plus `REPS` rounds of
    // the JOIN cycle on JOIN workloads, through a two-shard router on
    // the same data.
    let routed_sample = match w.primary() {
        Class::Select => sample.clone(),
        _ => sample
            .iter()
            .cloned()
            .chain((0..REPS).flat_map(|_| join_cycle()))
            .collect(),
    };
    let (shard, routed) = router_probe(w, &data, routed_sample);
    if w.primary() == Class::Join {
        report.facts.push((
            "shard_advisor_regret".into(),
            format!("{}", regret(&join_exec_medians(&routed))),
        ));
    }

    lap("shard", &mut phase_s);
    // Ledger: the service's execution time against the directly timed
    // layer calls for the same requests, per group of like requests:
    // SELECTs by θ, JOINs by strategy (summed over the θ of the mix).
    let rows: Vec<(String, Ledger)> = match w.primary() {
        Class::Select => sample
            .iter()
            .zip(&selects)
            .filter_map(|(req, (_, entry))| Some((format!("{:?}", req.theta), (*entry)?)))
            .collect(),
        _ => joins
            .ledger
            .iter()
            .map(|((s, _), entry)| (s.name().to_string(), *entry))
            .collect(),
    };
    let shares = ledger_shares(&rows);
    let (unattributed, worst) = shares
        .iter()
        .map(|(k, v)| (v.share, k.as_str()))
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .unwrap_or((0.0, ""));
    if unattributed > scale.ledger_bound {
        report.invalid = Some(format!(
            "ledger: {unattributed:.3} of {worst}'s execution time unattributed (bound {})",
            scale.ledger_bound
        ));
    }

    let choose: Vec<f64> = joins.choose_ms.values().map(|c| c.1).collect();
    let builds: Vec<f64> = joins.index_build_ms.values().copied().collect();
    report.metrics = vec![
        ("service.queue_ms.p50", median(&queue), "ms"),
        ("service.queue_ms.p95", quantile(&queue, 0.95), "ms"),
        ("service.exec_ms.p50", median(&exec), "ms"),
        ("service.exec_ms.p95", quantile(&exec, 0.95), "ms"),
        ("service.overhead_ms.p50", median(&overhead), "ms"),
        (
            "service.cache_hit_rate",
            ratio(cached, q.len() as f64),
            "ratio",
        ),
        ("commit.apply_pages_per_op", apply_pages, "pages/op"),
        ("commit.wal_bytes_per_user_byte", wal_ratio, "ratio"),
        ("commit.purge_share", purge_share, "ratio"),
        ("gentree.select_us", median(&select_us), "us"),
        (
            "gentree.nodes_per_result",
            ratio(
                selects.iter().map(|(p, _)| p.nodes).sum::<u64>() as f64,
                results.max(1) as f64,
            ),
            "count",
        ),
        (
            "gentree.theta_evals_per_result",
            ratio(
                selects.iter().map(|(p, _)| p.theta_evals).sum::<u64>() as f64,
                results.max(1) as f64,
            ),
            "count",
        ),
        ("joins.auto.ms", strategy_ms(Strategy::Auto), "ms"),
        ("joins.sweep.ms", strategy_ms(Strategy::Sweep), "ms"),
        ("joins.partition.ms", strategy_ms(Strategy::Partition), "ms"),
        ("joins.tree.ms", strategy_ms(Strategy::Tree), "ms"),
        ("joins.partition_ms", phase_mean(0), "ms"),
        ("joins.filter_ms", phase_mean(1), "ms"),
        ("joins.refine_ms", phase_mean(2), "ms"),
        ("joins.index_probe_ms", phase_mean(3), "ms"),
        ("joins.index_build_ms", mean(&builds), "ms"),
        (
            "joins.theta_evals",
            theta_evals as f64 / all_probes.len().max(1) as f64,
            "count",
        ),
        (
            "joins.filter_evals",
            mean(
                &all_probes
                    .iter()
                    .map(|p| p.stats.filter_evals as f64)
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
        (
            "joins.refine_precision",
            ratio(pairs as f64, theta_evals as f64),
            "ratio",
        ),
        ("joins.partition.refine_reads_p1", refine_p1 as f64, "pages"),
        ("joins.partition.refine_reads_pn", refine_pn as f64, "pages"),
        ("geom.sweep_ms", mean(&sweep_ms), "ms"),
        ("geom.sweep_comparisons", mean(&sweep_cmp), "count"),
        (
            "storage.physical_reads_per_op",
            ratio(reads as f64, n_ops as f64),
            "pages/op",
        ),
        (
            "storage.buffer_hit_rate",
            ratio(hits as f64, logical as f64),
            "ratio",
        ),
        ("storage.fork_us", fork_us, "us"),
        ("advisor.choose_ms", mean(&choose), "ms"),
        ("advisor.regret", regret_value, "ratio"),
        ("costmodel.read_ratio", read_ratio, "ratio"),
        ("shard.route_ms", shard.route_ms, "ms"),
        ("shard.dup_share", shard.dup_share, "ratio"),
        ("shard.fanout", shard.fanout, "shards"),
        ("shard.skew_splits", shard.splits as f64, "count"),
        ("trace_overhead", trace_overhead, "ratio"),
        ("ledger.unattributed_share", unattributed, "ratio"),
    ];
    lateness_facts(&traced, &mut report);
    report.facts.push((
        "ledger_shares".into(),
        format!(
            "{{{}}}",
            shares
                .iter()
                .map(|(k, v)| {
                    format!(
                        "\"{k}\": {{\"share\": {:.4}, \"service_ms\": {:.4}, \"layers_ms\": {:.4}, \"n\": {}}}",
                        v.share, v.service_ms, v.layers_ms, v.n
                    )
                })
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ));
    report.facts.push((
        "phase_s".into(),
        format!(
            "{{{}}}",
            phase_s
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v:.3}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ));
    report.facts.push((
        "auto_picks".into(),
        format!(
            "{{{}}}",
            joins
                .choose_ms
                .iter()
                .map(|(k, (s, _))| format!("\"{k}\": \"{}\"", s.name()))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ));
    report
}

/// One ledger group: mean service and layer times (ms) and the share
/// |service − layers| / service.
#[derive(Default)]
struct LedgerRow {
    service_ms: f64,
    layers_ms: f64,
    n: usize,
    share: f64,
}

/// The ledger per group of like requests. A group's share cannot hide
/// behind another group's time or cancel against another group's error.
fn ledger_shares(rows: &[(String, Ledger)]) -> BTreeMap<String, LedgerRow> {
    let mut groups: BTreeMap<String, LedgerRow> = BTreeMap::new();
    for (key, entry) in rows {
        let g = groups.entry(key.clone()).or_default();
        g.service_ms += entry.service;
        g.layers_ms += entry.layers;
        g.n += 1;
    }
    for g in groups.values_mut() {
        g.share = ratio((g.service_ms - g.layers_ms).abs(), g.service_ms);
        g.service_ms /= g.n as f64;
        g.layers_ms /= g.n as f64;
    }
    groups
}
