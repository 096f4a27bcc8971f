//! Load generation against the public entry points: open loops on a
//! fixed schedule and a closed loop of one waiting client. At most
//! `nproc` generator threads run at once.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use sj_joins::{MutationOutcome, Strategy, WriteBatch};
use sj_obs::{Span, TraceSink};
use sj_service::{QueryKind, Rejection, Reply, Request, SpatialService};
use sj_shard::ShardRouter;
use sj_storage::IoStats;

use crate::rng::mix;

/// The system under test.
pub enum Target {
    Node(SpatialService),
    Router(Box<ShardRouter>),
}

/// One unit of offered load.
#[derive(Debug, Clone)]
pub enum Op {
    Query(Request),
    Commit(WriteBatch),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Select,
    Join,
    Commit,
}

impl Class {
    /// The span a traced stream records for a request of this class.
    pub fn span(self) -> &'static str {
        match self {
            Class::Select => "client/select",
            Class::Join => "client/join",
            Class::Commit => "client/commit",
        }
    }
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Query(Request {
                kind: QueryKind::Select { .. },
                ..
            }) => Class::Select,
            Op::Query(_) => Class::Join,
            Op::Commit(_) => Class::Commit,
        }
    }
}

/// A JOIN reply reduced to what the checker compares, so a run does not
/// hold every pair list it received.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinDigest {
    pub len: usize,
    /// Order-sensitive hash of the (sorted) pairs.
    pub hash: u64,
    pub resolved: Strategy,
}

impl JoinDigest {
    pub fn of(pairs: &[(u64, u64)], resolved: Strategy) -> Self {
        let hash = pairs.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, (r, s)| {
            mix(h ^ r.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ s.rotate_left(32))
        });
        JoinDigest {
            len: pairs.len(),
            hash,
            resolved,
        }
    }
}

/// What a completed operation returned.
#[derive(Debug, Clone)]
pub enum Answer {
    /// A SELECT reply (JOIN replies are digested once timed).
    Reply(Reply),
    Join(JoinDigest),
    Receipt {
        outcomes: Vec<MutationOutcome>,
        io: IoStats,
        purged: usize,
        retained: usize,
    },
}

/// One completed (or rejected) operation with its timings.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Index of the op in the offered stream.
    pub op: usize,
    pub class: Class,
    /// Client-observed latency, µs: from the send time, plus (open loop)
    /// any time the op waited past its due time for a free generator
    /// thread.
    pub latency_us: f64,
    /// Send to completion, µs.
    pub call_us: f64,
    /// How late the generator sent the op past its due time while a
    /// generator thread was free, µs.
    pub lateness_us: f64,
    /// Send time relative to the stream start, µs.
    pub start_us: f64,
    pub queue_us: u64,
    pub exec_us: u64,
    pub cached: bool,
    pub shards: usize,
    pub duplicates: u64,
    pub version: u64,
    pub answer: Result<Answer, Rejection>,
}

impl Outcome {
    /// Replaces a JOIN reply by its digest.
    pub fn compact(&mut self) {
        if let Ok(Answer::Reply(Reply::Join { pairs, resolved })) = &self.answer {
            self.answer = Ok(Answer::Join(JoinDigest::of(pairs, *resolved)));
        }
    }

    /// Result count of a query answer.
    pub fn results(&self) -> usize {
        match &self.answer {
            Ok(Answer::Reply(r)) => r.len(),
            Ok(Answer::Join(d)) => d.len,
            _ => 0,
        }
    }
}

impl Target {
    pub fn node(&self) -> Option<&SpatialService> {
        match self {
            Target::Node(svc) => Some(svc),
            Target::Router(_) => None,
        }
    }

    pub fn router(&self) -> Option<&ShardRouter> {
        match self {
            Target::Router(router) => Some(router),
            Target::Node(_) => None,
        }
    }

    /// Runs `op` and fills in everything but the client timings.
    pub fn execute(&self, index: usize, op: &Op) -> Outcome {
        let mut out = Outcome {
            op: index,
            class: op.class(),
            latency_us: 0.0,
            call_us: 0.0,
            lateness_us: 0.0,
            start_us: 0.0,
            queue_us: 0,
            exec_us: 0,
            cached: false,
            shards: 1,
            duplicates: 0,
            version: 0,
            answer: Err(Rejection::Closed),
        };
        match (self, op) {
            (Target::Node(svc), Op::Query(req)) => {
                out.answer = svc.call(req.clone()).map(|resp| {
                    out.queue_us = resp.queue_us;
                    out.exec_us = resp.exec_us;
                    out.cached = resp.cached;
                    out.version = resp.version;
                    Answer::Reply(resp.reply)
                });
            }
            (Target::Router(router), Op::Query(req)) => {
                out.answer = router.call(req.clone()).map(|resp| {
                    out.queue_us = resp.queue_us;
                    out.exec_us = resp.exec_us;
                    out.cached = resp.cached;
                    out.version = resp.version;
                    out.shards = resp.shards_queried;
                    out.duplicates = resp.duplicates;
                    Answer::Reply(resp.reply)
                });
            }
            (Target::Node(svc), Op::Commit(batch)) => {
                out.answer = svc.commit(batch).map(|rc| {
                    out.version = rc.version;
                    Answer::Receipt {
                        outcomes: rc.outcomes,
                        io: rc.io,
                        purged: rc.cache_purged,
                        retained: rc.cache_retained,
                    }
                });
            }
            (Target::Router(router), Op::Commit(batch)) => {
                out.answer = router.commit(batch).map(|rc| {
                    out.version = rc.version;
                    out.shards = rc.shard_commits;
                    Answer::Receipt {
                        outcomes: rc.outcomes,
                        io: rc.io,
                        purged: rc.cache_purged,
                        retained: rc.cache_retained,
                    }
                });
            }
        }
        out
    }
}

/// A stream's generator thread or client: sends ops and, when traced,
/// records each call as one `sj-obs` span inside the timed interval,
/// with the service's queue and execution times as its counters.
struct Sender<'a> {
    target: &'a Target,
    sink: TraceSink,
}

impl<'a> Sender<'a> {
    fn new(target: &'a Target, trace: bool) -> Self {
        let sink = if trace {
            TraceSink::vec()
        } else {
            TraceSink::null()
        };
        Sender { target, sink }
    }

    fn send(&mut self, index: usize, op: &Op) -> Outcome {
        if !self.sink.is_enabled() {
            return self.target.execute(index, op);
        }
        let span = Span::begin(op.class().span());
        let out = self.target.execute(index, op);
        span.finish(
            &mut self.sink,
            &[("queue_us", out.queue_us), ("exec_us", out.exec_us)],
        );
        out
    }

    fn spans(&self) -> usize {
        self.sink.events().len()
    }
}

/// Generator threads: one per available core.
pub fn cpu_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Open loop: op `i` is due at `schedule[i].0` after the start. Up to
/// `threads` generator threads each take the next due op, send it at
/// its due time and wait for the answer. An op that falls due while
/// every thread waits is sent late, and that wait counts in its
/// latency. The generator's own oversleep (time past due while a thread
/// was free) is not the system's: it is left out of the latency and
/// recorded as `lateness_us`. Returns the outcomes and the number of
/// spans recorded (0 unless `trace`).
pub fn open_loop(
    target: &Target,
    schedule: &[(Duration, Op)],
    threads: usize,
    trace: bool,
) -> (Vec<Outcome>, usize) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut all = Vec::with_capacity(schedule.len());
    let mut spans = 0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut sender = Sender::new(target, trace);
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((due, op)) = schedule.get(i) else {
                            break;
                        };
                        let free = start.elapsed();
                        if free < *due {
                            std::thread::sleep(*due - free);
                        }
                        let sent = start.elapsed();
                        let mut out = sender.send(i, op);
                        let done = start.elapsed();
                        out.start_us = us(sent);
                        out.call_us = us(done - sent);
                        // Waiting for a free generator thread counts (the
                        // system held it); the generator's own oversleep
                        // does not, and is reported as lateness instead.
                        out.latency_us = us(free.saturating_sub(*due)) + out.call_us;
                        out.lateness_us = us(sent.saturating_sub((*due).max(free)));
                        out.compact();
                        mine.push(out);
                    }
                    (mine, sender.spans())
                })
            })
            .collect();
        for h in handles {
            let (mine, n) = h.join().expect("generator thread panicked");
            all.extend(mine);
            spans += n;
        }
    });
    all.sort_by_key(|o| o.op);
    (all, spans)
}

/// Closed loop: one client sends the `cycle` in order, one op at a
/// time, and starts another whole cycle while the run is shorter than
/// `min_time` or it has fewer than `min_ops` answers. Returns the
/// outcomes, the wall time and the number of spans recorded (0 unless
/// `trace`).
pub fn closed_loop(
    target: &Target,
    cycle: &[Op],
    min_time: Duration,
    min_ops: usize,
    trace: bool,
) -> (Vec<Outcome>, Duration, usize) {
    let start = Instant::now();
    let mut sender = Sender::new(target, trace);
    let mut all = Vec::new();
    while start.elapsed() < min_time || all.len() < min_ops {
        for (i, op) in cycle.iter().enumerate() {
            let sent = start.elapsed();
            let mut out = sender.send(i, op);
            let done = start.elapsed();
            out.start_us = us(sent);
            out.call_us = us(done - sent);
            out.latency_us = out.call_us;
            out.compact();
            all.push(out);
        }
    }
    (all, start.elapsed(), sender.spans())
}
