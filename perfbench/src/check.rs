//! Output checking. Static workloads compare every reply with the
//! reference execution of an identically seeded single node; the
//! read-write workload replays its commits on a shadow copy of the data
//! and evaluates every SELECT by brute force at the reply's version.

use std::collections::{BTreeMap, HashMap};

use sj_geom::{codec, Geometry};
use sj_joins::{Mutation, MutationOutcome, Side, Strategy, WriteBatch};
use sj_service::{QueryKind, Reply, Request};

use crate::data::Dataset;
use crate::drive::{Answer, JoinDigest};

/// Whether `got` is a correct answer to `req`, given the reference reply
/// `want` of the same request. `Auto` joins compare the pair set only:
/// shards resolve `Auto` adaptively and may pick another strategy than
/// the single node's static advisor.
pub fn reply_matches(req: &Request, got: &Answer, want: &Reply) -> bool {
    match (got, want) {
        (Answer::Join(g), Reply::Join { pairs, resolved }) => {
            let w = JoinDigest::of(pairs, *resolved);
            let auto = matches!(
                req.kind,
                QueryKind::Join {
                    strategy: Strategy::Auto
                }
            );
            g.len == w.len
                && g.hash == w.hash
                && if auto {
                    g.resolved.supports(req.theta)
                } else {
                    g.resolved == w.resolved
                }
        }
        (Answer::Reply(g @ Reply::Select { .. }), Reply::Select { .. }) => g == want,
        _ => false,
    }
}

/// A shadow copy of both relations that applies write batches with the
/// service's mutation semantics.
#[derive(Debug, Clone)]
pub struct Shadow {
    r: HashMap<u64, Geometry>,
    s: HashMap<u64, Geometry>,
    record_size: usize,
}

impl Shadow {
    pub fn new(data: &Dataset, record_size: usize) -> Self {
        Shadow {
            r: data.r.iter().cloned().collect(),
            s: data.s.iter().cloned().collect(),
            record_size,
        }
    }

    fn side_mut(&mut self, side: Side) -> &mut HashMap<u64, Geometry> {
        match side {
            Side::R => &mut self.r,
            Side::S => &mut self.s,
        }
    }

    /// Applies `batch`, returning the outcome of every operation.
    pub fn apply(&mut self, batch: &WriteBatch) -> Vec<MutationOutcome> {
        let record_size = self.record_size;
        batch
            .ops
            .iter()
            .map(|(side, op)| {
                let rel = self.side_mut(*side);
                match op {
                    Mutation::Insert { id, value } => {
                        if rel.contains_key(id) {
                            MutationOutcome::DuplicateId
                        } else if codec::encoded_len(value) > record_size {
                            MutationOutcome::TooLarge
                        } else {
                            rel.insert(*id, value.clone());
                            MutationOutcome::Inserted
                        }
                    }
                    Mutation::Delete { id } => match rel.remove(id) {
                        Some(_) => MutationOutcome::Deleted,
                        None => MutationOutcome::MissingId,
                    },
                    Mutation::Upsert { id, value } => {
                        if codec::encoded_len(value) > record_size {
                            MutationOutcome::TooLarge
                        } else {
                            let replaced = rel.insert(*id, value.clone()).is_some();
                            MutationOutcome::Upserted { replaced }
                        }
                    }
                }
            })
            .collect()
    }

    /// Brute-force SELECT: every tuple of the side θ-tested against the
    /// probe, ids sorted.
    pub fn select(&self, req: &Request) -> Option<Vec<u64>> {
        let QueryKind::Select { side, probe } = &req.kind else {
            return None;
        };
        let rel = match side {
            Side::R => &self.r,
            Side::S => &self.s,
        };
        let mut ids: Vec<u64> = rel
            .iter()
            .filter(|(_, g)| req.theta.eval(probe, g))
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        Some(ids)
    }
}

/// One observation for the versioned check: either a committed batch
/// (with the outcomes the service reported) or a SELECT reply.
pub enum Observed<'a> {
    Commit {
        version: u64,
        batch: &'a WriteBatch,
        outcomes: &'a [MutationOutcome],
    },
    Select {
        version: u64,
        req: &'a Request,
        matches: &'a [u64],
    },
}

/// Replays the commits in version order on `shadow` and checks every
/// commit's outcomes and every SELECT against the shadow at the reply's
/// version. Returns the number of wrong answers.
pub fn check_versioned(mut shadow: Shadow, observed: &[Observed<'_>]) -> u64 {
    let mut commits: BTreeMap<u64, (&WriteBatch, &[MutationOutcome])> = BTreeMap::new();
    let mut selects: BTreeMap<u64, Vec<(&Request, &[u64])>> = BTreeMap::new();
    let mut wrong = 0;
    for o in observed {
        match o {
            Observed::Commit {
                version,
                batch,
                outcomes,
            } => {
                if commits.insert(*version, (*batch, *outcomes)).is_some() {
                    wrong += 1;
                }
            }
            Observed::Select {
                version,
                req,
                matches,
            } => selects.entry(*version).or_default().push((*req, *matches)),
        }
    }
    let last = commits
        .keys()
        .last()
        .copied()
        .unwrap_or(0)
        .max(selects.keys().last().copied().unwrap_or(0));
    for version in 0..=last {
        if version > 0 {
            match commits.get(&version) {
                Some((batch, outcomes)) => {
                    if shadow.apply(batch) != *outcomes {
                        wrong += 1;
                    }
                }
                // A reply at a version no observed commit produced.
                None => return wrong + 1,
            }
        }
        if let Some(replies) = selects.get(&version) {
            // Cache hits repeat (probe, version) pairs: evaluate each once.
            let mut memo: HashMap<String, Vec<u64>> = HashMap::new();
            for (req, matches) in replies {
                let key = format!("{:?}", (&req.kind, req.theta));
                let want = memo
                    .entry(key)
                    .or_insert_with(|| shadow.select(req).unwrap_or_default());
                if want.as_slice() != *matches {
                    wrong += 1;
                }
            }
        }
    }
    wrong
}
