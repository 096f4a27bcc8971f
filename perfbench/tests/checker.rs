//! The output checker catches wrong answers injected into real runs.

use std::sync::Arc;

use perfbench::check::reply_matches;
use perfbench::data::{BatchPlanner, Dataset};
use perfbench::drive::{Answer, Class, JoinDigest, Op};
use perfbench::workload::{check, run_stream, service_config, start, Scale, Stream, Workload};
use sj_joins::{MutationOutcome, Strategy};
use sj_service::{Reply, Request, SpatialService};

fn stream_of(w: Workload, seed: u64) -> (Dataset, Stream) {
    let scale = Scale::smoke();
    let data = Dataset::generate(seed, scale.tuples(w));
    let target = start(w, &scale, seed, &data);
    let mut planner = BatchPlanner::new(seed, &data);
    let stream = run_stream(
        w,
        &scale,
        seed,
        0,
        &data,
        &target,
        0.5,
        scale.min_samples,
        &mut planner,
        false,
    );
    (data, stream)
}

/// Applies `corrupt` to the first answer of `class` it accepts.
fn inject(stream: &mut Stream, class: Class, corrupt: impl Fn(&mut Answer) -> bool) {
    let hit = stream
        .outcomes
        .iter_mut()
        .filter(|o| o.class == class)
        .filter_map(|o| o.answer.as_mut().ok())
        .any(corrupt);
    assert!(hit, "no answer of {class:?} to corrupt");
}

fn drop_one_match(answer: &mut Answer) -> bool {
    match answer {
        Answer::Reply(Reply::Select { matches }) if !matches.is_empty() => {
            Arc::make_mut(matches).pop();
            true
        }
        _ => false,
    }
}

#[test]
fn clean_runs_check_clean() {
    for w in Workload::ALL {
        let (data, stream) = stream_of(w, 11);
        let v = check(w, &data, &[&stream]);
        assert_eq!(v.wrong, 0, "{}", w.name());
        assert!(v.attempted > 0);
    }
}

#[test]
fn a_dropped_join_pair_is_caught() {
    let w = Workload::JoinAnalytic;
    let (data, mut stream) = stream_of(w, 12);
    // The true reply of the first JOIN, one pair short, takes the
    // place of what the system answered.
    let node = SpatialService::start(service_config(w), &data.r, &data.s, data.world);
    let out = stream
        .outcomes
        .iter_mut()
        .find(|o| o.class == Class::Join)
        .expect("a JOIN was answered");
    let Op::Query(req) = &stream.ops[out.op] else {
        panic!("JOIN outcome of a commit");
    };
    let Reply::Join { pairs, resolved } = node.execute_reference(req) else {
        panic!("JOIN reply expected");
    };
    let mut short = pairs.to_vec();
    assert!(short.pop().is_some(), "the first JOIN has pairs");
    out.answer = Ok(Answer::Join(JoinDigest::of(&short, resolved)));
    assert_eq!(check(w, &data, &[&stream]).wrong, 1, "{}", w.name());
}

#[test]
fn a_dropped_select_match_is_caught() {
    let w = Workload::ReadWrite;
    let (data, mut stream) = stream_of(w, 13);
    inject(&mut stream, Class::Select, drop_one_match);
    assert!(check(w, &data, &[&stream]).wrong >= 1, "{}", w.name());
}

#[test]
fn a_wrong_commit_outcome_is_caught() {
    let w = Workload::ReadWrite;
    let (data, mut stream) = stream_of(w, 14);
    inject(&mut stream, Class::Commit, |a| match a {
        Answer::Receipt { outcomes, .. } => {
            outcomes[0] = MutationOutcome::DuplicateId;
            true
        }
        _ => false,
    });
    assert!(check(w, &data, &[&stream]).wrong >= 1);
}

#[test]
fn auto_joins_are_compared_by_pair_set() {
    let req = Request::join(Strategy::Auto, sj_geom::ThetaOp::Overlaps);
    let want = Reply::Join {
        pairs: Arc::new(vec![(1, 2), (3, 4)]),
        resolved: Strategy::JoinIndex,
    };
    let other_pick = Answer::Join(JoinDigest::of(&[(1, 2), (3, 4)], Strategy::Partition));
    let short = Answer::Join(JoinDigest::of(&[(1, 2)], Strategy::JoinIndex));
    assert!(reply_matches(&req, &other_pick, &want));
    assert!(!reply_matches(&req, &short, &want));
    let fixed = Request::join(Strategy::Tree, sj_geom::ThetaOp::Overlaps);
    assert!(!reply_matches(&fixed, &other_pick, &want));
}
