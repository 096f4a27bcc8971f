//! # sj-joins — executable spatial-join strategies
//!
//! Storage-backed executors for every join-processing strategy the paper
//! analyzes (§2, §4), all reporting [`ExecStats`] in the cost model's own
//! units (θ/Θ-evaluations and physical page I/O through an LRU buffer
//! pool):
//!
//! | Paper strategy | Executor |
//! |---|---|
//! | I — nested loop (with Valduriez's memory passes) | [`nested_loop`] |
//! | IIa/IIb — generalization tree, unclustered/clustered | [`tree_join`] over a [`TreeRelation`] with the corresponding [`Layout`] |
//! | III — join index on a B⁺-tree | [`join_index`] |
//! | sort-merge for `overlaps` via z-elements (Orenstein) | [`sort_merge`] |
//! | §5's *local join indices* (future work, implemented) | [`local_index`] |
//! | grid-file join (Rotem's index-supported baseline) | [`grid`] |
//! | z-value B⁺-tree index (UB-tree style, §2.2) | [`zindex`] |
//! | PBSM-style partition-parallel filter-and-refine | [`parallel`] (which also parallelizes strategy II) |
//! | forward-scan plane-sweep filter (sequential) | [`sweep`] |
//!
//! Every executor is validated (unit + property tests) to return exactly
//! the same match set as the nested-loop reference.
//!
//! ## The unified executor API
//!
//! All nine strategies are also reachable through one surface: build a
//! [`JoinRequest`] (θ, parallelism, filter-kernel override, optional
//! trace sink), pick a [`Strategy`], and run
//! [`JoinExecutor::try_execute`] over [`JoinOperands`]. This is what the
//! experiment harness, the service, and the benchmark bins dispatch
//! through.
//!
//! ## Call conventions
//!
//! Each strategy has exactly **one** public entry, and it is fallible:
//! the first storage fault aborts the run with a typed
//! [`StorageError`](sj_storage::StorageError), never a partial match
//! set. **The [`BufferPool`] is the first argument (or the first after
//! `&self`), operands follow in `R`-before-`S` order, and the
//! [`JoinRequest`] comes last.** The entry borrows the request's trace
//! sink once and hands it to its body; fallbacks (directional θ in sweep
//! and partition, one thread in the tree join) reuse that borrow.
//!
//! | Entry point | Shape |
//! |---|---|
//! | free functions | `try_x_join(pool, r, s, req)` (grid and z-order merge also take their grid) |
//! | [`ZIndex::try_join`] | `try_join(&self, pool, r, s, req)` |
//! | [`JoinIndex::try_join`] | `try_join(&self, pool, r, s, trace)` (θ fixed at build) |
//! | [`LocalJoinIndex::try_join`] | `try_join(&self, pool, trace)` (operands and θ fixed at build) |
//! | [`JoinExecutor::try_execute`] | `try_execute(&mut self, req, pool)` |
//!
//! Index-backed joins take the pool too, even when the index can answer
//! from its own structures — all I/O accounting flows through one pool
//! argument at one position. Pass `&JoinRequest::new(theta)` (or
//! `&mut TraceSink::Null` to the build-fixed index joins) for an
//! untraced run. Index builds have one form as well, `try_build`.
//!
//! [`Layout`]: sj_storage::Layout
//! [`BufferPool`]: sj_storage::BufferPool

pub mod executor;
pub mod grid;
pub mod join_index;
pub mod local_index;
pub mod mutation;
pub mod nested_loop;
pub mod paged_tree;
pub mod parallel;
pub mod refine;
pub mod relation;
pub mod sort_merge;
pub mod stats;
pub mod sweep;
pub mod tree_join;
pub mod zindex;

pub use executor::{JoinExecutor, JoinOperands, JoinRequest, Strategy};
pub use join_index::JoinIndex;
pub use local_index::LocalJoinIndex;
pub use mutation::{ApplyMode, Mutation, MutationOutcome, Side, TouchedRegions, WriteBatch};
pub use paged_tree::{ClusterOrder, CodecMode, PagedTree, TreeRelation};
pub use parallel::{tiles_per_axis, try_partition_join, Parallelism, TileGrid};
pub use refine::MarginRefiner;
pub use relation::StoredRelation;
pub use sj_obs::{Phase, PhaseTimer, TraceEvent, TraceSink};
pub use stats::{ExecStats, JoinRun, PhaseStats, SelectRun};
pub use sweep::try_sweep_join;
pub use zindex::ZIndex;
