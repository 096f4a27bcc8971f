//! Seeded end-to-end benchmark of the spatial-join service stack, with
//! a traced mode that attributes cost to each layer. See `NOTES.md`.

pub mod bench;
pub mod check;
pub mod data;
pub mod drive;
pub mod layers;
pub mod rng;
pub mod stats;
pub mod workload;
