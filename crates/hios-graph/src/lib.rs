//! Computation-graph substrate for the HIOS scheduler reproduction.
//!
//! A deep-learning model is a directed acyclic graph `G = (V, E)` where each
//! vertex is an operator (convolution, pooling, concat, ...) and each edge is
//! a tensor dependency (paper §III-A).  This crate provides:
//!
//! * typed operators with FLOP/byte accounting ([`op`], [`shape`]),
//! * a validated DAG with O(1) predecessor/successor access ([`graph`]),
//! * topological orders and weighted longest-path machinery used by the
//!   priority indicators of HIOS-LP/HIOS-MR ([`topo`], [`paths`]),
//! * the random layered-DAG generator of the paper's simulation study
//!   (§V-A) ([`generate`]),
//! * DOT and JSON export ([`dot`], [`json`]),
//! * the hash writer behind every fingerprint and digest ([`hash`]).
//!
//! The scheduling algorithms themselves live in `hios-core`; execution-time
//! cost models live in `hios-cost`.

#![warn(missing_docs)]

pub mod analysis;
pub mod dot;
pub mod generate;
pub mod graph;
pub mod hash;
pub mod id;
pub mod json;
pub mod op;
pub mod paths;
pub mod shape;
pub mod topo;

pub use generate::{LayeredDagConfig, generate_layered_dag};
pub use graph::{Graph, GraphBuilder, GraphError, Node};
pub use hash::HashWriter;
pub use id::OpId;
pub use op::{Activation, OpKind, PoolKind};
pub use shape::TensorShape;
