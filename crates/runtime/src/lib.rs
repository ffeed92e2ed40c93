//! Unified model runtime: one trait-object surface over every tape-recording
//! ER model in the workspace, a name → constructor registry, and a
//! forward-only inference session.
//!
//! The workspace grew eight tape-recording models (HierGAT in pairwise and
//! collective modes, Ditto, DeepMatcher, DM+, and the GCN/GAT/HGAT
//! collective baselines) behind three unrelated call surfaces: `HierGat`'s
//! inherent methods, `PairModel`, and `CollectiveErModel`. Every consumer —
//! the CLI's `analyze`/`lint`/`plan` subcommands, the benches, the
//! conformance tests — re-enumerated the models by hand. This crate folds
//! them behind [`ErModel`] and resolves them through [`ModelRegistry`], so
//! adding a model is one registry entry instead of N call-site edits.
//!
//! [`Session`] is the inference engine: it records a model's eval-mode
//! scoring graph on a forward-only tape ([`hiergat_nn::Tape::inference`]),
//! replays it through a cached arena plan
//! ([`hiergat_nn::ExecutionPlan::build_inference`]), and carries the
//! checkpoint's validation-tuned decision threshold. Scores are bitwise
//! identical to the eager `predict_*` paths — the graph recorded is the
//! same graph, and the arena executor computes each op with the same
//! kernels in the same order — while skipping the per-call parameter
//! cloning and per-node heap allocation of the eager path.

pub mod model;
pub mod registry;
pub mod resolve;
pub mod session;

pub use model::{ErModel, Example, HierGatCollective, HierGatPairwise, InputError, ModelKind};
pub use registry::{BuildContext, ModelRegistry, ModelSpec};
pub use resolve::{resolve, Resolution, ResolveConfig, ResolveStats};
pub use session::{QuantReport, Session, SessionStats};
