//! # reverse-data-exchange
//!
//! A Rust implementation of *Reverse Data Exchange: Coping with Nulls*
//! (Fagin, Kolaitis, Popa, Tan; PODS 2009): schema mappings over
//! instances with labeled nulls, the chase, extended solutions, extended
//! inverses, maximum extended recoveries, information loss, and reverse
//! query answering — together with every substrate those notions need.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`model`] — instances, values, schemas, vocabularies;
//! * [`hom`] — the homomorphism engine (`I₁ → I₂`, equivalence, cores);
//! * [`deps`] — the dependency language (s-t tgds through disjunctive
//!   tgds with inequalities and `Constant`);
//! * [`chase`] — standard and disjunctive chase engines;
//! * [`query`] — conjunctive queries and certain answers;
//! * [`core`] — the paper's contributions: extended inverses, maximum
//!   extended recoveries, `→_M`, information loss, the quasi-inverse
//!   algorithm for full tgds, universal-faithfulness, and the ground
//!   baselines it generalizes.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for the paper's Example 1.1 end to end:
//! decompose with the chase, invert with a maximum extended recovery,
//! and recover the source up to homomorphic equivalence.

#![forbid(unsafe_code)]

pub use rde_chase as chase;
pub use rde_core as core;
pub use rde_deps as deps;
pub use rde_faults as faults;
pub use rde_hom as hom;
pub use rde_model as model;
pub use rde_query as query;

/// Convenience re-exports of the most common types.
pub mod prelude {
    pub use rde_chase::{chase, disjunctive_chase, ChaseOptions};
    pub use rde_deps::{parse_mapping, Dependency, SchemaMapping};
    pub use rde_hom::{exists_hom, find_hom, hom_equivalent, HomConfig, HomStats, Verdict};
    pub use rde_model::{Fact, Instance, Schema, Value, Vocabulary};
}
