//! # rde-hom
//!
//! The homomorphism engine for reverse data exchange.
//!
//! The whole PODS 2009 framework is built on the homomorphism relation
//! `I₁ → I₂` (Definition 3.1): a function on values that fixes every
//! constant, maps nulls anywhere, and maps facts to facts. The paper
//! systematically replaces the containment relation `⊆` of earlier work
//! by `→`; the extended identity mapping *is* `→`, extended solutions are
//! `→ ∘ M ∘ →`, and `→_M` compares chase results by `→`.
//!
//! Deciding `I₁ → I₂` is NP-complete in general (it subsumes graph
//! homomorphism), so this crate implements a CSP-style backtracking
//! search with:
//!
//! * per-column posting-list indexes from `rde-model` to enumerate
//!   candidate target tuples for a partially bound fact;
//! * dynamic fail-first fact ordering (cheapest-candidate-set next);
//! * node and wall-clock budgets for callers that need interruptible
//!   search — exhaustion is a completion *status* on the returned
//!   [`SearchReport`], folded into a three-valued [`Verdict`]
//!   (`Holds` / `Fails` / `Unknown`) by the deciders, never a panic.
//!
//! Each decider has one signature taking a [`HomConfig`]; an unbounded
//! call passes `HomConfig::default()` explicitly.
//!
//! On top of the search the crate provides homomorphic equivalence and
//! the **core** (minimum retract) of an instance, which canonicalizes
//! instances up to homomorphic equivalence — the right notion of
//! "same instance" in the paper's framework.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod core_min;
mod equivalence;
mod iso;
mod search;
mod verdict;

pub use core_min::{
    core_of, core_of_budgeted, core_of_quadratic, is_core, CoreOutcome, CoreResult,
};
pub use equivalence::hom_equivalent;
pub use iso::{find_iso, is_isomorphic};
pub use search::{
    count_homs, exists_hom, find_hom, for_each_hom, instance_pattern, CompiledPattern, HomConfig,
    HomStats, PatArg, PatternAtom, SearchReport,
};
pub use verdict::{Exhausted, Verdict};

/// Fixtures and unbounded deciders shared by the unit tests.
#[cfg(test)]
mod test_util {
    use crate::{exists_hom, find_hom, hom_equivalent, HomConfig, HomStats};
    use rde_model::{ConstId, Fact, Instance, NullId, RelId, Substitution, Value};

    pub fn c(i: u32) -> Value {
        Value::Const(ConstId(i))
    }
    pub fn n(i: u32) -> Value {
        Value::Null(NullId(i))
    }
    pub fn inst(facts: &[(u32, &[Value])]) -> Instance {
        facts.iter().map(|(r, args)| Fact::new(RelId(*r), args.to_vec())).collect()
    }
    pub fn hom(a: &Instance, b: &Instance) -> bool {
        exists_hom(a, b, &HomConfig::default(), &mut HomStats::default()).holds()
    }
    pub fn witness(a: &Instance, b: &Instance) -> Option<Substitution> {
        find_hom(a, b, &Substitution::new(), &HomConfig::default(), &mut HomStats::default())
            .expect("an unbounded search completes")
    }
    pub fn equivalent(a: &Instance, b: &Instance) -> bool {
        hom_equivalent(a, b, &HomConfig::default(), &mut HomStats::default()).holds()
    }
}
