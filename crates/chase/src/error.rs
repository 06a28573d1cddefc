//! Error type for the chase engines.

use rde_hom::Exhausted;
use std::fmt;

/// Errors from the standard or disjunctive chase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaseError {
    /// The round/step budget was exhausted before reaching a fixpoint.
    /// For source-to-target tgds the chase always terminates within one
    /// round, so this indicates a same-schema or recursive dependency
    /// set that needs a larger budget (or does not terminate).
    RoundBudgetExhausted {
        /// The configured budget.
        rounds: u64,
    },
    /// A branch (or the single standard-chase instance) exceeded the
    /// fact budget.
    FactBudgetExhausted {
        /// The configured budget.
        facts: usize,
    },
    /// The disjunctive chase produced more simultaneous branches than
    /// allowed.
    BranchBudgetExhausted {
        /// The configured budget.
        branches: usize,
    },
    /// The standard chase was given a disjunctive dependency; use
    /// [`crate::disjunctive_chase`] for those.
    DisjunctionUnsupported,
    /// A premise-match or satisfaction search hit its homomorphism
    /// budget, so the chase cannot tell whether the result is correct.
    MatchBudgetExhausted {
        /// Which budget ran out.
        budget: Exhausted,
    },
    /// The run was cooperatively cancelled (explicit request, elapsed
    /// deadline, or Ctrl-C) via `ChaseOptions::ctx` (per branch via
    /// `DisjunctiveChaseOptions::ctx` in the disjunctive chase).
    /// Checked at round granularity, and propagated from any cancelled
    /// homomorphism search inside the round.
    Cancelled,
    /// Writing or reading a chase checkpoint failed (I/O error, or a
    /// malformed/incompatible snapshot on resume).
    Checkpoint {
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for ChaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaseError::RoundBudgetExhausted { rounds } => {
                write!(f, "chase did not reach a fixpoint within {rounds} round(s)")
            }
            ChaseError::FactBudgetExhausted { facts } => {
                write!(f, "chase exceeded the fact budget of {facts}")
            }
            ChaseError::BranchBudgetExhausted { branches } => {
                write!(f, "disjunctive chase exceeded the branch budget of {branches}")
            }
            ChaseError::DisjunctionUnsupported => {
                write!(f, "the standard chase does not support disjunctive dependencies; use disjunctive_chase")
            }
            ChaseError::MatchBudgetExhausted { budget } => {
                write!(f, "premise matching stopped early: {budget}")
            }
            ChaseError::Cancelled => write!(f, "chase cancelled"),
            ChaseError::Checkpoint { message } => write!(f, "chase checkpoint: {message}"),
        }
    }
}

impl std::error::Error for ChaseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_budgets() {
        assert!(ChaseError::RoundBudgetExhausted { rounds: 5 }.to_string().contains('5'));
        assert!(ChaseError::FactBudgetExhausted { facts: 9 }.to_string().contains('9'));
        assert!(ChaseError::BranchBudgetExhausted { branches: 3 }.to_string().contains('3'));
        assert!(ChaseError::MatchBudgetExhausted { budget: Exhausted::Nodes(7) }
            .to_string()
            .contains('7'));
    }
}
