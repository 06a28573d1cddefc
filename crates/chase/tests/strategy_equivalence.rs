//! Exact-equality properties of the chase variants.
//!
//! Semi-naive (delta-driven) enumeration is a pure optimization: with
//! the canonical `(dependency, assignment)` firing order it must
//! produce instances **equal** to the naive full-re-enumeration chase —
//! same facts, same fresh-null ids — and identical `fired`/`rounds`
//! counters. The restricted chase skips satisfied triggers, so it is
//! held to hom-equivalence with the naive baseline instead, and every
//! variant must be reproducible run to run.

use proptest::prelude::*;
use rde_chase::{chase, ChaseOptions, ChaseResult, ChaseVariant};
use rde_deps::{parse_dependency, Dependency};
use rde_hom::{hom_equivalent, HomConfig, HomStats};
use rde_model::{Fact, Instance, Vocabulary};

/// Same-schema dependency pool: recursive rules, existentials, guards,
/// and inequalities, so multi-round delta behaviour is exercised.
const DEP_POOL: &[&str] = &[
    "E(x, y) -> T(x, y)",
    "T(x, y) & T(y, z) -> T(x, z)",
    "T(x, y) -> exists w . S(y, w)",
    "E(x, y) & E(y, x) -> exists u . T(x, u)",
    "S(x, y) & Constant(x) -> T(x, x)",
    "E(x, y) & x != y -> T(y, x)",
];

fn setup(
    picks: &[bool],
    facts: &[(bool, u8, bool, u8)],
) -> (Vocabulary, Vec<Dependency>, Instance) {
    let mut vocab = Vocabulary::new();
    // Parse the full pool first so every run interns identical ids,
    // then keep the picked subset (always at least the first rule).
    let all: Vec<Dependency> =
        DEP_POOL.iter().map(|d| parse_dependency(&mut vocab, d).unwrap()).collect();
    let deps: Vec<Dependency> = all
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i == 0 || picks.get(*i).copied().unwrap_or(false))
        .map(|(_, d)| d)
        .collect();
    let e = vocab.find_relation("E").unwrap();
    let value = |vocab: &mut Vocabulary, is_null: bool, i: u8| {
        if is_null {
            vocab.null_value(&format!("n{i}"))
        } else {
            vocab.const_value(&format!("c{i}"))
        }
    };
    let instance: Instance = facts
        .iter()
        .map(|&(n1, a, n2, b)| {
            let v1 = value(&mut vocab, n1, a);
            let v2 = value(&mut vocab, n2, b);
            Fact::new(e, vec![v1, v2])
        })
        .collect();
    (vocab, deps, instance)
}

fn run(picks: &[bool], facts: &[(bool, u8, bool, u8)], variant: ChaseVariant) -> ChaseResult {
    let (mut vocab, deps, instance) = setup(picks, facts);
    chase(&instance, &deps, &mut vocab, &ChaseOptions::for_variant(variant)).unwrap()
}

fn abstract_facts(max: usize) -> impl Strategy<Value = Vec<(bool, u8, bool, u8)>> {
    prop::collection::vec((any::<bool>(), 0u8..4, any::<bool>(), 0u8..4), 0..=max)
}

fn dep_picks() -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), DEP_POOL.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sweep every variant against the naive baseline: the oblivious
    /// variants equal it exactly — instance (same null ids!), fired,
    /// rounds — and the restricted chase is hom-equivalent to it,
    /// firing no more triggers. Each variant reproduces itself exactly.
    #[test]
    fn variants_agree_with_the_naive_baseline(picks in dep_picks(), facts in abstract_facts(6)) {
        let base = run(&picks, &facts, ChaseVariant::Naive);
        for variant in ChaseVariant::ALL {
            let r = run(&picks, &facts, variant);
            let again = run(&picks, &facts, variant);
            prop_assert_eq!(&r.instance, &again.instance, "{}", variant);
            prop_assert_eq!(r.fired, again.fired, "{}", variant);
            if variant == ChaseVariant::Restricted {
                prop_assert!(hom_equivalent(&r.instance, &base.instance, &HomConfig::default(), &mut HomStats::default()).holds());
                prop_assert!(r.fired <= base.fired);
            } else {
                prop_assert_eq!(&r.instance, &base.instance, "{}", variant);
                prop_assert_eq!(r.fired, base.fired, "{}", variant);
                prop_assert_eq!(r.rounds, base.rounds, "{}", variant);
            }
        }
    }

    /// The per-round stats are themselves strategy-invariant where they
    /// must be: both strategies fire the same triggers per round.
    #[test]
    fn round_firing_schedules_agree(picks in dep_picks(), facts in abstract_facts(5)) {
        let naive = run(&picks, &facts, ChaseVariant::Naive);
        let semi = run(&picks, &facts, ChaseVariant::SemiNaive);
        prop_assert_eq!(naive.round_stats.len(), semi.round_stats.len());
        for (a, b) in naive.round_stats.iter().zip(&semi.round_stats) {
            prop_assert_eq!(a.triggers, b.triggers);
            prop_assert_eq!(a.fired, b.fired);
            prop_assert_eq!(a.inserted, b.inserted);
        }
    }
}
