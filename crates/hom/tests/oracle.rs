//! Definition-level oracle for the homomorphism engine.
//!
//! A homomorphism `I → J` (Definition 3.1) maps the nulls of `I` so
//! that every fact of `I` lands in `J`; each null must land on a value
//! of `J`'s active domain. On small instances every such map can be
//! tried outright. The indexed, fail-first search must find exactly as
//! many, and under a node budget the deciders may answer `Unknown` but
//! never the opposite of the unbounded answer.

use proptest::prelude::*;
use rde_hom::{exists_hom, find_hom, for_each_hom, hom_equivalent, HomConfig, HomStats, Verdict};
use rde_model::{Fact, Instance, Substitution, Vocabulary};

/// Facts `(binary?, [(null?, index); 2])` over `E/2` and `U/1`.
type Facts = Vec<(bool, Vec<(bool, u8)>)>;

fn facts(max: usize) -> impl Strategy<Value = Facts> {
    prop::collection::vec(
        (any::<bool>(), prop::collection::vec((any::<bool>(), 0u8..3), 2)),
        0..=max,
    )
}

fn instance(vocab: &mut Vocabulary, facts: &Facts) -> Instance {
    let (e, u) = (vocab.relation("E", 2).unwrap(), vocab.relation("U", 1).unwrap());
    let mut value = |(null, i): (bool, u8)| match null {
        true => vocab.null_value(&format!("n{i}")),
        false => vocab.const_value(&format!("c{i}")),
    };
    facts
        .iter()
        .map(|(binary, args)| match binary {
            true => Fact::new(e, vec![value(args[0]), value(args[1])]),
            false => Fact::new(u, vec![value(args[0])]),
        })
        .collect()
}

/// How many maps from `source`'s nulls to `target`'s active domain send
/// every source fact into `target`. Map number `code` sends null `k` to
/// digit `k` of `code` written in base `|domain|`.
fn brute_force_count(source: &Instance, target: &Instance) -> u64 {
    let (nulls, domain) = (source.nulls(), target.active_domain());
    let total = (domain.len() as u64).pow(nulls.len() as u32);
    (0..total)
        .filter(|&code| {
            let mut h = Substitution::new();
            for (k, &n) in nulls.iter().enumerate() {
                h.bind(
                    n,
                    domain[(code / (domain.len() as u64).pow(k as u32)) as usize % domain.len()],
                );
            }
            source.facts().all(|f| target.contains(&f.map_values(|v| h.apply(v))))
        })
        .count() as u64
}

fn budget(k: Option<u64>) -> HomConfig {
    HomConfig { node_budget: k, ..HomConfig::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The search enumerates exactly the homomorphisms the definition
    /// admits.
    #[test]
    fn hom_count_matches_brute_force(f1 in facts(4), f2 in facts(6)) {
        let mut vocab = Vocabulary::new();
        let (source, target) = (instance(&mut vocab, &f1), instance(&mut vocab, &f2));
        let report = for_each_hom(&source, &target, &Substitution::new(), &budget(None), |h| {
            assert!(h.apply_instance(&source).is_subset_of(&target));
            true
        });
        prop_assert!(report.exhausted.is_none());
        prop_assert_eq!(report.stats.found, brute_force_count(&source, &target));
    }

    /// Under any node budget a decider answers `Unknown` or the
    /// unbounded answer, which is the definition's.
    #[test]
    fn budgets_never_flip_a_verdict(f1 in facts(4), f2 in facts(6), k in 0u64..12) {
        let mut vocab = Vocabulary::new();
        let (a, b) = (instance(&mut vocab, &f1), instance(&mut vocab, &f2));
        let stats = &mut HomStats::default();
        let agrees = |budgeted: Verdict, exact: Verdict| budgeted.is_unknown() || budgeted == exact;
        let exact = exists_hom(&a, &b, &budget(None), stats);
        prop_assert_eq!(exact.holds(), brute_force_count(&a, &b) > 0);
        prop_assert!(agrees(exists_hom(&a, &b, &budget(Some(k)), stats), exact));
        let found = find_hom(&a, &b, &Substitution::new(), &budget(Some(k)), stats);
        prop_assert!(found.map_or(true, |h| h.is_some() == exact.holds()));
        let exact = hom_equivalent(&a, &b, &budget(None), stats);
        prop_assert!(agrees(hom_equivalent(&a, &b, &budget(Some(k)), stats), exact));
    }
}
