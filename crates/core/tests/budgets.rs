//! Budgets never produce a wrong answer: every checker, run under
//! `node_budget = Some(k)` for small `k`, answers `Unknown` or what the
//! unbounded run answers — never `Holds` where it refutes, nor the
//! reverse. Checked on generated instances and on a pool of small
//! mappings over one source schema.

use std::mem::discriminant;

use proptest::prelude::*;
use rde_chase::{chase_mapping, ChaseOptions};
use rde_core::arrow::ArrowMCache;
use rde_core::compare::{compare_lossiness, Comparison};
use rde_core::compose::ComposeOptions;
use rde_core::extended::{is_extended_solution, is_extended_universal_solution};
use rde_core::invertibility::{check_homomorphism_property, BoundedVerdict};
use rde_core::recovery::{check_maximum_extended_recovery, MaxRecoveryVerdict};
use rde_core::semantics::{satisfies, satisfies_dependency};
use rde_core::Universe;
use rde_deps::{parse_mapping, SchemaMapping};
use rde_hom::{HomConfig, HomStats, Verdict};
use rde_model::{Fact, Instance, Vocabulary};

/// Mappings over `P/2` and a reverse mapping for each.
const POOL: [(&str, &str); 3] = [
    (
        "source: P/2\ntarget: T/2\nP(x, y) -> exists z . T(x, z) & T(z, y)",
        "source: T/2\ntarget: P/2\nT(x, z) & T(z, y) -> P(x, y)",
    ),
    (
        "source: P/2\ntarget: Pr/1\nP(x, y) -> Pr(x)",
        "source: Pr/1\ntarget: P/2\nPr(x) -> exists y . P(x, y)",
    ),
    (
        "source: P/2\ntarget: C/2\nP(x, y) -> C(x, y)",
        "source: C/2\ntarget: P/2\nC(x, y) -> P(x, y)",
    ),
];

fn pool(v: &mut Vocabulary) -> Vec<(SchemaMapping, SchemaMapping)> {
    POOL.iter().map(|(m, r)| (parse_mapping(v, m).unwrap(), parse_mapping(v, r).unwrap())).collect()
}

/// Binary facts over `rel` from `[(null?, index); 2]`.
fn facts(max: usize) -> impl Strategy<Value = Vec<Vec<(bool, u8)>>> {
    prop::collection::vec(prop::collection::vec((any::<bool>(), 0u8..3), 2), 0..=max)
}

fn instance(v: &mut Vocabulary, rel: &str, facts: &[Vec<(bool, u8)>]) -> Instance {
    let rel = v.find_relation(rel).unwrap();
    let mut value = |(null, i): (bool, u8)| match null {
        true => v.null_value(&format!("n{i}")),
        false => v.const_value(&format!("c{i}")),
    };
    facts.iter().map(|args| Fact::new(rel, vec![value(args[0]), value(args[1])])).collect()
}

fn budget(k: Option<u64>) -> HomConfig {
    HomConfig { node_budget: k, ..HomConfig::default() }
}

fn agrees(budgeted: Verdict, exact: Verdict) -> bool {
    budgeted.is_unknown() || budgeted == exact
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Solutions and extended solutions (Section 2, Definitions 3.2 and
    /// 3.5) for the two-step mapping. Half the targets contain
    /// `chase_M(I)`, so every verdict occurs.
    #[test]
    fn solution_checks_never_flip(src in facts(3), tgt in facts(3), chased in any::<bool>(), k in 0u64..12) {
        let mut v = Vocabulary::new();
        let (m, _) = pool(&mut v).swap_remove(0);
        let i = instance(&mut v, "P", &src);
        let mut j = instance(&mut v, "T", &tgt);
        if chased {
            j = j.union(&chase_mapping(&i, &m, &mut v, &ChaseOptions::default()).unwrap());
        }
        let (exact, tight, st) = (budget(None), budget(Some(k)), &mut HomStats::default());
        let dep = &m.dependencies[0];
        let want = satisfies_dependency(&i, &j, dep, &exact, st);
        prop_assert!(agrees(satisfies_dependency(&i, &j, dep, &tight, st), want));
        let want = satisfies(&i, &j, &m, &exact, st);
        prop_assert!(agrees(satisfies(&i, &j, &m, &tight, st), want));
        let want = is_extended_solution(&i, &j, &m, &mut v, &exact, st).unwrap();
        prop_assert!(agrees(is_extended_solution(&i, &j, &m, &mut v, &tight, st).unwrap(), want));
        let want = is_extended_universal_solution(&i, &j, &m, &mut v, &exact, st).unwrap();
        let got = is_extended_universal_solution(&i, &j, &m, &mut v, &tight, st).unwrap();
        prop_assert!(agrees(got, want));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `→_M` through a cache built and queried under a budget.
    #[test]
    fn arrow_cache_never_flips(which in 0usize..3, k in 0u64..8) {
        let mut v = Vocabulary::new();
        let (m, _) = pool(&mut v).swap_remove(which);
        let family = Universe::new(&mut v, 2, 1, 2).collect_instances(&v, &m.source).unwrap();
        let exact = ArrowMCache::new(&m, &family, &mut v, &budget(None)).unwrap();
        let tight = ArrowMCache::new(&m, &family, &mut v, &budget(Some(k))).unwrap();
        for a in 0..family.len() {
            for b in 0..family.len() {
                let want = exact.arrow(a, b, &budget(None));
                prop_assert!(agrees(tight.arrow(a, b, &budget(Some(k))), want));
            }
        }
    }

    /// The bounded checkers of Theorem 3.13, Theorem 4.13 and
    /// Definition 6.6 give `Unknown` or a verdict of the unbounded
    /// kind. Witness pairs may differ: a budgeted scan skips pairs it
    /// cannot settle.
    #[test]
    fn bounded_checkers_never_flip(which in 0usize..3, other in 0usize..3, k in 0u64..8) {
        let mut v = Vocabulary::new();
        let pool = pool(&mut v);
        let ((m, rev), (m2, _)) = (&pool[which], &pool[other]);
        let u = Universe::new(&mut v, 2, 1, 1);
        let (exact, tight, st) = (budget(None), budget(Some(k)), &mut HomStats::default());
        let want = check_homomorphism_property(m, &u, &mut v, &exact, st).unwrap();
        let got = check_homomorphism_property(m, &u, &mut v, &tight, st).unwrap();
        let unknown = matches!(got, BoundedVerdict::Unknown { .. });
        prop_assert!(unknown || discriminant(&got) == discriminant(&want), "{got:?} vs {want:?}");
        let opts = ComposeOptions::default();
        let want = check_maximum_extended_recovery(m, rev, &u, &mut v, &opts, &exact, st).unwrap();
        let got = check_maximum_extended_recovery(m, rev, &u, &mut v, &opts, &tight, st).unwrap();
        let unknown = matches!(got, MaxRecoveryVerdict::Unknown { .. });
        prop_assert!(unknown || got.holds() == want.holds(), "{got:?} vs {want:?}");
        let want = compare_lossiness(m, m2, &u, &mut v, &exact, st).unwrap();
        let got = compare_lossiness(m, m2, &u, &mut v, &tight, st).unwrap();
        let unknown = matches!(got, Comparison::Unknown { .. });
        prop_assert!(unknown || discriminant(&got) == discriminant(&want), "{got:?} vs {want:?}");
    }
}
