//! Property-based tests for the homomorphism engine.

use proptest::prelude::*;
use rde_hom::{
    core_of, exists_hom, find_hom, hom_equivalent, is_core, is_isomorphic, HomConfig, HomStats,
};
use rde_model::{Fact, Instance, Substitution, Value, Vocabulary};

fn hom(a: &Instance, b: &Instance) -> bool {
    exists_hom(a, b, &HomConfig::default(), &mut HomStats::default()).holds()
}

fn abstract_facts(max: usize) -> impl Strategy<Value = Vec<Vec<(bool, u8)>>> {
    prop::collection::vec(prop::collection::vec((any::<bool>(), 0u8..4), 2), 0..=max)
}

fn materialize(vocab: &mut Vocabulary, facts: &[Vec<(bool, u8)>]) -> Instance {
    let rel = vocab.relation("E", 2).unwrap();
    facts
        .iter()
        .map(|args| {
            let vals: Vec<Value> = args
                .iter()
                .map(|&(is_null, i)| {
                    if is_null {
                        vocab.null_value(&format!("n{i}"))
                    } else {
                        vocab.const_value(&format!("c{i}"))
                    }
                })
                .collect();
            Fact::new(rel, vals)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// → is reflexive; witnesses actually map facts into the target.
    #[test]
    fn hom_is_reflexive_and_witnessed(facts in abstract_facts(8)) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        let (unbounded, stats) = (HomConfig::default(), &mut HomStats::default());
        let h = find_hom(&i, &i, &Substitution::new(), &unbounded, stats).unwrap();
        prop_assert!(h.expect("identity works").apply_instance(&i).is_subset_of(&i));
    }

    /// Transitivity through explicit witnesses.
    #[test]
    fn hom_witnesses_compose(f1 in abstract_facts(5), f2 in abstract_facts(5), f3 in abstract_facts(5)) {
        let mut vocab = Vocabulary::new();
        let a = materialize(&mut vocab, &f1);
        let b = materialize(&mut vocab, &f2);
        let c = materialize(&mut vocab, &f3);
        let (unbounded, stats) = (HomConfig::default(), &mut HomStats::default());
        let h1 = find_hom(&a, &b, &Substitution::new(), &unbounded, stats).unwrap();
        let h2 = find_hom(&b, &c, &Substitution::new(), &unbounded, stats).unwrap();
        if let (Some(h1), Some(h2)) = (h1, h2) {
            let composed = h1.then(&h2);
            prop_assert!(composed.apply_instance(&a).is_subset_of(&c));
            prop_assert!(hom(&a, &c));
        }
    }

    /// For ground sources, → coincides with ⊆ (paper, Section 1).
    #[test]
    fn ground_hom_is_subset(f1 in abstract_facts(6), f2 in abstract_facts(6)) {
        let mut vocab = Vocabulary::new();
        let mut ground = |facts: &[Vec<(bool, u8)>]| {
            let grounded: Vec<Vec<(bool, u8)>> =
                facts.iter().map(|args| args.iter().map(|&(_, i)| (false, i)).collect()).collect();
            materialize(&mut vocab, &grounded)
        };
        let a = ground(&f1);
        let b = ground(&f2);
        prop_assert_eq!(hom(&a, &b), a.is_subset_of(&b));
    }

    /// Renaming nulls bijectively yields an isomorphic instance, which
    /// is in particular hom-equivalent.
    #[test]
    fn bijective_renaming_is_isomorphism(facts in abstract_facts(8)) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        let mut rename = Substitution::new();
        for n in i.nulls() {
            rename.bind(n, Value::Null(vocab.fresh_null()));
        }
        let j = rename.apply_instance(&i);
        prop_assert!(is_isomorphic(&i, &j));
        let unbounded = HomConfig::default();
        prop_assert!(hom_equivalent(&i, &j, &unbounded, &mut HomStats::default()).holds());
    }

    /// Collapsing all nulls to one constant gives a hom target.
    #[test]
    fn collapse_is_a_hom_target(facts in abstract_facts(8)) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        let sink = vocab.const_value("sink");
        let j = i.map_values(|v| if v.is_null() { sink } else { v });
        prop_assert!(hom(&i, &j));
    }

    /// Core properties: sub-instance, equivalent, minimal, idempotent,
    /// and isomorphism-invariant across null renamings.
    #[test]
    fn core_properties(facts in abstract_facts(7)) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        let r = core_of(&i);
        prop_assert!(r.core.is_subset_of(&i));
        let unbounded = HomConfig::default();
        prop_assert!(hom_equivalent(&i, &r.core, &unbounded, &mut HomStats::default()).holds());
        prop_assert!(is_core(&r.core));
        // Cores of isomorphic instances are isomorphic.
        let mut rename = Substitution::new();
        for n in i.nulls() {
            rename.bind(n, Value::Null(vocab.fresh_null()));
        }
        let j = rename.apply_instance(&i);
        let rj = core_of(&j);
        prop_assert!(is_isomorphic(&r.core, &rj.core));
    }

    /// The minimizer's substitution is a true retraction: its image is
    /// exactly the core, it is the identity on the core's own values,
    /// and hence applying it twice is the same as applying it once.
    #[test]
    fn core_retraction_is_a_true_retraction(facts in abstract_facts(7)) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        let r = core_of(&i);
        prop_assert_eq!(r.retraction.apply_instance(&i), r.core.clone());
        for v in r.core.active_domain() {
            prop_assert_eq!(r.retraction.apply(v), v, "retraction must fix core value {v:?}");
        }
        prop_assert_eq!(r.retraction.apply_instance(&r.core), r.core.clone());
        // Idempotence as a substitution law, not just on this instance.
        let twice = r.retraction.then(&r.retraction);
        prop_assert_eq!(twice.apply_instance(&i), r.core);
    }

    /// Adding facts can only help the target side and hurt the source
    /// side (monotonicity of →).
    #[test]
    fn hom_is_monotone(f1 in abstract_facts(5), f2 in abstract_facts(5), extra in abstract_facts(3)) {
        let mut vocab = Vocabulary::new();
        let a = materialize(&mut vocab, &f1);
        let b = materialize(&mut vocab, &f2);
        let e = materialize(&mut vocab, &extra);
        if hom(&a, &b) {
            prop_assert!(hom(&a, &b.union(&e)), "bigger targets stay reachable");
        }
        if !hom(&a, &b) {
            prop_assert!(!hom(&a.union(&e), &b), "bigger sources stay unreachable");
        }
    }
}
