//! Property-based tests for the data model.

use proptest::prelude::*;
use rde_model::{display, parse::parse_instance, Fact, Instance, Substitution, Value, Vocabulary};

/// Strategy: abstract facts over 3 relations (arities 1, 2, 3), with
/// arguments drawn from 4 constants and 4 named nulls.
fn abstract_facts() -> impl Strategy<Value = Vec<(u8, Vec<(bool, u8)>)>> {
    prop::collection::vec(
        (0u8..3).prop_flat_map(|rel| {
            let arity = match rel {
                0 => 1,
                1 => 2,
                _ => 3,
            };
            (Just(rel), prop::collection::vec((any::<bool>(), 0u8..4), arity))
        }),
        0..12,
    )
}

fn materialize(vocab: &mut Vocabulary, facts: &[(u8, Vec<(bool, u8)>)]) -> Instance {
    let rels = [
        vocab.relation("Ra", 1).unwrap(),
        vocab.relation("Rb", 2).unwrap(),
        vocab.relation("Rc", 3).unwrap(),
    ];
    let mut out = Instance::new();
    for (rel, args) in facts {
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
        out.insert(Fact::new(rels[*rel as usize], vals));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rendered instances re-parse to equal instances (named nulls are
    /// preserved by the renderer, so equality is on the nose).
    #[test]
    fn display_parse_roundtrip(facts in abstract_facts()) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        let text = display::instance(&vocab, &i).to_string();
        let j = parse_instance(&mut vocab, &text).unwrap();
        prop_assert_eq!(i, j);
    }

    /// Set-algebra laws of instances.
    #[test]
    fn union_laws(f1 in abstract_facts(), f2 in abstract_facts()) {
        let mut vocab = Vocabulary::new();
        let a = materialize(&mut vocab, &f1);
        let b = materialize(&mut vocab, &f2);
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&a), a.clone());
        prop_assert!(a.is_subset_of(&a.union(&b)));
        prop_assert!(b.is_subset_of(&a.union(&b)));
        prop_assert_eq!(a.union(&b).len() <= a.len() + b.len(), true);
    }

    /// `canonical_facts` is a sorted, duplicate-free listing of exactly
    /// the instance's facts.
    #[test]
    fn canonical_facts_is_sound(facts in abstract_facts()) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        let canon = i.canonical_facts();
        prop_assert_eq!(canon.len(), i.len());
        prop_assert!(canon.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(canon.iter().all(|f| i.contains(f)));
    }

    /// Substitution composition agrees with sequential application.
    #[test]
    fn substitution_composition(
        facts in abstract_facts(),
        bind1 in prop::collection::vec((0u8..4, any::<bool>(), 0u8..4), 0..4),
        bind2 in prop::collection::vec((0u8..4, any::<bool>(), 0u8..4), 0..4),
    ) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        let mk = |vocab: &mut Vocabulary, binds: &[(u8, bool, u8)]| {
            let mut s = Substitution::new();
            for &(src, is_null, dst) in binds {
                let from = vocab.named_null(&format!("n{src}"));
                let to = if is_null {
                    vocab.null_value(&format!("n{dst}"))
                } else {
                    vocab.const_value(&format!("c{dst}"))
                };
                s.bind(from, to);
            }
            s
        };
        let s = mk(&mut vocab, &bind1);
        let t = mk(&mut vocab, &bind2);
        let composed = s.then(&t).apply_instance(&i);
        let sequential = t.apply_instance(&s.apply_instance(&i));
        prop_assert_eq!(composed, sequential);
    }

    /// `then` is associative — both as composed maps and under
    /// application.
    #[test]
    fn substitution_composition_is_associative(
        facts in abstract_facts(),
        bind1 in prop::collection::vec((0u8..4, any::<bool>(), 0u8..4), 0..4),
        bind2 in prop::collection::vec((0u8..4, any::<bool>(), 0u8..4), 0..4),
        bind3 in prop::collection::vec((0u8..4, any::<bool>(), 0u8..4), 0..4),
    ) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        let mk = |vocab: &mut Vocabulary, binds: &[(u8, bool, u8)]| {
            let mut s = Substitution::new();
            for &(src, is_null, dst) in binds {
                let from = vocab.named_null(&format!("n{src}"));
                let to = if is_null {
                    vocab.null_value(&format!("n{dst}"))
                } else {
                    vocab.const_value(&format!("c{dst}"))
                };
                s.bind(from, to);
            }
            s
        };
        let s = mk(&mut vocab, &bind1);
        let t = mk(&mut vocab, &bind2);
        let u = mk(&mut vocab, &bind3);
        let left = s.then(&t).then(&u);
        let right = s.then(&t.then(&u));
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(left.apply_instance(&i), right.apply_instance(&i));
    }

    /// The active domain is exactly the set of values in facts.
    #[test]
    fn active_domain_is_exact(facts in abstract_facts()) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        let dom = i.active_domain();
        // Sorted and duplicate-free.
        prop_assert!(dom.windows(2).all(|w| w[0] < w[1]));
        for f in i.facts() {
            for v in f.args() {
                prop_assert!(dom.contains(v));
            }
        }
        let total: usize = i.facts().map(|f| f.arity()).sum();
        prop_assert!(dom.len() <= total.max(1));
    }

    /// Column indexes return exactly the rows holding the value.
    #[test]
    fn posting_lists_are_exact(facts in abstract_facts()) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        for (_, data) in i.relations() {
            let tuples: Vec<Vec<Value>> = data.tuples().map(|t| t.to_vec()).collect();
            for col in 0..data.arity() {
                for &v in tuples.iter().flat_map(|t| t.iter()) {
                    let rows = data.rows_with(col, &v);
                    for &r in rows {
                        prop_assert_eq!(data.value_at(r, col), v);
                    }
                    let expected = tuples.iter().filter(|t| t[col] == v).count();
                    prop_assert_eq!(rows.len(), expected);
                }
            }
        }
    }
}
