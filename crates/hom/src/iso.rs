//! Isomorphism of instances: a null-renaming bijection.
//!
//! Two instances are isomorphic when some bijective renaming of nulls
//! (constants fixed) maps one exactly onto the other. This is the
//! "equality" under which chase results are canonical: the chase is
//! deterministic only up to the choice of fresh nulls, and cores of
//! hom-equivalent instances are unique up to isomorphism. The engines
//! use isomorphism to compare canonical artifacts without depending on
//! null identities.

use rde_model::fx::FxHashSet;
use rde_model::{Instance, Substitution, Value};

use crate::search::{for_each_hom, HomConfig};

/// Find an isomorphism from `a` onto `b`, if one exists: an injective
/// homomorphism whose image is exactly `b`.
///
/// Strategy: enumerate homomorphisms `a → b` and keep the first that is
/// injective on nulls and maps `a` onto all of `b`. Since `a → b`
/// injectively-onto forces `|a| = |b|`, we reject early on size or
/// active-domain mismatch.
pub fn find_iso(a: &Instance, b: &Instance) -> Option<Substitution> {
    if a.len() != b.len() {
        return None;
    }
    let a_dom = a.active_domain();
    let b_dom = b.active_domain();
    if a_dom.len() != b_dom.len() {
        return None;
    }
    // Same constants on both sides (constants are fixed points).
    let a_consts: FxHashSet<Value> = a_dom.iter().copied().filter(|v| v.is_const()).collect();
    let b_consts: FxHashSet<Value> = b_dom.iter().copied().filter(|v| v.is_const()).collect();
    if a_consts != b_consts {
        return None;
    }
    let mut found = None;
    for_each_hom(a, b, &Substitution::new(), &HomConfig::default(), |sub| {
        // Injective on nulls?
        let mut images = FxHashSet::default();
        let injective = sub.iter().all(|(_, img)| images.insert(img));
        if !injective {
            return true;
        }
        // Surjective on facts? (|a| = |b| and injectivity make the
        // image exactly |b| facts iff no two facts collide, which
        // injectivity on values guarantees.)
        let image = sub.apply_instance(a);
        if image == *b {
            found = Some(sub.clone());
            return false;
        }
        true
    });
    found
}

/// Are `a` and `b` isomorphic (equal up to a bijective null renaming)?
pub fn is_isomorphic(a: &Instance, b: &Instance) -> bool {
    find_iso(a, b).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::*;

    #[test]
    fn equal_instances_are_isomorphic() {
        let a = inst(&[(0, &[c(0), n(0)]), (1, &[n(0)])]);
        assert!(is_isomorphic(&a, &a));
        let id = find_iso(&a, &a).unwrap();
        // The identity (or some automorphism) maps a onto a.
        assert_eq!(id.apply_instance(&a), a);
    }

    #[test]
    fn null_renaming_is_isomorphic() {
        let a = inst(&[(0, &[n(0), n(1)]), (0, &[n(1), n(0)])]);
        let b = inst(&[(0, &[n(7), n(9)]), (0, &[n(9), n(7)])]);
        let iso = find_iso(&a, &b).unwrap();
        assert_eq!(iso.apply_instance(&a), b);
    }

    #[test]
    fn hom_equivalent_but_not_isomorphic() {
        // {P(a,a)} vs {P(a,a), P(a,X)}: hom-equivalent, different sizes.
        let a = inst(&[(0, &[c(0), c(0)])]);
        let b = inst(&[(0, &[c(0), c(0)]), (0, &[c(0), n(0)])]);
        let stats = &mut crate::HomStats::default();
        assert!(crate::hom_equivalent(&a, &b, &HomConfig::default(), stats).holds());
        assert!(!is_isomorphic(&a, &b));
    }

    #[test]
    fn folding_is_not_an_isomorphism() {
        // Same size, but the only homs fold two nulls together.
        let a = inst(&[(0, &[n(0), n(1)])]);
        let b = inst(&[(0, &[n(5), n(5)])]);
        let stats = &mut crate::HomStats::default();
        assert!(crate::exists_hom(&a, &b, &HomConfig::default(), stats).holds());
        assert!(!is_isomorphic(&a, &b));
        // And in the other direction the hom is injective but not onto
        // the two distinct-null positions... sizes match, domains don't.
        assert!(!is_isomorphic(&b, &a));
    }

    #[test]
    fn constants_must_match_exactly() {
        let a = inst(&[(0, &[c(0)])]);
        let b = inst(&[(0, &[c(1)])]);
        assert!(!is_isomorphic(&a, &b));
        let b2 = inst(&[(0, &[n(0)])]);
        assert!(!is_isomorphic(&a, &b2), "a constant cannot be renamed to a null");
    }

    #[test]
    fn empty_instances_are_isomorphic() {
        assert!(is_isomorphic(&Instance::new(), &Instance::new()));
    }

    #[test]
    fn chase_style_outputs_compare_up_to_fresh_null_choice() {
        // Two runs inventing different nulls: Q(a,Z1),Q(Z1,b) vs
        // Q(a,Z9),Q(Z9,b).
        let run1 = inst(&[(0, &[c(0), n(1)]), (0, &[n(1), c(1)])]);
        let run2 = inst(&[(0, &[c(0), n(9)]), (0, &[n(9), c(1)])]);
        assert!(is_isomorphic(&run1, &run2));
    }
}
