//! Homomorphic equivalence.

use rde_model::Instance;

use crate::search::{exists_hom, HomConfig, HomStats};
use crate::verdict::Verdict;

/// Are `a` and `b` homomorphically equivalent (`a → b` and `b → a`,
/// Definition 3.1)? This is the paper's notion of "the same instance":
/// chase-inverses recover the original source only up to this relation
/// (Definition 3.16), and capturing targets determine sources up to it.
///
/// Both searches run under `config`'s budgets and combine by Kleene
/// conjunction, accumulating search work into `stats`: a definite
/// failure in either direction beats an `Unknown` in the other.
pub fn hom_equivalent(
    a: &Instance,
    b: &Instance,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Verdict {
    let fwd = exists_hom(a, b, config, stats);
    if fwd.fails() {
        return Verdict::Fails;
    }
    fwd.and(exists_hom(b, a, config, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::*;

    #[test]
    fn equivalence_is_reflexive() {
        let i = inst(&[(0, &[c(0), n(0)])]);
        assert!(equivalent(&i, &i));
    }

    #[test]
    fn ground_instances_equivalent_iff_equal() {
        let a = inst(&[(0, &[c(0)])]);
        let b = inst(&[(0, &[c(0)]), (0, &[c(1)])]);
        assert!(!equivalent(&a, &b));
        assert!(equivalent(&a, &inst(&[(0, &[c(0)])])));
    }

    #[test]
    fn null_padding_is_equivalent() {
        // {P(a,b)} ≡ {P(a,b), P(a,X)}: the null fact folds onto the real one.
        let a = inst(&[(0, &[c(0), c(1)])]);
        let b = inst(&[(0, &[c(0), c(1)]), (0, &[c(0), n(0)])]);
        assert!(equivalent(&a, &b));
        let (fwd, back) = (witness(&a, &b).unwrap(), witness(&b, &a).unwrap());
        assert_eq!(fwd.apply_instance(&a), a); // a is ground: identity
        assert!(back.apply_instance(&b).is_subset_of(&a));
    }

    #[test]
    fn renamed_nulls_are_equivalent() {
        let a = inst(&[(0, &[n(0), n(1)])]);
        let b = inst(&[(0, &[n(7), n(8)])]);
        assert!(equivalent(&a, &b));
    }

    #[test]
    fn asymmetric_directions_are_detected() {
        // {P(X,X)} → {P(a,a)} but not conversely.
        let a = inst(&[(0, &[n(0), n(0)])]);
        let b = inst(&[(0, &[c(0), c(0)])]);
        assert!(witness(&a, &b).is_some());
        assert!(witness(&b, &a).is_none());
        assert!(!equivalent(&a, &b));
    }

    #[test]
    fn budgeted_equivalence_degrades_to_unknown() {
        let a = inst(&[(0, &[n(0), n(1)]), (0, &[n(1), n(0)])]);
        let b = inst(&[(0, &[n(7), n(9)]), (0, &[n(9), n(7)])]);
        let mut stats = HomStats::default();
        let v = hom_equivalent(&a, &b, &HomConfig::default(), &mut stats);
        assert!(v.holds());
        assert!(stats.nodes > 0, "both directions are accounted");
        let cfg = HomConfig { node_budget: Some(0), ..HomConfig::default() };
        let mut stats = HomStats::default();
        assert!(hom_equivalent(&a, &b, &cfg, &mut stats).is_unknown());
        // A definite directional failure is reported even under a budget
        // too small to decide the other direction.
        let asym_a = inst(&[(0, &[n(0), n(0)])]);
        let asym_b = inst(&[(0, &[c(0), c(1)])]);
        let mut stats = HomStats::default();
        let v = hom_equivalent(&asym_a, &asym_b, &HomConfig::default(), &mut stats);
        assert!(v.fails());
    }
}
