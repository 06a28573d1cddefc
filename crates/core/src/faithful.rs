//! Universal-faithful reverse mappings (Definition 6.1, Theorem 6.2).

use rde_chase::{chase_mapping, disjunctive_chase, ChaseOptions, DisjunctiveChaseOptions};
use rde_deps::SchemaMapping;
use rde_hom::{exists_hom, HomConfig, HomStats};
use rde_model::{Instance, Vocabulary};

use crate::arrow::arrow_m;
use crate::{CoreError, Universe};

/// The three conditions of Definition 6.1 evaluated at one source
/// instance `I`, over the leaf set
/// `{V₁, …, Vₖ} = chase_{M′}(chase_M(I))` (restricted to the source
/// schema).
#[derive(Debug, Clone)]
pub struct FaithfulReport {
    /// The leaves, restricted to the source schema.
    pub leaves: Vec<Instance>,
    /// Condition (1): every leaf satisfies `I →_M Vₗ`.
    pub every_leaf_exports_at_least: bool,
    /// Condition (2): some leaf satisfies `Vᵢ →_M I`.
    pub some_leaf_exports_at_most: bool,
    /// Condition (3): for every `I′` in the probe family with
    /// `I →_M I′`, some leaf maps homomorphically into `I′`.
    pub universality_within_bound: bool,
    /// First `I′` violating condition (3), if any.
    pub universality_counterexample: Option<Instance>,
}

impl FaithfulReport {
    /// All three conditions hold (condition 3 within the probe bound)?
    pub fn holds(&self) -> bool {
        self.every_leaf_exports_at_least
            && self.some_leaf_exports_at_most
            && self.universality_within_bound
    }
}

/// Evaluate Definition 6.1 at one source instance. `M` must be
/// tgd-specified, `M′` disjunctive-tgd-specified (the theorem's
/// hypotheses); condition (3) quantifies `I′` over `probe_family`.
pub fn faithfulness_at(
    mapping: &SchemaMapping,
    reverse: &SchemaMapping,
    source: &Instance,
    probe_family: &[Instance],
    vocab: &mut Vocabulary,
) -> Result<FaithfulReport, CoreError> {
    let u = chase_mapping(source, mapping, vocab, &ChaseOptions::default())?;
    let result =
        disjunctive_chase(&u, &reverse.dependencies, vocab, &DisjunctiveChaseOptions::default())?;
    let leaves: Vec<Instance> =
        result.leaves.iter().map(|l| l.restrict_to(&mapping.source)).collect();

    let mut every_leaf_exports_at_least = true;
    for leaf in &leaves {
        if !arrow_m(mapping, source, leaf, vocab)? {
            every_leaf_exports_at_least = false;
            break;
        }
    }
    let mut some_leaf_exports_at_most = false;
    for leaf in &leaves {
        if arrow_m(mapping, leaf, source, vocab)? {
            some_leaf_exports_at_most = true;
            break;
        }
    }
    let mut universality_counterexample = None;
    let (unbounded, mut stats) = (HomConfig::default(), HomStats::default());
    for i_prime in probe_family {
        if arrow_m(mapping, source, i_prime, vocab)?
            && !leaves.iter().any(|v| exists_hom(v, i_prime, &unbounded, &mut stats).holds())
        {
            universality_counterexample = Some(i_prime.clone());
            break;
        }
    }
    Ok(FaithfulReport {
        leaves,
        every_leaf_exports_at_least,
        some_leaf_exports_at_most,
        universality_within_bound: universality_counterexample.is_none(),
        universality_counterexample,
    })
}

/// Like [`faithfulness_at`], but with the leaf set closed under
/// homomorphic collapses of `chase_M(I)` before chasing:
/// `⋃_h chase_{M′}(h(chase_M(I)))`.
///
/// This is the right procedural reading for recoveries whose premises
/// carry **inequalities** (the output language of Theorem 5.1):
/// inequality triggers are not preserved under null collapses, so the
/// raw leaf set of Definition 6.1 — stated for inequality-free
/// disjunctive tgds — misses recovered worlds in which distinct nulls
/// of the exchanged instance denote the same value. Closing under
/// collapses restores exactly the worlds that `e(M) ∘ e(M′)` sees (see
/// `crate::compose`). For inequality-free recoveries the identity
/// collapse subsumes the rest and this agrees with [`faithfulness_at`]
/// on all three conditions.
pub fn faithfulness_at_with_collapses(
    mapping: &SchemaMapping,
    reverse: &SchemaMapping,
    source: &Instance,
    probe_family: &[Instance],
    vocab: &mut Vocabulary,
) -> Result<FaithfulReport, CoreError> {
    let u = chase_mapping(source, mapping, vocab, &ChaseOptions::default())?;
    let collapses = crate::compose::enumerate_collapses(
        &u,
        reverse,
        &Instance::new(),
        &rde_model::fx::FxHashSet::default(),
        vocab,
        crate::compose::ComposeOptions::default().max_collapses,
    )?;
    let mut leaves: Vec<Instance> = Vec::new();
    for h in collapses {
        let j = h.apply_instance(&u);
        let result = disjunctive_chase(
            &j,
            &reverse.dependencies,
            vocab,
            &DisjunctiveChaseOptions::default(),
        )?;
        for leaf in result.leaves {
            let restricted = leaf.restrict_to(&mapping.source);
            if !leaves.contains(&restricted) {
                leaves.push(restricted);
            }
        }
    }

    let mut every_leaf_exports_at_least = true;
    for leaf in &leaves {
        if !arrow_m(mapping, source, leaf, vocab)? {
            every_leaf_exports_at_least = false;
            break;
        }
    }
    let mut some_leaf_exports_at_most = false;
    for leaf in &leaves {
        if arrow_m(mapping, leaf, source, vocab)? {
            some_leaf_exports_at_most = true;
            break;
        }
    }
    let mut universality_counterexample = None;
    let (unbounded, mut stats) = (HomConfig::default(), HomStats::default());
    for i_prime in probe_family {
        if arrow_m(mapping, source, i_prime, vocab)?
            && !leaves.iter().any(|v| exists_hom(v, i_prime, &unbounded, &mut stats).holds())
        {
            universality_counterexample = Some(i_prime.clone());
            break;
        }
    }
    Ok(FaithfulReport {
        leaves,
        every_leaf_exports_at_least,
        some_leaf_exports_at_most,
        universality_within_bound: universality_counterexample.is_none(),
        universality_counterexample,
    })
}

/// Check universal-faithfulness of `M′` for `M` over every source of a
/// universe (conditions 1–2 are exact per source; condition 3 is probed
/// against the same universe). Returns the first failing source with
/// its report.
pub fn check_universal_faithful(
    mapping: &SchemaMapping,
    reverse: &SchemaMapping,
    universe: &Universe,
    vocab: &mut Vocabulary,
) -> Result<Option<(Instance, FaithfulReport)>, CoreError> {
    let family = universe
        .collect_instances(vocab, &mapping.source)
        .map_err(|_| CoreError::UnsupportedMapping { required: "an enumerable source schema" })?;
    for i in &family {
        let report = faithfulness_at(mapping, reverse, i, &family, vocab)?;
        if !report.holds() {
            return Ok(Some((i.clone(), report)));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rde_deps::parse_mapping;
    use rde_model::parse::parse_instance;

    /// The union mapping's disjunctive reverse is universal-faithful
    /// (Theorem 6.2: it is a maximum extended recovery).
    #[test]
    fn union_disjunctive_reverse_is_universal_faithful() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)")
            .unwrap();
        let rev =
            parse_mapping(&mut v, "source: R/1\ntarget: P/1, Q/1\nR(x) -> P(x) | Q(x)").unwrap();
        let u = Universe::new(&mut v, 1, 1, 2);
        let failure = check_universal_faithful(&m, &rev, &u, &mut v).unwrap();
        assert!(failure.is_none(), "failure: {failure:?}");
    }

    /// Dropping the Q-disjunct breaks universality: the branch family
    /// can no longer reach sources that used Q.
    #[test]
    fn non_disjunctive_reverse_of_union_fails_universality() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)")
            .unwrap();
        let rev = parse_mapping(&mut v, "source: R/1\ntarget: P/1, Q/1\nR(x) -> P(x)").unwrap();
        let u = Universe::new(&mut v, 1, 0, 1);
        let failure = check_universal_faithful(&m, &rev, &u, &mut v).unwrap();
        let (_source, report) = failure.expect("must fail");
        // The leaves only ever assert P-facts; a Q-source I′ exporting
        // the same R-fact is reachable by →_M but covered by no leaf.
        assert!(report.every_leaf_exports_at_least);
        assert!(report.some_leaf_exports_at_most);
        assert!(!report.universality_within_bound);
        let q = v.find_relation("Q").unwrap();
        let cex = report.universality_counterexample.expect("condition 3 witness");
        assert!(cex.relation(q).is_some(), "the unreachable probe uses Q: {cex:?}");
    }

    /// Example 3.18's tgd inverse is universal-faithful with a single
    /// leaf per instance (no disjunction ⇒ `k = 1`).
    #[test]
    fn chase_inverse_is_universal_faithful_with_one_leaf() {
        let mut v = Vocabulary::new();
        let m =
            parse_mapping(&mut v, "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)")
                .unwrap();
        let rev =
            parse_mapping(&mut v, "source: Q/2\ntarget: P/2\nQ(x,z) & Q(z,y) -> P(x,y)").unwrap();
        let i = parse_instance(&mut v, "P(a,b)").unwrap();
        let probe = vec![i.clone(), parse_instance(&mut v, "P(a,b)\nP(b,a)").unwrap()];
        let report = faithfulness_at(&m, &rev, &i, &probe, &mut v).unwrap();
        assert!(report.holds());
        assert_eq!(report.leaves.len(), 1);
    }

    /// Theorem 5.2's inequality recovery fails the raw Definition 6.1
    /// conditions (it is outside the definition's language), but passes
    /// the collapse-closed variant — matching its verified status as a
    /// maximum extended recovery.
    #[test]
    fn inequality_recovery_passes_collapse_closed_faithfulness() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(
            &mut v,
            "source: P/2, T/1\ntarget: Pp/2\nP(x,y) -> Pp(x,y)\nT(x) -> Pp(x,x)",
        )
        .unwrap();
        let rec = crate::quasi_inverse::maximum_extended_recovery_full(
            &m,
            &mut v,
            &crate::quasi_inverse::QuasiInverseOptions::default(),
        )
        .unwrap();
        let universe = crate::Universe::new(&mut v, 1, 1, 2);
        let family = universe.collect_instances(&v, &m.source).unwrap();
        let mut raw_fails = false;
        for i in &family {
            let raw = faithfulness_at(&m, &rec, i, &family, &mut v).unwrap();
            if !raw.holds() {
                raw_fails = true;
            }
            let closed = faithfulness_at_with_collapses(&m, &rec, i, &family, &mut v).unwrap();
            assert!(
                closed.holds(),
                "collapse-closed faithfulness must hold at {i:?}: (1)={} (2)={} (3)={}",
                closed.every_leaf_exports_at_least,
                closed.some_leaf_exports_at_most,
                closed.universality_within_bound
            );
        }
        assert!(raw_fails, "the raw conditions must fail somewhere (the Def 6.1 boundary)");
    }

    /// For inequality-free recoveries the collapse-closed variant agrees
    /// with the raw conditions.
    #[test]
    fn collapse_closed_agrees_on_disjunctive_tgds() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)")
            .unwrap();
        let rev =
            parse_mapping(&mut v, "source: R/1\ntarget: P/1, Q/1\nR(x) -> P(x) | Q(x)").unwrap();
        let universe = crate::Universe::new(&mut v, 1, 1, 1);
        let family = universe.collect_instances(&v, &m.source).unwrap();
        for i in &family {
            let raw = faithfulness_at(&m, &rev, i, &family, &mut v).unwrap();
            let closed = faithfulness_at_with_collapses(&m, &rev, i, &family, &mut v).unwrap();
            assert_eq!(raw.holds(), closed.holds(), "at {i:?}");
        }
    }

    /// A reverse mapping violating condition (1): it recovers less than
    /// the original exports.
    #[test]
    fn lossy_reverse_fails_condition_one() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/2\ntarget: Q/2\nP(x,y) -> Q(x,y)").unwrap();
        // Recover only the first column (second existential): the leaf
        // exports Q(x, Z) which does not cover Q(a, b).
        let rev =
            parse_mapping(&mut v, "source: Q/2\ntarget: P/2\nQ(x,y) -> exists u . P(x,u)").unwrap();
        let i = parse_instance(&mut v, "P(a,b)").unwrap();
        let report = faithfulness_at(&m, &rev, &i, std::slice::from_ref(&i), &mut v).unwrap();
        assert!(!report.every_leaf_exports_at_least);
        assert!(!report.holds());
    }
}
