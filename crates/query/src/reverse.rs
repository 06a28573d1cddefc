//! Certain answers and reverse query answering (Section 6.2).

use rde_chase::{
    chase_mapping, disjunctive_chase, ChaseError, ChaseOptions, DisjunctiveChaseOptions,
};
use rde_deps::SchemaMapping;
use rde_model::{Instance, Vocabulary};

use crate::answers::{drop_nulls, intersect_all, AnswerSet};
use crate::cq::{evaluate, ConjunctiveQuery};

/// `(⋂_K q(K))↓` over a family of instances — the right-hand side of
/// Theorem 6.5.
pub fn certain_answers_over<'a>(
    q: &ConjunctiveQuery,
    instances: impl IntoIterator<Item = &'a Instance>,
) -> AnswerSet {
    drop_nulls(&intersect_all(instances.into_iter().map(|k| evaluate(q, k))))
}

/// Classic ("direct") certain answers of a conjunctive query over the
/// **target** schema: `certain_M(q, I) = q(chase_M(I))↓` for mappings
/// specified by s-t tgds (Fagin–Kolaitis–Miller–Popa; the universal
/// solution computes certain answers of CQs).
pub fn forward_certain_answers(
    q: &ConjunctiveQuery,
    source: &Instance,
    mapping: &SchemaMapping,
    vocab: &mut Vocabulary,
) -> Result<AnswerSet, ChaseError> {
    let u = chase_mapping(source, mapping, vocab, &ChaseOptions::default())?;
    Ok(crate::cq::evaluate_null_free(q, &u))
}

/// Reverse query answering by the procedure of Theorem 6.5.
///
/// Given a mapping `M` specified by s-t tgds, a maximum extended
/// recovery `M′` of `M` specified by disjunctive tgds, a **source**
/// query `q`, and the original source instance `I` (used only to compute
/// `U = chase_M(I)`, which is what survives after the exchange):
/// compute `K = chase_{M′}(U)` by the disjunctive chase, restrict every
/// leaf to the source schema, and return `(⋂_{K} q(K))↓`.
///
/// By Theorem 6.5 this equals `certain_{e(M) ∘ e(M′)}(q, I)`; by
/// Theorem 6.4, when `M′` is an extended *inverse* it equals `q(I)↓`.
pub fn reverse_certain_answers(
    q: &ConjunctiveQuery,
    source: &Instance,
    mapping: &SchemaMapping,
    recovery: &SchemaMapping,
    vocab: &mut Vocabulary,
    options: &DisjunctiveChaseOptions,
) -> Result<AnswerSet, ChaseError> {
    // The forward chase runs under the caller's context and time budget
    // too, so a cancel, deadline or injected fault cuts it, not just the
    // disjunctive phase.
    let forward = ChaseOptions::under(&options.hom);
    let u = chase_mapping(source, mapping, vocab, &forward)?;
    reverse_certain_answers_from_target(q, &u, mapping, recovery, vocab, options)
}

/// Like [`reverse_certain_answers`] but starting from the materialized
/// target instance `U` (the realistic situation: the source is gone).
pub fn reverse_certain_answers_from_target(
    q: &ConjunctiveQuery,
    target: &Instance,
    mapping: &SchemaMapping,
    recovery: &SchemaMapping,
    vocab: &mut Vocabulary,
    options: &DisjunctiveChaseOptions,
) -> Result<AnswerSet, ChaseError> {
    let result = disjunctive_chase(target, &recovery.dependencies, vocab, options)?;
    let leaves: Vec<Instance> =
        result.leaves.iter().map(|l| l.restrict_to(&mapping.source)).collect();
    Ok(certain_answers_over(q, leaves.iter()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rde_deps::parse_mapping;
    use rde_hom::HomConfig;
    use rde_model::parse::parse_instance;

    /// Example 3.18's extended-invertible mapping: reverse certain
    /// answers recover q(I)↓ exactly (Theorem 6.4).
    #[test]
    fn extended_inverse_recovers_q_of_i() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(
            &mut v,
            "source: P/2\ntarget: Q/2\nP(x, y) -> exists z . Q(x, z) & Q(z, y)",
        )
        .unwrap();
        let minv = parse_mapping(&mut v, "source: Q/2\ntarget: P/2\nQ(x, z) & Q(z, y) -> P(x, y)")
            .unwrap();
        let i = parse_instance(&mut v, "P(a, b)\nP(b, c)\nP(a, ?w)").unwrap();
        let q = ConjunctiveQuery::parse(&mut v, "q(x, y) :- P(x, y)").unwrap();
        let expected = crate::cq::evaluate_null_free(&q, &i);
        let got =
            reverse_certain_answers(&q, &i, &m, &minv, &mut v, &DisjunctiveChaseOptions::default())
                .unwrap();
        assert_eq!(got, expected);
        // And a join query over the source.
        let qj = ConjunctiveQuery::parse(&mut v, "j(x, z) :- P(x, y) & P(y, z)").unwrap();
        let expected = crate::cq::evaluate_null_free(&qj, &i);
        let got = reverse_certain_answers(
            &qj,
            &i,
            &m,
            &minv,
            &mut v,
            &DisjunctiveChaseOptions::default(),
        )
        .unwrap();
        assert_eq!(got, expected);
    }

    /// The caller's context reaches the forward chase: a cancelled
    /// token stops a divergent `chase_M(I)` at its first round instead
    /// of letting it run into the round budget.
    #[test]
    fn forward_chase_honours_the_callers_context() {
        let mut v = Vocabulary::new();
        let mut m = parse_mapping(&mut v, "source: E/2\ntarget: F/2\nE(x, y) -> F(x, y)").unwrap();
        // A target tgd that never quiesces: only the round budget or the
        // context can stop the forward chase.
        m.dependencies
            .push(rde_deps::parse_dependency(&mut v, "F(x, y) -> exists z . F(y, z)").unwrap());
        let minv = parse_mapping(&mut v, "source: F/2\ntarget: E/2\nF(x, y) -> E(x, y)").unwrap();
        let i = parse_instance(&mut v, "E(a, b)").unwrap();
        let q = ConjunctiveQuery::parse(&mut v, "q(x) :- E(x, y)").unwrap();
        let ctx = rde_faults::ExecContext::cancellable();
        ctx.cancel.cancel();
        let options = DisjunctiveChaseOptions {
            hom: rde_hom::HomConfig { ctx, ..HomConfig::default() },
            ..DisjunctiveChaseOptions::default()
        };
        let err = reverse_certain_answers(&q, &i, &m, &minv, &mut v, &options).unwrap_err();
        assert_eq!(err, ChaseError::Cancelled);
    }

    /// The union mapping: certain answers through the disjunctive
    /// recovery keep only what every branch agrees on.
    #[test]
    fn union_mapping_certain_answers_are_conservative() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)")
            .unwrap();
        let rec =
            parse_mapping(&mut v, "source: R/1\ntarget: P/1, Q/1\nR(x) -> P(x) | Q(x)").unwrap();
        let i = parse_instance(&mut v, "P(a)").unwrap();
        // q(x) :- P(x): branch {Q(a)} does not satisfy it → no certain answer.
        let qp = ConjunctiveQuery::parse(&mut v, "q(x) :- P(x)").unwrap();
        let got =
            reverse_certain_answers(&qp, &i, &m, &rec, &mut v, &DisjunctiveChaseOptions::default())
                .unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn forward_certain_answers_use_the_universal_solution() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(
            &mut v,
            "source: P/2\ntarget: Q/2\nP(x, y) -> exists z . Q(x, z) & Q(z, y)",
        )
        .unwrap();
        let i = parse_instance(&mut v, "P(a, b)").unwrap();
        // Endpoint pairs connected by a 2-path: only (a, b) is certain.
        let q = ConjunctiveQuery::parse(&mut v, "q(x, y) :- Q(x, z) & Q(z, y)").unwrap();
        let got = forward_certain_answers(&q, &i, &m, &mut v).unwrap();
        let (a, b) = (v.const_value("a"), v.const_value("b"));
        assert_eq!(got.into_iter().collect::<Vec<_>>(), vec![vec![a, b]]);
        // Single-edge endpoints involve the null z: no certain answers.
        let q1 = ConjunctiveQuery::parse(&mut v, "q(x, y) :- Q(x, y)").unwrap();
        assert!(forward_certain_answers(&q1, &i, &m, &mut v).unwrap().is_empty());
    }

    #[test]
    fn certain_answers_over_explicit_family() {
        let mut v = Vocabulary::new();
        let k1 = parse_instance(&mut v, "P(a)\nP(b)").unwrap();
        let k2 = parse_instance(&mut v, "P(a)\nP(c)").unwrap();
        let q = ConjunctiveQuery::parse(&mut v, "q(x) :- P(x)").unwrap();
        let got = certain_answers_over(&q, [&k1, &k2]);
        assert_eq!(got.into_iter().collect::<Vec<_>>(), vec![vec![v.const_value("a")]]);
    }
}
