//! Conjunctive queries.

use rde_chase::{FiringTemplate, PremisePlan};
use rde_deps::{parse_dependency, Atom, DepError, Dependency};
use rde_hom::HomConfig;
use rde_model::{Instance, Vocabulary};

use crate::answers::AnswerSet;

/// A conjunctive query `q(x̄) :- body`, with an optional guard extension
/// (inequalities in the body, accepted by the parser but not used by the
/// paper's theorems, which are stated for plain CQs).
///
/// Internally a query is a validated [`Dependency`] `body -> q(x̄)` —
/// dependency safety is exactly CQ safety (every head variable occurs in
/// the body) and premise matching is exactly CQ evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConjunctiveQuery {
    dep: Dependency,
}

impl ConjunctiveQuery {
    /// Parse `q(x, y) :- P(x, z) & Q(z, y)`. The head relation symbol
    /// (here `q`) is interned with the head's arity; it names the query.
    pub fn parse(vocab: &mut Vocabulary, text: &str) -> Result<Self, DepError> {
        let (head, body) = text
            .split_once(":-")
            .ok_or(DepError::Parse { line: 1, message: "expected `head :- body`".into() })?;
        let dep = parse_dependency(vocab, &format!("{} -> {}", body.trim(), head.trim()))?;
        if dep.disjuncts.len() != 1 || dep.disjuncts[0].atoms.len() != 1 {
            return Err(DepError::Parse {
                line: 1,
                message: "query head must be a single atom".into(),
            });
        }
        if !dep.disjuncts[0].existentials.is_empty() {
            return Err(DepError::Parse {
                line: 1,
                message: "query head cannot be existential".into(),
            });
        }
        if dep.has_constant_guards() {
            return Err(DepError::Parse {
                line: 1,
                message: "Constant guards are not part of the CQ language".into(),
            });
        }
        Ok(ConjunctiveQuery { dep })
    }

    /// The head atom `q(x̄)`.
    pub fn head(&self) -> &Atom {
        &self.dep.disjuncts[0].atoms[0]
    }

    /// The arity of the answer tuples.
    pub fn arity(&self) -> usize {
        self.head().args.len()
    }

    /// Is this a Boolean query (empty head)?
    pub fn is_boolean(&self) -> bool {
        self.arity() == 0
    }

    /// The underlying dependency `body -> head`.
    pub fn as_dependency(&self) -> &Dependency {
        &self.dep
    }

    /// The query with body atom `idx` removed, or `None` if the result
    /// would be unsafe (a head variable losing its binding) or `idx` is
    /// out of range. Used by query minimization.
    pub fn without_body_atom(&self, idx: usize) -> Option<ConjunctiveQuery> {
        let premise = &self.dep.premise;
        if idx >= premise.atoms.len() {
            return None;
        }
        let mut new_premise = premise.clone();
        new_premise.atoms.remove(idx);
        let var_names: Vec<String> = (0..self.dep.var_count())
            .map(|i| self.dep.var_name(rde_deps::VarId(i as u32)).to_owned())
            .collect();
        let dep = Dependency::new(var_names, new_premise, self.dep.disjuncts.clone());
        // Safety may be violated; we have no vocabulary here, but
        // safety is arity-independent: check head/guard vars directly.
        let universal: std::collections::HashSet<_> = dep.premise.atom_vars().into_iter().collect();
        let head_safe = dep.disjuncts[0].atoms[0].vars().iter().all(|v| universal.contains(v));
        let guards_safe = dep
            .premise
            .inequalities
            .iter()
            .all(|(a, b)| universal.contains(a) && universal.contains(b))
            && dep.premise.constant_vars.iter().all(|v| universal.contains(v));
        if head_safe && guards_safe {
            Some(ConjunctiveQuery { dep })
        } else {
            None
        }
    }
}

/// Evaluate `q(I)`: all head-atom instantiations under matches of the
/// body into `I`. Answers may contain nulls; use [`evaluate_null_free`]
/// for `q(I)↓`.
///
/// The body compiles to a [`PremisePlan`] and the head to a
/// [`FiringTemplate`] (a safe head has no existentials), so evaluation
/// runs on the chase's matcher. Unbounded.
pub fn evaluate(q: &ConjunctiveQuery, instance: &Instance) -> AnswerSet {
    let body = PremisePlan::compile(&q.dep.premise);
    let head = FiringTemplate::compile(&body, &q.dep.disjuncts[0]);
    let mut out = AnswerSet::new();
    body.for_each_match(instance, &HomConfig::default(), |vals| {
        head.instantiate(vals, &[], |fact| {
            out.insert(fact.args().to_vec());
        });
        true
    });
    out
}

/// Evaluate `q(I)↓`: the null-free answers.
pub fn evaluate_null_free(q: &ConjunctiveQuery, instance: &Instance) -> AnswerSet {
    crate::answers::drop_nulls(&evaluate(q, instance))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rde_model::parse::parse_instance;

    #[test]
    fn join_query_evaluates() {
        let mut v = Vocabulary::new();
        let i = parse_instance(&mut v, "P(a, b)\nP(b, c)\nP(c, a)").unwrap();
        let q = ConjunctiveQuery::parse(&mut v, "q(x, z) :- P(x, y) & P(y, z)").unwrap();
        let ans = evaluate(&q, &i);
        assert_eq!(ans.len(), 3); // a→c, b→a, c→b
        let (a, c) = (v.const_value("a"), v.const_value("c"));
        assert!(ans.contains(&vec![a, c]));
    }

    #[test]
    fn null_answers_are_dropped_by_down_arrow() {
        let mut v = Vocabulary::new();
        let i = parse_instance(&mut v, "P(a, ?x)\nP(b, c)").unwrap();
        let q = ConjunctiveQuery::parse(&mut v, "q(x, y) :- P(x, y)").unwrap();
        assert_eq!(evaluate(&q, &i).len(), 2);
        let down = evaluate_null_free(&q, &i);
        assert_eq!(down.len(), 1);
        assert!(down.contains(&vec![v.const_value("b"), v.const_value("c")]));
    }

    #[test]
    fn boolean_queries() {
        let mut v = Vocabulary::new();
        let i = parse_instance(&mut v, "P(a, a)").unwrap();
        let q = ConjunctiveQuery::parse(&mut v, "q() :- P(x, x)").unwrap();
        assert!(q.is_boolean());
        assert_eq!(evaluate(&q, &i).len(), 1); // the empty tuple: true
        let j = parse_instance(&mut v, "P(a, b)").unwrap();
        assert_eq!(evaluate(&q, &j).len(), 0); // false
    }

    #[test]
    fn constants_in_queries() {
        let mut v = Vocabulary::new();
        let i = parse_instance(&mut v, "P(a, b)\nP(c, b)").unwrap();
        let q = ConjunctiveQuery::parse(&mut v, "q(x) :- P(x, 'b')").unwrap();
        assert_eq!(evaluate(&q, &i).len(), 2);
        let q2 = ConjunctiveQuery::parse(&mut v, "q(x) :- P('a', x)").unwrap();
        let ans = evaluate(&q2, &i);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&vec![v.const_value("b")]));
    }

    #[test]
    fn inequality_extension_is_accepted() {
        let mut v = Vocabulary::new();
        let i = parse_instance(&mut v, "P(a, a)\nP(a, b)").unwrap();
        let q = ConjunctiveQuery::parse(&mut v, "q(x, y) :- P(x, y) & x != y").unwrap();
        assert_eq!(evaluate(&q, &i).len(), 1);
    }

    #[test]
    fn malformed_queries_are_rejected() {
        let mut v = Vocabulary::new();
        assert!(ConjunctiveQuery::parse(&mut v, "q(x) <- P(x)").is_err());
        assert!(ConjunctiveQuery::parse(&mut v, "q(y) :- P(x)").is_err()); // unsafe head
        assert!(ConjunctiveQuery::parse(&mut v, "q(x) & r(x) :- P(x)").is_err());
        assert!(ConjunctiveQuery::parse(&mut v, "q(x) :- P(x) & Constant(x)").is_err());
    }

    #[test]
    fn repeated_head_variables() {
        let mut v = Vocabulary::new();
        let i = parse_instance(&mut v, "P(a, b)").unwrap();
        let q = ConjunctiveQuery::parse(&mut v, "q(x, x) :- P(x, y)").unwrap();
        let ans = evaluate(&q, &i);
        let a = v.const_value("a");
        assert_eq!(ans.into_iter().collect::<Vec<_>>(), vec![vec![a, a]]);
    }
}
