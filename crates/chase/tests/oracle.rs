//! Definition-level oracle for the compiled plans.
//!
//! A premise match is an assignment of the premise variables under
//! which every premise atom is a fact and every guard (`Constant(x)`,
//! `x != y`) holds. On small instances every assignment of the
//! variables to the active domain can be checked outright:
//! [`PremisePlan`] must enumerate exactly those, once each, and
//! [`SatisfactionPlan`] must find a conclusion witness exactly when one
//! exists. Under a node budget they may stop early, but never report a
//! match or a verdict the definition rejects.

use proptest::prelude::*;
use rde_chase::{PremisePlan, SatisfactionPlan};
use rde_deps::{parse_dependency, Dependency, VarId};
use rde_hom::{HomConfig, HomStats, Verdict};
use rde_model::{Fact, Instance, Value, Vocabulary};

/// Atoms or facts: `(binary?, [(variable-or-null?, index); 2])` over
/// `E/2` and `U/1`.
type Atoms = Vec<(bool, Vec<(bool, u8)>)>;
/// Premise matches as slot assignments (`universal_vars` order).
type Matches = Vec<Vec<Value>>;

fn atoms(min: usize, max: usize) -> impl Strategy<Value = Atoms> {
    prop::collection::vec(
        (any::<bool>(), prop::collection::vec((any::<bool>(), 0u8..3), 2)),
        min..=max,
    )
}

/// `(Constant guard?, a, b)`: `Constant(xa)` or `xa != xb`.
fn guards() -> impl Strategy<Value = Vec<(bool, u8, u8)>> {
    prop::collection::vec((any::<bool>(), 0u8..3, 0u8..3), 0..=2)
}

/// The premise `atoms ∧ guards` with the conclusion `∃z E(x0, z) ∧
/// U(z)`. The first argument is always `x0`; guards name only
/// variables the atoms use.
fn dependency(vocab: &mut Vocabulary, atoms: &Atoms, guards: &[(bool, u8, u8)]) -> Dependency {
    let mut used = vec!["x0".to_owned()];
    let mut term = |first: bool, (var, i): (bool, u8)| match (first, var) {
        (true, _) => "x0".to_owned(),
        (false, true) => {
            let x = format!("x{i}");
            if !used.contains(&x) {
                used.push(x.clone());
            }
            x
        }
        (false, false) => format!("'c{i}'"),
    };
    let mut parts: Vec<String> = atoms
        .iter()
        .enumerate()
        .map(|(k, (binary, args))| match binary {
            true => format!("E({}, {})", term(k == 0, args[0]), term(false, args[1])),
            false => format!("U({})", term(k == 0, args[0])),
        })
        .collect();
    for &(constant, a, b) in guards {
        let (a, b) = (&used[a as usize % used.len()], &used[b as usize % used.len()]);
        parts.push(if constant { format!("Constant({a})") } else { format!("{a} != {b}") });
    }
    let text = format!("{} -> exists z . E(x0, z) & U(z)", parts.join(" & "));
    parse_dependency(vocab, &text).unwrap_or_else(|e| panic!("{text}: {e}"))
}

fn instance(vocab: &mut Vocabulary, facts: &Atoms) -> Instance {
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

/// The premise matches the definition admits, sorted. Assignment
/// number `code` gives variable `k` digit `k` of `code` in base
/// `|domain|`.
fn brute_force_matches(dep: &Dependency, instance: &Instance) -> Matches {
    let (vars, domain) = (dep.universal_vars(), instance.active_domain());
    let total = domain.len().pow(vars.len() as u32);
    let assignment = |code: usize| -> Vec<Value> {
        (0..vars.len()).map(|k| domain[code / domain.len().pow(k as u32) % domain.len()]).collect()
    };
    let admitted = |vals: &Vec<Value>| {
        let value = |v: VarId| vals[vars.iter().position(|&w| w == v).unwrap()];
        dep.premise.atoms.iter().all(|a| instance.contains(&a.instantiate(&value)))
            && dep.premise.constant_vars.iter().all(|&v| value(v).is_const())
            && dep.premise.inequalities.iter().all(|&(a, b)| value(a) != value(b))
    };
    let mut matches: Matches = (0..total).map(assignment).filter(admitted).collect();
    matches.sort();
    matches
}

/// Sorted matches of one enumeration, and whether it completed.
fn run(enumerate: impl FnOnce(&mut dyn FnMut(&[Value]) -> bool) -> bool) -> (Matches, bool) {
    let mut out = Vec::new();
    let complete = enumerate(&mut |vals| {
        out.push(vals.to_vec());
        true
    });
    out.sort();
    (out, complete)
}

fn budget(k: Option<u64>) -> HomConfig {
    HomConfig { node_budget: k, ..HomConfig::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Full and seeded enumeration, guards included, and conclusion
    /// satisfiability, unbounded and under a node budget.
    #[test]
    fn premise_matches_agree_with_brute_force(
        a in atoms(1, 3),
        g in guards(),
        f in atoms(0, 7),
        k in 0u64..10,
    ) {
        let mut vocab = Vocabulary::new();
        let inst = instance(&mut vocab, &f);
        let dep = dependency(&mut vocab, &a, &g);
        let plan = PremisePlan::compile(&dep.premise);
        let oracle = brute_force_matches(&dep, &inst);
        // `∃z E(x0, z) ∧ U(z)` holds iff some `z` in the domain witnesses it.
        let (e, u) = (vocab.find_relation("E").unwrap(), vocab.find_relation("U").unwrap());
        let sat = SatisfactionPlan::compile(&plan, &dep.disjuncts[0]);
        let x0 = plan.vars().iter().position(|&v| dep.var_name(v) == "x0").unwrap();
        for vals in &oracle {
            let witnessed = inst.active_domain().into_iter().any(|z| {
                inst.contains(&Fact::new(e, vec![vals[x0], z])) && inst.contains(&Fact::new(u, vec![z]))
            });
            let exact = sat.satisfiable(&inst, vals, &budget(None), &mut HomStats::default());
            prop_assert_eq!(exact, Verdict::from_bool(witnessed));
            let budgeted = sat.satisfiable(&inst, vals, &budget(Some(k)), &mut HomStats::default());
            prop_assert!(budgeted.is_unknown() || budgeted == exact);
        }
        // Seeding atom 0 with a fact yields the matches mapping atom 0
        // onto that fact.
        let seeded: Vec<(Vec<Option<Value>>, Matches)> = inst
            .facts()
            .filter(|f| f.relation() == plan.atom_rel(0))
            .filter_map(|f| {
                let seed = plan.seed_from_fact(0, f.args())?;
                let through: Matches = oracle
                    .iter()
                    .filter(|m| seed.iter().zip(m.iter()).all(|(s, v)| s.is_none_or(|s| s == *v)))
                    .cloned()
                    .collect();
                Some((seed, through))
            })
            .collect();
        for config in [budget(None), budget(Some(k))] {
            let (got, complete) =
                run(|on| plan.for_each_match(&inst, &config, on).exhausted.is_none());
            prop_assert!(complete || config.node_budget.is_some());
            prop_assert!(if complete { got == oracle } else { got.iter().all(|m| oracle.contains(m)) });
            for (seed, through) in &seeded {
                let (got, complete) = run(|on| {
                    plan.for_each_match_seeded(0, seed, &inst, &config, on).exhausted.is_none()
                });
                prop_assert!(if complete { got == *through } else { got.iter().all(|m| through.contains(m)) });
            }
        }
    }
}
