//! `reverse_exchange`: one seeded null-bearing source instance per
//! paper family through the whole reverse-exchange pipeline —
//! `U = chase_M(I)`, `core(U)`, the disjunctive chase of `U` with the
//! recovery `M′`, reverse certain answers over the leaves restricted to
//! the source, and `I →_M V` for every leaf `V`.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use rde_bench::workloads::{self, Workload};
use rde_chase::{chase_mapping, disjunctive_chase, ChaseOptions, DisjunctiveChaseOptions};
use rde_core::arrow::arrow_m;
use rde_hom::core_of;
use rde_model::{Fact, Instance, Value, Vocabulary};
use rde_query::{certain_answers_over, ConjunctiveQuery};

use crate::batch::Batch;
use crate::oracle::{self, Cq};
use crate::stats::{ratio, Layers, Report};

/// Distinct source instances per family; jobs cycle through them.
const POOL: usize = 8;
/// Arms of the `union_k` family.
const ARMS: usize = 3;
/// Values in each `union_k` source, so `ARMS^UNION_VALUES` leaves.
const UNION_VALUES: usize = 4;

/// How the expected answers of a family are computed from `I`.
#[derive(Clone, Copy)]
enum Oracle {
    /// The decomposition closed form ([`oracle::decomposition_join`]).
    Join,
    /// `q(I)↓` by the nested-loop evaluator (Thm 6.4: the recovery is a
    /// chase-inverse).
    NestedLoop,
    /// No CQ over the arms is certain: some leaf sends every value to
    /// another arm.
    Empty,
}

struct Family {
    workload: Workload,
    vocab: Vocabulary,
    query: ConjunctiveQuery,
    inputs: Vec<(Instance, BTreeSet<Vec<Value>>)>,
}

pub struct ReverseExchange {
    families: Vec<Family>,
    pub parse_us: f64,
    pub generate_us: f64,
}

/// Plain tuples of `I`, keyed by relation name.
fn plain(vocab: &Vocabulary, i: &Instance) -> BTreeMap<String, Vec<Vec<Value>>> {
    let mut out: BTreeMap<String, Vec<Vec<Value>>> = BTreeMap::new();
    for (rel, data) in i.relations() {
        let rows = out.entry(vocab.relation_name(rel).to_owned()).or_default();
        rows.extend(data.tuples().map(|t| t.to_vec()));
    }
    out
}

fn expected(vocab: &Vocabulary, i: &Instance, kind: Oracle) -> BTreeSet<Vec<Value>> {
    let facts = plain(vocab, i);
    let all = match kind {
        Oracle::Join => {
            let p: Vec<[Value; 3]> =
                facts.get("P").into_iter().flatten().map(|t| [t[0], t[1], t[2]]).collect();
            oracle::decomposition_join(&p)
        }
        Oracle::NestedLoop => {
            // q(x, y) :- P(x, z) & P(z, y)
            let q = Cq {
                head: vec![0, 2],
                body: vec![("P".to_owned(), vec![0, 1]), ("P".to_owned(), vec![1, 2])],
                vars: 3,
            };
            oracle::eval_cq(&q, &facts)
        }
        Oracle::Empty => BTreeSet::new(),
    };
    all.into_iter().filter(|t| t.iter().all(|v| v.is_const())).collect()
}

/// A `union_k` source: every value of a fixed pool (constants and one
/// null) in one randomly chosen arm, so `R` always has
/// `UNION_VALUES` facts.
fn union_source(vocab: &mut Vocabulary, rng: &mut SmallRng) -> Instance {
    let mut i = Instance::new();
    for v in 0..UNION_VALUES {
        let value =
            if v == 0 { vocab.null_value("n0") } else { vocab.const_value(&format!("k{v}")) };
        let arm = vocab.find_relation(&format!("U{}", rng.gen_range(0..ARMS as u64))).expect("arm");
        i.insert(Fact::new(arm, vec![value]));
    }
    i
}

impl ReverseExchange {
    pub fn setup(seed: u64) -> ReverseExchange {
        type Build = fn(&mut Vocabulary) -> Workload;
        let union: Build = |v| workloads::union_k(v, ARMS);
        let specs: [(Build, &str, Oracle); 3] = [
            (workloads::decomposition, "q(x, z) :- P(x, y, u) & P(v, y, z)", Oracle::Join),
            (workloads::two_step, "q(x, y) :- P(x, z) & P(z, y)", Oracle::NestedLoop),
            (union, "q(x) :- U0(x)", Oracle::Empty),
        ];
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut parse_us, mut generate_us) = (0.0, 0.0);
        let families = specs
            .into_iter()
            .map(|(build, query, kind)| {
                let mut vocab = Vocabulary::new();
                let t = Instant::now();
                let workload = build(&mut vocab);
                let query = ConjunctiveQuery::parse(&mut vocab, query).expect("benchmark query");
                parse_us += t.elapsed().as_secs_f64() * 1e6;
                let t = Instant::now();
                let sources: Vec<Instance> = (0..POOL)
                    .map(|_| match kind {
                        Oracle::Join => workloads::source_instance(
                            &mut vocab,
                            &workload.mapping,
                            24,
                            8,
                            3,
                            0.2,
                            rng.next_u64(),
                        ),
                        Oracle::NestedLoop => workloads::source_instance(
                            &mut vocab,
                            &workload.mapping,
                            16,
                            6,
                            2,
                            0.2,
                            rng.next_u64(),
                        ),
                        Oracle::Empty => union_source(&mut vocab, &mut rng),
                    })
                    .collect();
                generate_us += t.elapsed().as_secs_f64() * 1e6;
                let inputs = sources
                    .into_iter()
                    .map(|i| {
                        let want = expected(&vocab, &i, kind);
                        (i, want)
                    })
                    .collect();
                Family { workload, vocab, query, inputs }
            })
            .collect();
        ReverseExchange { families, parse_us, generate_us }
    }
}

/// Time `f` into `layers[name]` when tracing.
fn stage<T>(layers: &mut Option<&mut Layers>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match layers {
        Some(l) => {
            let t = Instant::now();
            let out = f();
            l.add(name, t.elapsed().as_secs_f64() * 1e6);
            out
        }
        None => f(),
    }
}

impl Batch for ReverseExchange {
    fn job(&mut self, n: usize, mut layers: Option<&mut Layers>) -> (f64, bool) {
        let mut total_us = 0.0;
        let mut ok = true;
        for family in &self.families {
            let (source, want) = &family.inputs[n % family.inputs.len()];
            let m = &family.workload.mapping;
            let m_rev = &family.workload.reverse;
            let mut vocab = family.vocab.clone();
            let t = Instant::now();
            let run = (|| {
                let u = stage(&mut layers, "chase.forward.us", || {
                    chase_mapping(source, m, &mut vocab, &ChaseOptions::default())
                })
                .ok()?;
                let core = stage(&mut layers, "hom.core.us", || core_of(&u));
                let recovered = stage(&mut layers, "chase.disjunctive.us", || {
                    disjunctive_chase(
                        &u,
                        &m_rev.dependencies,
                        &mut vocab,
                        &DisjunctiveChaseOptions::default(),
                    )
                    .map(|r| {
                        let leaves: Vec<Instance> =
                            r.leaves.iter().map(|l| l.restrict_to(&m.source)).collect();
                        (leaves, r.steps, r.pruned)
                    })
                })
                .ok()?;
                let (leaves, steps, pruned) = recovered;
                let answers = stage(&mut layers, "query.eval.us", || {
                    certain_answers_over(&family.query, &leaves)
                });
                let arrows = stage(&mut layers, "core.arrow.us", || {
                    leaves
                        .iter()
                        .map(|v| arrow_m(m, source, v, &mut vocab).unwrap_or(false))
                        .collect::<Vec<bool>>()
                });
                Some((u.len(), core.core.len(), leaves.len(), steps, pruned, answers, arrows))
            })();
            total_us += t.elapsed().as_secs_f64() * 1e6;
            let Some((u_len, core_len, leaves, steps, pruned, answers, arrows)) = run else {
                ok = false;
                continue;
            };
            // Thm 4.13: I →_M V for every recovered leaf V; Thm 6.4/6.5
            // and the closed forms: the certain answers.
            ok &= arrows.iter().all(|&holds| holds) && answers == *want;
            if let Some(l) = layers.as_deref_mut() {
                l.add("hom.core.facts", core_len as f64);
                l.add("hom.core.input_facts", u_len as f64);
                l.add("chase.disjunctive.steps", steps as f64);
                l.add("chase.disjunctive.leaves", leaves as f64);
                l.add("chase.disjunctive.pruned", pruned as f64);
                l.add("query.answers", answers.len() as f64);
                l.add("core.arrow.checks", arrows.len() as f64);
            }
        }
        if let Some(l) = layers {
            l.add("job.us", total_us);
        }
        (total_us, ok)
    }

    fn layer_metrics(&self, l: &Layers, jobs: usize, report: &mut Report) {
        let per_job = |name: &str| l.sum(name) / jobs as f64;
        let stages = [
            "chase.forward.us",
            "hom.core.us",
            "chase.disjunctive.us",
            "query.eval.us",
            "core.arrow.us",
        ];
        for name in stages.into_iter().chain([
            "chase.disjunctive.steps",
            "chase.disjunctive.leaves",
            "chase.disjunctive.pruned",
            "query.answers",
            "core.arrow.checks",
        ]) {
            report.set(name, per_job(name), jobs);
        }
        report.set(
            "hom.core.shrink_ratio",
            ratio(l.sum("hom.core.facts"), l.sum("hom.core.input_facts")),
            jobs,
        );
        let staged: f64 = stages.iter().map(|s| l.sum(s)).sum();
        report.set("obs.layer_sum_frac", ratio(staged, l.sum("job.us")), jobs);
    }
}
