//! Backtracking homomorphism search.
//!
//! A homomorphism from `I₁` to `I₂` (Definition 3.1) fixes constants and
//! maps nulls so that every fact of `I₁` lands in `I₂`. We treat the
//! nulls of `I₁` as CSP variables and the facts of `I₁` as constraints,
//! and solve fact-at-a-time: pick an uncovered source fact, enumerate the
//! target tuples it can map onto (via the column posting lists of the
//! bound positions, or, once every position is bound, the one tuple
//! the relation's dedup map holds), unify, recurse.
//!
//! Every search runs under [`HomConfig`]'s (optional) node and
//! wall-clock budgets. Exhausting a budget is not an error: it is a
//! completion status on the returned [`SearchReport`], and the
//! deciders ([`exists_hom`], [`find_hom`]) fold it into a three-valued
//! [`Verdict`] (or an `Err(Exhausted)`). There is one signature per
//! decider: an unbounded search is written `HomConfig::default()` at
//! the call site, on purpose.

use std::time::{Duration, Instant};

use rde_faults::ExecContext;
use rde_model::fx::FxHashMap;
use rde_model::{Instance, NullId, RelationData, Substitution, Value};

use crate::verdict::{Exhausted, Verdict};

/// How many nodes pass between wall-clock checks: `Instant::now()` is
/// much more expensive than a unification attempt, so the deadline is
/// polled on a stride. Time budgets are therefore enforced with a
/// granularity of `TIME_CHECK_STRIDE` nodes.
const TIME_CHECK_STRIDE: u64 = 256;

/// Search configuration. The default is complete: no budgets and an
/// inert context.
#[derive(Debug, Clone, Default)]
pub struct HomConfig {
    /// Node budget: the maximum number of candidate-tuple unification
    /// attempts. `None` = run to completion.
    ///
    /// **Semantics (exact):** the counter is incremented *before* each
    /// attempt and the search stops when `nodes > budget`, so
    /// `node_budget = Some(N)` permits **exactly N** unification
    /// attempts; the (N+1)-th attempt is cut before it unifies. In
    /// particular `Some(0)` stops before the first attempt, and a search
    /// whose complete run needs exactly N nodes finishes untruncated
    /// under `Some(N)`. On exhaustion the reported
    /// [`HomStats::nodes`] reads `N + 1` (the aborted attempt was
    /// counted, not performed). Boundary tests pin this down so the
    /// semantics cannot drift as budgets thread through chase and core.
    pub node_budget: Option<u64>,
    /// Wall-clock budget for one search. `None` = no deadline. Checked
    /// every `TIME_CHECK_STRIDE` (256) nodes, so very short searches may
    /// finish before the first check.
    pub time_budget: Option<Duration>,
    /// Scoped execution context: its cancel token is polled at search
    /// entry and then every `TIME_CHECK_STRIDE` (256) nodes alongside the
    /// deadline check (a cancelled search reports
    /// [`Exhausted::Cancelled`]), and its fault injector drives the
    /// `hom.search.exhaust` injection point. The default context is
    /// inert and costs one pointer-sized check per poll.
    pub ctx: ExecContext,
}

/// Search counters, reported by [`for_each_hom`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HomStats {
    /// Candidate tuple unification attempts.
    pub nodes: u64,
    /// Failed unifications (a proxy for backtracking work).
    pub backtracks: u64,
    /// Homomorphisms reported to the callback.
    pub found: u64,
}

/// Accumulate another search's counters (the chase and the checkers
/// aggregate per-top-level-check totals this way).
impl std::ops::AddAssign for HomStats {
    fn add_assign(&mut self, other: HomStats) {
        self.nodes += other.nodes;
        self.backtracks += other.backtracks;
        self.found += other.found;
    }
}

/// What a search did and whether it ran to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchReport {
    /// Work counters for this search.
    pub stats: HomStats,
    /// `Some` when a budget cut the enumeration short: any matches
    /// reported before the cut are valid, but the enumeration is
    /// incomplete (absence of a match proves nothing). `None` means the
    /// search ran to completion (or was stopped by the callback, which
    /// is a *caller* decision, not a budget one).
    pub exhausted: Option<Exhausted>,
}

/// One argument of a pattern atom: already-fixed value or variable slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatArg {
    /// A value that must match exactly (a constant, or a pre-resolved
    /// null of the *target*).
    Fixed(Value),
    /// A pattern variable, identified by its dense slot index.
    Var(u32),
}

/// One atom `R(a₁, …, aₖ)` of a [`CompiledPattern`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternAtom {
    /// Relation symbol to match in the target.
    pub rel: rde_model::RelId,
    /// Argument pattern.
    pub args: Vec<PatArg>,
}

/// A conjunction of atoms over dense variable slots, compiled once and
/// matched against many (growing) targets.
///
/// This is the allocation-free core the chase builds its premise plans
/// on: compiling replaces the freeze-into-`Instance` + null-offset
/// dance [`for_each_hom`] needs, because slots are pattern-local —
/// they can never collide with target nulls, so no per-call offset
/// scan exists at all.
#[derive(Debug, Clone)]
pub struct CompiledPattern {
    atoms: Vec<PatternAtom>,
    n_vars: u32,
}

impl CompiledPattern {
    /// Compile a pattern. Slot indices may be sparse; the variable
    /// space is sized by the largest index used.
    pub fn new(atoms: Vec<PatternAtom>) -> Self {
        let n_vars = atoms
            .iter()
            .flat_map(|a| &a.args)
            .filter_map(|a| match *a {
                PatArg::Var(v) => Some(v + 1),
                PatArg::Fixed(_) => None,
            })
            .max()
            .unwrap_or(0);
        CompiledPattern { atoms, n_vars }
    }

    /// Number of variable slots (one past the largest used index).
    pub fn num_vars(&self) -> usize {
        self.n_vars as usize
    }

    /// The compiled atoms.
    pub fn atoms(&self) -> &[PatternAtom] {
        &self.atoms
    }

    /// Enumerate matches of the pattern into `target` extending `seed`
    /// (`seed[v]` pre-binds slot `v`; missing/`None` entries are free).
    /// The callback sees the full slot assignment and returns `false`
    /// to stop. Returns the search report (stats + completion status).
    ///
    /// Atom `skip` (if any) is taken as already matched: the search
    /// covers only the remaining atoms. The caller must have seeded
    /// every variable of the skipped atom — this is the semi-naive
    /// chase's delta seeding, where one atom is unified with a delta
    /// fact and the rest are matched against the full instance.
    ///
    /// A seed that binds every slot leaves nothing to search: each atom
    /// is answered by one membership probe (see [`Self::probe`]) before
    /// any search state is allocated.
    pub fn for_each_match(
        &self,
        skip: Option<usize>,
        target: &Instance,
        seed: &[Option<Value>],
        config: &HomConfig,
        mut on_found: impl FnMut(&[Option<Value>]) -> bool,
    ) -> SearchReport {
        let n_vars = self.n_vars as usize;
        if let Some(bound) = seed.get(..n_vars).filter(|s| s.iter().all(Option::is_some)) {
            let value = |x: u32| bound[x as usize];
            return self.run(config, |stats, _, deadline| {
                if self.probe_atoms(skip, target, value, config, deadline, stats)? {
                    on_found(bound);
                }
                Ok(())
            });
        }
        self.run(config, |stats, prunes, deadline| {
            static EMPTY: std::sync::OnceLock<RelationData> = std::sync::OnceLock::new();
            let empty = EMPTY.get_or_init(RelationData::default);
            let facts: Vec<PatternFact<'_>> = self
                .atoms
                .iter()
                .enumerate()
                .filter(|&(i, _)| Some(i) != skip)
                .map(|(_, a)| PatternFact {
                    rel_data: target.relation(a.rel).unwrap_or(empty),
                    args: &a.args,
                })
                .collect();
            let mut vals: Vec<Option<Value>> = vec![None; n_vars];
            for (slot, &v) in seed.iter().enumerate().take(n_vars) {
                vals[slot] = v;
            }
            let mut searcher = Searcher {
                facts,
                vals,
                config,
                deadline,
                stats: HomStats::default(),
                trail: Vec::new(),
                prunes: 0,
                exhausted: None,
                on_found,
            };
            let mut remaining: Vec<usize> = (0..searcher.facts.len()).collect();
            searcher.solve(&mut remaining);
            *stats = searcher.stats;
            *prunes = searcher.prunes;
            searcher.exhausted.map_or(Ok(()), Err)
        })
    }

    /// Decide the pattern with every slot bound by `vals` (slot `v` is
    /// `vals[v]`; `vals` must cover [`Self::num_vars`]): every atom's
    /// instantiated tuple must be a fact of `target`. Each atom is one
    /// lookup in its relation's dedup map, so no seed or search state
    /// is built. A present tuple costs one node against the budget, as
    /// a row tried by the search does; an absent tuple costs none and
    /// is a definite miss. The report counts one found match on a hit.
    pub fn probe(&self, target: &Instance, vals: &[Value], config: &HomConfig) -> SearchReport {
        debug_assert!(vals.len() >= self.num_vars());
        self.run(config, |stats, _, deadline| {
            let value = |x: u32| Some(vals[x as usize]);
            self.probe_atoms(None, target, value, config, deadline, stats).map(drop)
        })
    }

    /// The entry contract every search shares. Entry checks give
    /// cancellation a per-*search* granularity even when every
    /// individual search is far shorter than one node stride (the chase
    /// fires thousands of tiny premise matches). The injection point
    /// simulates spurious budget exhaustion for the resilience suite.
    /// Both paths still flush metrics: every homomorphism search in the
    /// system (chase premise matching, satisfaction checks, hom
    /// deciders, core minimization) funnels through here, so this is
    /// the single metrics flush point for the engine. One relaxed
    /// atomic add per counter per *search*, not per node — invisible
    /// next to the search itself.
    fn run(
        &self,
        config: &HomConfig,
        body: impl FnOnce(&mut HomStats, &mut u64, Option<Instant>) -> Result<(), Exhausted>,
    ) -> SearchReport {
        let deadline = config.time_budget.map(|d| Instant::now() + d);
        let mut stats = HomStats::default();
        let mut prunes = 0;
        let exhausted = if config.ctx.should_inject("hom.search.exhaust") {
            Some(Exhausted::Nodes(0))
        } else if config.ctx.is_cancelled() {
            Some(Exhausted::Cancelled)
        } else {
            body(&mut stats, &mut prunes, deadline).err()
        };
        rde_obs::counter!("hom.search.searches").inc();
        rde_obs::counter!("hom.search.nodes").add(stats.nodes);
        rde_obs::counter!("hom.search.backtracks").add(stats.backtracks);
        rde_obs::counter!("hom.search.found").add(stats.found);
        rde_obs::counter!("hom.search.prunes").add(prunes);
        if exhausted.is_some() {
            rde_obs::counter!("hom.search.exhausted").inc();
        }
        SearchReport { stats, exhausted }
    }

    /// Probe every atom but `skip` under a full assignment, in atom
    /// order. `Ok(true)`: every tuple is present, and the match is
    /// counted as found; `Ok(false)`: one is absent (the probe stops at
    /// it); `Err`: a budget ran out.
    fn probe_atoms(
        &self,
        skip: Option<usize>,
        target: &Instance,
        value: impl Fn(u32) -> Option<Value>,
        config: &HomConfig,
        deadline: Option<Instant>,
        stats: &mut HomStats,
    ) -> Result<bool, Exhausted> {
        for (i, atom) in self.atoms.iter().enumerate() {
            if Some(i) == skip {
                continue;
            }
            let arg_value = |arg: PatArg| match arg {
                PatArg::Fixed(v) => Some(v),
                PatArg::Var(x) => value(x),
            };
            let row = target
                .relation(atom.rel)
                .and_then(|data| bound_row(data, &atom.args, arg_value).flatten());
            rde_obs::histogram!("chase.match.candidates").record(u64::from(row.is_some()));
            if row.is_none() {
                return Ok(false);
            }
            charge_node(stats, config, deadline)?;
        }
        stats.found += 1;
        Ok(true)
    }
}

/// Count one unification attempt against `config`'s budgets. The
/// counter is incremented first, then compared, so a budget of N
/// permits exactly N attempts (see [`HomConfig::node_budget`]); the
/// deadline and the cancel token are polled every
/// `TIME_CHECK_STRIDE` nodes.
fn charge_node(
    stats: &mut HomStats,
    config: &HomConfig,
    deadline: Option<Instant>,
) -> Result<(), Exhausted> {
    stats.nodes += 1;
    if let Some(budget) = config.node_budget {
        if stats.nodes > budget {
            return Err(Exhausted::Nodes(budget));
        }
    }
    if stats.nodes.is_multiple_of(TIME_CHECK_STRIDE) {
        if let Some(deadline) = deadline {
            if Instant::now() >= deadline {
                return Err(Exhausted::Time(config.time_budget.unwrap_or_default()));
            }
        }
        if config.ctx.is_cancelled() {
            return Err(Exhausted::Cancelled);
        }
    }
    Ok(())
}

/// Arity up to which [`bound_row`] builds its lookup key on the stack.
const INLINE_ARITY: usize = 8;

/// The row of an atom whose arguments are all bound: `Some(row)` with
/// the dedup map's answer, or `None` when some argument is unbound.
fn bound_row(
    data: &RelationData,
    args: &[PatArg],
    value: impl Fn(PatArg) -> Option<Value>,
) -> Option<Option<u32>> {
    let mut inline = [Value::Const(rde_model::ConstId(0)); INLINE_ARITY];
    let mut heap = Vec::new();
    let key: &mut [Value] = if args.len() <= INLINE_ARITY {
        &mut inline[..args.len()]
    } else {
        heap.resize(args.len(), Value::Const(rde_model::ConstId(0)));
        &mut heap
    };
    for (k, &arg) in key.iter_mut().zip(args) {
        *k = value(arg)?;
    }
    Some(data.row_of(key))
}

struct PatternFact<'a> {
    rel_data: &'a RelationData,
    args: &'a [PatArg],
}

struct Searcher<'a, F: FnMut(&[Option<Value>]) -> bool> {
    facts: Vec<PatternFact<'a>>,
    /// Variable assignment: `vals[v]` is the image of slot `v`.
    vals: Vec<Option<Value>>,
    config: &'a HomConfig,
    /// Wall-clock cutoff derived from [`HomConfig::time_budget`].
    deadline: Option<Instant>,
    stats: HomStats,
    /// Scratch undo stack of bound slots, shared across the whole
    /// search: each node records a mark and truncates back to it,
    /// instead of allocating a fresh trail per candidate row.
    trail: Vec<u32>,
    /// Forward-check prunes: picks where some remaining fact already
    /// had zero candidate rows, cutting the branch without expanding
    /// it. Flushed to the `hom.search.prunes` metric (deliberately not
    /// part of [`HomStats`], whose layout is pinned by boundary tests).
    prunes: u64,
    /// Set when a budget cut the search short.
    exhausted: Option<Exhausted>,
    /// Callback; returns `false` to stop enumerating.
    on_found: F,
}

impl<'a, F: FnMut(&[Option<Value>]) -> bool> Searcher<'a, F> {
    /// Returns `true` if enumeration should stop (callback said stop,
    /// or a budget was exhausted — see [`Self::exhausted`]).
    fn solve(&mut self, remaining: &mut Vec<usize>) -> bool {
        let Some(slot) = self.pick(remaining) else {
            // All facts covered: report the match.
            self.stats.found += 1;
            return !(self.on_found)(&self.vals);
        };
        let fact_idx = remaining.swap_remove(slot);
        let rows = self.candidate_rows(fact_idx);
        let stopped = self.try_rows(fact_idx, rows, remaining);
        remaining.push(fact_idx);
        let last = remaining.len() - 1;
        remaining.swap(slot, last);
        stopped
    }

    fn try_rows(&mut self, fact_idx: usize, rows: Rows<'_>, remaining: &mut Vec<usize>) -> bool {
        let n_rows = rows.len();
        rde_obs::histogram!("chase.match.candidates").record(n_rows as u64);
        for i in 0..n_rows {
            let row = rows.row(i);
            if let Err(budget) = charge_node(&mut self.stats, self.config, self.deadline) {
                self.exhausted = Some(budget);
                return true;
            }
            let mark = self.trail.len();
            if self.unify(fact_idx, row) {
                let stopped = self.solve(remaining);
                self.undo_to(mark);
                if stopped {
                    return true;
                }
            } else {
                self.stats.backtracks += 1;
                self.undo_to(mark);
            }
        }
        false
    }

    /// Unbind every slot recorded past `mark` and truncate the trail.
    fn undo_to(&mut self, mark: usize) {
        for &v in &self.trail[mark..] {
            self.vals[v as usize] = None;
        }
        self.trail.truncate(mark);
    }

    /// Pick the next remaining fact (slot index into `remaining`).
    fn pick(&mut self, remaining: &[usize]) -> Option<usize> {
        if remaining.is_empty() {
            return None;
        }
        let mut best_slot = 0;
        let mut best_cost = u64::MAX;
        for (slot, &fi) in remaining.iter().enumerate() {
            let cost = self.estimate(fi);
            if cost < best_cost {
                best_cost = cost;
                best_slot = slot;
                if cost == 0 {
                    break;
                }
            }
        }
        if best_cost == 0 {
            // Forward check: a remaining fact has no candidates, so
            // picking it fails every row immediately and cuts the
            // branch here rather than after expanding siblings.
            self.prunes += 1;
        }
        Some(best_slot)
    }

    /// Cheap upper bound on the number of candidate rows for a fact.
    fn estimate(&self, fact_idx: usize) -> u64 {
        let f = &self.facts[fact_idx];
        let mut best = f.rel_data.len() as u64;
        for (col, arg) in f.args.iter().enumerate() {
            if let Some(v) = self.arg_value(*arg) {
                let n = f.rel_data.rows_with(col, &v).len() as u64;
                best = best.min(n);
            }
        }
        best
    }

    fn arg_value(&self, arg: PatArg) -> Option<Value> {
        match arg {
            PatArg::Fixed(v) => Some(v),
            PatArg::Var(x) => self.vals[x as usize],
        }
    }

    /// Candidate target rows for a fact under the current assignment:
    /// the cheapest bound column's posting list, in ascending row order,
    /// so match emission order — and therefore everything downstream:
    /// trigger order, fresh-null numbering, checkpoint bytes — is
    /// deterministic. A fully bound fact can only unify with its own
    /// tuple, so it gets that one row from the dedup map (if present):
    /// the only row of any posting list that would have unified.
    fn candidate_rows(&self, fact_idx: usize) -> Rows<'a> {
        let f = &self.facts[fact_idx];
        let (data, args) = (f.rel_data, f.args);
        if let Some(row) = bound_row(data, args, |arg| self.arg_value(arg)) {
            return Rows::Bound(row);
        }
        let mut best: Option<&[u32]> = None;
        for (col, arg) in args.iter().enumerate() {
            if let Some(v) = self.arg_value(*arg) {
                let rows = data.rows_with(col, &v);
                if best.is_none_or(|b| rows.len() < b.len()) {
                    best = Some(rows);
                }
            }
        }
        match best {
            Some(rows) => Rows::Some(rows),
            // No bound column: scan the relation.
            None => Rows::All(data.len()),
        }
    }

    /// Check one pattern argument against one target value, binding a
    /// fresh variable (recorded on the shared trail) as needed.
    #[inline]
    fn bind(&mut self, arg: PatArg, tv: Value) -> bool {
        match arg {
            PatArg::Fixed(v) => v == tv,
            PatArg::Var(x) => match self.vals[x as usize] {
                Some(v) => v == tv,
                None => {
                    self.vals[x as usize] = Some(tv);
                    self.trail.push(x);
                    true
                }
            },
        }
    }

    /// Try to map fact `fact_idx` onto target row `row`, binding
    /// variables as needed; new bindings are pushed on the shared trail.
    fn unify(&mut self, fact_idx: usize, row: u32) -> bool {
        let f = &self.facts[fact_idx];
        let (tuple, args) = (f.rel_data.tuple(row), f.args);
        args.iter().zip(tuple).all(|(&arg, &tv)| self.bind(arg, tv))
    }
}

enum Rows<'a> {
    /// All rows `0..n` of the relation.
    All(usize),
    /// An explicit row list from a posting-list lookup, borrowed from
    /// the target instance.
    Some(&'a [u32]),
    /// The row of a fully bound fact's tuple, if present.
    Bound(Option<u32>),
}

impl Rows<'_> {
    fn len(&self) -> usize {
        match self {
            Rows::All(n) => *n,
            Rows::Some(rows) => rows.len(),
            Rows::Bound(row) => usize::from(row.is_some()),
        }
    }

    fn row(&self, i: usize) -> u32 {
        match self {
            Rows::All(_) => i as u32,
            Rows::Some(rows) => rows[i],
            Rows::Bound(row) => row.as_slice()[i],
        }
    }
}

/// Compile the facts of `source` into a [`CompiledPattern`] whose
/// variable slots are the source's nulls, in first-occurrence order.
/// Returns the pattern plus the slot → null mapping for reading matches
/// back as [`Substitution`]s. Core minimization compiles its instance
/// once per fold round and re-matches it against shrinking targets.
pub fn instance_pattern(source: &Instance) -> (CompiledPattern, Vec<NullId>) {
    let mut var_ids: FxHashMap<NullId, u32> = FxHashMap::default();
    let mut var_nulls: Vec<NullId> = Vec::new();
    let mut atoms: Vec<PatternAtom> = Vec::new();

    for (rel, data) in source.relations() {
        for tuple in data.tuples() {
            let args = tuple
                .iter()
                .map(|&v| match v {
                    Value::Const(_) => PatArg::Fixed(v),
                    Value::Null(n) => {
                        let next = var_nulls.len() as u32;
                        let idx = *var_ids.entry(n).or_insert_with(|| {
                            var_nulls.push(n);
                            next
                        });
                        PatArg::Var(idx)
                    }
                })
                .collect();
            atoms.push(PatternAtom { rel, args });
        }
    }
    (CompiledPattern::new(atoms), var_nulls)
}

/// Enumerate homomorphisms from `source` to `target`, invoking `on_found`
/// for each; the callback returns `false` to stop early. `seed` pre-binds
/// source nulls (bindings to values *not necessarily in the target's
/// active domain* are permitted only if those nulls appear in no source
/// fact; otherwise unification simply fails).
///
/// Returns the search report; when `config` carries a budget, check
/// [`SearchReport::exhausted`] before trusting a non-match.
pub fn for_each_hom(
    source: &Instance,
    target: &Instance,
    seed: &Substitution,
    config: &HomConfig,
    mut on_found: impl FnMut(&Substitution) -> bool,
) -> SearchReport {
    let (pattern, var_nulls) = instance_pattern(source);
    let mut vals: Vec<Option<Value>> = vec![None; var_nulls.len()];
    if !seed.is_empty() {
        let var_ids: FxHashMap<NullId, u32> =
            var_nulls.iter().enumerate().map(|(i, &n)| (n, i as u32)).collect();
        for (n, v) in seed.iter() {
            if let Some(&idx) = var_ids.get(&n) {
                vals[idx as usize] = Some(v);
            }
        }
    }

    let span = rde_obs::span(
        "hom.search",
        &[("source_facts", source.len().into()), ("vars", var_nulls.len().into())],
    );
    let report = pattern.for_each_match(None, target, &vals, config, |assignment| {
        let sub: Substitution = var_nulls
            .iter()
            .zip(assignment)
            .map(|(&n, v)| (n, v.expect("all variables bound when all facts covered")))
            .collect();
        on_found(&sub)
    });
    span.close_with(&[
        ("nodes", report.stats.nodes.into()),
        ("backtracks", report.stats.backtracks.into()),
        ("found", report.stats.found.into()),
        ("complete", report.exhausted.is_none().into()),
    ]);
    report
}

/// Decide `source → target` (Definition 3.1's relation) under
/// `config`'s budgets, accumulating the search work into `stats`.
/// Returns [`Verdict::Unknown`] when a budget ran out before a witness
/// was found or the space was exhausted.
pub fn exists_hom(
    source: &Instance,
    target: &Instance,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Verdict {
    match find_hom(source, target, &Substitution::new(), config, stats) {
        Ok(Some(_)) => Verdict::Holds,
        Ok(None) => Verdict::Fails,
        Err(budget) => Verdict::Unknown { budget },
    }
}

/// Find one homomorphism `source → target` extending `seed` under
/// `config`'s budgets, accumulating the search work into `stats`.
///
/// `Ok(Some(h))` — a witness; `Ok(None)` — a complete refutation;
/// `Err(budget)` — the budget ran out before either.
pub fn find_hom(
    source: &Instance,
    target: &Instance,
    seed: &Substitution,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<Option<Substitution>, Exhausted> {
    let mut result = None;
    let report = for_each_hom(source, target, seed, config, |sub| {
        result = Some(sub.clone());
        false
    });
    *stats += report.stats;
    match (result, report.exhausted) {
        (Some(h), _) => Ok(Some(h)),
        (None, None) => Ok(None),
        (None, Some(budget)) => Err(budget),
    }
}

/// Count all homomorphisms from `source` to `target`.
///
/// The count is exponential in the worst case; intended for tests and
/// small instances.
pub fn count_homs(source: &Instance, target: &Instance) -> u64 {
    for_each_hom(source, target, &Substitution::new(), &HomConfig::default(), |_| true).stats.found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::*;
    use rde_model::{Fact, RelId};

    #[test]
    fn empty_source_maps_anywhere() {
        let empty = Instance::new();
        let target = inst(&[(0, &[c(0)])]);
        assert!(hom(&empty, &target));
        assert!(hom(&empty, &empty));
    }

    #[test]
    fn nonempty_source_needs_matching_relation() {
        let source = inst(&[(0, &[n(0)])]);
        let target = inst(&[(1, &[c(0)])]);
        assert!(!hom(&source, &target));
    }

    #[test]
    fn constants_are_fixed() {
        let source = inst(&[(0, &[c(0)])]);
        let target = inst(&[(0, &[c(1)])]);
        assert!(!hom(&source, &target));
        assert!(hom(&source, &inst(&[(0, &[c(0)]), (0, &[c(1)])])));
    }

    #[test]
    fn nulls_map_to_constants_or_nulls() {
        let source = inst(&[(0, &[n(0), n(1)])]);
        let target = inst(&[(0, &[c(0), n(5)])]);
        let h = witness(&source, &target).unwrap();
        assert_eq!(h.apply(n(0)), c(0));
        assert_eq!(h.apply(n(1)), n(5));
    }

    #[test]
    fn shared_nulls_must_agree() {
        // P(x, x) cannot map into P(a, b).
        let source = inst(&[(0, &[n(0), n(0)])]);
        assert!(!hom(&source, &inst(&[(0, &[c(0), c(1)])])));
        assert!(hom(&source, &inst(&[(0, &[c(0), c(0)])])));
    }

    #[test]
    fn paths_fold_into_shorter_paths() {
        // Path of nulls x→y→z maps onto edge a→b by folding.
        let source = inst(&[(0, &[n(0), n(1)]), (0, &[n(1), n(2)])]);
        let target = inst(&[(0, &[c(0), c(1)]), (0, &[c(1), c(0)])]);
        assert!(hom(&source, &target));
        // ...but not into a single non-loop edge.
        let single = inst(&[(0, &[c(0), c(1)])]);
        assert!(!hom(&source, &single));
        // A loop absorbs everything.
        let loop_ = inst(&[(0, &[c(0), c(0)])]);
        assert!(hom(&source, &loop_));
    }

    #[test]
    fn ground_source_hom_iff_subset() {
        // For ground I₁: I₁ → I₂ iff I₁ ⊆ I₂ (paper, Section 1).
        let i1 = inst(&[(0, &[c(0), c(1)]), (1, &[c(2)])]);
        let i2 = inst(&[(0, &[c(0), c(1)]), (1, &[c(2)]), (1, &[c(3)])]);
        assert!(hom(&i1, &i2));
        assert!(i1.is_subset_of(&i2));
        let i3 = inst(&[(0, &[c(0), c(1)])]);
        assert!(!hom(&i1, &i3));
        assert!(!i1.is_subset_of(&i3));
    }

    #[test]
    fn cross_fact_consistency() {
        // P(x), Q(x) needs a value in both unary relations.
        let source = inst(&[(0, &[n(0)]), (1, &[n(0)])]);
        let t1 = inst(&[(0, &[c(0)]), (1, &[c(1)])]);
        assert!(!hom(&source, &t1));
        let t2 = inst(&[(0, &[c(0)]), (1, &[c(0)])]);
        assert!(hom(&source, &t2));
    }

    #[test]
    fn seeded_search_respects_seed() {
        let source = inst(&[(0, &[n(0)])]);
        let target = inst(&[(0, &[c(0)]), (0, &[c(1)])]);
        let mut seed = Substitution::new();
        seed.bind(NullId(0), c(1));
        let unbounded = HomConfig::default();
        let h = find_hom(&source, &target, &seed, &unbounded, &mut HomStats::default()).unwrap();
        assert_eq!(h.unwrap().apply(n(0)), c(1));
        seed.bind(NullId(0), c(7)); // not in target
        let none = find_hom(&source, &target, &seed, &unbounded, &mut HomStats::default()).unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn hom_composition_witnesses_transitivity() {
        let a = inst(&[(0, &[n(0), n(1)])]);
        let b = inst(&[(0, &[n(2), c(0)])]);
        let c_ = inst(&[(0, &[c(1), c(0)])]);
        let h1 = witness(&a, &b).unwrap();
        let h2 = witness(&b, &c_).unwrap();
        let composed = h1.then(&h2);
        assert_eq!(composed.apply_instance(&a), c_);
    }

    #[test]
    fn counting_homs() {
        // P(x) into {P(a), P(b)}: two homs.
        let source = inst(&[(0, &[n(0)])]);
        let target = inst(&[(0, &[c(0)]), (0, &[c(1)])]);
        assert_eq!(count_homs(&source, &target), 2);
        // P(x), P(y) into the same: four homs.
        let source2 = inst(&[(0, &[n(0)]), (0, &[n(1)])]);
        assert_eq!(count_homs(&source2, &target), 4);
        // Identity on the empty instance: exactly one (the empty hom).
        assert_eq!(count_homs(&Instance::new(), &Instance::new()), 1);
    }

    #[test]
    fn node_budget_exhaustion_is_a_status_not_a_panic() {
        // A mismatch that requires search: k² attempts for a miss.
        let source = inst(&[(0, &[n(0), n(1)]), (0, &[n(1), n(0)]), (1, &[n(0)])]);
        let target =
            inst(&[(0, &[c(0), c(1)]), (0, &[c(1), c(2)]), (0, &[c(2), c(0)]), (1, &[c(9)])]);
        let cfg = HomConfig { node_budget: Some(0), ..HomConfig::default() };
        let report = for_each_hom(&source, &target, &Substitution::new(), &cfg, |_| true);
        assert_eq!(report.exhausted, Some(Exhausted::Nodes(0)));
        assert!(report.exhausted.is_some());
        let mut stats = HomStats::default();
        let verdict = exists_hom(&source, &target, &cfg, &mut stats);
        assert_eq!(verdict, Verdict::Unknown { budget: Exhausted::Nodes(0) });
        // The unbounded decision is definite.
        let mut stats = HomStats::default();
        let v = exists_hom(&source, &target, &HomConfig::default(), &mut stats);
        assert_eq!(v, Verdict::Fails);
        assert!(stats.nodes > 0);
    }

    #[test]
    fn node_budget_boundaries_permit_exactly_n_attempts() {
        // budget = N permits exactly N unification attempts: measure the
        // exact need of a complete search, then probe need and need - 1.
        let source = inst(&[(0, &[n(0), n(1)]), (0, &[n(1), n(2)]), (1, &[n(2)])]);
        let target = inst(&[(0, &[c(0), c(1)]), (0, &[c(1), c(2)]), (1, &[c(2)])]);
        let find_first = |cfg: &HomConfig| {
            let mut hit = false;
            let report = for_each_hom(&source, &target, &Substitution::new(), cfg, |_| {
                hit = true;
                false
            });
            (hit, report)
        };
        let (hit, unbounded) = find_first(&HomConfig::default());
        assert!(hit);
        let need = unbounded.stats.nodes;
        assert!(need >= 3, "three facts need at least three attempts");

        // budget = 0: cut before the very first attempt.
        let cfg0 = HomConfig { node_budget: Some(0), ..HomConfig::default() };
        let (hit, report) = find_first(&cfg0);
        assert!(!hit);
        assert_eq!(report.exhausted, Some(Exhausted::Nodes(0)));
        assert_eq!(report.stats.nodes, 1, "the aborted attempt is counted, not performed");

        // budget = 1: exactly one attempt happens, then the cut.
        let cfg1 = HomConfig { node_budget: Some(1), ..HomConfig::default() };
        let (hit, report) = find_first(&cfg1);
        assert!(!hit, "one attempt cannot cover three facts");
        assert_eq!(report.exhausted, Some(Exhausted::Nodes(1)));
        assert_eq!(report.stats.nodes, 2);

        // budget = exact need: the search finishes untruncated.
        let cfg_exact = HomConfig { node_budget: Some(need), ..HomConfig::default() };
        let (hit, report) = find_first(&cfg_exact);
        assert!(hit);
        assert!(report.exhausted.is_none());
        assert_eq!(report.stats.nodes, need);

        // budget = need - 1: cut on the final attempt.
        let cfg_short = HomConfig { node_budget: Some(need - 1), ..HomConfig::default() };
        let (hit, report) = find_first(&cfg_short);
        assert!(!hit);
        assert_eq!(report.exhausted, Some(Exhausted::Nodes(need - 1)));
    }

    #[test]
    fn fully_bound_probe_counts_are_exact() {
        // E(x, y) ∧ U(y) seeded with x := c0, y := c1. The distractor
        // rows share a column value with E(c0, c1), so a posting-list
        // scan would try them; the probe tries only the tuple itself.
        let pattern = CompiledPattern::new(vec![
            PatternAtom { rel: RelId(0), args: vec![PatArg::Var(0), PatArg::Var(1)] },
            PatternAtom { rel: RelId(1), args: vec![PatArg::Var(1)] },
        ]);
        let vals = [c(0), c(1)];
        let seed = vals.map(Some);
        let present =
            inst(&[(0, &[c(0), c(2)]), (0, &[c(3), c(1)]), (0, &[c(0), c(1)]), (1, &[c(1)])]);
        let first_absent = inst(&[(0, &[c(0), c(2)]), (1, &[c(1)])]);
        // Both entry points: a fully seeded search and the probe itself.
        let verdicts = |target: &Instance, cfg: &HomConfig| {
            let seeded = pattern.for_each_match(None, target, &seed, cfg, |_| true);
            let probed = pattern.probe(target, &vals, cfg);
            assert_eq!(seeded, probed);
            let verdict = match (probed.stats.found, probed.exhausted) {
                (1, None) => Verdict::Holds,
                (0, None) => Verdict::Fails,
                (_, exhausted) => Verdict::Unknown { budget: exhausted.unwrap() },
            };
            (verdict, probed.stats)
        };
        let unbounded = HomConfig::default();
        assert_eq!(
            verdicts(&present, &unbounded),
            (Verdict::Holds, HomStats { nodes: 2, backtracks: 0, found: 1 })
        );
        assert_eq!(verdicts(&first_absent, &unbounded), (Verdict::Fails, HomStats::default()));
        let one = HomConfig { node_budget: Some(1), ..HomConfig::default() };
        let (verdict, stats) = verdicts(&present, &one);
        assert_eq!(verdict, Verdict::Unknown { budget: Exhausted::Nodes(1) });
        assert_eq!(stats.nodes, 2, "the cut attempt is counted, not performed");
        let ctx = rde_faults::ExecContext::cancellable();
        ctx.cancel.cancel();
        let cancelled = HomConfig { ctx, ..HomConfig::default() };
        assert_eq!(
            verdicts(&present, &cancelled),
            (Verdict::Unknown { budget: Exhausted::Cancelled }, HomStats::default())
        );
    }

    #[test]
    fn time_budget_cuts_long_searches() {
        // K₅ on nulls into K₄: no hom, and refuting it takes far more
        // than one deadline stride of nodes.
        let mut source = Vec::new();
        for i in 0..5u32 {
            for j in 0..5u32 {
                if i != j {
                    source.push(Fact::new(RelId(0), vec![n(i), n(j)]));
                }
            }
        }
        let source: Instance = source.into_iter().collect();
        let mut target = Vec::new();
        for i in 0..4u32 {
            for j in 0..4u32 {
                if i != j {
                    target.push(Fact::new(RelId(0), vec![c(i), c(j)]));
                }
            }
        }
        let target: Instance = target.into_iter().collect();
        let cfg = HomConfig { time_budget: Some(Duration::ZERO), ..HomConfig::default() };
        let mut stats = HomStats::default();
        let verdict = exists_hom(&source, &target, &cfg, &mut stats);
        assert!(matches!(verdict, Verdict::Unknown { budget: Exhausted::Time(_) }));
        assert!(stats.nodes >= TIME_CHECK_STRIDE, "cut at the first deadline poll");
    }

    #[test]
    fn stats_reflect_work() {
        let source = inst(&[(0, &[n(0)])]);
        let target = inst(&[(0, &[c(0)]), (0, &[c(1)])]);
        let report =
            for_each_hom(&source, &target, &Substitution::new(), &HomConfig::default(), |_| true);
        assert_eq!(report.stats.found, 2);
        assert!(report.stats.nodes >= 2);
        assert!(report.exhausted.is_none());
    }

    #[test]
    fn stats_are_exact_on_a_pinned_search() {
        // Regression guard for the shared-trail refactor: the counters
        // are defined by the search tree, not by allocation strategy.
        // P(x) over {P(a), P(b)}: two candidate rows, two matches, no
        // failed unifications.
        let source = inst(&[(0, &[n(0)])]);
        let target = inst(&[(0, &[c(0)]), (0, &[c(1)])]);
        let report =
            for_each_hom(&source, &target, &Substitution::new(), &HomConfig::default(), |_| true);
        assert_eq!(report.stats, HomStats { nodes: 2, backtracks: 0, found: 2 });
        // P(x,x) over {P(a,b)}: one attempt, one failed unification.
        let miss = for_each_hom(
            &inst(&[(0, &[n(0), n(0)])]),
            &inst(&[(0, &[c(0), c(1)])]),
            &Substitution::new(),
            &HomConfig::default(),
            |_| true,
        );
        assert_eq!(miss.stats, HomStats { nodes: 1, backtracks: 1, found: 0 });
    }

    #[test]
    fn stats_merge_adds_counters() {
        let mut a = HomStats { nodes: 1, backtracks: 2, found: 3 };
        a += HomStats { nodes: 10, backtracks: 20, found: 30 };
        assert_eq!(a, HomStats { nodes: 11, backtracks: 22, found: 33 });
    }
}
