//! Information loss (Definition 4.5, Corollaries 4.14–4.15).
//!
//! For `M` specified by s-t tgds, the information loss is the relation
//! `→_M \ →`: pairs of source instances that `M` can no longer tell
//! apart (the second exports everything the first does) although no
//! homomorphism relates them. It is empty iff `M` is extended-invertible
//! (Corollary 4.15). On a bounded universe the loss is a finite set we
//! can enumerate and count — a quantitative, comparable measure.

use rde_deps::SchemaMapping;
use rde_faults::ExecContext;
use rde_hom::{exists_hom, HomConfig, HomStats};
use rde_model::{Instance, Vocabulary};

use crate::arrow::ArrowMCache;
use crate::{CoreError, Universe};

/// A census of `→_M \ →` over a bounded universe.
#[derive(Debug, Clone)]
pub struct LossReport {
    /// Number of instances enumerated.
    pub universe_size: usize,
    /// Number of pairs in `→_M`.
    pub arrow_m_pairs: usize,
    /// Number of pairs in `→` (the extended identity).
    pub hom_pairs: usize,
    /// Number of lost pairs (`→_M \ →`); equals
    /// `arrow_m_pairs - hom_pairs` because `→ ⊆ →_M`.
    pub lost_pairs: usize,
    /// Up to `max_examples` witnessing lost pairs.
    pub examples: Vec<(Instance, Instance)>,
}

impl LossReport {
    /// Corollary 4.15: no information loss within the bound?
    pub fn is_lossless_within_bound(&self) -> bool {
        self.lost_pairs == 0
    }

    /// Loss as a fraction of all enumerated pairs.
    pub fn loss_fraction(&self) -> f64 {
        let total = (self.universe_size as f64) * (self.universe_size as f64);
        if total == 0.0 {
            0.0
        } else {
            self.lost_pairs as f64 / total
        }
    }
}

/// Enumerate and count the information loss of `M` over the universe.
pub fn information_loss(
    mapping: &SchemaMapping,
    universe: &Universe,
    vocab: &mut Vocabulary,
    max_examples: usize,
) -> Result<LossReport, CoreError> {
    information_loss_scoped(mapping, universe, vocab, max_examples, &ExecContext::default())
}

/// Like [`information_loss`], but runs under `ctx`: the cancel token is
/// polled between census rows (aborting with [`CoreError::Cancelled`]
/// instead of finishing the `n²` sweep), and the context's fault
/// injector scopes the arrow cache's `core.arrow.poison` point.
pub fn information_loss_scoped(
    mapping: &SchemaMapping,
    universe: &Universe,
    vocab: &mut Vocabulary,
    max_examples: usize,
    ctx: &ExecContext,
) -> Result<LossReport, CoreError> {
    let family = universe
        .collect_instances(vocab, &mapping.source)
        .map_err(|_| CoreError::UnsupportedMapping { required: "an enumerable source schema" })?;
    let cache = ArrowMCache::new(
        mapping,
        &family,
        vocab,
        &HomConfig { ctx: ctx.clone(), ..HomConfig::default() },
    )?;
    // The census polls `ctx` per row; its searches run unbounded.
    let (unbounded, mut stats) = (HomConfig::default(), HomStats::default());
    let span = rde_obs::span("core.loss.census", &[("universe", family.len().into())]);
    let journal_on = rde_obs::journal::enabled();
    let mut arrow_m_pairs = 0usize;
    let mut hom_pairs = 0usize;
    let mut lost_pairs = 0usize;
    let mut examples = Vec::new();
    for a in 0..family.len() {
        if ctx.is_cancelled() {
            return Err(CoreError::Cancelled);
        }
        let lost_before = lost_pairs;
        for b in 0..family.len() {
            if exists_hom(&family[a], &family[b], &unbounded, &mut stats).holds() {
                hom_pairs += 1;
                arrow_m_pairs += 1; // → ⊆ →_M (Prop 4.11)
                debug_assert!(cache.arrow(a, b, &unbounded).holds(), "→ pair must be a →_M pair");
                continue;
            }
            if cache.arrow(a, b, &unbounded).holds() {
                arrow_m_pairs += 1;
                lost_pairs += 1;
                if examples.len() < max_examples {
                    examples.push((family[a].clone(), family[b].clone()));
                }
            }
        }
        rde_obs::counter!("core.loss.rows").inc();
        if journal_on {
            // Progress marker: one row of the n² census finished.
            rde_obs::event(
                "core.loss.row",
                &[
                    ("row", a.into()),
                    ("of", family.len().into()),
                    ("lost", (lost_pairs - lost_before).into()),
                ],
            );
        }
    }
    span.close_with(&[
        ("arrow_m_pairs", arrow_m_pairs.into()),
        ("hom_pairs", hom_pairs.into()),
        ("lost_pairs", lost_pairs.into()),
    ]);
    Ok(LossReport { universe_size: family.len(), arrow_m_pairs, hom_pairs, lost_pairs, examples })
}

/// Parallel variant of [`information_loss`]: the chase cache is built
/// once (sequentially — it allocates fresh nulls), then the `n²`
/// homomorphism checks are fanned out over scoped worker threads, one
/// row-range each. Deterministic: per-row results are merged in row
/// order, so counts *and* examples match the sequential census.
pub fn information_loss_parallel(
    mapping: &SchemaMapping,
    universe: &Universe,
    vocab: &mut Vocabulary,
    max_examples: usize,
    threads: usize,
) -> Result<LossReport, CoreError> {
    let family = universe
        .collect_instances(vocab, &mapping.source)
        .map_err(|_| CoreError::UnsupportedMapping { required: "an enumerable source schema" })?;
    let unbounded = HomConfig::default();
    let cache = ArrowMCache::new(mapping, &family, vocab, &unbounded)?;
    let span = rde_obs::span("core.loss.census", &[("universe", family.len().into())]);
    let journal_on = rde_obs::journal::enabled();
    let n = family.len();
    let threads = threads.max(1).min(n.max(1));

    #[derive(Default)]
    struct Partial {
        arrow_m_pairs: usize,
        hom_pairs: usize,
        lost: Vec<(usize, usize)>,
    }

    let chunk = n.div_ceil(threads);
    let mut partials: Vec<Partial> = Vec::new();
    // Keep worker-emitted records attributed to the owning request.
    let req_id = rde_obs::request::current();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(n);
            let family = &family;
            let cache = &cache;
            let unbounded = &unbounded;
            handles.push(scope.spawn(move || {
                let _req = rde_obs::request::enter(req_id);
                let mut p = Partial::default();
                let mut stats = HomStats::default();
                for a in lo..hi {
                    let lost_before = p.lost.len();
                    for b in 0..n {
                        if exists_hom(&family[a], &family[b], unbounded, &mut stats).holds() {
                            p.hom_pairs += 1;
                            p.arrow_m_pairs += 1;
                        } else if cache.arrow(a, b, unbounded).holds() {
                            p.arrow_m_pairs += 1;
                            p.lost.push((a, b));
                        }
                    }
                    rde_obs::counter!("core.loss.rows").inc();
                    if journal_on {
                        // Progress with worker attribution (rows are
                        // chunked contiguously across workers).
                        rde_obs::event(
                            "core.loss.row",
                            &[
                                ("row", a.into()),
                                ("of", n.into()),
                                ("worker", t.into()),
                                ("lost", (p.lost.len() - lost_before).into()),
                            ],
                        );
                    }
                }
                p
            }));
        }
        for h in handles {
            // A worker panic is re-raised with its original payload
            // rather than wrapped in a second panic here.
            partials.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
    });

    let mut report = LossReport {
        universe_size: n,
        arrow_m_pairs: 0,
        hom_pairs: 0,
        lost_pairs: 0,
        examples: Vec::new(),
    };
    for p in partials {
        report.arrow_m_pairs += p.arrow_m_pairs;
        report.hom_pairs += p.hom_pairs;
        report.lost_pairs += p.lost.len();
        for (a, b) in p.lost {
            if report.examples.len() < max_examples {
                report.examples.push((family[a].clone(), family[b].clone()));
            }
        }
    }
    span.close_with(&[
        ("arrow_m_pairs", report.arrow_m_pairs.into()),
        ("hom_pairs", report.hom_pairs.into()),
        ("lost_pairs", report.lost_pairs.into()),
    ]);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invertibility::check_homomorphism_property;
    use rde_deps::parse_mapping;

    #[test]
    fn copy_mapping_is_lossless() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/2\ntarget: Pp/2\nP(x,y) -> Pp(x,y)").unwrap();
        let u = Universe::small(&mut v);
        let report = information_loss(&m, &u, &mut v, 4).unwrap();
        assert!(report.is_lossless_within_bound());
        assert_eq!(report.arrow_m_pairs, report.hom_pairs);
        assert_eq!(report.loss_fraction(), 0.0);
    }

    #[test]
    fn union_mapping_loses_p_vs_q() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)")
            .unwrap();
        let u = Universe::new(&mut v, 2, 1, 1);
        let report = information_loss(&m, &u, &mut v, 100).unwrap();
        assert!(!report.is_lossless_within_bound());
        assert!(report.lost_pairs > 0);
        assert_eq!(report.lost_pairs, report.arrow_m_pairs - report.hom_pairs);
        // Every example is a genuine →_M \ → pair.
        for (i1, i2) in &report.examples {
            assert!(crate::arrow::arrow_m(&m, i1, i2, &mut v).unwrap());
            assert!(exists_hom(i1, i2, &HomConfig::default(), &mut HomStats::default()).fails());
        }
    }

    /// Cor 4.15 cross-check: lossless-within-bound agrees with the
    /// homomorphism-property check on the same universe.
    #[test]
    fn losslessness_agrees_with_homomorphism_property() {
        for text in [
            "source: P/2\ntarget: Pp/2\nP(x,y) -> Pp(x,y)",
            "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)",
            "source: P/2\ntarget: Q/1\nP(x,y) -> Q(x)",
        ] {
            let mut v = Vocabulary::new();
            let m = parse_mapping(&mut v, text).unwrap();
            let u = Universe::new(&mut v, 2, 1, 1);
            let report = information_loss(&m, &u, &mut v, 0).unwrap();
            let (unbounded, stats) = (HomConfig::default(), &mut HomStats::default());
            let hp = check_homomorphism_property(&m, &u, &mut v, &unbounded, stats).unwrap();
            assert_eq!(report.is_lossless_within_bound(), hp.holds(), "mapping: {text}");
        }
    }

    /// The parallel census matches the sequential one exactly
    /// (counts and examples), at several thread counts.
    #[test]
    fn parallel_census_matches_sequential() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)")
            .unwrap();
        let u = Universe::new(&mut v, 2, 1, 2);
        let sequential = information_loss(&m, &u, &mut v, 8).unwrap();
        for threads in [1, 2, 4, 7] {
            let parallel = information_loss_parallel(&m, &u, &mut v, 8, threads).unwrap();
            assert_eq!(parallel.universe_size, sequential.universe_size);
            assert_eq!(parallel.arrow_m_pairs, sequential.arrow_m_pairs, "threads={threads}");
            assert_eq!(parallel.hom_pairs, sequential.hom_pairs);
            assert_eq!(parallel.lost_pairs, sequential.lost_pairs);
            assert_eq!(parallel.examples, sequential.examples, "deterministic example order");
        }
    }

    #[test]
    fn projection_mapping_loses_the_projected_column() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/2\ntarget: Q/1\nP(x,y) -> Q(x)").unwrap();
        let u = Universe::new(&mut v, 2, 0, 1);
        let report = information_loss(&m, &u, &mut v, 10).unwrap();
        // {P(a,a)} and {P(a,b)} export the same Q(a).
        assert!(report.lost_pairs > 0);
    }
}
