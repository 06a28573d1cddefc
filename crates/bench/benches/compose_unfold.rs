//! Benchmark: syntactic composition by unfolding vs pointwise semantic
//! composition — the "who wins" comparison for the schema-evolution
//! workflow (compose once syntactically, then reuse; vs re-deciding
//! membership per pair).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rde_core::compose::{in_composition, ComposeOptions};
use rde_core::unfold::{compose_mappings, UnfoldOptions};
use rde_core::Universe;
use rde_deps::parse_mapping;
use rde_hom::{HomConfig, HomStats};
use rde_model::Vocabulary;

/// A k-relation evolution: split step then recombine step.
fn evolution(
    vocab: &mut Vocabulary,
    k: usize,
) -> (rde_deps::SchemaMapping, rde_deps::SchemaMapping) {
    let mut src = String::from("source: ");
    let mut mid = String::new();
    let mut fwd = String::new();
    let mut bwd = String::new();
    for i in 0..k {
        if i > 0 {
            src.push_str(", ");
            mid.push_str(", ");
        }
        src.push_str(&format!("S{i}/2"));
        mid.push_str(&format!("M{i}/2"));
        fwd.push_str(&format!("S{i}(x, y) -> M{i}(x, y)\n"));
        bwd.push_str(&format!("M{i}(x, y) -> T(x, y)\n"));
    }
    let m12 = parse_mapping(vocab, &format!("{src}\ntarget: {mid}\n{fwd}")).unwrap();
    let m23 = parse_mapping(vocab, &format!("source: {mid}\ntarget: T/2\n{bwd}")).unwrap();
    (m12, m23)
}

fn bench_unfold(c: &mut Criterion) {
    let mut group = c.benchmark_group("compose_unfold");
    group.sample_size(20);

    // Synthesis cost by step width.
    for k in [2usize, 4, 8] {
        let mut vocab = Vocabulary::new();
        let (m12, m23) = evolution(&mut vocab, k);
        group.bench_with_input(BenchmarkId::new("unfold", k), &(m12, m23), |b, (m12, m23)| {
            b.iter(|| compose_mappings(m12, m23, &vocab, &UnfoldOptions::default()).unwrap())
        });
    }

    // One syntactic composition amortized over a pair family vs
    // semantic membership per pair.
    let mut vocab = Vocabulary::new();
    let (m12, m23) = evolution(&mut vocab, 2);
    let composed = compose_mappings(&m12, &m23, &vocab, &UnfoldOptions::default()).unwrap();
    let universe = Universe::new(&mut vocab, 2, 0, 1);
    let sources = universe.ground_instances(&vocab, &m12.source).unwrap().collect::<Vec<_>>();
    let targets = universe.ground_instances(&vocab, &m23.target).unwrap().collect::<Vec<_>>();
    group.bench_function("membership_syntactic_sweep", |b| {
        b.iter(|| {
            let (unbounded, stats) = (HomConfig::default(), &mut HomStats::default());
            let mut hits = 0usize;
            for i in &sources {
                for kk in &targets {
                    if rde_core::semantics::satisfies(i, kk, &composed, &unbounded, stats).holds() {
                        hits += 1;
                    }
                }
            }
            hits
        })
    });
    group.bench_function("membership_semantic_sweep", |b| {
        b.iter(|| {
            let mut v = vocab.clone();
            let opts = ComposeOptions::default();
            let mut hits = 0usize;
            for i in &sources {
                for kk in &targets {
                    if in_composition(&m12, &m23, i, kk, &mut v, &opts).unwrap() {
                        hits += 1;
                    }
                }
            }
            hits
        })
    });
    group.finish();
}

criterion_group!(benches, bench_unfold);
criterion_main!(benches);
