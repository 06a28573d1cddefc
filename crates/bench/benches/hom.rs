//! Benchmark: homomorphism decision `I₁ → I₂` — hit and miss cases at
//! varying instance sizes and null densities.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rde_bench::workloads;
use rde_hom::{exists_hom, HomConfig, HomStats};
use rde_model::{Instance, Vocabulary};

fn hom(a: &Instance, b: &Instance) -> bool {
    exists_hom(a, b, &HomConfig::default(), &mut HomStats::default()).holds()
}

/// A guaranteed-hit pair: `small` is a null-renamed sub-instance of
/// `big`.
fn hit_pair(vocab: &mut Vocabulary, size: usize, null_prob: f64) -> (Instance, Instance) {
    let w = workloads::copy(vocab);
    let big = workloads::source_instance(vocab, &w.mapping, size, size / 2 + 2, 6, null_prob, 11);
    // Rename every null: homomorphic but not identical.
    let mut renames = rde_model::Substitution::new();
    for n in big.nulls() {
        renames.bind(n, rde_model::Value::Null(vocab.fresh_null()));
    }
    let small: Instance = big.facts().take(size / 2).collect();
    (renames.apply_instance(&small), big)
}

/// A guaranteed-miss pair: the source carries a constant absent from
/// the target, found only after search.
fn miss_pair(vocab: &mut Vocabulary, size: usize, null_prob: f64) -> (Instance, Instance) {
    let w = workloads::copy(vocab);
    let big = workloads::source_instance(vocab, &w.mapping, size, size / 2 + 2, 6, null_prob, 13);
    let p = vocab.find_relation("P").unwrap();
    let poison = vocab.const_value("___poison");
    let null = vocab.null_value("___miss");
    let mut source: Instance = big.facts().take(size / 4).collect();
    source.insert(rde_model::Fact::new(p, vec![null, poison]));
    (source, big)
}

fn bench_hom(c: &mut Criterion) {
    let mut group = c.benchmark_group("hom");
    for size in [32usize, 128, 512] {
        for (label, null_prob) in [("ground", 0.0), ("nulls", 0.4)] {
            let mut vocab = Vocabulary::new();
            let (src, tgt) = hit_pair(&mut vocab, size, null_prob);
            assert!(hom(&src, &tgt));
            group.bench_with_input(
                BenchmarkId::new(format!("hit_{label}"), size),
                &(src, tgt),
                |b, (s, t)| b.iter(|| hom(s, t)),
            );
            let mut vocab = Vocabulary::new();
            let (src, tgt) = miss_pair(&mut vocab, size, null_prob);
            assert!(!hom(&src, &tgt));
            group.bench_with_input(
                BenchmarkId::new(format!("miss_{label}"), size),
                &(src, tgt),
                |b, (s, t)| b.iter(|| hom(s, t)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_hom);
criterion_main!(benches);
