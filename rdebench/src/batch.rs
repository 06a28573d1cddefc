//! Serial batch workloads: a job runs, its output is checked against
//! the oracle, the next job starts. `chase_batch` lives here;
//! `reverse_exchange` shares the measuring loop.

use std::collections::BTreeSet;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use rde_bench::workloads;
use rde_chase::{chase, ChaseOptions, ChaseVariant};
use rde_deps::Dependency;
use rde_model::{Instance, RelId, Value, Vocabulary};

use crate::oracle;
use crate::probe::{self, Probe};
use crate::stats::{ratio, Layers, Report};

/// A workload made of serial jobs.
pub trait Batch {
    /// Run job `n`. Returns the wall time of the calls into the
    /// library in µs (input cloning and checking excluded) and whether
    /// the output matched the oracle. With `layers`, also time each
    /// stage and add its counts.
    fn job(&mut self, n: usize, layers: Option<&mut Layers>) -> (f64, bool);

    /// Turn the traced phase's sums over `jobs` jobs into per-layer
    /// metrics.
    fn layer_metrics(&self, layers: &Layers, jobs: usize, report: &mut Report);
}

/// The jobs of one measured phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall time per job, ms.
    pub job_ms: Vec<f64>,
    /// Per job: when it ended, s into the phase.
    pub at_s: Vec<f64>,
    /// The probe, run after every job: (s into the phase, ms).
    pub probes: Vec<(f64, f64)>,
    pub seconds: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Phase {
    /// Job time over probe time, per job.
    pub fn costs(&self) -> Vec<f64> {
        let jobs: Vec<(f64, f64)> =
            self.at_s.iter().copied().zip(self.job_ms.iter().copied()).collect();
        probe::costs(&jobs, &self.probes, self.seconds)
    }
}

/// Run jobs back to back for `seconds`, at least one, with the probe
/// after each.
pub fn measure(
    batch: &mut dyn Batch,
    probe: &Probe,
    seconds: f64,
    mut layers: Option<&mut Layers>,
) -> Phase {
    let start = Instant::now();
    let mut phase = Phase::default();
    while phase.job_ms.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (us, ok) = batch.job(phase.job_ms.len(), layers.as_deref_mut());
        phase.job_ms.push(us / 1e3);
        phase.at_s.push(start.elapsed().as_secs_f64());
        phase.attempted += 1;
        phase.failed += u64::from(!ok);
        let ms = probe.time_ms();
        phase.probes.push((start.elapsed().as_secs_f64(), ms));
    }
    phase.seconds = start.elapsed().as_secs_f64();
    phase
}

/// Graph size: a constant cycle of `NODES` vertices (so the linear
/// closure runs about `NODES` rounds) plus `NODES / 2` labeled-null
/// chords. Small enough that a chase's working set stays in cache: on
/// a shared host larger graphs made the job time swing with the
/// neighbours' memory traffic.
const NODES: usize = 16;
/// Side-output rules `T → Aᵢ` (7 dependencies in all).
const EXTRA: usize = 4;
/// Seeded graphs per run. One job chases all of them, so every job
/// does the same work and the job-time percentiles do not depend on
/// which graphs happen to be slow.
const POOL: usize = 8;

/// Expected content of one chased graph, per relation.
struct Expected {
    relations: Vec<(RelId, Vec<Vec<Value>>)>,
    facts: usize,
}

/// `chase_batch`: chase `triangle_deps` over seeded null-chord graphs,
/// once with the default options and once with the restricted variant.
pub struct ChaseBatch {
    vocab: Vocabulary,
    deps: Vec<Dependency>,
    graphs: Vec<(Instance, Expected)>,
    default: ChaseOptions,
    restricted: ChaseOptions,
    /// Set-up time spent parsing dependencies and generating graphs, µs.
    pub parse_us: f64,
    pub generate_us: f64,
}

impl ChaseBatch {
    pub fn setup(seed: u64) -> ChaseBatch {
        let mut vocab = Vocabulary::new();
        let t = Instant::now();
        let deps = workloads::triangle_deps(&mut vocab, EXTRA);
        let parse_us = t.elapsed().as_secs_f64() * 1e6;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut generate_us = 0.0;
        let graphs = (0..POOL)
            .map(|_| {
                let t = Instant::now();
                let g = workloads::random_graph_nulls(&mut vocab, NODES, NODES / 2, rng.next_u64());
                generate_us += t.elapsed().as_secs_f64() * 1e6;
                let expected = expected_closure(&vocab, &g);
                (g, expected)
            })
            .collect();
        let default = ChaseOptions::default();
        let restricted = ChaseOptions::for_variant(ChaseVariant::Restricted);
        ChaseBatch { vocab, deps, graphs, default, restricted, parse_us, generate_us }
    }
}

/// The oracle for `triangle_deps`: `T` is BFS reachability over `E`,
/// every `Aᵢ` equals `T`, and `W` is the brute-force triangle list.
/// All the dependencies are full, so the restricted chase must produce
/// exactly this too.
fn expected_closure(vocab: &Vocabulary, graph: &Instance) -> Expected {
    let rel = |name: &str| vocab.find_relation(name).expect("relation declared by triangle_deps");
    let e = rel("E");
    let edges: Vec<(Value, Value)> =
        graph.relation(e).expect("graph has edges").tuples().map(|t| (t[0], t[1])).collect();
    let t = oracle::reachability(&edges);
    let w = oracle::triangles(&t, &edges);
    let pairs = |set: &BTreeSet<(Value, Value)>| -> Vec<Vec<Value>> {
        set.iter().map(|&(a, b)| vec![a, b]).collect()
    };
    let mut relations = vec![
        (e, edges.iter().map(|&(a, b)| vec![a, b]).collect::<BTreeSet<_>>().into_iter().collect()),
        (rel("T"), pairs(&t)),
        (rel("W"), w.iter().map(|&(x, y, z)| vec![x, y, z]).collect()),
    ];
    for i in 0..EXTRA {
        relations.push((rel(&format!("A{i}")), pairs(&t)));
    }
    let facts = relations.iter().map(|(_, rows)| rows.len()).sum();
    Expected { relations, facts }
}

/// Does the chased instance hold exactly the expected facts?
fn matches(got: &Instance, want: &Expected) -> bool {
    got.len() == want.facts
        && want.relations.iter().all(|(rel, rows)| {
            got.relation(*rel).is_some_and(|data| {
                data.len() == rows.len() && rows.iter().all(|r| data.contains(r))
            })
        })
}

impl Batch for ChaseBatch {
    fn job(&mut self, _n: usize, mut layers: Option<&mut Layers>) -> (f64, bool) {
        let (mut total_us, mut ok) = (0.0, true);
        for (graph, expected) in &self.graphs {
            for (options, restricted) in [(&self.default, false), (&self.restricted, true)] {
                let mut vocab = self.vocab.clone();
                let t = Instant::now();
                let result = chase(graph, &self.deps, &mut vocab, options);
                let us = t.elapsed().as_secs_f64() * 1e6;
                total_us += us;
                let Ok(result) = result else {
                    ok = false;
                    continue;
                };
                ok &= matches(&result.instance, expected);
                let Some(layers) = layers.as_deref_mut() else { continue };
                if restricted {
                    layers.add("chase.restricted.us", us);
                    layers.add("chase.restricted.hom_nodes", result.hom.nodes as f64);
                    for r in &result.round_stats {
                        layers.add("chase.restricted.satisfied", r.satisfied as f64);
                        layers.add("chase.restricted.fired", r.fired as f64);
                    }
                    continue;
                }
                layers.add("chase.us", us);
                layers.add("chase.rounds", result.rounds as f64);
                for r in &result.round_stats {
                    layers.add("chase.matches", r.matches as f64);
                    layers.add("chase.duplicates", r.duplicates as f64);
                    layers.add("chase.fired", r.fired as f64);
                    layers.add("chase.inserted", r.inserted as f64);
                }
                layers.add("hom.nodes", result.hom.nodes as f64);
                layers.add("hom.backtracks", result.hom.backtracks as f64);
                layers.add("hom.found", result.hom.found as f64);
            }
        }
        if let Some(layers) = layers {
            layers.add("job.us", total_us);
        }
        (total_us, ok)
    }

    fn layer_metrics(&self, l: &Layers, jobs: usize, report: &mut Report) {
        let per_job = |name: &str| l.sum(name) / jobs as f64;
        let (fired, matches) = (l.sum("chase.fired"), l.sum("chase.matches"));
        let per_job_names = [
            "chase.us",
            "chase.rounds",
            "chase.matches",
            "chase.duplicates",
            "chase.fired",
            "chase.inserted",
            "hom.nodes",
            "hom.backtracks",
            "chase.restricted.us",
            "chase.restricted.satisfied",
            "chase.restricted.hom_nodes",
        ];
        for name in per_job_names {
            report.set(name, per_job(name), jobs);
        }
        report.set("chase.fire_ratio", ratio(fired, matches), jobs);
        report.set("hom.found_ratio", ratio(l.sum("hom.found"), l.sum("hom.nodes")), jobs);
        let satisfied = l.sum("chase.restricted.satisfied");
        let skip = ratio(satisfied, satisfied + l.sum("chase.restricted.fired"));
        report.set("chase.restricted.skip_ratio", skip, jobs);
        let stage = l.sum("chase.us") + l.sum("chase.restricted.us");
        report.set("obs.layer_sum_frac", ratio(stage, l.sum("job.us")), jobs);
    }
}
