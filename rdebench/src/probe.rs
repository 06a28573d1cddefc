//! The host-speed probe, and job costs in probe units.
//!
//! The 2-vCPU shared host the benchmark was tuned on changes speed by
//! up to half over minutes: a `chase_batch` job's 10th-percentile time
//! read 37 ms in one run and 54–63 ms in runs taken a few minutes later,
//! with the same code. Wall times of runs taken apart cannot be compared
//! at that scale. So every run also times a fixed piece of CPU work of
//! the benchmark's own, the probe, next to the work it measures, and
//! the gated timings are job time divided by probe time. The probe
//! slows with the host and not with the program: it calls nothing in
//! the code under test, and its input does not depend on the seed.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::oracle;
use crate::stats::median;

/// Probe graphs: each a 16-cycle plus 8 chords to fresh vertices, the
/// shape `chase_batch` chases, over plain integers.
const GRAPHS: usize = 3;
const NODES: u32 = 16;
const CHORDS: u32 = 8;

/// Consecutive slices of a run's time span; each sample is divided by
/// the median probe time of its own slice, so a change of host speed
/// within a run is followed too.
pub const SLICES: usize = 50;

/// The probe: transitive closure and triangle listing (the
/// `chase_batch` oracle) over fixed integer graphs.
pub struct Probe {
    graphs: Vec<Vec<(u32, u32)>>,
}

impl Default for Probe {
    fn default() -> Probe {
        // A fixed seed: the probe is the same in every run.
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        let graphs = (0..GRAPHS)
            .map(|_| {
                let cycle = (0..NODES).map(|i| (i, (i + 1) % NODES));
                let chords = (0..CHORDS).map(|i| {
                    let c = rng.gen_range(0..u64::from(NODES)) as u32;
                    let fresh = NODES + i;
                    if i % 2 == 0 {
                        (c, fresh)
                    } else {
                        (fresh, c)
                    }
                });
                cycle.chain(chords).collect()
            })
            .collect();
        Probe { graphs }
    }
}

impl Probe {
    /// Run the probe once; its wall time, ms.
    pub fn time_ms(&self) -> f64 {
        let t = Instant::now();
        for g in &self.graphs {
            let closure = oracle::reachability(g);
            std::hint::black_box(oracle::triangles(&closure, g));
        }
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// `samples` as (seconds into the run, ms) divided by the probe times
/// `probes`, also (seconds into the run, ms), taken over the same run
/// of `span` seconds. The span is cut into [`SLICES`] slices; a sample
/// is divided by the median probe time of its slice, or of the whole
/// run when its slice holds no probe.
pub fn costs(samples: &[(f64, f64)], probes: &[(f64, f64)], span: f64) -> Vec<f64> {
    assert!(!probes.is_empty(), "no probe in the run");
    let slice_of = |t: f64| ((t / span * SLICES as f64) as usize).min(SLICES - 1);
    let mut per_slice: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
    for &(t, ms) in probes {
        per_slice[slice_of(t)].push(ms);
    }
    let all: Vec<f64> = probes.iter().map(|&(_, ms)| ms).collect();
    let overall = median(&all);
    let reference: Vec<f64> =
        per_slice.iter().map(|p| if p.is_empty() { overall } else { median(p) }).collect();
    samples.iter().map(|&(t, ms)| ms / reference[slice_of(t)]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_follow_the_probe_of_their_own_slice() {
        // A 50 s run: the host runs at half speed in its second half,
        // and the program's job time doubles with it.
        let probes: Vec<(f64, f64)> =
            (0..100).map(|i| (i as f64 * 0.5, if i < 50 { 1.0 } else { 2.0 })).collect();
        let jobs: Vec<(f64, f64)> =
            (0..100).map(|i| (i as f64 * 0.5 + 0.25, if i < 50 { 10.0 } else { 20.0 })).collect();
        let c = costs(&jobs, &probes, 50.0);
        assert!(c.iter().all(|&x| x == 10.0), "{c:?}");
        // A slice without a probe falls back to the run's median (the
        // nearest rank of 1.0 and 2.0 is 1.0).
        let c = costs(&[(10.2, 3.0)], &[(0.1, 1.0), (49.0, 2.0)], 50.0);
        assert_eq!(c, vec![3.0]);
        // Times at or past the span count in the last slice.
        let c = costs(&[(50.0, 4.0)], &[(49.5, 2.0), (0.0, 8.0)], 50.0);
        assert_eq!(c, vec![2.0]);
    }

    #[test]
    fn probe_is_the_same_work_every_run() {
        let (a, b) = (Probe::default(), Probe::default());
        assert_eq!(a.graphs, b.graphs);
        assert_eq!(a.graphs.len(), GRAPHS);
        assert!(a.time_ms() > 0.0);
    }
}
