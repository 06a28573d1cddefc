//! The repository benchmark: batch chase, reverse exchange and served
//! requests, end to end and split by layer. See `README.md` beside
//! this crate.
//!
//! ```text
//! cargo run --release --manifest-path rdebench/Cargo.toml -- \
//!     --workload chase_batch --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer ones with `--trace 1`.

mod batch;
mod openloop;
mod oracle;
mod probe;
mod reverse;
mod serve;
mod stats;

use std::path::PathBuf;
use std::time::Instant;

use batch::{measure, Batch, ChaseBatch, Phase};
use probe::Probe;
use reverse::ReverseExchange;
use serve::ServeMixed;
use stats::{median, percentile_of, ratio, Layers, Report, END_TO_END, PER_LAYER};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 5] =
    ["chase_batch", "reverse_exchange", "serve_mixed.low", "serve_mixed.mid", "serve_mixed.high"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: rdebench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let known = args.workload == "all" || WORKLOADS.contains(&args.workload.as_str());
    if !known || args.seconds.is_nan() || args.seconds <= 0.0 {
        usage();
    }
    args
}

/// Job metrics of a measured phase. Gated: `cost`, job time over probe
/// time per job. Printed but not gated: the wall times `job_ms`, the
/// throughput `per_s` and the probe's own times `probe_ms`.
fn report_jobs(report: &mut Report, cost: &[f64], job_ms: &[f64], per_s: f64, probe_ms: &[f64]) {
    let n = job_ms.len();
    report.set("job_cost_p50", percentile_of(cost, 50.0), n);
    report.set("job_cost_p90", percentile_of(cost, 90.0), n);
    for (name, p) in [("job_ms_p10", 10.0), ("job_ms_p50", 50.0), ("job_ms_p90", 90.0)] {
        report.set(name, percentile_of(job_ms, p), n);
    }
    report.set("job_ms_p99", percentile_of(job_ms, 99.0), n);
    report.set("jobs_per_s", per_s, n);
    report.set("probe_ms_p50", median(probe_ms), probe_ms.len());
}

fn set_up<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first, so no two are alive at once.
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

fn finish_setup(report: &mut Report, times: &[f64], parse_us: f64, generate_us: f64) {
    report.set("setup_s", median(times), times.len());
    report.set("deps.parse.us", parse_us, 1);
    report.set("model.generate.us", generate_us, 1);
}

/// A batch workload: after a short warm-up, `--trace 0` measures for
/// the whole run; `--trace 1` measures half untraced and half traced,
/// and checks that the traced stages add up to the job time.
fn run_batch(mut w: Box<dyn Batch>, args: &Args, report: &mut Report) {
    let probe = Probe::default();
    let tally = |report: &mut Report, p: &Phase| {
        report.attempted += p.attempted;
        report.failed += p.failed;
    };
    let warm = measure(w.as_mut(), &probe, (args.seconds / 20.0).min(1.0), None);
    tally(report, &warm);
    if !args.trace {
        let p = measure(w.as_mut(), &probe, args.seconds, None);
        tally(report, &p);
        let per_s = p.job_ms.len() as f64 * 1e3 / p.job_ms.iter().sum::<f64>();
        let probe_ms: Vec<f64> = p.probes.iter().map(|&(_, ms)| ms).collect();
        report_jobs(report, &p.costs(), &p.job_ms, per_s, &probe_ms);
        return;
    }
    let plain = measure(w.as_mut(), &probe, args.seconds / 2.0, None);
    let mut layers = Layers::default();
    let traced = measure(w.as_mut(), &probe, args.seconds / 2.0, Some(&mut layers));
    tally(report, &plain);
    tally(report, &traced);
    w.layer_metrics(&layers, traced.job_ms.len(), report);
    let overhead = median(&traced.costs()) / median(&plain.costs()) - 1.0;
    report.set("obs.trace_overhead_frac", overhead, traced.job_ms.len());
    let sum = report.values.get("obs.layer_sum_frac").map_or(0.0, |v| v.value);
    if (sum - 1.0).abs() > 0.10 {
        eprintln!("layer table does not close: stages sum to {sum:.3} of the job time");
        report.attempted += 1;
        report.failed += 1;
    }
}

fn run_serve(rate: f64, args: &Args, report: &mut Report) -> serve::Window {
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work");
    let (mut s, times) = set_up(|| ServeMixed::setup(args.seed, rate, &work));
    finish_setup(report, &times, s.parse_us, s.generate_us);
    let tally = |report: &mut Report, w: &serve::Window| {
        report.attempted += w.attempted;
        report.failed += w.failed;
    };
    let probe = Probe::default();
    if !args.trace {
        let w = s.window(args.seconds, &probe);
        tally(report, &w);
        report_jobs(report, &w.cost, &w.latency_ms, w.goodput, &w.probe_ms);
        return w;
    }
    let plain = s.window(args.seconds / 2.0, &probe);
    let (metrics0, stats0) = (s.scrape("METRICS"), s.scrape("STATS"));
    let traced = s.window(args.seconds / 2.0, &probe);
    let (metrics1, stats1) = (s.scrape("METRICS"), s.scrape("STATS"));
    tally(report, &plain);
    tally(report, &traced);
    serve::layer_metrics(&traced, [&metrics0, &metrics1], [&stats0, &stats1], report);
    let overhead = median(&traced.cost) / median(&plain.cost) - 1.0;
    report.set("obs.trace_overhead_frac", overhead, traced.latency_ms.len());
    traced
}

/// Run one workload and return its report, plus the serve window for
/// the `all` summary.
fn run(workload: &str, args: &Args) -> (Report, Option<serve::Window>) {
    let mut report = Report::default();
    let mut window = None;
    match workload {
        "chase_batch" => {
            let (w, times) = set_up(|| ChaseBatch::setup(args.seed));
            finish_setup(&mut report, &times, w.parse_us, w.generate_us);
            run_batch(Box::new(w), args, &mut report);
        }
        "reverse_exchange" => {
            let (w, times) = set_up(|| ReverseExchange::setup(args.seed));
            finish_setup(&mut report, &times, w.parse_us, w.generate_us);
            run_batch(Box::new(w), args, &mut report);
        }
        serve => {
            let level = serve.strip_prefix("serve_mixed.").expect("known workload");
            let rate = serve::RATES.iter().find(|(l, _)| *l == level).expect("known rate").1;
            window = Some(run_serve(rate, args, &mut report));
        }
    }
    report.set("peak_rss_mb", stats::peak_rss_mb(), 1);
    (report, window)
}

/// `--workload all`: every workload in turn, then the summary under the
/// per-workload metric names (`req_ms_p99.high`, `max_rps_slo`,
/// `error_frac`, ...).
fn run_all(args: &Args) {
    let mut summary = Report::default();
    let mut max_rps: Option<f64> = None;
    for workload in WORKLOADS {
        let (report, window) = run(workload, args);
        report.print(workload, if args.trace { PER_LAYER } else { END_TO_END });
        summary.attempted += report.attempted;
        summary.failed += report.failed;
        let v = |name: &str| report.values.get(name).cloned().expect("reported");
        let mut copy = |from: &str, to: &str| {
            let x = v(from);
            summary.set(to, x.value, x.samples);
        };
        if args.trace {
            continue;
        }
        match workload {
            "chase_batch" => {
                for m in ["job_ms_p10", "job_ms_p50", "job_ms_p90", "jobs_per_s"] {
                    copy(m, &format!("{m}.chase_batch"));
                }
                copy("setup_s", "setup_s.chase_batch");
            }
            "reverse_exchange" => {
                for m in ["job_ms_p10", "job_ms_p50", "job_ms_p90", "jobs_per_s", "setup_s"] {
                    copy(m, &format!("{m}.reverse_exchange"));
                }
            }
            serve => {
                let level = serve.trim_start_matches("serve_mixed.");
                copy("job_ms_p10", &format!("req_ms_p10.{level}"));
                copy("job_ms_p50", &format!("req_ms_p50.{level}"));
                copy("job_ms_p99", &format!("req_ms_p99.{level}"));
                if level == "low" {
                    copy("setup_s", "setup_s.serve_mixed");
                }
                let w = window.expect("serve window");
                let rate = serve::RATES.iter().find(|(l, _)| *l == level).expect("rate").1;
                if v("job_ms_p99").value <= serve::LIMIT_MS && !w.backlog_grows {
                    max_rps = Some(max_rps.map_or(rate, |m: f64| m.max(rate)));
                }
            }
        }
    }
    if args.trace {
        return;
    }
    summary.set("max_rps_slo", max_rps.unwrap_or(0.0), serve::RATES.len());
    summary.set("error_frac", ratio(summary.failed as f64, summary.attempted as f64), 1);
    summary.set("peak_rss_mb", stats::peak_rss_mb(), 1);
    let names: Vec<(String, &str)> = summary
        .values
        .keys()
        .map(|k| {
            let unit = match k.as_str() {
                k if k.starts_with("setup_s") => "s",
                k if k.starts_with("jobs_per_s") => "1/s",
                "max_rps_slo" => "req/s",
                "error_frac" => "ratio",
                "peak_rss_mb" => "MiB",
                _ => "ms",
            };
            (k.clone(), unit)
        })
        .collect();
    let catalogue: Vec<(&str, &str)> = names.iter().map(|(n, u)| (n.as_str(), *u)).collect();
    summary.print("all", &catalogue);
}

fn main() {
    let args = parse_args();
    if args.workload == "all" {
        run_all(&args);
        return;
    }
    let (report, _) = run(&args.workload, &args);
    report.print(&args.workload, if args.trace { PER_LAYER } else { END_TO_END });
}
