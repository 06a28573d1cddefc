//! `serve_mixed.<rate>`: an in-process `rde serve` daemon (default
//! options, row backend) on a catalog of paper families, driven by an
//! open loop over two connections at a fixed offered rate. Every reply
//! is checked byte for byte against the direct library call made at
//! set-up.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rde_chase::{chase, ChaseOptions, DisjunctiveChaseOptions};
use rde_core::arrow::{arrow_m, ArrowMCache};
use rde_core::invertibility::{check_homomorphism_property_cached, BoundedVerdict};
use rde_core::Universe;
use rde_deps::{parse_mapping, SchemaMapping};
use rde_hom::{HomConfig, HomStats};
use rde_model::parse::parse_instance;
use rde_model::{display, Vocabulary};
use rde_query::{reverse_certain_answers, ConjunctiveQuery};
use rde_serve::{spawn, Client, Reply, Request, ServeError, ServeOptions};

use crate::openloop::{drive, generator_lag, Clock, Timing, WallClock};
use crate::probe::{self, Probe};
use crate::stats::{median, percentile_of, ratio, Report};

/// The decomposition mapping: `CHASE` requests.
const SPLIT: &str = "source: P/3\ntarget: Q/2, R/2\nP(x,y,z) -> Q(x,y) & R(y,z)\n";
/// The copy mapping: `INVERTIBLE` and `ARROW` requests, both on its
/// one warm cache and vocabulary lock. Copy is invertible, so every
/// `INVERTIBLE` scans the whole bounded family.
const COPY: &str = "source: P/2\ntarget: Pp/2\nP(x,y) -> Pp(x,y)\n";
/// The union mapping and its disjunctive recovery: `CERTAIN` requests.
const MERGE: &str = "source: A/1, B/1\ntarget: T/1\nA(x) -> T(x)\nB(x) -> T(x)\n";
const MERGE_REV: &str = "source: T/1\ntarget: A/1, B/1\nT(x) -> A(x) | B(x)\n";
const CERTAIN_QUERY: &str = "q(x) :- A(x)";

/// Facts per `CHASE` body and per `ARROW` instance; values per
/// `CERTAIN` body.
const CHASE_FACTS: std::ops::Range<u64> = 40..60;
const ARROW_FACTS: std::ops::Range<u64> = 4..8;
const CERTAIN_VALUES: u8 = 7;

/// The latency limit the p99 is held to, ms. A request that fails, is
/// shed, or times out misses it whatever its latency.
pub const LIMIT_MS: f64 = 25.0;
/// How often the probe runs during a window. The probe takes about a
/// millisecond, so it holds one of the two vCPUs about 1% of the time.
const PROBE_EVERY: Duration = Duration::from_millis(100);

/// A reply slower than this is given up on and counted as failed.
const TIMEOUT: Duration = Duration::from_secs(2);

/// Offered rates, requests per second, for `serve_mixed.{low,mid,high}`.
pub const RATES: [(&str, f64); 3] = [("low", 150.0), ("mid", 300.0), ("high", 500.0)];

/// The op mix: kind and weight. By latency the ops sort roughly as
/// `ARROW` < `CHASE` < `INVERTIBLE` < `CERTAIN`; the weights put the
/// median inside the `CHASE` band and the p90 inside the `CERTAIN`
/// band, not on a boundary between two ops, where a small shift in the
/// seeded mix would move the percentile from one op to the other.
const MIX: [(Kind, u32); 5] = [
    (Kind::Chase, 30),
    (Kind::Invertible, 10),
    (Kind::ArrowRepeat, 25),
    (Kind::ArrowFresh, 10),
    (Kind::Certain, 25),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Chase,
    Invertible,
    /// `ARROW` on a small fixed set of instance pairs: memo reads.
    ArrowRepeat,
    /// `ARROW` on those pairs with every constant renamed fresh:
    /// interning, misses and eviction beside the reads.
    ArrowFresh,
    Certain,
}

impl Kind {
    /// The op label, as in the metric names.
    fn op(self) -> &'static str {
        match self {
            Kind::Chase => "chase",
            Kind::Invertible => "invertible",
            Kind::ArrowRepeat | Kind::ArrowFresh => "arrow",
            Kind::Certain => "certain",
        }
    }
}

const OPS: [&str; 4] = ["chase", "invertible", "arrow", "certain"];

/// A value in a generated body: a constant (renamed by a fresh suffix)
/// or a null (kept).
#[derive(Debug, Clone, Copy)]
enum Tok {
    Const(u8),
    Null(u8),
}

/// A generated body: facts as (relation, values).
type Body = Vec<(&'static str, Vec<Tok>)>;

fn render(facts: &Body, fresh: Option<u64>) -> String {
    let mut s = String::new();
    for (rel, vals) in facts {
        let vals: Vec<String> = vals
            .iter()
            .map(|v| match (v, fresh) {
                (Tok::Const(c), None) => format!("c{c}"),
                (Tok::Const(c), Some(n)) => format!("c{c}f{n}"),
                (Tok::Null(n), _) => format!("?n{n}"),
            })
            .collect();
        s.push_str(&format!("{rel}({})\n", vals.join(", ")));
    }
    s
}

fn random_body(
    rng: &mut SmallRng,
    rels: &[(&'static str, usize)],
    facts: std::ops::Range<u64>,
    consts: u64,
) -> Body {
    let facts = rng.gen_range(facts);
    (0..facts)
        .map(|_| {
            let (rel, arity) = rels[rng.gen_range(0..rels.len() as u64) as usize];
            let vals = (0..arity)
                .map(|_| {
                    if rng.gen_range(0..4) == 0 {
                        Tok::Null(rng.gen_range(0..2) as u8)
                    } else {
                        Tok::Const(rng.gen_range(0..consts) as u8)
                    }
                })
                .collect();
            (rel, vals)
        })
        .collect()
}

/// One request shape and the reply the library gives for it.
struct Template {
    kind: Kind,
    bodies: Vec<Body>,
    expected: Vec<String>,
}

impl Template {
    fn request(&self, fresh: Option<u64>) -> Request {
        let text = self.bodies.iter().map(|b| render(b, fresh)).collect::<Vec<_>>().join("--\n");
        match self.kind {
            Kind::Chase => Request::on("CHASE", "split").body_text(&text),
            Kind::Invertible => Request::on("INVERTIBLE", "copy"),
            Kind::ArrowRepeat | Kind::ArrowFresh => Request::on("ARROW", "copy").body_text(&text),
            Kind::Certain => {
                Request::on("CERTAIN", "merge").header("query", CERTAIN_QUERY).body_text(&text)
            }
        }
    }
}

fn parse(vocab: &mut Vocabulary, text: &str) -> SchemaMapping {
    parse_mapping(vocab, text).expect("benchmark mapping")
}

/// The request templates with their expected replies, from direct
/// library calls that replay what the daemon does per op. Returns the
/// templates and the time spent parsing mappings and instances, µs.
fn templates(seed: u64) -> (Vec<Template>, f64, f64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut parse_us, mut generate_us) = (0.0, 0.0);
    let t = Instant::now();
    let mut split_vocab = Vocabulary::new();
    let split = parse(&mut split_vocab, SPLIT);
    let mut copy_vocab = Vocabulary::new();
    let copy = parse(&mut copy_vocab, COPY);
    let mut merge_vocab = Vocabulary::new();
    let merge = parse(&mut merge_vocab, MERGE);
    let merge_rev = parse(&mut merge_vocab, MERGE_REV);
    parse_us += t.elapsed().as_secs_f64() * 1e6;
    let mut out = Vec::new();

    // CHASE: a fresh clone of the post-parse vocabulary per request.
    for _ in 0..16 {
        let body = random_body(&mut rng, &[("P", 3)], CHASE_FACTS, 30);
        let mut vocab = split_vocab.clone();
        let t = Instant::now();
        let instance = parse_instance(&mut vocab, &render(&body, None)).expect("chase body");
        generate_us += t.elapsed().as_secs_f64() * 1e6;
        let result = chase(&instance, &split.dependencies, &mut vocab, &ChaseOptions::default())
            .expect("chase body chases");
        let text =
            display::instance(&vocab, &result.instance.restrict_to(&split.target)).to_string();
        out.push(Template {
            kind: Kind::Chase,
            bodies: vec![body],
            expected: text.lines().map(str::to_owned).collect(),
        });
    }

    // INVERTIBLE: the daemon's warm state, built the way the catalog
    // builds it, then the cached homomorphism-property scan.
    {
        let defaults = ServeOptions::default();
        let mut vocab = copy_vocab.clone();
        let (dims, policy) = (defaults.dims, defaults.policy);
        let universe = Universe::new(&mut vocab, dims.consts, dims.nulls, dims.facts);
        let family = universe.collect_instances(&vocab, &copy.source).expect("copy universe");
        let config = HomConfig::default();
        let cache = ArrowMCache::with_policy(&copy, &family, &mut vocab, &config, policy)
            .expect("copy cache");
        let verdict =
            check_homomorphism_property_cached(&cache, &family, &config, &mut HomStats::default());
        let expected = match verdict {
            BoundedVerdict::HoldsWithinBound => vec!["HOLDS within bound".to_owned()],
            BoundedVerdict::Counterexample { i1, i2 } => vec![
                "FAILS".to_owned(),
                display::instance_inline(&vocab, &i1),
                display::instance_inline(&vocab, &i2),
            ],
            BoundedVerdict::Unknown { budget } => panic!("unbudgeted scan unknown: {budget}"),
        };
        out.push(Template { kind: Kind::Invertible, bodies: Vec::new(), expected });
    }

    // ARROW: `I₁ →_M I₂` on pairs; the fresh-constant variant renames
    // every constant injectively, which cannot change the verdict.
    for _ in 0..16 {
        let pair: Vec<Body> =
            (0..2).map(|_| random_body(&mut rng, &[("P", 2)], ARROW_FACTS, 4)).collect();
        let mut vocab = copy_vocab.clone();
        let t = Instant::now();
        let i1 = parse_instance(&mut vocab, &render(&pair[0], None)).expect("arrow body");
        let i2 = parse_instance(&mut vocab, &render(&pair[1], None)).expect("arrow body");
        generate_us += t.elapsed().as_secs_f64() * 1e6;
        let holds = arrow_m(&copy, &i1, &i2, &mut vocab).expect("arrow decides");
        let expected = vec![if holds { "YES" } else { "NO" }.to_owned()];
        out.push(Template {
            kind: Kind::ArrowRepeat,
            bodies: pair.clone(),
            expected: expected.clone(),
        });
        out.push(Template { kind: Kind::ArrowFresh, bodies: pair, expected });
    }

    // CERTAIN: reverse certain answers over the disjunctive recovery.
    for _ in 0..8 {
        // Every value in one of the arms, so each body branches into
        // exactly 2^CERTAIN_VALUES leaves.
        let body: Body = (0..CERTAIN_VALUES)
            .map(|v| {
                let rel = if rng.gen_bool(0.5) { "A" } else { "B" };
                let tok = if v % 4 == 3 { Tok::Null(v) } else { Tok::Const(v) };
                (rel, vec![tok])
            })
            .collect();
        let mut vocab = merge_vocab.clone();
        let t = Instant::now();
        let instance = parse_instance(&mut vocab, &render(&body, None)).expect("certain body");
        generate_us += t.elapsed().as_secs_f64() * 1e6;
        let q = ConjunctiveQuery::parse(&mut vocab, CERTAIN_QUERY).expect("benchmark query");
        let answers = reverse_certain_answers(
            &q,
            &instance,
            &merge,
            &merge_rev,
            &mut vocab,
            &DisjunctiveChaseOptions::default(),
        )
        .expect("certain answers");
        let expected = answers
            .iter()
            .map(|tuple| {
                let names: Vec<String> = tuple.iter().map(|&v| vocab.value_name(v)).collect();
                format!("({})", names.join(", "))
            })
            .collect();
        out.push(Template { kind: Kind::Certain, bodies: vec![body], expected });
    }
    (out, parse_us, generate_us)
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// OK, byte-identical to the library's answer.
    Good,
    /// OK, but not the library's answer.
    Wrong,
    Err,
    Shed,
    Unknown,
    /// No reply within [`TIMEOUT`], or the connection broke.
    Lost,
}

/// One scheduled request.
struct Scheduled {
    template: usize,
    request: Request,
}

/// The result of one measured window.
#[derive(Debug, Default)]
pub struct Window {
    /// Due-time latency per request, ms.
    pub latency_ms: Vec<f64>,
    /// Generator lag per request, ms.
    pub lag_ms: Vec<f64>,
    /// Client round trip per op: (sum µs, count).
    pub rtt_us: BTreeMap<&'static str, (f64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Verified replies within the latency limit, per second from the
    /// start of the window to the last reply.
    pub goodput: f64,
    pub shed: u64,
    pub unknown: u64,
    pub err: u64,
    /// Did the backlog grow: is the latency of the last tenth of the
    /// schedule well above that of the first tenth?
    pub backlog_grows: bool,
    /// Latency over probe time, per request.
    pub cost: Vec<f64>,
    /// Probe times, ms.
    pub probe_ms: Vec<f64>,
}

pub struct ServeMixed {
    rate: f64,
    dir: PathBuf,
    addr: SocketAddr,
    shutdown: rde_faults::CancelToken,
    handle: Option<JoinHandle<Result<(), ServeError>>>,
    clients: Vec<Client>,
    templates: Vec<Template>,
    rng: SmallRng,
    /// Fresh-constant counter, never reused within a run.
    fresh: u64,
    pub parse_us: f64,
    pub generate_us: f64,
}

impl ServeMixed {
    /// Write the catalog, start the daemon, compute the expected
    /// replies, open the two connections and send every template once
    /// so the caches are warm before anything is timed.
    pub fn setup(seed: u64, rate: f64, work: &std::path::Path) -> ServeMixed {
        let dir = work.join(format!("serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create catalog dir");
        let files = [
            ("split.map", SPLIT),
            ("copy.map", COPY),
            ("merge.map", MERGE),
            ("merge.rev", MERGE_REV),
        ];
        for (file, text) in files {
            std::fs::write(dir.join(file), text).expect("write catalog");
        }
        let options = ServeOptions { catalog: dir.clone(), ..ServeOptions::default() };
        let (addr, shutdown, handle) = spawn(options).expect("spawn daemon");
        let (templates, parse_us, generate_us) = templates(seed);
        let clients = (0..2)
            .map(|_| {
                let mut c = Client::connect(addr).expect("connect");
                c.set_deadline(Some(TIMEOUT)).expect("set deadline");
                c
            })
            .collect();
        let mut serve = ServeMixed {
            rate,
            dir,
            addr,
            shutdown,
            handle: Some(handle),
            clients,
            templates,
            rng: SmallRng::seed_from_u64(seed ^ 0x5eed),
            fresh: 0,
            parse_us,
            generate_us,
        };
        for i in 0..serve.templates.len() {
            let request = serve.templates[i].request(None);
            let reply = serve.clients[0].request(&request).expect("warm-up request");
            let outcome = serve.check(i, reply);
            assert_eq!(outcome, Outcome::Good, "warm-up reply to {:?}", request.op);
        }
        serve
    }

    fn check(&self, template: usize, reply: Reply) -> Outcome {
        match reply {
            Reply::Ok(lines) if lines == self.templates[template].expected => Outcome::Good,
            Reply::Ok(_) => Outcome::Wrong,
            Reply::Err(_) => Outcome::Err,
            Reply::Shed { .. } => Outcome::Shed,
            Reply::Unknown(_) => Outcome::Unknown,
        }
    }

    /// The seeded request stream for one window of `seconds`.
    fn schedule(&mut self, seconds: f64) -> Vec<Scheduled> {
        let n = ((self.rate * seconds).round() as usize).max(1);
        let total: u32 = MIX.iter().map(|(_, w)| w).sum();
        (0..n)
            .map(|_| {
                let mut pick = self.rng.gen_range(0..u64::from(total)) as u32;
                let kind = MIX
                    .iter()
                    .find(|(_, w)| {
                        let hit = pick < *w;
                        pick = pick.saturating_sub(*w);
                        hit
                    })
                    .map(|(k, _)| *k)
                    .expect("weights cover the range");
                let choices: Vec<usize> =
                    (0..self.templates.len()).filter(|&i| self.templates[i].kind == kind).collect();
                let template = choices[self.rng.gen_range(0..choices.len() as u64) as usize];
                let fresh = (kind == Kind::ArrowFresh).then(|| {
                    self.fresh += 1;
                    self.fresh
                });
                Scheduled { template, request: self.templates[template].request(fresh) }
            })
            .collect()
    }

    /// One request/reply on the daemon: `STATS` or `METRICS` lines.
    pub fn scrape(&mut self, op: &str) -> Vec<String> {
        match self.clients[0].request(&Request::bare(op)) {
            Ok(Reply::Ok(lines)) => lines,
            other => panic!("{op} failed: {other:?}"),
        }
    }

    /// Offer the rate for `seconds` over the two connections, request
    /// `i` going to connection `i mod 2`, while this thread runs the
    /// probe every [`PROBE_EVERY`].
    pub fn window(&mut self, seconds: f64, probe: &Probe) -> Window {
        let schedule = self.schedule(seconds);
        let interval = 1.0 / self.rate;
        let due = |i: usize| Duration::from_secs_f64(i as f64 * interval);
        let give_up = Duration::from_secs_f64(seconds) + 4 * TIMEOUT;
        let addr = self.addr;
        let start = Instant::now();
        let clock = WallClock(start);
        let mut clients = std::mem::take(&mut self.clients);
        let this = &*self;
        let (results, probes) = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let (clock, schedule) = (&clock, &schedule);
                    s.spawn(move || {
                        let mine: Vec<usize> = (c..schedule.len()).step_by(2).collect();
                        let dues: Vec<Duration> = mine.iter().map(|&i| due(i)).collect();
                        let out = drive(clock, &dues, |k| {
                            let item = &schedule[mine[k]];
                            if clock.now() > give_up {
                                return Outcome::Lost;
                            }
                            match client.request(&item.request) {
                                Ok(reply) => this.check(item.template, reply),
                                Err(_) => {
                                    // The stream may be out of step with
                                    // its replies: start a new connection.
                                    if let Ok(mut fresh) = Client::connect(addr) {
                                        let _ = fresh.set_deadline(Some(TIMEOUT));
                                        *client = fresh;
                                    }
                                    Outcome::Lost
                                }
                            }
                        });
                        mine.into_iter().zip(out).map(|(i, (t, o))| (i, t, o)).collect()
                    })
                })
                .collect();
            let mut probes = Vec::new();
            while clock.now().as_secs_f64() < seconds {
                let ms = probe.time_ms();
                probes.push((clock.now().as_secs_f64(), ms));
                std::thread::sleep(PROBE_EVERY);
            }
            let results: Vec<Vec<(usize, Timing, Outcome)>> =
                handles.into_iter().map(|h| h.join().expect("client thread")).collect();
            (results, probes)
        });
        self.clients = clients;

        let mut w = Window::default();
        let mut by_index: Vec<Option<(Timing, Outcome)>> = vec![None; schedule.len()];
        for part in &results {
            let timings: Vec<Timing> = part.iter().map(|(_, t, _)| *t).collect();
            w.lag_ms.extend(generator_lag(&timings).iter().map(|l| l.as_secs_f64() * 1e3));
            for &(i, t, o) in part {
                by_index[i] = Some((t, o));
            }
        }
        let mut good_in_limit = 0u64;
        for (i, slot) in by_index.into_iter().enumerate() {
            let (t, outcome) = slot.expect("every request driven");
            let mut ms = t.latency().as_secs_f64() * 1e3;
            w.attempted += 1;
            if outcome == Outcome::Good {
                good_in_limit += u64::from(ms <= LIMIT_MS);
            } else {
                w.failed += 1;
                // A failed request misses the limit whatever its time.
                ms = ms.max(TIMEOUT.as_secs_f64() * 1e3);
            }
            match outcome {
                Outcome::Shed => w.shed += 1,
                Outcome::Unknown => w.unknown += 1,
                Outcome::Err => w.err += 1,
                _ => {}
            }
            w.latency_ms.push(ms);
            let op = self.templates[schedule[i].template].kind.op();
            let slot = w.rtt_us.entry(op).or_insert((0.0, 0));
            slot.0 += t.rtt().as_secs_f64() * 1e6;
            slot.1 += 1;
        }
        let last = results.iter().flatten().map(|(_, t, _)| t.done).max().unwrap_or_default();
        w.goodput = good_in_limit as f64 / last.as_secs_f64().max(interval);
        let tenth = (w.latency_ms.len() / 10).max(1);
        let head = median(&w.latency_ms[..tenth]);
        let tail = median(&w.latency_ms[w.latency_ms.len() - tenth..]);
        w.backlog_grows = tail > 2.0 * head + 1.0;
        let samples: Vec<(f64, f64)> =
            w.latency_ms.iter().enumerate().map(|(i, &ms)| (i as f64 * interval, ms)).collect();
        w.cost = probe::costs(&samples, &probes, seconds);
        w.probe_ms = probes.iter().map(|&(_, ms)| ms).collect();
        w
    }
}

impl Drop for ServeMixed {
    fn drop(&mut self) {
        self.clients.clear();
        self.shutdown.cancel();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        // The work directory itself goes too once no run is using it.
        if let Some(work) = self.dir.parent() {
            let _ = std::fs::remove_dir(work);
        }
    }
}

/// Sum of `<name>_sum` and `<name>_count` per op over every mapping,
/// from a `METRICS` exposition.
fn per_op_hist(expo: &[String], name: &str) -> BTreeMap<String, (f64, f64)> {
    let mut out: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for line in expo {
        let Some((series, value)) = line.rsplit_once(' ') else { continue };
        let Some((metric, labels)) = series.split_once('{') else { continue };
        let Ok(value) = value.parse::<f64>() else { continue };
        let Some(op) = labels.split("op=\"").nth(1).and_then(|r| r.split('"').next()) else {
            continue;
        };
        let slot = out.entry(op.to_ascii_lowercase()).or_insert((0.0, 0.0));
        if metric == format!("{name}_sum") {
            slot.0 += value;
        } else if metric == format!("{name}_count") {
            slot.1 += value;
        }
    }
    out
}

/// Counters of the warm `copy` cache from `STATS`: the `cache copy`
/// line's fields plus the process counters it lacks (misses).
fn cache_counters(stats: &[String]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in stats {
        if let Some(rest) = line.strip_prefix("cache copy ") {
            for field in rest.split_whitespace() {
                if let Some((k, v)) = field.split_once('=') {
                    out.insert(k.to_owned(), v.parse().unwrap_or(0.0));
                }
            }
        } else if let Some(rest) = line.strip_prefix("counter ") {
            if let Some((k, v)) = rest.split_once(' ') {
                out.insert(k.to_owned(), v.parse().unwrap_or(0.0));
            }
        }
    }
    out
}

/// Per-layer metrics of a traced window, from the client's own timings
/// and the daemon's `METRICS`/`STATS` before and after it.
pub fn layer_metrics(
    w: &Window,
    metrics: [&[String]; 2],
    stats: [&[String]; 2],
    report: &mut Report,
) {
    let n = w.latency_ms.len();
    let delta = |name: &str| {
        let (a, b) = (per_op_hist(metrics[0], name), per_op_hist(metrics[1], name));
        let mut out = BTreeMap::new();
        for (op, (sum, count)) in b {
            let (s0, c0) = a.get(&op).copied().unwrap_or((0.0, 0.0));
            out.insert(op, (sum - s0, count - c0));
        }
        out
    };
    let (request, queue) = (delta("serve_request_us"), delta("serve_queue_us"));
    let (mut server_us, mut rtt_total) = (0.0, 0.0);
    for op in OPS {
        let (rtt_sum, rtt_n) = w.rtt_us.get(op).copied().unwrap_or((0.0, 0));
        let mean = |m: &BTreeMap<String, (f64, f64)>| {
            m.get(op).map_or(0.0, |&(sum, count)| ratio(sum, count))
        };
        let (rtt, req, q) = (ratio(rtt_sum, rtt_n as f64), mean(&request), mean(&queue));
        report.set(&format!("serve.rtt_us.{op}"), rtt, rtt_n as usize);
        report.set(&format!("serve.request_us.{op}"), req, rtt_n as usize);
        report.set(&format!("serve.queue_us.{op}"), q, rtt_n as usize);
        report.set(&format!("serve.wire_us.{op}"), rtt - req - q, rtt_n as usize);
        server_us += (req + q) * rtt_n as f64;
        rtt_total += rtt_sum;
    }
    report.set("obs.layer_sum_frac", ratio(server_us, rtt_total), n);
    report.set("serve.shed", w.shed as f64, n);
    report.set("serve.unknown", w.unknown as f64, n);
    report.set("serve.err", w.err as f64, n);
    let (a, b) = (cache_counters(stats[0]), cache_counters(stats[1]));
    let d = |k: &str| b.get(k).copied().unwrap_or(0.0) - a.get(k).copied().unwrap_or(0.0);
    report.set(
        "core.arrow.memo_hit_ratio",
        ratio(d("hits"), d("hits") + d("core.arrow.misses")),
        n,
    );
    report.set(
        "core.arrow.intern_hit_ratio",
        ratio(d("intern_hits"), d("intern_hits") + d("core.arrow.intern.misses")),
        n,
    );
    report.set("core.arrow.evictions", d("memo_evictions") + d("class_evictions"), n);
    report.set("gen.lag_ms_p99", percentile_of(&w.lag_ms, 99.0), w.lag_ms.len());
}
