//! Concurrent request attribution: with eight clients hammering eight
//! distinct mappings at once, every span and event in the interleaved
//! journal must carry exactly its own request's id — the engine spans
//! included — and each request's span tree
//! must reconstruct cleanly from the `req` field alone.
#![cfg(feature = "trace")]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use rde_obs::journal::{self, OwnedField, Record, Sink};
use rde_serve::protocol::Reply;
use rde_serve::{spawn, Client, Request, ServeOptions, UniverseDims};

const MAPPINGS: usize = 8;
const ROUNDS: usize = 6;

/// The journal is process-global; tests that attach a sink must not
/// overlap.
static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Mapping `m<i>` has exactly `i + 1` dependencies (`P(x) -> Qj(x)`),
/// so the engine's own `chase.run` span fingerprints which mapping a
/// request actually ran via its `deps` field.
fn catalog() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rde-serve-attr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for i in 0..MAPPINGS {
        let mut text = String::from("source: P/1\ntarget: ");
        for j in 0..=i {
            let _ = write!(text, "{}Q{j}/1", if j == 0 { "" } else { ", " });
        }
        text.push('\n');
        for j in 0..=i {
            let _ = writeln!(text, "P(x) -> Q{j}(x)");
        }
        std::fs::write(dir.join(format!("m{i}.map")), text).unwrap();
    }
    dir
}

fn str_field<'r>(record: &'r Record, key: &str) -> Option<&'r str> {
    match record.field(key) {
        Some(OwnedField::Str(s)) => Some(s),
        _ => None,
    }
}

#[test]
fn concurrent_requests_attribute_every_record_to_their_own_id() {
    let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = catalog();
    journal::attach(Sink::Memory, 1 << 16).unwrap();
    let options = ServeOptions {
        catalog: dir.clone(),
        dims: UniverseDims { consts: 1, nulls: 1, facts: 1 },
        ..ServeOptions::default()
    };
    let (addr, shutdown, handle) = spawn(options).unwrap();
    let workers: Vec<_> = (0..MAPPINGS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..ROUNDS {
                    let request =
                        Request::on("CHASE", &format!("m{i}")).body_text(&format!("P(a{round})\n"));
                    let Reply::Ok(lines) = client.request(&request).unwrap() else {
                        panic!("CHASE m{i} round {round} failed")
                    };
                    assert_eq!(lines.len(), i + 1, "m{i} exports one fact per dependency");
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }
    shutdown.cancel();
    handle.join().unwrap().unwrap();
    let summary = journal::detach().expect("journal attached");
    std::fs::remove_dir_all(&dir).ok();

    // Group the interleaved stream by request id. Id 0 is pre-request
    // work (catalog warm-up) — everything else must belong to exactly
    // one of the 48 requests.
    let mut groups: BTreeMap<u64, Vec<&Record>> = BTreeMap::new();
    for record in &summary.records {
        groups.entry(record.req()).or_default().push(record);
    }
    groups.remove(&0);
    assert_eq!(groups.len(), MAPPINGS * ROUNDS, "one journal group per request");

    let mut per_mapping = [0usize; MAPPINGS];
    for (req, records) in &groups {
        // The span tree reconstructs from this group alone: balanced,
        // with a single serve.request root.
        let opens: Vec<&&Record> = records.iter().filter(|r| r.kind == "span_open").collect();
        let closes = records.iter().filter(|r| r.kind == "span_close").count();
        assert_eq!(opens.len(), closes, "req {req}: span opens match closes");
        let roots: Vec<_> = opens.iter().filter(|r| r.name == "serve.request").collect();
        assert_eq!(roots.len(), 1, "req {req}: exactly one serve.request span");
        let mapping = str_field(roots[0], "mapping").expect("mapping field on the request span");
        let idx: usize = mapping.strip_prefix('m').unwrap().parse().unwrap();
        per_mapping[idx] += 1;

        // Zero cross-request contamination: the chase that ran inside
        // this group fingerprints the mapping this request named.
        let chase = opens
            .iter()
            .find(|r| r.name == "chase.run")
            .unwrap_or_else(|| panic!("req {req}: no chase.run span in group"));
        assert_eq!(
            chase.field("deps").and_then(OwnedField::as_u64),
            Some(idx as u64 + 1),
            "req {req}: chase.run deps fingerprint matches mapping {mapping}"
        );

        // And the access-log line landed in the same group.
        let access: Vec<_> = records.iter().filter(|r| r.name == "serve.access").collect();
        assert_eq!(access.len(), 1, "req {req}: exactly one access event");
        assert_eq!(str_field(access[0], "mapping"), Some(mapping), "req {req}");
        assert_eq!(str_field(access[0], "outcome"), Some("ok"), "req {req}");
        let us = access[0].field("us").and_then(OwnedField::as_u64);
        assert!(us.is_some(), "req {req}: access event carries elapsed µs");
    }
    assert_eq!(per_mapping, [ROUNDS; MAPPINGS], "every mapping served all its rounds");
}

#[test]
fn slow_trace_sampling_replays_only_slow_span_trees() {
    let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = std::env::temp_dir().join(format!("rde-serve-slow-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("one.map"), "source: P/1\ntarget: Q/1\nP(x) -> Q(x)\n").unwrap();

    // Threshold 0: every request is "slow", so every span tree is
    // replayed and bracketed by a serve.slow_trace marker.
    let run = |threshold: Option<u64>| -> Vec<Record> {
        journal::attach(Sink::Memory, 1 << 16).unwrap();
        let options = ServeOptions {
            catalog: dir.clone(),
            dims: UniverseDims { consts: 1, nulls: 1, facts: 1 },
            trace_slow_ms: threshold,
            ..ServeOptions::default()
        };
        let (addr, shutdown, handle) = spawn(options).unwrap();
        let mut client = Client::connect(addr).unwrap();
        let reply = client.request(&Request::on("CHASE", "one").body_text("P(a)\n")).unwrap();
        assert!(matches!(reply, Reply::Ok(_)), "{reply:?}");
        shutdown.cancel();
        handle.join().unwrap().unwrap();
        journal::detach().expect("journal attached").records
    };

    let every = run(Some(0));
    let marker: Vec<_> = every.iter().filter(|r| r.name == "serve.slow_trace").collect();
    assert_eq!(marker.len(), 1, "threshold 0 keeps the request's tree");
    assert!(marker[0].req() != 0, "marker is stamped with the request id");
    let replayed = every.iter().filter(|r| r.req() == marker[0].req());
    assert!(
        replayed.clone().any(|r| r.name == "serve.request" && r.kind == "span_open"),
        "the replayed tree contains the request's root span"
    );
    assert!(replayed.clone().any(|r| r.name == "serve.access"), "access line still present");

    // A threshold no fast request can reach: the tree is buffered and
    // discarded — no spans for the request, but the access line (and
    // the metrics) survive.
    let none = run(Some(600_000));
    assert!(none.iter().all(|r| r.name != "serve.slow_trace"), "nothing slow enough");
    assert!(
        none.iter().all(|r| !(r.name == "serve.request" && r.kind == "span_open")),
        "fast request's span tree was sampled away"
    );
    assert!(none.iter().any(|r| r.name == "serve.access"), "access line survives sampling");
    std::fs::remove_dir_all(&dir).ok();
}
