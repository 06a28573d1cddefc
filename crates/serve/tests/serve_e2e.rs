//! End-to-end daemon tests: a real listener, real sockets, concurrent
//! clients, and answers cross-checked against direct engine runs.

use std::path::PathBuf;
use std::time::Duration;

use rde_serve::protocol::Reply;
use rde_serve::{spawn, Client, Request, ServeOptions, UniverseDims};

fn catalog(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rde-serve-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("split.map"),
        "source: P/3\ntarget: Q/2, R/2\nP(x,y,z) -> Q(x,y) & R(y,z)\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("merge.map"),
        "source: A/1, B/1\ntarget: T/1\nA(x) -> T(x)\nB(x) -> T(x)\n",
    )
    .unwrap();
    std::fs::write(dir.join("merge.rev"), "source: T/1\ntarget: A/1, B/1\nT(x) -> A(x) | B(x)\n")
        .unwrap();
    dir
}

fn options(dir: &std::path::Path) -> ServeOptions {
    ServeOptions {
        catalog: dir.to_path_buf(),
        dims: UniverseDims { consts: 1, nulls: 1, facts: 1 },
        ..ServeOptions::default()
    }
}

#[test]
fn serves_every_op_and_shuts_down_cleanly() {
    let dir = catalog("ops");
    let (addr, shutdown, handle) = spawn(options(&dir)).unwrap();
    let mut client = Client::connect(addr).unwrap();

    assert_eq!(client.request(&Request::bare("PING")).unwrap(), Reply::Ok(vec!["pong".into()]));

    let Reply::Ok(listing) = client.request(&Request::bare("LIST")).unwrap() else {
        panic!("LIST failed")
    };
    assert_eq!(listing.len(), 2);
    assert!(listing[0].starts_with("merge reverse=yes"), "sorted, reverse flagged: {listing:?}");
    assert!(listing[1].starts_with("split reverse=no"), "{listing:?}");

    // CHASE: same answer as running the engine directly.
    let chase = client.request(&Request::on("CHASE", "split").body_text("P(a, b, c)\n")).unwrap();
    let Reply::Ok(lines) = chase else { panic!("CHASE failed: {chase:?}") };
    assert_eq!(lines, vec!["Q(a, b)", "R(b, c)"], "target-restricted chase result");

    // INVERTIBLE: `merge` loses which of A/B a tuple came from.
    let inv = client.request(&Request::on("INVERTIBLE", "merge")).unwrap();
    let Reply::Ok(lines) = inv else { panic!("INVERTIBLE failed: {inv:?}") };
    assert_eq!(lines[0], "FAILS");

    // ARROW: P-copying means →_M tracks plain instance direction here.
    let arrow =
        client.request(&Request::on("ARROW", "merge").body_text("A(a)\n--\nA(a)\nB(b)\n")).unwrap();
    assert_eq!(arrow, Reply::Ok(vec!["YES".into()]), "I1 ⊆ I2 chases into I2's solution");
    let arrow_back =
        client.request(&Request::on("ARROW", "merge").body_text("A(a)\nB(b)\n--\nA(a)\n")).unwrap();
    assert_eq!(arrow_back, Reply::Ok(vec!["NO".into()]));

    // CERTAIN: the reverse of `merge` can only certify nothing (the
    // disjunction hedges between A and B).
    let certain = client
        .request(
            &Request::on("CERTAIN", "merge").header("query", "q(x) :- A(x)").body_text("A(a)\n"),
        )
        .unwrap();
    assert_eq!(certain, Reply::Ok(Vec::new()));

    // STATS reports the serve metrics this very connection produced.
    let Reply::Ok(stats) = client.request(&Request::bare("STATS")).unwrap() else {
        panic!("STATS failed")
    };
    assert!(stats.iter().any(|l| l.starts_with("counter serve.requests ")), "{stats:?}");
    assert!(stats.iter().any(|l| l.starts_with("histogram serve.request.us ")), "{stats:?}");
    assert!(stats.iter().any(|l| l.starts_with("uptime-ms ")), "{stats:?}");
    assert!(
        stats.iter().any(|l| l.starts_with("op CHASE count=") && l.contains("p99<=")),
        "per-op latency aggregated from the labeled histograms: {stats:?}"
    );

    // METRICS: the full labeled registry in valid Prometheus text
    // exposition, including the per-op × per-mapping request series.
    let Reply::Ok(metrics) = client.request(&Request::bare("METRICS")).unwrap() else {
        panic!("METRICS failed")
    };
    rde_obs::expo::validate(&metrics.join("\n")).expect("exposition validates line-by-line");
    assert!(
        metrics.iter().any(|l| l.starts_with("serve_requests{")
            && l.contains("op=\"CHASE\"")
            && l.contains("mapping=\"split\"")),
        "{metrics:?}"
    );
    assert!(metrics.iter().any(|l| l.starts_with("serve_uptime_ms ")), "{metrics:?}");
    assert!(
        metrics.iter().any(|l| l.starts_with("serve_cache_memo{mapping=\"merge\"}")),
        "per-mapping cache occupancy gauges refresh at scrape time: {metrics:?}"
    );

    // Bad requests get ERR, and the connection survives them.
    let bad = client.request(&Request::bare("FROBNICATE")).unwrap();
    assert!(matches!(bad, Reply::Err(_)));
    let missing = client.request(&Request::on("CHASE", "nope").body_text("P(a, b, c)\n")).unwrap();
    assert!(matches!(missing, Reply::Err(ref m) if m.contains("no such mapping")));
    assert_eq!(client.request(&Request::bare("PING")).unwrap(), Reply::Ok(vec!["pong".into()]));

    shutdown.cancel();
    handle.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_clients_get_identical_answers() {
    let dir = catalog("conc");
    let (addr, shutdown, handle) = spawn(options(&dir)).unwrap();
    let workers: Vec<_> = (0..16)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut answers = Vec::new();
                for _ in 0..8 {
                    let Reply::Ok(lines) = client
                        .request(
                            &Request::on("CHASE", "split")
                                .body_text(&format!("P(a{i}, b, c)\nP(a{i}, b, d)\n")),
                        )
                        .unwrap()
                    else {
                        panic!("CHASE failed")
                    };
                    answers.push(lines);
                    let inv = client.request(&Request::on("INVERTIBLE", "merge")).unwrap();
                    let Reply::Ok(lines) = inv else { panic!("INVERTIBLE failed: {inv:?}") };
                    assert_eq!(lines[0], "FAILS");
                }
                answers
            })
        })
        .collect();
    for (i, worker) in workers.into_iter().enumerate() {
        let answers = worker.join().unwrap();
        let expected = vec![format!("Q(a{i}, b)"), "R(b, c)".to_owned(), "R(b, d)".to_owned()];
        for lines in answers {
            assert_eq!(lines, expected, "every repetition of client {i} answers identically");
        }
    }
    shutdown.cancel();
    handle.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overload_sheds_instead_of_dropping_connections() {
    let dir = catalog("shed");
    let opts = ServeOptions { max_inflight: 0, ..options(&dir) };
    let (addr, shutdown, handle) = spawn(opts).unwrap();
    let mut client = Client::connect(addr).unwrap();
    // With a zero ceiling every request is over the limit: the reply
    // is a SHED, and the connection stays usable for the next try.
    for _ in 0..3 {
        let reply = client.request(&Request::bare("PING")).unwrap();
        assert!(
            matches!(reply, Reply::Shed { ref reason, retry_after_ms: Some(_) }
                if reason.contains("overloaded")),
            "overload sheds carry a retry hint: {reply:?}"
        );
    }
    shutdown.cancel();
    handle.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn request_budgets_surface_as_unknown_not_errors() {
    let dir = catalog("budget");
    let (addr, shutdown, handle) = spawn(options(&dir)).unwrap();
    let mut client = Client::connect(addr).unwrap();
    // A starved node budget cannot settle the family scan: honest
    // UNKNOWN, not an error, and not a dropped connection.
    let reply =
        client.request(&Request::on("INVERTIBLE", "merge").header("node-budget", 0)).unwrap();
    assert!(matches!(reply, Reply::Unknown(_)), "{reply:?}");
    // An already-elapsed deadline sheds rather than answering.
    let reply =
        client.request(&Request::on("INVERTIBLE", "merge").header("deadline-ms", 0)).unwrap();
    assert!(matches!(reply, Reply::Shed { .. }), "{reply:?}");
    // The full-budget answer still comes back on the same connection.
    let Reply::Ok(lines) = client.request(&Request::on("INVERTIBLE", "merge")).unwrap() else {
        panic!("INVERTIBLE failed after budgeted attempts")
    };
    assert_eq!(lines[0], "FAILS");
    // CERTAIN honours the request's node budget through both chases.
    let certain =
        || Request::on("CERTAIN", "merge").header("query", "q(x) :- A(x)").body_text("A(a)\n");
    let reply = client.request(&certain().header("node-budget", 0)).unwrap();
    assert!(matches!(reply, Reply::Unknown(_)), "{reply:?}");
    assert_eq!(client.request(&certain()).unwrap(), Reply::Ok(Vec::new()));
    shutdown.cancel();
    handle.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn arrow_interning_is_bounded_under_churn() {
    let dir = catalog("churn");
    let opts =
        ServeOptions { policy: rde_core::arrow::CachePolicy::bounded(64, 4), ..options(&dir) };
    let (addr, shutdown, handle) = spawn(opts).unwrap();
    let mut client = Client::connect(addr).unwrap();
    // Distinct constants per round force fresh hom-classes; the
    // interned store must stay within its bound of 4 regardless.
    for i in 0..32 {
        let body = format!("A(k{i})\n--\nA(k{i})\nB(m{i})\n");
        let reply = client.request(&Request::on("ARROW", "merge").body_text(&body)).unwrap();
        assert_eq!(reply, Reply::Ok(vec!["YES".into()]), "round {i}");
    }
    let Reply::Ok(stats) = client.request(&Request::bare("STATS")).unwrap() else {
        panic!("STATS failed")
    };
    let cache_line = stats
        .iter()
        .find(|l| l.starts_with("cache merge "))
        .expect("per-mapping cache stats published");
    let field = |name: &str| -> u64 {
        cache_line
            .split_whitespace()
            .find_map(|w| w.strip_prefix(&format!("{name}=")))
            .unwrap_or_else(|| panic!("no {name}= in {cache_line}"))
            .parse()
            .unwrap()
    };
    assert!(
        field("interned") <= 4,
        "interned classes stay within the configured bound: {cache_line}"
    );
    assert!(field("memo") <= 64, "memo stays within its bound: {cache_line}");
    assert!(field("class_evictions") > 0, "churn past the bound must evict: {cache_line}");
    shutdown.cancel();
    handle.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn client_deadline_is_distinct_from_server_replies() {
    // A listener that accepts and never replies: the only way the
    // call can end is the client's own deadline, which must surface
    // as `ClientError::Deadline` — not an Io error, and not any Reply.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let silent = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        std::thread::sleep(Duration::from_millis(400));
        drop(stream);
    });
    let mut client = Client::connect(addr).unwrap();
    client.set_deadline(Some(Duration::from_millis(50))).unwrap();
    match client.request(&Request::bare("PING")) {
        Err(rde_serve::ClientError::Deadline) => {}
        other => panic!("expected a client deadline, got {other:?}"),
    }
    drop(client);
    silent.join().unwrap();
}
