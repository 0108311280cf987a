//! End-to-end serve-protocol tests against the real `mergepurge` binary:
//! ingest batches over the Unix socket, query, shut down gracefully,
//! restart, and check the daemon answers — and its deterministic `store`
//! stats section — are identical. A second scenario kills the daemon with
//! SIGKILL mid-stream and verifies journal replay restores the state.

#![cfg(unix)]

use merge_purge::{IncrementalMergePurge, KeySpec};
use merge_purge_repro::serve::{ingest_request, json::Json, request, request_tcp};
use mp_datagen::{DatabaseGenerator, GeneratorConfig};
use mp_record::Record;
use mp_rules::{EquationalTheory, NativeEmployeeTheory};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mp-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn batches(seed: u64, n: usize, parts: usize) -> Vec<Vec<Record>> {
    let db = DatabaseGenerator::new(GeneratorConfig::new(n).duplicate_fraction(0.4).seed(seed))
        .generate();
    let chunk = db.records.len().div_ceil(parts);
    db.records.chunks(chunk).map(<[Record]>::to_vec).collect()
}

fn spawn_daemon_with(socket: &Path, store: &Path, extra: &[&str], capture_stderr: bool) -> Child {
    let child = Command::new(env!("CARGO_BIN_EXE_mergepurge"))
        .args([
            "serve",
            "--socket",
            socket.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
            "--window",
            "8",
            "--keys",
            "last_name,first_name",
        ])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(if capture_stderr {
            Stdio::piped()
        } else {
            Stdio::null()
        })
        .spawn()
        .expect("spawn mergepurge serve");
    // The socket appearing is the readiness signal.
    let deadline = Instant::now() + Duration::from_secs(20);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "daemon never bound {socket:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    child
}

fn spawn_daemon(socket: &Path, store: &Path) -> Child {
    spawn_daemon_with(socket, store, &[], false)
}

fn ask(socket: &Path, payload: &str) -> Json {
    // The daemon may momentarily lag between binding and accepting.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match request(socket, payload) {
            Ok(response) => return Json::parse(&response).expect("daemon speaks json"),
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("request failed: {e}"),
        }
    }
}

fn expect_ok(v: &Json) {
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v}");
}

/// The deterministic part of `stats`: the whole `store` object.
fn store_section(socket: &Path) -> Json {
    let stats = ask(socket, r#"{"cmd":"stats"}"#);
    expect_ok(&stats);
    stats
        .get("store")
        .expect("stats has a store section")
        .clone()
}

fn shutdown_and_wait(socket: &Path, child: &mut Child) {
    let bye = ask(socket, r#"{"cmd":"shutdown"}"#);
    expect_ok(&bye);
    let status = child.wait().expect("daemon exit status");
    assert!(status.success(), "graceful shutdown exits 0: {status:?}");
    assert!(!socket.exists(), "socket unlinked on graceful shutdown");
}

#[test]
fn ingest_query_shutdown_restart_gives_identical_answers() {
    let dir = tmp_dir("basic");
    let socket = dir.join("mp.sock");
    let store = dir.join("store");
    let parts = batches(4242, 400, 2);

    let mut child = spawn_daemon(&socket, &store);
    for (i, part) in parts.iter().enumerate() {
        let reply = ask(&socket, &ingest_request(part));
        expect_ok(&reply);
        assert_eq!(
            reply.get("seq").and_then(Json::as_u64),
            Some(i as u64 + 1),
            "journal sequence numbers are contiguous"
        );
    }
    let total: usize = parts.iter().map(Vec::len).sum();

    // Query every record once; remember each answer.
    let stats_before = store_section(&socket);
    assert_eq!(
        stats_before.get("records").and_then(Json::as_u64),
        Some(total as u64)
    );
    let probe: Vec<u64> = (0..total as u64).step_by(17).collect();
    let answers_before: Vec<Json> = probe
        .iter()
        .map(|id| ask(&socket, &format!(r#"{{"cmd":"query-matches","id":{id}}}"#)))
        .collect();
    for a in &answers_before {
        expect_ok(a);
    }
    shutdown_and_wait(&socket, &mut child);

    // Restart on the same store: same stats, same classes.
    let mut child = spawn_daemon(&socket, &store);
    assert_eq!(
        store_section(&socket),
        stats_before,
        "store stats survive restart"
    );
    let answers_after: Vec<Json> = probe
        .iter()
        .map(|id| ask(&socket, &format!(r#"{{"cmd":"query-matches","id":{id}}}"#)))
        .collect();
    assert_eq!(
        answers_after, answers_before,
        "query answers survive restart"
    );
    shutdown_and_wait(&socket, &mut child);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sigkill_mid_run_replays_the_journal_to_the_same_stats() {
    let dir = tmp_dir("kill9");
    let socket = dir.join("mp.sock");
    let store = dir.join("store");
    let parts = batches(5151, 450, 3);

    // Golden run: all three batches in one uninterrupted daemon.
    let golden_store = dir.join("store-golden");
    let mut child = spawn_daemon(&socket, &golden_store);
    for part in &parts {
        expect_ok(&ask(&socket, &ingest_request(part)));
    }
    let want = store_section(&socket);
    shutdown_and_wait(&socket, &mut child);

    // Crash run: two batches acknowledged, then SIGKILL — no graceful
    // drain, no snapshot (the store only has the journal).
    let mut child = spawn_daemon(&socket, &store);
    expect_ok(&ask(&socket, &ingest_request(&parts[0])));
    expect_ok(&ask(&socket, &ingest_request(&parts[1])));
    child.kill().expect("SIGKILL the daemon");
    child.wait().unwrap();
    let _ = std::fs::remove_file(&socket);

    // Restart: the journal replays both batches; finish the third.
    let mut child = spawn_daemon(&socket, &store);
    let stats = ask(&socket, r#"{"cmd":"stats"}"#);
    expect_ok(&stats);
    assert_eq!(
        stats
            .get("process")
            .and_then(|p| p.get("journal_replays"))
            .and_then(Json::as_u64),
        Some(2),
        "both acknowledged batches replay: {stats}"
    );
    expect_ok(&ask(&socket, &ingest_request(&parts[2])));
    assert_eq!(
        store_section(&socket),
        want,
        "kill/restart reaches the exact single-process stats"
    );
    shutdown_and_wait(&socket, &mut child);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// SIGTERM drains exactly like the `shutdown` command: exit 0, socket
/// gone, one final checkpoint logged with trigger `shutdown`, and a
/// restart that serves the same store without replaying the journal.
#[test]
fn sigterm_drains_like_the_shutdown_command() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;

    let dir = tmp_dir("sigterm");
    let socket = dir.join("mp.sock");
    let store = dir.join("store");
    let log = dir.join("events.jsonl");
    let mut child = spawn_daemon_with(&socket, &store, &["--log", log.to_str().unwrap()], false);
    expect_ok(&ask(&socket, &ingest_request(&batches(6161, 300, 1)[0])));
    let want = store_section(&socket);

    // SAFETY: `kill` only sends a signal to the child process we own.
    assert_eq!(unsafe { kill(child.id() as i32, SIGTERM) }, 0);
    let status = child.wait().expect("daemon exit status");
    assert!(status.success(), "SIGTERM drains and exits 0: {status:?}");
    assert!(!socket.exists(), "socket unlinked on SIGTERM");

    let events: Vec<Json> = std::fs::read_to_string(&log)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).expect("log lines are json"))
        .collect();
    let named = |name: &str| {
        events
            .iter()
            .filter(|e| e.get("event").and_then(Json::as_str) == Some(name))
            .collect::<Vec<_>>()
    };
    let checkpoints = named("checkpoint_written");
    assert_eq!(
        checkpoints.len(),
        1,
        "one final checkpoint: {checkpoints:?}"
    );
    assert_eq!(
        checkpoints[0].get("trigger").and_then(Json::as_str),
        Some("shutdown")
    );
    assert_eq!(named("stopped").len(), 1, "the drain completed");

    let mut child = spawn_daemon(&socket, &store);
    let stats = ask(&socket, r#"{"cmd":"stats"}"#);
    expect_ok(&stats);
    assert_eq!(
        stats.get("store"),
        Some(&want),
        "restart serves the same store"
    );
    assert_eq!(
        stats
            .get("process")
            .and_then(|p| p.get("journal_replays"))
            .and_then(Json::as_u64),
        Some(0),
        "the final checkpoint covered every batch: {stats}"
    );
    shutdown_and_wait(&socket, &mut child);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let dir = tmp_dir("errors");
    let socket = dir.join("mp.sock");
    let mut child = spawn_daemon(&socket, &dir.join("store"));

    let bad = ask(&socket, "{not json");
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    let unknown = ask(&socket, r#"{"cmd":"frobnicate"}"#);
    assert_eq!(unknown.get("ok").and_then(Json::as_bool), Some(false));
    let out_of_range = ask(&socket, r#"{"cmd":"query-matches","id":999999}"#);
    assert_eq!(out_of_range.get("ok").and_then(Json::as_bool), Some(false));
    let empty = ask(&socket, r#"{"cmd":"ingest-batch","records":[]}"#);
    assert_eq!(empty.get("ok").and_then(Json::as_bool), Some(false));
    // 200 KB of `[`: nested past the parser's depth cap, not deep enough
    // to overflow a connection thread's stack and abort the daemon.
    let deep = ask(&socket, &"[".repeat(200_000));
    let error = deep.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(error.starts_with("bad json"), "{deep}");

    // The daemon is still healthy after every error.
    let stats = ask(&socket, r#"{"cmd":"stats"}"#);
    expect_ok(&stats);
    shutdown_and_wait(&socket, &mut child);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- observability ---------------------------------------------------

/// Picks a TCP port that was free a moment ago (good enough for a test).
fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

/// Plain HTTP/1.1 GET; returns (status line, body).
fn http_get(port: u16, path: &str) -> (String, String) {
    use std::io::{Read, Write};
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut stream = loop {
        match std::net::TcpStream::connect(("127.0.0.1", port)) {
            Ok(s) => break s,
            Err(e) => {
                assert!(Instant::now() < deadline, "metrics port never opened: {e}");
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    };
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("http response head");
    (
        head.lines().next().unwrap_or("").to_string(),
        body.to_string(),
    )
}

/// Parses exposition text into (name-with-labels, value) samples.
fn prom_samples(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| {
            let (name, value) = l.rsplit_once(' ').expect("sample line");
            let v = if value == "+Inf" {
                f64::INFINITY
            } else {
                value.parse().unwrap_or_else(|_| panic!("bad value: {l}"))
            };
            (name.to_string(), v)
        })
        .collect()
}

#[test]
fn metrics_probes_windows_and_event_log_work_end_to_end() {
    let dir = tmp_dir("obs");
    let socket = dir.join("mp.sock");
    let store = dir.join("store");
    let log = dir.join("events.jsonl");
    let port = free_port();
    let parts = batches(7777, 400, 2);

    let mut child = spawn_daemon_with(
        &socket,
        &store,
        &[
            "--metrics-addr",
            &format!("127.0.0.1:{port}"),
            "--log",
            log.to_str().unwrap(),
            "--log-level",
            "debug",
            "--quiet",
        ],
        true,
    );

    // Probes answer over both transports once the socket is up.
    let ready = ask(&socket, r#"{"cmd":"readyz"}"#);
    expect_ok(&ready);
    assert_eq!(ready.get("ready").and_then(Json::as_bool), Some(true));
    let health = ask(&socket, r#"{"cmd":"healthz"}"#);
    expect_ok(&health);
    assert_eq!(health.get("alive").and_then(Json::as_bool), Some(true));
    let (status, _) = http_get(port, "/healthz");
    assert!(status.contains("200"), "{status}");
    let (status, body) = http_get(port, "/readyz");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"ready\":true"), "{body}");
    let (status, _) = http_get(port, "/nope");
    assert!(status.contains("404"), "{status}");

    // First scrape, then ingest, then scrape again: counters must be
    // monotonic and the exposition parseable throughout.
    let (status, scrape1) = http_get(port, "/metrics");
    assert!(status.contains("200"), "{status}");
    let before = prom_samples(&scrape1);
    assert!(
        before.iter().any(|(n, _)| n == "mergepurge_ready"),
        "gauges present"
    );

    for part in &parts {
        expect_ok(&ask(&socket, &ingest_request(part)));
    }
    let total: u64 = parts.iter().map(|p| p.len() as u64).sum();

    let (_, scrape2) = http_get(port, "/metrics");
    let after = prom_samples(&scrape2);
    for (name, v1) in &before {
        if name.ends_with("_total") || name.contains("_bucket") || name.ends_with("_count") {
            let v2 = after
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("counter {name} vanished"))
                .1;
            assert!(v2 >= *v1, "counter {name} decreased: {v1} -> {v2}");
        }
    }
    let records_gauge = after
        .iter()
        .find(|(n, _)| n == "mergepurge_records")
        .expect("records gauge")
        .1;
    assert_eq!(records_gauge as u64, total);
    assert!(
        after
            .iter()
            .any(|(n, _)| n.starts_with("mergepurge_window_rate{")),
        "window rate family present"
    );
    assert_eq!(
        after
            .iter()
            .find(|(n, _)| n == "mergepurge_batch_ingest_duration_seconds_count")
            .expect("batch latency histogram")
            .1 as u64,
        parts.len() as u64
    );

    // The `metrics` wire command carries the same exposition.
    let wire = ask(&socket, r#"{"cmd":"metrics"}"#);
    expect_ok(&wire);
    let exposition = wire
        .get("exposition")
        .and_then(Json::as_str)
        .expect("exposition text");
    assert!(exposition.contains("mergepurge_records_keyed_total"));

    // Schema-6 stats: seq watermark, health, and windows that reflect
    // the batches just ingested (1m window, well inside resolution).
    let stats = ask(&socket, r#"{"cmd":"stats"}"#);
    expect_ok(&stats);
    assert_eq!(stats.get("schema").and_then(Json::as_u64), Some(6));
    assert_eq!(stats.get("seq").and_then(Json::as_u64), Some(2));
    let windows = stats
        .get("windows")
        .and_then(Json::as_array)
        .expect("windows section");
    assert_eq!(windows.len(), 3);
    let one_min = &windows[0];
    assert_eq!(one_min.get("window").and_then(Json::as_str), Some("1m"));
    assert_eq!(one_min.get("records").and_then(Json::as_u64), Some(total));
    assert_eq!(one_min.get("batches").and_then(Json::as_u64), Some(2));
    assert!(one_min.get("batch_p99_ns").and_then(Json::as_u64).unwrap() > 0);
    let health = stats.get("health").expect("health section");
    assert_eq!(health.get("ready").and_then(Json::as_bool), Some(true));
    // The window totals agree with the cumulative store counters (the
    // whole run fits in one window).
    assert_eq!(
        one_min.get("comparisons").and_then(Json::as_u64),
        stats
            .get("store")
            .and_then(|s| s.get("comparisons"))
            .and_then(Json::as_u64),
    );

    // query-matches carries the same watermark.
    let q = ask(&socket, r#"{"cmd":"query-matches","id":0}"#);
    expect_ok(&q);
    assert_eq!(q.get("seq").and_then(Json::as_u64), Some(2));

    shutdown_and_wait(&socket, &mut child);

    // --quiet: no status lines on stderr.
    let mut stderr = String::new();
    use std::io::Read as _;
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(
        stderr.is_empty(),
        "--quiet daemon wrote to stderr: {stderr:?}"
    );

    // Event log: every line is JSON with monotonically increasing seq,
    // and the expected lifecycle + per-batch events are present.
    let text = std::fs::read_to_string(&log).unwrap();
    let events: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).expect("event lines are JSON"))
        .collect();
    assert!(!events.is_empty());
    let seqs: Vec<u64> = events
        .iter()
        .map(|e| e.get("seq").and_then(Json::as_u64).unwrap())
        .collect();
    assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "gap-free seqs");
    let names: Vec<&str> = events
        .iter()
        .map(|e| e.get("event").and_then(Json::as_str).unwrap())
        .collect();
    for expected in [
        "starting",
        "metrics_listening",
        "journal_replayed",
        "listening",
        "batch_ingested",
        "shutdown_begun",
        "checkpoint_written",
        "stopped",
    ] {
        assert!(names.contains(&expected), "missing event {expected}");
    }
    assert_eq!(
        names.iter().filter(|n| **n == "batch_ingested").count(),
        2,
        "one summary per batch"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn event_log_rotates_and_top_renders() {
    let dir = tmp_dir("toplog");
    let socket = dir.join("mp.sock");
    let store = dir.join("store");
    let log = dir.join("ev.jsonl");
    let parts = batches(8888, 300, 3);

    // A 700-byte cap forces rotation within a few events.
    let mut child = spawn_daemon_with(
        &socket,
        &store,
        &[
            "--log",
            log.to_str().unwrap(),
            "--log-level",
            "debug",
            "--log-max-bytes",
            "700",
            "--quiet",
        ],
        false,
    );
    for part in &parts {
        expect_ok(&ask(&socket, &ingest_request(part)));
    }

    // `mergepurge top --iterations 1` renders one plain-text frame.
    let out = Command::new(env!("CARGO_BIN_EXE_mergepurge"))
        .args([
            "top",
            "--socket",
            socket.to_str().unwrap(),
            "--iterations",
            "1",
        ])
        .output()
        .expect("run mergepurge top");
    assert!(out.status.success(), "top exits 0: {out:?}");
    let frame = String::from_utf8(out.stdout).unwrap();
    assert!(frame.contains("mergepurge top"), "{frame}");
    assert!(frame.contains("ready yes"), "{frame}");
    assert!(frame.contains("records "), "{frame}");
    assert!(frame.contains("queue 0/"), "{frame}");
    assert!(frame.contains("1m"), "{frame}");
    assert!(frame.contains("p99"), "{frame}");
    assert!(!frame.contains('\u{1b}'), "single frame has no ANSI codes");

    shutdown_and_wait(&socket, &mut child);

    let rotated = dir.join("ev.jsonl.1");
    assert!(rotated.exists(), "log rotated at 700 bytes");
    // Both generations hold valid JSONL; the rotation boundary is
    // seq-contiguous.
    let head: Vec<Json> = std::fs::read_to_string(&rotated)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .collect();
    let tail: Vec<Json> = std::fs::read_to_string(&log)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .collect();
    assert!(!head.is_empty() && !tail.is_empty());
    let last_head = head.last().unwrap().get("seq").and_then(Json::as_u64);
    let first_tail = tail.first().unwrap().get("seq").and_then(Json::as_u64);
    assert_eq!(
        first_tail,
        last_head.map(|s| s + 1),
        "seq continues across rotation"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- tracing ---------------------------------------------------------

/// The one trace_id per batch must be the same string on the wire ack,
/// the `batch_ingested` event-log line, the flight-recorder span dump
/// (wire `trace` command, HTTP `/trace`, and the `mergepurge trace`
/// client), and the `stats` tracing section — on a live daemon whose
/// dump shows the one `shard_ingest` journal append per batch.
#[test]
fn trace_ids_flow_from_ack_to_event_log_and_flight_dump() {
    let dir = tmp_dir("tracing");
    let socket = dir.join("mp.sock");
    let store = dir.join("store");
    let log = dir.join("events.jsonl");
    let port = free_port();
    let parts = batches(3434, 400, 3);

    let mut child = spawn_daemon_with(
        &socket,
        &store,
        &[
            "--metrics-addr",
            &format!("127.0.0.1:{port}"),
            "--log",
            log.to_str().unwrap(),
            "--quiet",
        ],
        false,
    );

    // Every ack carries a distinct trace id.
    let mut acked_ids: Vec<String> = Vec::new();
    for part in &parts {
        let reply = ask(&socket, &ingest_request(part));
        expect_ok(&reply);
        let id = reply
            .get("trace_id")
            .and_then(Json::as_str)
            .expect("ack carries trace_id")
            .to_string();
        assert!(!acked_ids.contains(&id), "trace ids are unique: {id}");
        acked_ids.push(id);
    }

    // stats: the tracing section names the last batch's trace id and the
    // recorder retains one entry per batch (plus the startup sweep).
    let stats = ask(&socket, r#"{"cmd":"stats"}"#);
    expect_ok(&stats);
    let tracing = stats.get("tracing").expect("schema-6 tracing section");
    assert_eq!(
        tracing.get("last_trace_id").and_then(Json::as_str),
        Some(acked_ids.last().unwrap().as_str()),
        "{stats}"
    );
    assert!(
        tracing
            .get("flight_entries")
            .and_then(Json::as_u64)
            .unwrap()
            >= parts.len() as u64,
        "{stats}"
    );

    // Wire `trace` command: a Chrome trace document containing every
    // acked trace id, the engine lane, and one `shard_ingest` span per
    // batch: the journal append, labelled `shard=0 seq=S trace=T`.
    let wire = ask(&socket, r#"{"cmd":"trace"}"#);
    expect_ok(&wire);
    assert_eq!(
        wire.get("format").and_then(Json::as_str),
        Some("chrome-trace-json")
    );
    let dump = wire
        .get("trace")
        .and_then(Json::as_str)
        .expect("trace document");
    let parsed = Json::parse(dump).expect("trace document is valid JSON");
    assert!(
        parsed.get("traceEvents").and_then(Json::as_array).is_some(),
        "chrome trace shape"
    );
    for id in &acked_ids {
        assert!(dump.contains(id.as_str()), "dump misses trace id {id}");
    }
    assert!(dump.contains("\"engine\""), "dump misses the engine lane");
    let appends: Vec<&str> = parsed
        .get("traceEvents")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("shard_ingest"))
        .filter_map(|e| e.get("args")?.get("label")?.as_str())
        .collect();
    assert_eq!(
        appends.len(),
        parts.len(),
        "one append per batch: {appends:?}"
    );
    for (seq, id) in (1..).zip(&acked_ids) {
        let label = format!("shard=0 seq={seq} trace={id}");
        assert!(appends.contains(&label.as_str()), "no {label}: {appends:?}");
    }
    for span in [
        "batch",
        "shard_ingest",
        "key_merge",
        "shard_scan",
        "closure_reconcile",
    ] {
        assert!(dump.contains(span), "dump misses span {span}");
    }

    // HTTP `/trace` serves the same document.
    let (status, body) = http_get(port, "/trace");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"traceEvents\""), "{body}");
    for id in &acked_ids {
        assert!(body.contains(id.as_str()), "/trace misses trace id {id}");
    }

    // `mergepurge trace` writes the dump to a file.
    let out_file = dir.join("flight.json");
    let out = Command::new(env!("CARGO_BIN_EXE_mergepurge"))
        .args([
            "trace",
            "--socket",
            socket.to_str().unwrap(),
            "--out",
            out_file.to_str().unwrap(),
        ])
        .output()
        .expect("run mergepurge trace");
    assert!(out.status.success(), "trace exits 0: {out:?}");
    let written = std::fs::read_to_string(&out_file).unwrap();
    Json::parse(&written).expect("written trace file is valid JSON");
    assert!(written.contains(acked_ids[0].as_str()));

    // `mergepurge top --json` emits one machine-readable digest frame.
    let out = Command::new(env!("CARGO_BIN_EXE_mergepurge"))
        .args(["top", "--socket", socket.to_str().unwrap(), "--json"])
        .output()
        .expect("run mergepurge top --json");
    assert!(out.status.success(), "top --json exits 0: {out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.lines().count(), 1, "one frame per line: {text}");
    assert!(!text.contains('\u{1b}'), "no ANSI codes in --json output");
    let frame = Json::parse(text.trim()).expect("top --json frame is JSON");
    assert_eq!(frame.get("schema").and_then(Json::as_u64), Some(6));
    assert_eq!(
        frame.get("seq").and_then(Json::as_u64),
        Some(parts.len() as u64)
    );
    assert_eq!(
        frame
            .get("tracing")
            .and_then(|t| t.get("last_trace_id"))
            .and_then(Json::as_str),
        Some(acked_ids.last().unwrap().as_str())
    );
    assert!(frame.get("shards").is_none(), "no shards section: {frame}");

    shutdown_and_wait(&socket, &mut child);

    // Event log: the batch_ingested lines carry the acked trace ids, in
    // ingest order.
    let text = std::fs::read_to_string(&log).unwrap();
    let logged_ids: Vec<String> = text
        .lines()
        .map(|l| Json::parse(l).expect("event lines are JSON"))
        .filter(|e| e.get("event").and_then(Json::as_str) == Some("batch_ingested"))
        .map(|e| {
            e.get("trace_id")
                .and_then(Json::as_str)
                .expect("batch_ingested carries trace_id")
                .to_string()
        })
        .collect();
    assert_eq!(logged_ids, acked_ids, "event log matches wire acks");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--slow-batch-ms 1` pins over-threshold batches in the flight
/// recorder and emits a `slow_batch` event with the per-phase breakdown.
#[test]
fn slow_batches_are_pinned_and_logged_with_phase_breakdown() {
    let dir = tmp_dir("slowbatch");
    let socket = dir.join("mp.sock");
    let store = dir.join("store");
    let log = dir.join("events.jsonl");
    // One big batch through the journal fsync and the scan takes well
    // over 1ms on any real machine.
    let big = batches(2727, 2000, 1).remove(0);

    let mut child = spawn_daemon_with(
        &socket,
        &store,
        &[
            "--slow-batch-ms",
            "1",
            "--log",
            log.to_str().unwrap(),
            "--quiet",
        ],
        false,
    );
    let reply = ask(&socket, &ingest_request(&big));
    expect_ok(&reply);
    let trace_id = reply
        .get("trace_id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    let stats = ask(&socket, r#"{"cmd":"stats"}"#);
    expect_ok(&stats);
    let pinned = stats
        .get("tracing")
        .and_then(|t| t.get("flight_pinned"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(pinned >= 1, "slow batch pinned in the recorder: {stats}");

    shutdown_and_wait(&socket, &mut child);

    let text = std::fs::read_to_string(&log).unwrap();
    let slow: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .filter(|e| e.get("event").and_then(Json::as_str) == Some("slow_batch"))
        .collect();
    assert!(!slow.is_empty(), "slow_batch event emitted:\n{text}");
    let ev = &slow[0];
    assert_eq!(
        ev.get("trace_id").and_then(Json::as_str),
        Some(trace_id.as_str())
    );
    for key in [
        "duration_ms",
        "threshold_ms",
        "critical_phase",
        "key_merge_ms",
    ] {
        assert!(ev.get(key).is_some(), "slow_batch misses {key}: {ev}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--log-keep 3` retains three rotated generations (plus the live
/// file), oldest dropped, seqs contiguous across the surviving chain.
#[test]
fn log_keep_three_retains_three_generations() {
    let dir = tmp_dir("logkeep");
    let socket = dir.join("mp.sock");
    let store = dir.join("store");
    let log = dir.join("ev.jsonl");
    let parts = batches(9898, 360, 6);

    let mut child = spawn_daemon_with(
        &socket,
        &store,
        &[
            "--log",
            log.to_str().unwrap(),
            "--log-level",
            "debug",
            "--log-max-bytes",
            "250",
            "--log-keep",
            "3",
            "--quiet",
        ],
        false,
    );
    for part in &parts {
        expect_ok(&ask(&socket, &ingest_request(part)));
    }
    shutdown_and_wait(&socket, &mut child);

    assert!(log.exists());
    assert!(dir.join("ev.jsonl.1").exists(), "generation 1 kept");
    assert!(dir.join("ev.jsonl.2").exists(), "generation 2 kept");
    assert!(dir.join("ev.jsonl.3").exists(), "generation 3 kept");
    assert!(
        !dir.join("ev.jsonl.4").exists(),
        "generations past --log-keep are dropped"
    );
    // Oldest-to-newest chain is valid JSONL with contiguous seqs.
    let mut seqs: Vec<u64> = Vec::new();
    for gen in ["ev.jsonl.3", "ev.jsonl.2", "ev.jsonl.1", "ev.jsonl"] {
        for line in std::fs::read_to_string(dir.join(gen)).unwrap().lines() {
            let e = Json::parse(line).expect("event lines are JSON");
            seqs.push(e.get("seq").and_then(Json::as_u64).unwrap());
        }
    }
    assert!(seqs.len() >= 4, "events span the four surviving files");
    assert!(
        seqs.windows(2).all(|w| w[1] == w[0] + 1),
        "seqs contiguous across generations: {seqs:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- one published view ----------------------------------------------

/// `stats` and the exposition render from the one view the worker
/// publishes: after several ingests, each engine number `stats` reports
/// equals its Prometheus sample, and neither names a shard.
#[test]
fn stats_and_metrics_report_the_same_published_numbers() {
    let dir = tmp_dir("one-source");
    let socket = dir.join("mp.sock");
    let mut child = spawn_daemon(&socket, &dir.join("store"));
    for part in batches(8080, 450, 3) {
        expect_ok(&ask(&socket, &ingest_request(&part)));
    }
    let stats = ask(&socket, r#"{"cmd":"stats"}"#);
    expect_ok(&stats);
    let metrics = ask(&socket, r#"{"cmd":"metrics"}"#);
    let text = metrics.get("exposition").and_then(Json::as_str).unwrap();
    let samples = prom_samples(text);
    let sample = |name: &str| {
        let found = samples.iter().find(|(n, _)| n == name);
        found.unwrap_or_else(|| panic!("no {name} sample")).1 as u64
    };
    let field = |path: &[&str]| {
        let v = path.iter().try_fold(&stats, |v, k| v.get(k));
        v.and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("no {path:?} in {stats}"))
    };
    for (path, name) in [
        (&["store", "records"][..], "mergepurge_records"),
        (&["seq"], "mergepurge_sequence"),
        (&["health", "journal_lag"], "mergepurge_journal_lag_batches"),
        (
            &["quality", "largest_cluster"],
            "mergepurge_largest_cluster_size",
        ),
        (&["quality", "clusters"], "mergepurge_duplicate_clusters"),
    ] {
        assert_eq!(field(path), sample(name), "{path:?} vs {name}");
    }
    assert_eq!(field(&["seq"]), 3);
    assert!(stats.get("shards").is_none(), "{stats}");
    assert!(!text.contains("shard"), "{text}");
    shutdown_and_wait(&socket, &mut child);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// How a hammer client reaches the daemon: Unix socket or TCP, sharing
/// the same length-prefixed JSON framing.
#[derive(Clone)]
enum Transport {
    Unix(PathBuf),
    Tcp(String),
}

impl Transport {
    /// Like [`ask`], retrying while the daemon finishes binding.
    fn ask(&self, payload: &str) -> Json {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let reply = match self {
                Transport::Unix(socket) => request(socket, payload),
                Transport::Tcp(addr) => request_tcp(addr, payload),
            };
            match reply {
                Ok(response) => return Json::parse(&response).expect("daemon speaks json"),
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => panic!("request failed: {e}"),
            }
        }
    }
}

/// 24 concurrent clients hammer a daemon with disjoint seeded batches.
/// No batch may be lost, every client's acked seq watermark must be
/// monotone, and the final deterministic store section must be
/// byte-identical to a second daemon fed the same batches serially in
/// acked-seq order.
fn hammer_daemon(name: &str, use_tcp: bool) {
    let dir = tmp_dir(name);
    let socket = dir.join("mp.sock");
    let store = dir.join("store");
    let addr = format!("127.0.0.1:{}", free_port());

    // A deliberately shallow queue so the hammer exercises backpressure
    // blocking (not just the happy path).
    let mut extra = vec!["--queue-depth", "2"];
    if use_tcp {
        extra.push("--listen");
        extra.push(&addr);
    }
    let mut child = spawn_daemon_with(&socket, &store, &extra, false);

    const CLIENTS: usize = 24;
    const BATCHES_PER_CLIENT: usize = 3;
    // Disjoint seeded batches: client i owns the records of seed 9000+i.
    let client_batches: Vec<Vec<Vec<Record>>> = (0..CLIENTS)
        .map(|i| batches(9_000 + i as u64, 30, BATCHES_PER_CLIENT))
        .collect();

    let transport = if use_tcp {
        Transport::Tcp(addr)
    } else {
        Transport::Unix(socket.clone())
    };

    // Every client ingests its batches in order, recording acked seqs.
    let acked: Vec<Vec<(u64, usize, usize)>> = std::thread::scope(|s| {
        let handles: Vec<_> = client_batches
            .iter()
            .enumerate()
            .map(|(i, parts)| {
                let transport = transport.clone();
                s.spawn(move || {
                    let mut seqs: Vec<(u64, usize, usize)> = Vec::new();
                    for (j, part) in parts.iter().enumerate() {
                        let reply = transport.ask(&ingest_request(part));
                        expect_ok(&reply);
                        let seq = reply
                            .get("seq")
                            .and_then(Json::as_u64)
                            .expect("ack carries the journal seq");
                        if let Some((prev, _, _)) = seqs.last() {
                            assert!(seq > *prev, "client {i}: watermark is monotone");
                        }
                        seqs.push((seq, i, j));
                    }
                    seqs
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Zero lost batches: acked seqs are exactly 1..=72, gap- and dup-free.
    let mut all: Vec<(u64, usize, usize)> = acked.into_iter().flatten().collect();
    all.sort_unstable();
    let got: Vec<u64> = all.iter().map(|&(s, _, _)| s).collect();
    let want: Vec<u64> = (1..=(CLIENTS * BATCHES_PER_CLIENT) as u64).collect();
    assert_eq!(got, want, "every batch acked exactly once, gap-free");

    let stats = transport.ask(r#"{"cmd":"stats"}"#);
    expect_ok(&stats);
    let hammered = stats.get("store").unwrap().clone();
    shutdown_and_wait(&socket, &mut child);

    // Golden: a single-worker daemon fed the reconstructed batch stream
    // serially, in acked-seq order.
    let golden_socket = dir.join("golden.sock");
    let mut child = spawn_daemon(&golden_socket, &dir.join("store-golden"));
    for &(_, i, j) in &all {
        expect_ok(&ask(&golden_socket, &ingest_request(&client_batches[i][j])));
    }
    assert_eq!(
        store_section(&golden_socket).to_string(),
        hammered.to_string(),
        "the hammered daemon matches the serial engine byte for byte"
    );
    shutdown_and_wait(&golden_socket, &mut child);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn hammer_24_clients_over_unix_socket_matches_serial_golden() {
    hammer_daemon("hammer-unix", false);
}

#[test]
fn hammer_24_clients_over_tcp_matches_serial_golden() {
    hammer_daemon("hammer-tcp", true);
}

/// Every file under `dir`, path to bytes.
fn tree(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.extend(tree(&path));
        } else {
            out.push((path.clone(), std::fs::read(&path).unwrap()));
        }
    }
    out.sort();
    out
}

/// A directory laid out as a sharded store — a `manifest.mpm` beside a
/// loaded snapshot, or only a `shard-0/journal.mpj` — holds batches
/// `serve` cannot replay: it must exit 1 naming the file rather than
/// serve an empty store beside them, and leave every byte as it was.
#[test]
fn serve_refuses_a_sharded_store_and_leaves_it_untouched() {
    let dir = tmp_dir("layout");
    let socket = dir.join("mp.sock");
    let input = dir.join("db.mp");
    let mp = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_mergepurge"))
            .args(args)
            .output()
            .unwrap();
        assert!(out.status.success(), "{args:?}: {out:?}");
    };
    let cfg = ["--window", "8", "--keys", "last_name,first_name"];
    mp(&[
        "generate",
        "--out",
        input.to_str().unwrap(),
        "--records",
        "300",
        "--seed",
        "7",
    ]);
    let manifest_store = dir.join("manifest");
    let mut load = vec!["load", "--input", input.to_str().unwrap()];
    load.extend(["--store", manifest_store.to_str().unwrap()]);
    load.extend(cfg);
    mp(&load);
    std::fs::write(manifest_store.join("manifest.mpm"), b"MPMF").unwrap();
    let shard_store = dir.join("shard-only");
    std::fs::create_dir_all(shard_store.join("shard-0")).unwrap();
    std::fs::write(shard_store.join("shard-0/journal.mpj"), b"MPJL").unwrap();

    for (store, want) in [
        (&manifest_store, "manifest.mpm"),
        (&shard_store, "shard-0/journal.mpj"),
    ] {
        let before = tree(store);
        let mut child = Command::new(env!("CARGO_BIN_EXE_mergepurge"))
            .args(["serve", "--socket", socket.to_str().unwrap()])
            .args(["--store", store.to_str().unwrap()])
            .args(cfg)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        // Either it exits, or it binds the socket and serves the wrong
        // store.
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            if let Some(status) = child.try_wait().unwrap() {
                break status;
            }
            if socket.exists() || Instant::now() > deadline {
                child.kill().unwrap();
                child.wait().unwrap();
                panic!("serve opened the sharded store {store:?}");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut stderr = String::new();
        std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
        assert_eq!(status.code(), Some(1), "{stderr}");
        assert!(stderr.contains(want), "{stderr}");
        assert_eq!(tree(store), before, "{store:?}: refusal modifies nothing");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- decision provenance --------------------------------------------

/// The `explain` wire command against a live TCP daemon must
/// return the exact evidence chain the serial in-process engine derives
/// on the same data — rule id, pass, batch seq, and the acked trace ids
/// — and the `mergepurge explain --addr` client must render it.
#[test]
fn explain_over_the_wire_matches_the_serial_engine() {
    let dir = tmp_dir("explain");
    let socket = dir.join("mp.sock");
    let addr = format!("127.0.0.1:{}", free_port());
    let parts = batches(3737, 400, 3);

    let mut child = spawn_daemon_with(&socket, &dir.join("store"), &["--listen", &addr], false);
    let tcp = Transport::Tcp(addr.clone());

    // Serial reference engine, fed the identical batches and annotated
    // with the trace ids the daemon acked — so even trace_id must agree.
    let theory = NativeEmployeeTheory::new();
    let rule_names = theory.rule_names();
    let mut serial = IncrementalMergePurge::new()
        .pass(KeySpec::last_name_key(), 8)
        .pass(KeySpec::first_name_key(), 8);
    for part in &parts {
        let reply = tcp.ask(&ingest_request(part));
        expect_ok(&reply);
        serial.add_batch(part.clone(), &theory);
        serial.note_batch_trace(
            reply
                .get("trace_id")
                .and_then(Json::as_str)
                .expect("ack carries trace id"),
        );
    }

    // Probe pairs: near and far members of real duplicate classes.
    let mut probes: Vec<(u32, u32)> = Vec::new();
    for class in serial.classes() {
        if class.len() >= 2 {
            probes.push((class[0], *class.last().unwrap()));
        }
        if probes.len() >= 16 {
            break;
        }
    }
    assert!(!probes.is_empty(), "the seeded data has duplicate classes");

    for &(a, b) in &probes {
        let reply = tcp.ask(&format!(r#"{{"cmd":"explain","a":{a},"b":{b}}}"#));
        expect_ok(&reply);
        assert_eq!(reply.get("connected").and_then(Json::as_bool), Some(true));
        let chain = reply
            .get("chain")
            .and_then(Json::as_array)
            .expect("connected pairs carry a chain");
        let want = serial.explain(a, b).expect("serial engine agrees");
        assert_eq!(chain.len(), want.len(), "chain length for ({a}, {b})");
        for (hop, evidence) in chain.iter().zip(&want) {
            assert_eq!(hop.get("a").and_then(Json::as_u64), Some(evidence.a as u64));
            assert_eq!(hop.get("b").and_then(Json::as_u64), Some(evidence.b as u64));
            assert_eq!(
                hop.get("rule_id").and_then(Json::as_u64),
                Some(evidence.rule_id as u64)
            );
            assert_eq!(
                hop.get("rule").and_then(Json::as_str),
                Some(rule_names[evidence.rule_id as usize].as_str()),
                "rule name resolves through the theory's table"
            );
            assert_eq!(
                hop.get("pass").and_then(Json::as_u64),
                Some(evidence.pass as u64)
            );
            assert_eq!(
                hop.get("batch_seq").and_then(Json::as_u64),
                Some(evidence.batch_seq)
            );
            assert_eq!(
                hop.get("trace_id").and_then(Json::as_str),
                evidence.trace_id.as_deref(),
                "wire chain carries the acked ingest trace id"
            );
        }
    }

    // Negative cases: records in different classes connect to nothing;
    // out-of-range ids are a protocol error, not a crash.
    let singleton = {
        let in_class: std::collections::HashSet<u32> =
            serial.classes().into_iter().flatten().collect();
        (0..serial.records().len() as u32)
            .find(|id| !in_class.contains(id))
            .expect("seeded data has singletons")
    };
    let other = probes[0].0;
    let reply = tcp.ask(&format!(
        r#"{{"cmd":"explain","a":{singleton},"b":{other}}}"#
    ));
    expect_ok(&reply);
    assert_eq!(reply.get("connected").and_then(Json::as_bool), Some(false));
    let oob = tcp.ask(r#"{"cmd":"explain","a":0,"b":999999}"#);
    assert_eq!(oob.get("ok").and_then(Json::as_bool), Some(false), "{oob}");

    // The client subcommand renders the same chain over TCP.
    let (a, b) = probes[0];
    let out = Command::new(env!("CARGO_BIN_EXE_mergepurge"))
        .args(["explain", "--addr", &addr])
        .args(["--a", &a.to_string(), "--b", &b.to_string()])
        .output()
        .expect("run mergepurge explain");
    assert!(out.status.success(), "explain exits 0: {out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("duplicates"), "verdict line: {text}");
    let want = serial.explain(a, b).unwrap();
    for evidence in &want {
        assert!(
            text.contains(rule_names[evidence.rule_id as usize].as_str()),
            "chain line names rule {}: {text}",
            evidence.rule_id
        );
    }

    shutdown_and_wait(&socket, &mut child);
    std::fs::remove_dir_all(&dir).unwrap();
}
