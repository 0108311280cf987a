//! The daemon's read path against the O(store) oracle, on the real
//! `mergepurge` binary.
//!
//! `query-matches` is answered on the connection's own thread from the
//! read view the engine worker publishes before it acknowledges a batch
//! (docs/SERVING.md). Two promises are pinned here from outside:
//!
//! * **Bytes.** For *every* id the reply is byte-identical to one rendered
//!   from `IncrementalMergePurge::classes()` — the clone-and-sweep oracle
//!   the daemon used to answer from — on an uninterrupted daemon,
//!   across a `kill -9` + journal replay, and after a
//!   `bulk-load` (whose state is restored, so the ring is rebuilt).
//! * **Ordering.** A read does not queue behind a write in service, and a
//!   client that has seen an ack reads that batch.

#![cfg(unix)]

use merge_purge::{IncrementalMergePurge, KeySpec};
use merge_purge_repro::serve::{ingest_request, json::Json, read_frame, write_frame};
use mp_datagen::{DatabaseGenerator, GeneratorConfig};
use mp_record::{io as rio, Record};
use mp_rules::NativeEmployeeTheory;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const WINDOW: usize = 8;
const KEYS: &str = "last_name,first_name,address";

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mp-read-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn generate(seed: u64, originals: usize) -> Vec<Record> {
    DatabaseGenerator::new(
        GeneratorConfig::new(originals)
            .duplicate_fraction(0.4)
            .seed(seed),
    )
    .generate()
    .records
}

fn in_batches(records: &[Record], parts: usize) -> Vec<Vec<Record>> {
    let chunk = records.len().div_ceil(parts);
    records.chunks(chunk).map(<[Record]>::to_vec).collect()
}

fn spawn_daemon(socket: &Path, store: &Path, extra: &[&str]) -> Child {
    let child = Command::new(env!("CARGO_BIN_EXE_mergepurge"))
        .args(["serve", "--socket", socket.to_str().unwrap()])
        .args(["--store", store.to_str().unwrap()])
        .args(["--window", &WINDOW.to_string(), "--keys", KEYS])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mergepurge serve");
    let deadline = Instant::now() + Duration::from_secs(20);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "daemon never bound {socket:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    child
}

/// One persistent connection: replies come back as the raw frame text.
struct Conn(UnixStream);

impl Conn {
    fn open(socket: &Path) -> Conn {
        // The daemon may momentarily lag between binding and accepting.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(socket) {
                Ok(stream) => return Conn(stream),
                Err(e) if Instant::now() >= deadline => panic!("connect {socket:?}: {e}"),
                Err(_) => std::thread::sleep(Duration::from_millis(25)),
            }
        }
    }

    fn ask(&mut self, payload: &str) -> String {
        write_frame(&mut self.0, payload).expect("send request");
        read_frame(&mut self.0)
            .expect("read reply")
            .expect("daemon closed without replying")
    }

    fn ask_ok(&mut self, payload: &str) -> Json {
        let reply = Json::parse(&self.ask(payload)).expect("daemon speaks json");
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "{reply}"
        );
        reply
    }

    fn query(&mut self, id: u64) -> String {
        self.ask(&format!(r#"{{"cmd":"query-matches","id":{id}}}"#))
    }

    fn shutdown(mut self, child: &mut Child) {
        self.ask_ok(r#"{"cmd":"shutdown"}"#);
        assert!(child.wait().expect("daemon exit").success());
    }
}

fn oracle_engine() -> IncrementalMergePurge {
    IncrementalMergePurge::new()
        .pass(KeySpec::last_name_key(), WINDOW)
        .pass(KeySpec::first_name_key(), WINDOW)
        .pass(KeySpec::address_key(), WINDOW)
}

/// Every id's duplicate class as the clone-and-sweep oracle lists it:
/// members ascending, `[id]` for a record in no multi-member class.
fn oracle_classes(engine: &IncrementalMergePurge) -> Vec<Vec<u32>> {
    let mut class_of: Vec<Vec<u32>> = (0..engine.records().len() as u32)
        .map(|id| vec![id])
        .collect();
    for class in engine.classes() {
        for &id in &class {
            class_of[id as usize] = class.clone();
        }
    }
    class_of
}

/// The reply bytes, written out by hand so the daemon's encoder is pinned
/// from outside.
fn rendered(id: usize, class: &[u32], seq: u64) -> String {
    let members: Vec<String> = class.iter().map(u32::to_string).collect();
    format!(
        r#"{{"ok":true,"id":{id},"class":[{}],"seq":{seq}}}"#,
        members.join(",")
    )
}

/// Asks for every id — and past both ends of the id space — and compares
/// raw reply bytes with the oracle's.
fn assert_reads_match(conn: &mut Conn, engine: &IncrementalMergePurge, seq: u64, what: &str) {
    let classes = oracle_classes(engine);
    assert!(
        classes.iter().any(|c| c.len() > 1) && classes.iter().any(|c| c.len() == 1),
        "{what}: the database must hold duplicates and singletons"
    );
    for (id, class) in classes.iter().enumerate() {
        assert_eq!(
            conn.query(id as u64),
            rendered(id, class, seq),
            "{what}: id {id}"
        );
    }
    let n = classes.len();
    assert_eq!(
        conn.query(n as u64),
        format!(r#"{{"ok":false,"error":"record id {n} out of range ({n} records)"}}"#),
        "{what}: one past the end"
    );
    assert_eq!(
        conn.query(u64::from(u32::MAX) + 1),
        r#"{"ok":false,"error":"id out of range"}"#,
        "{what}: beyond u32"
    );
}

#[test]
fn every_reply_is_byte_identical_to_the_classes_oracle() {
    let dir = tmp_dir("oracle");
    let theory = NativeEmployeeTheory::new();
    let records = generate(2201, 2_000);
    let batches = in_batches(&records, 4);
    let mut oracle = oracle_engine();
    for batch in &batches {
        oracle.add_batch(batch.clone(), &theory);
    }

    // Uninterrupted.
    let socket = dir.join("single.sock");
    let mut child = spawn_daemon(&socket, &dir.join("single-store"), &[]);
    let mut conn = Conn::open(&socket);
    for batch in &batches {
        conn.ask_ok(&ingest_request(batch));
    }
    assert_reads_match(&mut conn, &oracle, 4, "single");
    conn.shutdown(&mut child);

    // kill -9 after two acknowledged batches: the restart restores
    // nothing (no snapshot was written) and replays the journal.
    let socket = dir.join("crash.sock");
    let store = dir.join("crash-store");
    let mut child = spawn_daemon(&socket, &store, &[]);
    let mut conn = Conn::open(&socket);
    for batch in &batches[..2] {
        conn.ask_ok(&ingest_request(batch));
    }
    child.kill().expect("kill -9");
    child.wait().unwrap();
    std::fs::remove_file(&socket).unwrap();
    let mut child = spawn_daemon(&socket, &store, &[]);
    let mut conn = Conn::open(&socket);
    for batch in &batches[2..] {
        conn.ask_ok(&ingest_request(batch));
    }
    assert_reads_match(&mut conn, &oracle, 4, "kill -9 + replay");
    // A graceful restart comes up on the final snapshot: ring and sizes
    // are rebuilt from the restored forest.
    conn.shutdown(&mut child);
    let mut child = spawn_daemon(&socket, &store, &[]);
    let mut conn = Conn::open(&socket);
    assert_reads_match(&mut conn, &oracle, 4, "snapshot restore");
    conn.shutdown(&mut child);

    // bulk-load commits the whole file as the first batch.
    let mut one_batch = oracle_engine();
    one_batch.add_batch(records.clone(), &theory);
    let input = dir.join("db.mp");
    rio::write_records(std::fs::File::create(&input).unwrap(), &records).unwrap();
    let socket = dir.join("bulk.sock");
    let mut child = spawn_daemon(&socket, &dir.join("bulk-store"), &[]);
    let mut conn = Conn::open(&socket);
    conn.ask_ok(&format!(
        r#"{{"cmd":"bulk-load","path":"{}"}}"#,
        input.display()
    ));
    assert_reads_match(&mut conn, &one_batch, 1, "bulk-load");
    conn.shutdown(&mut child);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The daemon's live `mergepurge_comparisons_total`, scraped over the wire
/// (`metrics` is answered from shared state, never by the engine worker).
fn comparisons(conn: &mut Conn) -> u64 {
    let reply = conn.ask_ok(r#"{"cmd":"metrics"}"#);
    let text = reply.get("exposition").and_then(Json::as_str).unwrap();
    text.lines()
        .find_map(|l| l.strip_prefix("mergepurge_comparisons_total "))
        .expect("comparisons counter in the exposition")
        .parse()
        .unwrap()
}

fn seq_of(reply: &str) -> u64 {
    Json::parse(reply)
        .unwrap()
        .get("seq")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no seq in {reply}"))
}

/// Off the worker, and read-your-writes — by the order of events alone.
///
/// The engine worker reports a pass's comparisons when that pass's scan
/// ends, so once the counter has moved the worker is *inside* the batch,
/// with two of its three passes still to run. A `query-matches` sent then
/// would, if it queued behind the ingest, come back carrying the new
/// `seq`. Coming back with the old one proves it was answered while the
/// write was in service: the new view is published before the ack is
/// sent, so an old-`seq` reply was produced before the ack existed.
#[test]
fn reads_overtake_a_write_in_service_and_see_every_acked_batch() {
    let dir = tmp_dir("order");
    let theory = NativeEmployeeTheory::new();
    let records = generate(2202, 24_000);
    // A small base, then three deliberately large batches.
    let (base, rest) = records.split_at(2_000);
    let mut batches = vec![base.to_vec()];
    batches.extend(in_batches(rest, 3));

    // The oracle after each batch, and per large batch a base record
    // whose class that batch grows.
    let mut oracle = oracle_engine();
    let mut states = Vec::new();
    for batch in &batches {
        oracle.add_batch(batch.clone(), &theory);
        states.push(oracle_classes(&oracle));
    }
    let probes: Vec<usize> = (1..batches.len())
        .map(|k| {
            (0..base.len())
                .find(|&id| states[k][id] != states[k - 1][id])
                .expect("every large batch duplicates some base record")
        })
        .collect();

    let socket = dir.join("mp.sock");
    let mut child = spawn_daemon(&socket, &dir.join("store"), &[]);
    let (mut writer, mut reader, mut scraper) = (
        Conn::open(&socket),
        Conn::open(&socket),
        Conn::open(&socket),
    );
    writer.ask_ok(&ingest_request(&batches[0]));

    let mut overtook = 0;
    for (k, batch) in batches.iter().enumerate().skip(1) {
        let (old_seq, new_seq) = (k as u64, k as u64 + 1);
        let probe = probes[k - 1];
        let before = comparisons(&mut scraper);
        let payload = ingest_request(batch);
        std::thread::scope(|s| {
            let ack = s.spawn(|| writer.ask_ok(&payload));
            while comparisons(&mut scraper) == before {
                std::thread::yield_now();
            }
            // The worker is inside batch k+1. Whatever this read sees, it
            // is one consistent state.
            let during = reader.query(probe as u64);
            let seen = seq_of(&during);
            assert!(seen == old_seq || seen == new_seq, "{during}");
            assert_eq!(
                during,
                rendered(probe, &states[seen as usize - 1][probe], seen)
            );
            overtook += usize::from(seen == old_seq);

            let ack = ack.join().expect("ingest connection");
            assert_eq!(ack.get("seq").and_then(Json::as_u64), Some(new_seq));
        });
        // The ack has been seen: the very next read carries the new seq
        // and the new members.
        assert_eq!(
            reader.query(probe as u64),
            rendered(probe, &states[k][probe], new_seq),
            "read-your-writes after batch {new_seq}"
        );
    }
    // One round would do; three make the proof indifferent to a round in
    // which the scheduler let the batch finish first.
    assert!(
        overtook > 0,
        "no read was answered while a write was in service"
    );
    reader.shutdown(&mut child);
    let _ = std::fs::remove_dir_all(&dir);
}
