//! Crash-recovery harness: `kill -9` stand-ins at instrumented crash
//! points. The parent test re-executes this test binary as a child
//! process with a `GEOSIR_CRASHPOINT` armed; the child runs a durable
//! server in-process and prints one `ACKED <tri> <id>` line (flushed)
//! per acknowledged write until the armed point `abort()`s it. The
//! parent then recovers from the same data directory and verifies the
//! invariant the WAL exists for: **every acked write survives**. A
//! second child boots a cluster instead, so that the router's crash
//! dump is checked where the cluster arms it.
//!
//! Only built with `--features failpoints`; the hooks are compiled out
//! of production binaries entirely.

#![cfg(feature = "failpoints")]

mod common;

use common::{serve_cfg, template, tmpdir, tri};

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use geosir_serve::cluster::{start_cluster, ClusterConfig};
use geosir_serve::{serve_durable, Client, DurabilityConfig};
use geosir_storage::wal::FsyncPolicy;

const CHILD_DIR_ENV: &str = "GEOSIR_CRASH_DIR";

fn durability(dir: &PathBuf) -> DurabilityConfig {
    let mut d = DurabilityConfig::new(dir);
    d.fsync = FsyncPolicy::Always;
    d.checkpoint_every = 16;
    d
}

/// The crashing workload. A no-op unless spawned by a parent test with
/// [`CHILD_DIR_ENV`] set — `cargo test` runs it directly as an instant
/// pass. Inserts shapes against a durable server in-process and reports
/// each ack on stdout; the armed crash point aborts the whole process
/// (server threads included) partway through.
#[test]
fn crash_child_workload() {
    let Ok(dir) = std::env::var(CHILD_DIR_ENV) else { return };
    let dir = PathBuf::from(dir);
    let (handle, _) = serve_durable("127.0.0.1:0", &template(), durability(&dir), serve_cfg())
        .expect("child: serve_durable");
    let mut c = Client::connect(handle.addr()).expect("child: connect");
    let out = std::io::stdout();
    for i in 0..64u64 {
        if let Ok(Some((_, id))) = c.insert(i as u32, &tri(i)) {
            // flush per line: abort() discards buffered stdout
            let mut o = out.lock();
            writeln!(o, "ACKED {i} {id}").unwrap();
            o.flush().unwrap();
        }
        // breathing room so the background checkpointer can interleave
        std::thread::sleep(Duration::from_millis(2));
    }
    // crash points in the checkpointer may fire after the last insert
    std::thread::sleep(Duration::from_secs(3));
}

/// The cluster's crashing workload, a no-op unless spawned with
/// [`CHILD_DIR_ENV`] set: two shards with no replicas, in-process
/// behind their router; four writes routed through it (the armed point
/// lets four WAL appends pass), three routed reads, then a fifth write
/// whose append aborts the process.
#[test]
fn crash_child_cluster_workload() {
    let Ok(dir) = std::env::var(CHILD_DIR_ENV) else { return };
    let cfg = ClusterConfig { replicas: 0, serve: serve_cfg(), ..ClusterConfig::new(dir) };
    let cluster = start_cluster("127.0.0.1:0", &template(), cfg).expect("child: start_cluster");
    let mut c = Client::connect(cluster.addr()).expect("child: connect");
    let out = std::io::stdout();
    for i in 0..4u64 {
        let (_, id) = c.insert_retrying(i as u32, &tri(i)).expect("child: routed insert");
        let mut o = out.lock();
        writeln!(o, "ACKED {i} {id}").unwrap();
        o.flush().unwrap();
    }
    for i in 0..3u64 {
        assert!(!c.query(&tri(i), 1).expect("child: routed query").rejected);
    }
    let _ = c.insert(4, &tri(4));
    std::thread::sleep(Duration::from_secs(3));
}

/// Spawn the child with `point` armed, wait for it to abort, and return
/// the `(tri index, id)` pairs it acked before dying.
fn run_crashing_child(dir: &PathBuf, point: &str) -> Vec<(u64, u64)> {
    crashing_child("crash_child_workload", dir, point)
}

/// [`run_crashing_child`] with the child test `test`.
fn crashing_child(test: &str, dir: &PathBuf, point: &str) -> Vec<(u64, u64)> {
    let exe = std::env::current_exe().unwrap();
    let mut child = Command::new(exe)
        .args([test, "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD_DIR_ENV, dir)
        .env("GEOSIR_CRASHPOINT", point)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn child");

    let start = Instant::now();
    let status = loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => break status,
            None if start.elapsed() > Duration::from_secs(20) => {
                child.kill().ok();
                panic!("crash point `{point}` never fired within 20s");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    assert!(
        !status.success(),
        "crash point `{point}` did not abort the child (exit: {status:?})"
    );

    let mut out = String::new();
    use std::io::Read as _;
    child.stdout.take().unwrap().read_to_string(&mut out).unwrap();
    let acked: Vec<(u64, u64)> = out
        .lines()
        .filter_map(|l| {
            // the harness's `test NAME ... ` shares the first ack's line
            let (_, ack) = l.split_once("ACKED ")?;
            let (i, id) = ack.split_once(' ')?;
            Some((i.parse().ok()?, id.trim().parse().ok()?))
        })
        .collect();
    assert!(!acked.is_empty(), "child acked nothing before `{point}` fired");
    acked
}

/// Recover from `dir` with a clean server and assert every acked write
/// is present (recovery may legitimately contain *more*: writes logged
/// but not yet acked at crash time).
fn assert_acked_survive(dir: &PathBuf, point: &str, acked: &[(u64, u64)]) {
    let (handle, report) = serve_durable("127.0.0.1:0", &template(), durability(dir), serve_cfg())
        .unwrap_or_else(|e| panic!("recovery after `{point}` failed: {e}"));
    let mut c = Client::connect(handle.addr()).unwrap();
    let stats = c.stats().unwrap();
    assert!(
        stats.live_shapes >= acked.len() as u64,
        "`{point}`: {} acked but only {} recovered ({report:?})",
        acked.len(),
        stats.live_shapes
    );
    for &(i, id) in acked {
        let reply = c.query(&tri(i), 1).unwrap();
        assert!(
            reply.matches.iter().any(|m| m.shape == id),
            "`{point}`: acked shape {id} (tri {i}) lost; report {report:?}"
        );
    }
    handle.shutdown();
    handle.join();
}

fn crash_and_recover(name: &str, point: &str) {
    let dir = tmpdir(name);
    let acked = run_crashing_child(&dir, point);
    assert_acked_survive(&dir, point, &acked);
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash right after the WAL append+fsync, before the in-memory apply
/// and the ack. Everything previously acked was already applied AND
/// logged; the in-flight batch is logged but unacked (replay may
/// resurrect it — allowed).
#[test]
fn recovers_from_crash_after_wal_append() {
    crash_and_recover("post-append", "wal.post-append:6");
}

/// Crash mid-checkpoint: the `.tmp` checkpoint file is written but
/// never renamed. Recovery must not load it — it rebuilds from the
/// previous checkpoint (here: none) plus the full WAL — and removes it.
#[test]
fn recovers_from_crash_mid_checkpoint() {
    crash_and_recover("mid-ckpt", "checkpoint.mid");
}

/// Crash between installing the second checkpoint and retiring the
/// first: both are on disk. Recovery must take the newer (the older one's
/// WAL prefix was pruned by the first checkpoint's rotation), replay
/// above it, and retire the older.
#[test]
fn recovers_from_crash_before_checkpoint_retirement() {
    let point = "checkpoint.retire:1";
    let dir = tmpdir("retire");
    let acked = run_crashing_child(&dir, point);
    let checkpoints = |dir: &PathBuf| {
        std::fs::read_dir(dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".gsir"))
            .count()
    };
    assert_eq!(checkpoints(&dir), 2, "the crash must leave the older checkpoint behind");
    assert_acked_survive(&dir, point, &acked);
    assert_eq!(checkpoints(&dir), 1, "recovery retires the older checkpoint");
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash mid-rotation, the checkpointer's first step: the active segment
/// is synced, no new one is started yet and this round's checkpoint is
/// not written. Recovery replays the log above whatever checkpoint is
/// installed; a replayed record it already covers must be a no-op
/// (idempotent apply), not a double-insert.
#[test]
fn recovers_from_crash_mid_wal_rotation() {
    crash_and_recover("mid-rotate", "wal.mid-rotation");
}

/// An armed crash point must leave a readable dump in the data
/// directory: the request ring, flushed by the crash hook before
/// `abort()`, with the writes the child performed, each one whole.
#[test]
fn crash_leaves_readable_flight_dump() {
    let dir = tmpdir("flight-dump");
    let acked = run_crashing_child(&dir, "wal.post-append:6");
    let dump = std::fs::read_to_string(dir.join("flight.dump.json"))
        .expect("crash must write flight.dump.json to the data dir");
    assert!(dump.starts_with('['), "dump must be a JSON array: {dump}");
    assert!(dump.contains("\"kind\":\"insert\""), "acked inserts must be in the ring: {dump}");
    assert!(dump.contains("\"trace_id\":"), "{dump}");
    // the whole record: an insert carries its WAL and publish stages
    assert!(dump.contains("\"wal\":") && dump.contains("\"publish\":"), "{dump}");
    // one record per object
    assert_eq!(dump.matches("\"trace_id\"").count(), dump.matches("\"stages\"").count());
    assert!(!acked.is_empty());
    // and the dump does not interfere with normal recovery
    assert_acked_survive(&dir, "wal.post-append:6", &acked);
    std::fs::remove_dir_all(&dir).ok();
}

/// The router's request ring survives an armed crash point as well: the
/// cluster arms its dump in its data directory at boot, so the child's
/// three routed reads are in `router-flight.dump.json`, each a whole
/// record with a stage per shard and both shards answering.
#[test]
fn cluster_crash_leaves_readable_router_flight_dump() {
    let dir = tmpdir("router-flight-dump");
    let point = "wal.post-append:4";
    let acked = crashing_child("crash_child_cluster_workload", &dir, point);
    assert_eq!(acked.len(), 4, "four routed writes ack before the fifth aborts");
    let dump = std::fs::read_to_string(dir.join("router-flight.dump.json"))
        .expect("crash must write router-flight.dump.json to the cluster's data dir");
    let Json::Arr(records) = parse_json(&dump) else { panic!("dump must be a JSON array: {dump}") };
    assert_eq!(records.len(), 3, "the router records its routed reads: {dump}");
    for r in &records {
        assert_eq!(r.get("kind"), Some(&Json::Str("routed_query".into())), "{dump}");
        let stages = r.get("stages").expect("a routed record has stages");
        assert!(stages.get("shard0").is_some() && stages.get("shard1").is_some(), "{dump}");
        let notes = r.get("notes").expect("a routed record has notes");
        assert_eq!(notes.get("shards_ok"), Some(&Json::Num(2.0)), "{dump}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A JSON value, as much of JSON as a request record uses: numbers,
/// strings without escapes, arrays and objects, no whitespace.
#[derive(Debug, PartialEq)]
enum Json {
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// `text` as one [`Json`] value; panics at the first byte that is not.
fn parse_json(text: &str) -> Json {
    fn list(b: &[u8], i: &mut usize, close: u8, mut item: impl FnMut(&mut usize)) {
        *i += 1;
        if b.get(*i) == Some(&close) {
            *i += 1;
            return;
        }
        loop {
            item(i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(c) if *c == close => {
                    *i += 1;
                    break;
                }
                c => panic!("byte {i}: want ',' or '{}', got {c:?}", close as char),
            }
        }
    }
    fn string(b: &[u8], i: &mut usize) -> String {
        assert_eq!(b.get(*i), Some(&b'"'), "byte {i}: want a string");
        let len = b[*i + 1..].iter().position(|&c| c == b'"').expect("unterminated string");
        let s = String::from_utf8(b[*i + 1..*i + 1 + len].to_vec()).unwrap();
        assert!(!s.contains('\\'), "escapes are not expected: {s}");
        *i += len + 2;
        s
    }
    fn value(b: &[u8], i: &mut usize) -> Json {
        match b.get(*i) {
            Some(b'[') => {
                let mut items = Vec::new();
                list(b, i, b']', |i| items.push(value(b, i)));
                Json::Arr(items)
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                list(b, i, b'}', |i| {
                    let key = string(b, i);
                    assert_eq!(b.get(*i), Some(&b':'), "byte {i}: want ':'");
                    *i += 1;
                    fields.push((key, value(b, i)));
                });
                Json::Obj(fields)
            }
            Some(b'"') => Json::Str(string(b, i)),
            _ => {
                let len = b[*i..]
                    .iter()
                    .position(|c| !(c.is_ascii_digit() || b"-+.eE".contains(c)))
                    .unwrap_or(b.len() - *i);
                let num = std::str::from_utf8(&b[*i..*i + len]).unwrap();
                *i += len;
                Json::Num(num.parse().unwrap_or_else(|_| panic!("byte {i}: not a number: {num:?}")))
            }
        }
    }
    let b = text.as_bytes();
    let mut i = 0;
    let v = value(b, &mut i);
    assert_eq!(i, b.len(), "trailing bytes after the value");
    v
}
