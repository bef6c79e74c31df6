//! The shared ring under concurrency: writers push while readers copy.
//! Every read must come back newest first, hold at most [`RING_CAP`]
//! entries, name no entry twice and hold no torn entry — one whose
//! fields or lists came from two different pushes.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};

use geosir_obs::{Entry, RequestKind, RequestRecord, Ring, RING_CAP};

const WRITERS: u64 = 4;
const READERS: usize = 3;
const PUSHES: u64 = 3_000;

/// Writer `t`'s `seq`-th record: every field and both lists are derived
/// from `(t, seq)`, and the lists' lengths vary, so a slot overwritten
/// from two pushes at once cannot pass [`check_whole`].
fn record(t: u64, seq: u64) -> RequestRecord {
    let id = (t << 32) | seq;
    let mut rec = RequestRecord::default();
    rec.begin(RequestKind::Query, id).note("writer", t).note("seq", seq);
    for _ in 0..seq % 5 {
        rec.stage("s", id);
    }
    (rec.total_us, rec.queue_us, rec.epoch) = (id, seq, t);
    rec
}

fn check_whole(rec: &RequestRecord) -> (u64, u64) {
    let (t, seq) = (rec.trace_id >> 32, rec.trace_id & 0xffff_ffff);
    assert_eq!((rec.total_us, rec.queue_us, rec.epoch), (rec.trace_id, seq, t), "torn: {rec:?}");
    assert_eq!(&rec.notes[..], &[("writer", t), ("seq", seq)][..], "torn: {rec:?}");
    assert_eq!(rec.stages.len() as u64, seq % 5, "torn: {rec:?}");
    assert!(rec.stages.iter().all(|&(_, v)| v == rec.trace_id), "torn: {rec:?}");
    (t, seq)
}

/// One read: bounded, no duplicates, each entry whole, and each
/// writer's entries in strictly falling order (newest first).
fn check_read(read: &[RequestRecord]) {
    assert!(read.len() <= RING_CAP, "{} entries", read.len());
    let mut seen = HashSet::new();
    let mut last_seq = [u64::MAX; WRITERS as usize];
    for rec in read {
        assert!(seen.insert(rec.trace_id), "trace {} read twice", rec.trace_id);
        let (t, seq) = check_whole(rec);
        assert!(seq < last_seq[t as usize], "writer {t}: {seq} after {}", last_seq[t as usize]);
        last_seq[t as usize] = seq;
    }
}

#[test]
fn concurrent_reads_are_bounded_newest_first_and_whole() {
    let ring = Ring::<RequestRecord>::new(RING_CAP);
    let done = AtomicBool::new(false);
    let reads = std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|t| {
                let ring = &ring;
                s.spawn(move || {
                    for seq in 0..PUSHES {
                        ring.push(&record(t, seq));
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let (ring, done) = (&ring, &done);
                s.spawn(move || {
                    let mut reads = 0u64;
                    while !done.load(Ordering::Relaxed) {
                        check_read(&ring.recent());
                        if r == 0 {
                            // the rendered array is as bounded as the copy
                            let json = ring.to_json();
                            assert!(json.matches("\"trace_id\"").count() <= RING_CAP);
                        }
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        readers.into_iter().map(|r| r.join().unwrap()).sum::<u64>()
    });
    assert!(reads > 0);
    let last = ring.recent();
    assert_eq!(last.len(), RING_CAP);
    check_read(&last);
    let mut line = String::new();
    last[0].to_json(&mut line);
    assert!(line.starts_with("{\"trace_id\":") && line.ends_with('}'), "{line}");
}
