//! The one bounded ring of `geosir-obs`: the last N entries, read newest
//! first, and at most one line sink. The lifecycle journal
//! ([`Registry::journal`](crate::Registry::journal)) and the request ring
//! ([`Registry::requests`](crate::Registry::requests)) are each one, so
//! `/debug/journal`, `/debug/last_queries` and the crash dump render the
//! same way, and each owner's JSONL file is the same kind of sink.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Entries a registry's rings keep: the depth of `/debug/journal`,
/// `/debug/last_queries` and a crash dump.
pub const RING_CAP: usize = 256;

/// What a ring keeps: a value that renders itself as one JSON object.
/// `clone_from` is how a pushed entry overwrites the oldest slot, so an
/// entry whose lists should keep their capacity says so there.
pub trait Entry: Clone {
    fn to_json(&self, out: &mut String);
}

/// A ring's line sink: sees every entry pushed once it is installed.
/// It owns its error handling (count and drop — never panic, never
/// block an emitter beyond one failed write).
type Sink<T> = Box<dyn Fn(&T) + Send + Sync>;

/// The last `cap` entries pushed, oldest overwritten first.
#[derive(Debug)]
struct Slots<T> {
    entries: Vec<T>,
    /// Entries ever pushed; `pushed % cap` is the slot the next one goes
    /// to, the newest is the one before it.
    pushed: u64,
}

impl<T: Entry> Slots<T> {
    fn newest_first(&self) -> impl Iterator<Item = &T> {
        let (newer, older) =
            self.entries.split_at((self.pushed % self.entries.len().max(1) as u64) as usize);
        newer.iter().rev().chain(older.iter().rev())
    }
}

/// A fixed-capacity ring of recent entries plus an optional sink.
pub struct Ring<T> {
    cap: usize,
    /// Invariant: nothing done under this lock can unwind — it clones
    /// entries, or renders them into a `String` or a sink's file — so a
    /// panic hook, which runs on the panicking thread, never finds it
    /// held by its own thread. The crash dump still reads through a
    /// poisoned lock, as every other reader does.
    slots: Mutex<Slots<T>>,
    sink: OnceLock<Sink<T>>,
}

impl<T> std::fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring").field("cap", &self.cap).finish_non_exhaustive()
    }
}

impl<T: Entry> Ring<T> {
    pub fn new(cap: usize) -> Ring<T> {
        let slots = Slots { entries: Vec::new(), pushed: 0 };
        Ring { cap: cap.max(1), slots: Mutex::new(slots), sink: OnceLock::new() }
    }

    fn lock(&self) -> MutexGuard<'_, Slots<T>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Copy `entry` into the ring, then hand it to the sink if one is
    /// installed. Once the ring has wrapped, the copy reuses the oldest
    /// slot (`clone_from`).
    pub fn push(&self, entry: &T) {
        let sink = {
            let mut slots = self.lock();
            if slots.entries.len() < self.cap {
                slots.entries.push(entry.clone());
            } else {
                let oldest = (slots.pushed % self.cap as u64) as usize;
                slots.entries[oldest].clone_from(entry);
            }
            slots.pushed += 1;
            // read under the lock: an entry is either held when the sink
            // is installed (and backfilled) or sees the sink, never both
            self.sink.get()
        };
        if let Some(sink) = sink {
            sink(entry);
        }
    }

    /// The entries held, newest first.
    pub fn recent(&self) -> Vec<T> {
        self.lock().newest_first().cloned().collect()
    }

    /// The entries held as one JSON array, newest first.
    pub fn to_json(&self) -> String {
        let slots = self.lock();
        let mut out = String::with_capacity(2 + slots.entries.len() * 256);
        out.push('[');
        for (i, entry) in slots.newest_first().enumerate() {
            if i > 0 {
                out.push(',');
            }
            entry.to_json(&mut out);
        }
        out.push(']');
        out
    }

    /// Install the ring's one sink: it first sees the entries already
    /// held, oldest first, then every entry pushed from now on. `false`,
    /// and `sink` dropped, when the ring has a sink already.
    pub fn set_sink(&self, sink: impl Fn(&T) + Send + Sync + 'static) -> bool {
        let slots = self.lock();
        if self.sink.get().is_some() {
            return false;
        }
        let held: Vec<&T> = slots.newest_first().collect();
        for entry in held.into_iter().rev() {
            sink(entry);
        }
        self.sink.set(Box::new(sink)).is_ok()
    }

    /// Entries ever pushed.
    #[cfg(test)]
    pub(crate) fn pushed(&self) -> u64 {
        self.lock().pushed
    }
}
