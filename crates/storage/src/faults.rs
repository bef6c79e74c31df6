//! Fault injection for the durability layer.
//!
//! Two independent mechanisms, both zero-cost in production builds:
//!
//! - **[`Io`] wrappers** — the WAL writes segments through a small trait
//!   instead of `File` directly, so tests can splice in a [`FaultyIo`]
//!   that fails, short-writes, or delays the Nth operation (optionally
//!   every operation from the Nth on, for "the disk died" scenarios).
//!   This is how the read-only degraded-mode tests starve the server of
//!   its log without touching the real filesystem error paths.
//! - **[`crash_if_armed`] crash hooks** — named points compiled in only
//!   under the `failpoints` feature. Arming one via the environment
//!   (`GEOSIR_CRASHPOINT=name` or `name:skip`) makes the process
//!   `abort()` — a faithful stand-in for `kill -9` — the `skip+1`-th
//!   time execution reaches it. The crash-recovery harness spawns child
//!   server processes with a point armed and verifies every acked write
//!   survives the abort.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The slice of file behaviour the WAL needs: append bytes, force them
/// to stable storage. Small on purpose — everything the fault plan can
/// break is here.
pub trait Io: Send {
    fn append(&mut self, buf: &[u8]) -> io::Result<()>;
    fn sync(&mut self) -> io::Result<()>;
}

/// Creates the [`Io`] behind each new WAL segment file.
pub trait IoFactory: Send + Sync {
    fn create(&self, path: &Path) -> io::Result<Box<dyn Io>>;
}

/// A shared factory is a factory: configurations hold their fault hooks
/// as `Arc<dyn IoFactory>` (they are `Clone`), the writers that open
/// files own a `Box<dyn IoFactory>`.
impl<F: IoFactory + ?Sized> IoFactory for std::sync::Arc<F> {
    fn create(&self, path: &Path) -> io::Result<Box<dyn Io>> {
        (**self).create(path)
    }
}

/// Real files: `write_all` + `sync_data`.
pub struct FileIo(pub File);

impl Io for FileIo {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

/// The production factory.
pub struct FileFactory;

impl IoFactory for FileFactory {
    fn create(&self, path: &Path) -> io::Result<Box<dyn Io>> {
        Ok(Box::new(FileIo(File::create(path)?)))
    }
}

/// What an armed fault does to the chosen operation.
#[derive(Debug, Clone, Copy)]
pub enum FaultKind {
    /// Return `io::ErrorKind::Other` without touching the file.
    Fail,
    /// Write only the first half of the buffer, then fail — a torn write.
    ShortWrite,
    /// Sleep before performing the operation normally.
    Delay(Duration),
}

/// A shared countdown over every I/O operation (appends and syncs) that
/// flows through the [`FaultyIo`]s built from it. Operation indices are
/// global across segments, so a plan keeps firing across WAL rotations.
pub struct FaultPlan {
    kind: FaultKind,
    /// 0-based operation index at which the fault first fires.
    from_op: u64,
    /// Fire on every operation ≥ `from_op` (a dead disk) rather than
    /// only the one.
    persistent: bool,
    ops: AtomicU64,
    fired: AtomicU64,
}

impl FaultPlan {
    pub fn new(kind: FaultKind, from_op: u64, persistent: bool) -> Arc<FaultPlan> {
        Arc::new(FaultPlan {
            kind,
            from_op,
            persistent,
            ops: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        })
    }

    /// Every operation from `from_op` on fails — the disk is gone.
    pub fn dead_disk_from(from_op: u64) -> Arc<FaultPlan> {
        FaultPlan::new(FaultKind::Fail, from_op, true)
    }

    /// How many operations the plan has sabotaged so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::SeqCst)
    }

    fn arm(&self) -> Option<FaultKind> {
        let i = self.ops.fetch_add(1, Ordering::SeqCst);
        let fire = if self.persistent { i >= self.from_op } else { i == self.from_op };
        if fire {
            self.fired.fetch_add(1, Ordering::SeqCst);
            Some(self.kind)
        } else {
            None
        }
    }
}

/// An [`Io`] that consults a [`FaultPlan`] before every operation.
pub struct FaultyIo {
    inner: Box<dyn Io>,
    plan: Arc<FaultPlan>,
}

impl FaultyIo {
    pub fn new(inner: Box<dyn Io>, plan: Arc<FaultPlan>) -> FaultyIo {
        FaultyIo { inner, plan }
    }
}

fn injected() -> io::Error {
    io::Error::other("injected fault")
}

impl Io for FaultyIo {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.plan.arm() {
            None => self.inner.append(buf),
            Some(FaultKind::Fail) => Err(injected()),
            Some(FaultKind::ShortWrite) => {
                self.inner.append(&buf[..buf.len() / 2])?;
                Err(injected())
            }
            Some(FaultKind::Delay(d)) => {
                std::thread::sleep(d);
                self.inner.append(buf)
            }
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        match self.plan.arm() {
            None => self.inner.sync(),
            Some(FaultKind::Fail | FaultKind::ShortWrite) => Err(injected()),
            Some(FaultKind::Delay(d)) => {
                std::thread::sleep(d);
                self.inner.sync()
            }
        }
    }
}

/// Factory producing [`FaultyIo`]s over real files, all sharing one plan.
pub struct FaultyFactory {
    pub plan: Arc<FaultPlan>,
}

impl IoFactory for FaultyFactory {
    fn create(&self, path: &Path) -> io::Result<Box<dyn Io>> {
        Ok(Box::new(FaultyIo::new(FileFactory.create(path)?, self.plan.clone())))
    }
}

/// Last-gasp hooks run just before the process dies abnormally.
///
/// [`crash_if_armed`] crashes go through `std::process::abort()` — a faithful
/// `kill -9` stand-in — which means **panic hooks and `Drop` impls never
/// run**. Anything that must survive a simulated crash (the flight
/// recorder's dump, for one) registers here instead; [`crash_if_armed`]
/// runs the hooks right before aborting, and callers' real panic hooks
/// can invoke [`run_crash_hooks`] too so both death paths converge.
static CRASH_HOOKS: std::sync::Mutex<Vec<Box<dyn Fn() + Send>>> =
    std::sync::Mutex::new(Vec::new());

/// Register a hook to run immediately before an armed crash point aborts
/// the process (or whenever [`run_crash_hooks`] is called). Hooks must
/// not panic and should only do simple, re-entrancy-free work — they run
/// while the process is dying.
pub fn on_crash(hook: impl Fn() + Send + 'static) {
    if let Ok(mut hooks) = CRASH_HOOKS.lock() {
        hooks.push(Box::new(hook));
    }
}

/// Run every registered crash hook. Uses `try_lock` so a crash point
/// firing from inside a hook (or while another thread is registering)
/// degrades to skipping the hooks rather than deadlocking the abort.
pub fn run_crash_hooks() {
    if let Ok(hooks) = CRASH_HOOKS.try_lock() {
        for hook in hooks.iter() {
            hook();
        }
    }
}

/// Abort the process if the named crash point is armed via
/// `GEOSIR_CRASHPOINT=name[:skip]` (crashes on the `skip+1`-th hit).
/// Compiled to an empty inline function without the `failpoints` feature.
#[cfg(feature = "failpoints")]
pub fn crash_if_armed(name: &str) {
    use std::sync::atomic::AtomicI64;
    use std::sync::OnceLock;

    struct Armed {
        name: String,
        remaining: AtomicI64,
    }
    static ARMED: OnceLock<Option<Armed>> = OnceLock::new();
    let armed = ARMED.get_or_init(|| {
        std::env::var("GEOSIR_CRASHPOINT").ok().map(|spec| match spec.split_once(':') {
            Some((n, skip)) => Armed {
                name: n.to_string(),
                remaining: AtomicI64::new(skip.parse().unwrap_or(0)),
            },
            None => Armed { name: spec, remaining: AtomicI64::new(0) },
        })
    });
    if let Some(a) = armed {
        if a.name == name && a.remaining.fetch_sub(1, Ordering::SeqCst) <= 0 {
            eprintln!("geosir failpoint `{name}`: simulating crash (abort)");
            run_crash_hooks();
            std::process::abort();
        }
    }
}

#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn crash_if_armed(_name: &str) {}

#[cfg(test)]
mod tests {
    use super::*;

    /// In-memory Io for observing what reaches "disk".
    struct MemIo(Arc<std::sync::Mutex<Vec<u8>>>);

    impl Io for MemIo {
        fn append(&mut self, buf: &[u8]) -> io::Result<()> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(())
        }
        fn sync(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn nth_operation_fails_once() {
        let sink = Arc::new(std::sync::Mutex::new(Vec::new()));
        let plan = FaultPlan::new(FaultKind::Fail, 1, false);
        let mut io = FaultyIo::new(Box::new(MemIo(sink.clone())), plan.clone());
        assert!(io.append(b"aa").is_ok());
        assert!(io.append(b"bb").is_err(), "op 1 must fail");
        assert!(io.append(b"cc").is_ok(), "non-persistent fault fires once");
        assert_eq!(&*sink.lock().unwrap(), b"aacc");
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn short_write_tears_the_buffer() {
        let sink = Arc::new(std::sync::Mutex::new(Vec::new()));
        let plan = FaultPlan::new(FaultKind::ShortWrite, 0, false);
        let mut io = FaultyIo::new(Box::new(MemIo(sink.clone())), plan);
        assert!(io.append(b"abcdef").is_err());
        assert_eq!(&*sink.lock().unwrap(), b"abc", "exactly half must land");
    }

    #[test]
    fn dead_disk_fails_everything_from_n() {
        let sink = Arc::new(std::sync::Mutex::new(Vec::new()));
        let plan = FaultPlan::dead_disk_from(2);
        let mut io = FaultyIo::new(Box::new(MemIo(sink.clone())), plan);
        assert!(io.append(b"a").is_ok());
        assert!(io.sync().is_ok());
        for _ in 0..5 {
            assert!(io.append(b"x").is_err());
            assert!(io.sync().is_err());
        }
        assert_eq!(&*sink.lock().unwrap(), b"a");
    }
}
