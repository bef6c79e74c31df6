//! The program under test as a child process: the shipped `geosir`
//! binary on an ephemeral loopback port, default config except
//! `--workers 1`. A [`Server`] kills its process and removes its data
//! directory when dropped, so a panic or early exit in one run cannot
//! leave a server or a WAL behind for the next.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use geosir_core::MatchConfig;
use geosir_geom::rangesearch::Backend;
use geosir_serve::BaseTemplate;

use crate::workload::Deploy;

/// `alpha` of the shipped template; the oracle normalizes with it.
pub const SHIPPED_ALPHA: f64 = 0.0;

/// The base template the shipped CLI gives `geosir serve` and `geosir
/// cluster` (`src/server_cmd.rs`, `src/cluster_cmd.rs`): the program
/// reports it nowhere, so the twin and the oracle build on this copy,
/// and `template_is_the_one_the_cli_ships` fails when the CLI moves.
pub fn shipped_template() -> BaseTemplate {
    BaseTemplate {
        alpha: SHIPPED_ALPHA,
        backend: Backend::RangeTree,
        config: MatchConfig {
            beta: 0.2,
            ..Default::default()
        },
        buffer_cap: 512,
    }
}

/// A per-run scratch directory under the benchmark's `out/`, removed on
/// drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(out_dir: &Path, label: &str) -> std::io::Result<TempDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir.join(format!("tmp-{}-{n}-{label}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes under `dir`, recursively (0 for a missing directory).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

pub struct Server {
    child: Child,
    /// Held open so the child's own prints never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Start `bin` for `deploy` over `data_dir` (ignored in memory) and
    /// wait until it prints the address it listens on.
    pub fn spawn(bin: &Path, deploy: Deploy, data_dir: &Path) -> Result<Server, String> {
        let dir = data_dir.to_str().ok_or("data dir is not UTF-8")?;
        let args: Vec<&str> = match deploy {
            Deploy::Memory => vec!["serve", "127.0.0.1:0", "--workers", "1"],
            Deploy::Durable => {
                vec![
                    "serve",
                    "127.0.0.1:0",
                    "--workers",
                    "1",
                    "--data-dir",
                    dir,
                    "--fsync",
                    "always",
                ]
            }
            Deploy::Cluster => vec![
                "cluster",
                "127.0.0.1:0",
                "--shards",
                "2",
                "--replicas",
                "1",
                "--workers",
                "1",
                "--data-dir",
                dir,
            ],
        };
        let mut child = Command::new(bin)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!(
                        "{} {} exited before listening",
                        bin.display(),
                        args[0]
                    ));
                }
                Ok(_) => {}
            }
            if let Some(addr) = parse_listen_line(&line) {
                break addr;
            }
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `SIGKILL`, then reap. The data directory is left as the process
    /// left it (the operating system's cache survives; power loss is out
    /// of reach from outside the machine).
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Ask for a graceful stop with a `Shutdown` frame and wait for the
    /// process to end; falls back to the kill in `Drop` after 10 s.
    pub fn shutdown(mut self) {
        if let Ok(mut c) = geosir_serve::Client::connect(self.addr) {
            let _ = c.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The address in `geosir-serve listening on ADDR (…` or
/// `geosir-cluster: router on ADDR over …`.
pub fn parse_listen_line(line: &str) -> Option<SocketAddr> {
    let rest = ["listening on ", "router on "]
        .iter()
        .find_map(|marker| line.find(marker).map(|at| &line[at + marker.len()..]))?;
    rest.split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_lines_of_both_front_ends() {
        let serve = "geosir-serve listening on 127.0.0.1:40123 (send a Shutdown frame to stop)\n";
        assert_eq!(
            parse_listen_line(serve),
            Some("127.0.0.1:40123".parse().unwrap())
        );
        let cluster = "geosir-cluster: router on 127.0.0.1:7410 over 2 shard(s) x 1 replica(s)\n";
        assert_eq!(
            parse_listen_line(cluster),
            Some("127.0.0.1:7410".parse().unwrap())
        );
        assert_eq!(
            parse_listen_line("recovered 0 checkpointed + 12 replayed shapes\n"),
            None
        );
        assert_eq!(parse_listen_line("listening on nowhere\n"), None);
    }

    /// The `BaseTemplate { … }` literal of a CLI source file, without
    /// white space.
    fn template_literal(source: &str) -> String {
        let from = source
            .find("let template = BaseTemplate {")
            .expect("the CLI builds a template");
        let len = source[from..].find("};").expect("the literal ends");
        source[from..from + len]
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect()
    }

    #[test]
    fn template_is_the_one_the_cli_ships() {
        let t = shipped_template();
        let ours = format!(
            "lettemplate=BaseTemplate{{alpha:{:?},backend:Backend::{:?},\
             config:MatchConfig{{beta:{:?},..Default::default()}},buffer_cap:{},",
            t.alpha, t.backend, t.config.beta, t.buffer_cap
        );
        for source in [
            include_str!("../../src/server_cmd.rs"),
            include_str!("../../src/cluster_cmd.rs"),
        ] {
            assert_eq!(template_literal(source), ours);
        }
        // nothing but `beta` departs from the defaults
        let default_but_beta = MatchConfig {
            beta: t.config.beta,
            ..Default::default()
        };
        assert_eq!(format!("{:?}", t.config), format!("{default_but_beta:?}"));
    }

    #[test]
    fn temp_dirs_are_distinct_and_removed() {
        let base =
            std::env::temp_dir().join(format!("geosir-benchmark-test-{}", std::process::id()));
        let (a, b) = (
            TempDir::new(&base, "x").unwrap(),
            TempDir::new(&base, "x").unwrap(),
        );
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("f"), [0u8; 10]).unwrap();
        assert_eq!(dir_bytes(a.path()), 10);
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        drop(b);
        let _ = std::fs::remove_dir_all(&base);
    }
}
