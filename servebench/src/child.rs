//! The `sfc_serve` child: build, spawn on an ephemeral port, scrape,
//! read its memory high-water mark, and shut it down with a clean drain.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use sfc_harness::validate_prometheus_text;
use sfc_server::Client;

/// Engine threads of the server: one per core of the 2-core host the
/// benchmark is sized for.
pub const SERVER_THREADS: usize = 2;

/// Execution lanes of the server.
pub const SERVER_LANES: usize = 1;

/// How long a draining server may take to exit after `shutdown`.
const EXIT_WAIT: Duration = Duration::from_secs(30);

/// Build `sfc_serve` from the repository at `repo` and return its path.
/// Cargo honours `CARGO_TARGET_DIR`; a relative one is resolved against
/// `repo`, where cargo runs.
pub fn build_server(repo: &Path) -> Result<PathBuf, String> {
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .current_dir(repo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "sfc-server",
            "--bin",
            "sfc_serve",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building sfc_serve failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = repo.join(target).join("release").join("sfc_serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("sfc_serve not found at {}", bin.display()))
    }
}

/// Counters and gauges of one `metrics` scrape, by Prometheus name.
#[derive(Debug, Clone, Default)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Parse validated exposition text (`name value` samples; histogram
    /// buckets are skipped).
    pub fn parse(text: &str) -> Result<Scrape, String> {
        validate_prometheus_text(text).map_err(|e| format!("invalid exposition: {e}"))?;
        let mut map = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            if let Some((name, value)) = line.split_once(' ') {
                if !name.contains('{') {
                    if let Ok(v) = value.trim().parse::<f64>() {
                        map.insert(name.to_string(), v);
                    }
                }
            }
        }
        Ok(Scrape(map))
    }

    /// The sample `name`, or an error naming it.
    pub fn get(&self, name: &str) -> Result<f64, String> {
        self.0
            .get(name)
            .copied()
            .ok_or_else(|| format!("scrape lacks {name}"))
    }
}

/// A running `sfc_serve` child. Dropping it kills and reaps the process.
pub struct ServerProc {
    child: Child,
    /// The bound `ip:port`.
    pub addr: String,
    log: PathBuf,
    // Held open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    /// Spawn `bin` with the benchmark's fixed flags, wait for
    /// its `listening addr=` line, and return once it answers `ping`.
    /// Its stderr goes to `log`.
    pub fn spawn(bin: &Path, log: &Path) -> Result<ServerProc, String> {
        let threads = SERVER_THREADS.to_string();
        let lanes = SERVER_LANES.to_string();
        let args = [
            "--addr",
            "127.0.0.1:0",
            "--threads",
            &threads,
            "--lanes",
            &lanes,
        ];
        let err_log = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(err_log)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("listening addr=")
                .map(str::to_string),
            _ => None,
        };
        let mut proc = ServerProc {
            child,
            addr: String::new(),
            log: log.to_path_buf(),
            _stdout: stdout,
        };
        proc.addr =
            addr.ok_or_else(|| proc.failure(&format!("no listening line, got {line:?}")))?;
        let pong = Client::connect(&proc.addr).and_then(|mut c| {
            c.set_timeout(Duration::from_secs(10))?;
            c.send_line("ping")
        });
        match pong {
            Ok(p) if p == "pong" => Ok(proc),
            other => Err(proc.failure(&format!("ping got {other:?}"))),
        }
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// An error message with the tail of the child's stderr.
    fn failure(&self, what: &str) -> String {
        let log = std::fs::read_to_string(&self.log).unwrap_or_default();
        let tail: Vec<&str> = log.lines().rev().take(5).collect();
        format!(
            "sfc_serve: {what}; stderr tail: {:?}",
            tail.into_iter().rev().collect::<Vec<_>>()
        )
    }

    /// Scrape the `metrics` verb.
    pub fn scrape(&self) -> Result<Scrape, String> {
        let text = Client::connect(&self.addr)
            .and_then(|mut c| {
                c.set_timeout(Duration::from_secs(10))?;
                c.scrape_metrics()
            })
            .map_err(|e| self.failure(&format!("scrape: {e}")))?;
        Scrape::parse(&text)
    }

    /// The child's resident-set high-water mark (`VmHWM`) in MiB.
    pub fn vm_hwm_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("/proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM line".to_string())
    }

    /// Send `shutdown` and wait for the drain; only exit code 0 (a clean
    /// drain) is success.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = Client::connect(&self.addr).and_then(|mut c| {
            c.set_timeout(Duration::from_secs(10))?;
            c.send_line("shutdown")
        });
        if !matches!(&reply, Ok(r) if r == "ok draining") {
            return Err(self.failure(&format!("shutdown got {reply:?}")));
        }
        let deadline = Instant::now() + EXIT_WAIT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(self.failure(&format!("unclean drain: {status}"))),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err(self.failure("did not exit after shutdown")),
                Err(e) => return Err(format!("wait: {e}")),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_reads_counters_and_gauges_and_skips_buckets() {
        let text = "# TYPE sfc_engine_units_completed_total counter\n\
                    sfc_engine_units_completed_total 4096\n\
                    # TYPE sfc_server_cache_hits gauge\n\
                    sfc_server_cache_hits 12\n\
                    # TYPE sfc_lat histogram\n\
                    sfc_lat_bucket{le=\"1\"} 1\n\
                    sfc_lat_bucket{le=\"+Inf\"} 1\n\
                    sfc_lat_sum 1\n\
                    sfc_lat_count 1\n";
        let s = Scrape::parse(text).expect("valid");
        assert_eq!(s.get("sfc_engine_units_completed_total"), Ok(4096.0));
        assert_eq!(s.get("sfc_server_cache_hits"), Ok(12.0));
        assert!(s.get("sfc_lat_bucket").is_err());
        assert!(Scrape::parse("not exposition at all\n").is_err());
    }
}
