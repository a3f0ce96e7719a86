//! Running the shipped binaries: spawning, the line-JSON connection, and
//! the resident-memory high-water mark of a child process.

use crate::inputs::{EPS, MIN_PTS, MODE, MODEL_STATEMENTS};
use aa_util::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A spawned program that is killed and reaped if the benchmark bails out
/// before shutting it down.
pub struct Program {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub spawned: Instant,
}

impl Program {
    /// Spawns `bin` with `args`; stderr goes to `stderr_log`.
    pub fn spawn(bin: &Path, args: &[String], stderr_log: &Path) -> Result<Program, String> {
        let stderr = std::fs::File::create(stderr_log)
            .map_err(|e| format!("create {}: {e}", stderr_log.display()))?;
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("child stdout missing")?;
        Ok(Program {
            child,
            stdout: BufReader::new(stdout),
            spawned,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Reads stdout lines until one starts with `prefix`; `None` at EOF.
    pub fn read_until(&mut self, prefix: &str) -> Option<String> {
        let mut line = String::new();
        loop {
            line.clear();
            match self.stdout.read_line(&mut line) {
                Ok(0) | Err(_) => return None,
                Ok(_) if line.starts_with(prefix) => return Some(line.trim_end().to_string()),
                Ok(_) => {}
            }
        }
    }

    /// Waits for the serving address line a server prints once it is ready.
    pub fn wait_listening(&mut self) -> Result<String, String> {
        self.read_until("listening on ")
            .map(|l| l["listening on ".len()..].to_string())
            .ok_or_else(|| "program exited before listening".to_string())
    }

    /// Drains the rest of stdout, then reaps the process. `exited` is the
    /// time from spawn until stdout closed, which a program does as it
    /// exits.
    pub fn finish(mut self) -> Result<Finished, String> {
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut self.stdout, &mut rest)
            .map_err(|e| format!("read program output: {e}"))?;
        let exited = self.spawned.elapsed();
        let status = self.child.wait().map_err(|e| e.to_string())?;
        Ok(Finished {
            rest,
            success: status.success(),
            exited,
        })
    }
}

pub struct Finished {
    pub rest: String,
    pub success: bool,
    pub exited: Duration,
}

impl Drop for Program {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Resident-memory high-water mark of a live process, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The serving program's arguments shared by `read` and `ingest`: the
/// model is built from the seeded synthetic log.
pub fn model_args(seed: u64) -> Vec<String> {
    [
        "--gen",
        &MODEL_STATEMENTS.to_string(),
        "--seed",
        &seed.to_string(),
        "--eps",
        &EPS.to_string(),
        "--min-pts",
        &MIN_PTS.to_string(),
        "--mode",
        MODE.as_str(),
        "--port",
        "0",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// One client connection speaking the line-JSON protocol. Each request
/// line goes out in a single write with Nagle off, the way a latency-minded
/// caller sends it, so the figures are the program's and not this
/// client's.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request line and returns the raw response line.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.writer
            .write_all(&self.buf)
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(response),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    pub fn request_json(&mut self, line: &str) -> Result<Json, String> {
        let response = self.request(line)?;
        Json::parse(response.trim()).map_err(|e| format!("bad response {response:?}: {e}"))
    }
}

/// The request line for one classify (`k == 0`) or neighbors statement.
pub fn read_line(sql: &str, k: usize) -> String {
    let mut fields = vec![(
        "op".to_string(),
        Json::Str(if k == 0 { "classify" } else { "neighbors" }.to_string()),
    )];
    fields.push(("sql".to_string(), Json::Str(sql.to_string())));
    if k > 0 {
        fields.push(("k".to_string(), Json::Num(k as f64)));
    }
    Json::Obj(fields).to_string_compact()
}

/// The request line for one keyed ingest.
pub fn ingest_line(sql: &str, key: &str) -> String {
    Json::obj([
        ("op".to_string(), Json::Str("ingest".to_string())),
        ("sql".to_string(), Json::Str(sql.to_string())),
        ("key".to_string(), Json::Str(key.to_string())),
    ])
    .to_string_compact()
}

/// A scratch directory for one run, removed when dropped.
pub struct RunDir(pub PathBuf);

impl RunDir {
    pub fn create(root: &Path, name: &str) -> Result<RunDir, String> {
        let dir = root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
