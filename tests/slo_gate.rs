//! The CI SLO gate, end to end over real binaries: `citroen-trace top
//! --once` against a live socket daemon must exit 0 while the daemon is
//! healthy and 1 once an (injected) SLO breach degrades it, and the
//! daemon's `metrics` verb must count the jobs it ran.

use citroen_rt::json::Value;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

/// Kills the daemon subprocess even when an assertion panics mid-test.
struct DaemonGuard {
    child: Child,
    socket: PathBuf,
}

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

fn spawn_daemon(name: &str, extra: &[&str]) -> DaemonGuard {
    let socket =
        std::env::temp_dir().join(format!("citroen-slo-{name}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let mut args = vec!["serve".to_string(), "--socket".to_string()];
    args.push(socket.to_string_lossy().into_owned());
    args.extend(extra.iter().map(|s| s.to_string()));
    let child = Command::new(env!("CARGO_BIN_EXE_citroen-serve"))
        .args(&args)
        .spawn()
        .expect("spawn citroen-serve");
    let mut guard = DaemonGuard { child, socket };
    let deadline = Instant::now() + Duration::from_secs(15);
    while !guard.socket.exists() {
        assert!(Instant::now() < deadline, "daemon socket never appeared");
        if let Some(status) = guard.child.try_wait().expect("child status") {
            panic!("daemon exited early with {status}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    guard
}

/// Submit one small job over the socket and block until its result reply,
/// so the SLO sentinels have observed a completed session before `top`
/// polls. The connection is dropped before returning (the daemon serves
/// connections sequentially).
fn run_one_job(socket: &Path) {
    let stream = UnixStream::connect(socket).expect("connect daemon socket");
    stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    let mut writer = stream.try_clone().expect("clone socket");
    writer
        .write_all(
            b"{\"type\":\"submit\",\"job\":{\"id\":\"g\",\"bench\":\"telecom_gsm\",\
              \"budget\":3,\"seed\":3}}\n",
        )
        .expect("submit");
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("daemon reply");
        assert!(n > 0, "daemon closed the connection before the job finished");
        if line.contains("\"type\":\"result\"") {
            return;
        }
        assert!(!line.contains("\"type\":\"error\""), "daemon error reply: {line}");
    }
}

fn top_once(socket: &Path) -> i32 {
    Command::new(env!("CARGO_BIN_EXE_citroen-trace"))
        .args(["top", "--once", "--socket", &socket.to_string_lossy()])
        .status()
        .expect("run citroen-trace top")
        .code()
        .expect("top exit code")
}

/// One `metrics` request on its own connection; returns the reply.
fn metrics(socket: &Path) -> Value {
    let mut stream = UnixStream::connect(socket).expect("connect daemon socket");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(b"{\"type\":\"metrics\"}\n").expect("metrics request");
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    for line in BufReader::new(stream).lines() {
        let v = Value::parse(&line.expect("daemon reply")).expect("JSON reply");
        match v.get("type").and_then(Value::as_str) {
            Some("metrics") => return v,
            Some("error") => panic!("daemon error reply: {}", v.emit_compact()),
            _ => {}
        }
    }
    panic!("daemon closed the connection without a metrics reply");
}

#[test]
fn top_exits_zero_on_healthy_daemon() {
    let daemon = spawn_daemon("ok", &[]);
    run_one_job(&daemon.socket);
    let done = metrics(&daemon.socket)
        .get("global")
        .and_then(|g| g.get("counters"))
        .and_then(|c| c.get("jobs.done"))
        .and_then(|c| c.get("total"))
        .and_then(Value::as_u64);
    assert!(done >= Some(1), "metrics report {done:?} jobs done, expected >= 1");
    assert_eq!(top_once(&daemon.socket), 0, "healthy daemon must gate green");
}

#[test]
fn top_exits_one_on_injected_slo_breach() {
    // A run-wall ceiling of 1 ns of milliseconds: the first completed job's
    // EWMA lands far above it, flipping health to degraded.
    let daemon = spawn_daemon("breach", &["--slo-run-ms", "0.000001"]);
    run_one_job(&daemon.socket);
    assert_eq!(top_once(&daemon.socket), 1, "breached daemon must gate red");
}

#[test]
fn compile_slo_breach_does_not_deadlock_the_daemon() {
    // Regression: the compile sentinel breaches inside sink dispatch (span
    // close holds the process-global telemetry SINK mutex). Emitting the
    // breach event from there re-locked the same mutex and hung the daemon
    // mid-span; the breach must instead be queued and emitted later. With
    // the ceiling at ~1 ns the very first compile breaches — the job still
    // completing (instead of `run_one_job` timing out) is the regression
    // check, and `top` must then gate red on the degraded daemon.
    let daemon = spawn_daemon("compile-breach", &["--slo-compile-us", "0.000001"]);
    run_one_job(&daemon.socket);
    assert_eq!(top_once(&daemon.socket), 1, "compile breach must gate red");
}
