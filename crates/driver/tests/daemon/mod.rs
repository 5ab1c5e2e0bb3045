//! Helpers shared by the daemon matrices (`serve.rs`, `chaos.rs`):
//! spawning the real binary, starting a daemon and waiting for its
//! socket, and stopping it through the graceful drain.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub const BIN: &str = env!("CARGO_BIN_EXE_impactc");

pub struct RunResult {
    pub code: Option<i32>,
    pub stdout: String,
    pub stderr: String,
}

pub fn impactc<S: AsRef<std::ffi::OsStr>>(args: &[S]) -> RunResult {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn impactc");
    RunResult {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// A fresh temp dir, distinct per test binary, process and tag.
pub fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "impactc-{}-{}-{tag}",
        env!("CARGO_CRATE_NAME"),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

pub fn write_hot_c(dir: &Path) -> String {
    let p = dir.join("hot.c");
    std::fs::write(
        &p,
        "int add(int x) { return x + 1; }\n\
         int main() { int i; int s; s = 0; for (i = 0; i < 8; i++) s += add(i); return s & 0; }",
    )
    .unwrap();
    p.to_str().unwrap().to_string()
}

/// Spawns the daemon and returns as soon as its socket file exists. The
/// daemon renames the socket into place once it listens, so the file is
/// the readiness signal: the wait spins rather than sleeps, and a client
/// may connect with no retry the moment it returns.
pub fn spawn_daemon(sock: &Path, extra: &[&str]) -> Child {
    let child = Command::new(BIN)
        .arg("serve")
        .arg(sock)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve daemon");
    let deadline = Instant::now() + Duration::from_secs(20);
    while !sock.exists() {
        assert!(
            Instant::now() < deadline,
            "daemon never bound {}",
            sock.display()
        );
        std::thread::yield_now();
    }
    child
}

/// Sends `sig` (e.g. `-TERM`, `-KILL`) to the process.
pub fn sig(child: &Child, sig: &str) {
    let ok = Command::new("kill")
        .args([sig, &child.id().to_string()])
        .status()
        .expect("run kill")
        .success();
    assert!(ok, "kill {sig} failed");
}

/// SIGTERMs the daemon, waits (bounded) for the graceful drain, and
/// returns its exit code and stdout.
pub fn stop_and_collect(mut child: Child) -> (Option<i32>, String) {
    sig(&child, "-TERM");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("poll daemon").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("daemon did not drain within 30s of SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect daemon output");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// Reserves a loopback port by binding port 0 and releasing it. A small
/// race remains (something else could claim the port before the daemon
/// does), which the per-test tag keeps improbable enough for CI.
pub fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .expect("bind loopback port 0")
        .local_addr()
        .unwrap()
        .port()
}
