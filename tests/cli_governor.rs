//! The energy governor's flags need an open-loop stream. A power cap or
//! carbon budget windows the draw over virtual arrival time, and a
//! back-to-back stream has no arrival clock, so `lim` refuses such a run
//! with an error that names `--arrivals` instead of serving it
//! ungoverned.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use lessismore::serve::wire::trace_to_wire;
use lessismore::workloads::bfcl;
use lessismore::workloads::trace::{zipf_trace, ArrivalProcess, SessionTrace, TraceConfig};

/// A small back-to-back trace.
fn closed_loop_trace() -> SessionTrace {
    zipf_trace(
        &bfcl(1, 20),
        &TraceConfig {
            sessions: 4,
            requests_per_session: 2,
            ..TraceConfig::default()
        },
    )
}

fn lim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lim"))
        .args(args)
        .output()
        .expect("run lim")
}

/// Asserts a refused run: exit 1, and an error naming the knob and the
/// flag that fixes the stream.
fn assert_refused(output: &std::process::Output, knob: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(knob) && stderr.contains("--arrivals"),
        "stderr: {stderr}"
    );
}

#[test]
fn loadgen_refuses_a_governor_on_a_back_to_back_stream() {
    let small = [
        "loadgen",
        "--queries",
        "20",
        "--sessions",
        "4",
        "--requests",
        "2",
    ];
    for knob in [["--power-cap-w", "30"], ["--carbon-budget", "100"]] {
        let args: Vec<&str> = small.iter().chain(&knob).copied().collect();
        assert_refused(&lim(&args), knob[0]);
    }
    let open_loop: Vec<&str> = small
        .iter()
        .chain(&["--power-cap-w", "30", "--arrivals", "poisson:0.06"])
        .copied()
        .collect();
    let output = lim(&open_loop);
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn serve_trace_refuses_a_governor_on_a_back_to_back_trace() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-governor-trace.json");
    std::fs::write(&path, closed_loop_trace().to_json().to_string()).expect("write trace");
    let path = path.to_str().expect("utf-8 path");
    assert_refused(
        &lim(&["serve", "--trace", path, "--carbon-budget", "100"]),
        "--carbon-budget",
    );
    // Re-stamping the trace open-loop makes the same run legal.
    let output = lim(&[
        "serve",
        "--trace",
        path,
        "--carbon-budget",
        "100",
        "--arrivals",
        "poisson:0.06",
    ]);
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn serve_stdin_answers_a_governed_back_to_back_hello_with_an_error_frame() {
    let mut serve = Command::new(env!("CARGO_BIN_EXE_lim"))
        .args(["serve", "--stdin", "--power-cap-w", "30"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lim serve");
    serve
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(trace_to_wire(&closed_loop_trace()).as_bytes())
        .expect("write the stream");
    let output = serve.wait_with_output().expect("wait for lim serve");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let first = stdout.lines().next().unwrap_or_default();
    assert!(
        first.contains("\"frame\":\"error\"") && first.contains("--arrivals"),
        "first frame: {first:?}"
    );
    assert_eq!(output.status.code(), Some(1));
}

/// Sends `stream` over a fresh connection to `socket`, closes the write
/// half, and returns every frame the server answered with.
fn exchange(socket: &PathBuf, stream: &str) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut connection = loop {
        match UnixStream::connect(socket) {
            Ok(connection) => break connection,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("cannot connect to {}: {e}", socket.display()),
        }
    };
    connection
        .write_all(stream.as_bytes())
        .expect("write the stream");
    connection
        .shutdown(std::net::Shutdown::Write)
        .expect("close the write half");
    BufReader::new(connection)
        .lines()
        .map(|line| line.expect("read a frame"))
        .collect()
}

/// A child process that is killed when the test ends, even by a panic.
struct Server(std::process::Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_listen_refuses_a_governed_back_to_back_stream_and_keeps_serving() {
    let socket = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-governor.sock");
    let _ = std::fs::remove_file(&socket);
    let server = Server(
        Command::new(env!("CARGO_BIN_EXE_lim"))
            .args(["serve", "--power-cap-w", "30", "--listen"])
            .arg(&socket)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn lim serve --listen"),
    );

    let trace = closed_loop_trace();
    let refused = exchange(&socket, &trace_to_wire(&trace));
    let open_loop = trace.with_arrivals(ArrivalProcess::Poisson { rate_rps: 0.06 });
    let served = exchange(&socket, &trace_to_wire(&open_loop));
    drop(server);
    let _ = std::fs::remove_file(&socket);

    assert_eq!(refused.len(), 1, "frames: {refused:?}");
    assert!(
        refused[0].contains("\"frame\":\"error\"") && refused[0].contains("--arrivals"),
        "frames: {refused:?}"
    );
    assert!(
        served
            .first()
            .is_some_and(|f| f.contains("\"frame\":\"ready\"")),
        "frames: {served:?}"
    );
    assert!(
        served
            .last()
            .is_some_and(|f| f.contains("\"frame\":\"report\"")),
        "frames: {served:?}"
    );
}
