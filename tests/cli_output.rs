//! The `lim` binary's stdout: a reader that goes away early
//! (`lim … | head`) is not an error. The command exits 0 and prints no
//! panic, however much of its output the reader took. `lim serve --stdin`
//! treats it as a drain: it still writes its report and checkpoint, and
//! it stops taking requests within a bounded batch instead of serving the
//! rest of its input.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

use lessismore::serve::wire::trace_to_wire;
use lessismore::workloads::bfcl;
use lessismore::workloads::trace::{zipf_trace, SessionTrace, TraceConfig};

/// Linux's largest pipe buffer by default (`fs.pipe-max-size`). A
/// command whose output is larger cannot finish writing into a pipe
/// whose reader has gone, so it meets a broken pipe whatever the
/// scheduling.
const PIPE_MAX_BYTES: usize = 1 << 20;

/// Writes a 2,048-session trace under `name` in the test scratch
/// directory and returns its path and the trace.
fn write_trace(name: &str) -> (PathBuf, SessionTrace) {
    let workload = bfcl(1, 20);
    let trace = zipf_trace(
        &workload,
        &TraceConfig {
            sessions: 2048,
            requests_per_session: 16,
            ..TraceConfig::default()
        },
    );
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, trace.to_json().to_string()).expect("write trace");
    (path, trace)
}

#[test]
fn wire_exits_quietly_when_the_reader_closes_after_one_line() {
    let (path, trace) = write_trace("cli-output-trace.json");
    let stream_bytes = trace_to_wire(&trace).len();
    assert!(
        stream_bytes > PIPE_MAX_BYTES,
        "stream is {stream_bytes} bytes"
    );

    let mut child = Command::new(env!("CARGO_BIN_EXE_lim"))
        .arg("wire")
        .arg("--trace")
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lim");
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    reader.read_line(&mut first).expect("read the first line");
    assert!(
        first.contains("\"frame\":\"hello\""),
        "first line: {first:?}"
    );
    drop(reader);

    let output = child.wait_with_output().expect("wait for lim");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

/// What `lim serve --stdin` left behind when its frame reader closed.
struct ClosedServe {
    trace: SessionTrace,
    status: std::process::ExitStatus,
    stderr: String,
    report: PathBuf,
    checkpoint: PathBuf,
}

/// Pipes `lim wire` over a 2,048-session trace into `lim serve --stdin
/// --out R --save-checkpoint C`, reads the first frame, closes the frame
/// reader, and waits for both processes. `name` keeps the files of
/// concurrent tests apart.
fn serve_until_the_reader_closes(name: &str) -> ClosedServe {
    let (path, trace) = write_trace(&format!("cli-output-{name}-trace.json"));
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let report = dir.join(format!("cli-output-{name}-report.json"));
    let checkpoint = dir.join(format!("cli-output-{name}.limsnap"));
    let _ = std::fs::remove_file(&report);
    let _ = std::fs::remove_file(&checkpoint);

    let mut wire = Command::new(env!("CARGO_BIN_EXE_lim"))
        .arg("wire")
        .arg("--trace")
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lim wire");
    let mut serve = Command::new(env!("CARGO_BIN_EXE_lim"))
        .args(["serve", "--stdin", "--out"])
        .arg(&report)
        .arg("--save-checkpoint")
        .arg(&checkpoint)
        .stdin(wire.stdout.take().expect("piped wire stdout"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lim serve");
    let mut reader = BufReader::new(serve.stdout.take().expect("piped serve stdout"));
    let mut first = String::new();
    reader.read_line(&mut first).expect("read the first frame");
    assert!(
        first.contains("\"frame\":\"ready\""),
        "first frame: {first:?}"
    );
    drop(reader);

    let served = serve.wait_with_output().expect("wait for lim serve");
    let wired = wire.wait_with_output().expect("wait for lim wire");
    assert_eq!(wired.status.code(), Some(0));
    ClosedServe {
        trace,
        status: served.status,
        stderr: String::from_utf8_lossy(&served.stderr).into_owned(),
        report,
        checkpoint,
    }
}

#[test]
fn serve_stdin_drains_and_reports_when_the_frame_reader_closes_after_one_line() {
    let closed = serve_until_the_reader_closes("serve");
    // Every request is answered with at least one disposition frame, and
    // none is shorter than a shed one.
    let shortest_frame = "{\"frame\":\"disposition\",\"status\":\"shed\",\"ticket\":0}\n".len();
    let frame_bytes = closed.trace.requests() * shortest_frame;
    assert!(
        frame_bytes > PIPE_MAX_BYTES,
        "frames are at least {frame_bytes} bytes"
    );
    let stderr = &closed.stderr;
    assert_eq!(closed.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");

    let doc = std::fs::read_to_string(&closed.report).expect("the report was written");
    let doc = lessismore::json::parse(&doc).expect("the report parses");
    let schema = doc.get("schema").and_then(|s| s.as_str());
    assert!(
        schema.is_some_and(|s| s.starts_with("lim-serve/report-v")),
        "schema: {schema:?}"
    );
    assert!(
        std::fs::metadata(&closed.checkpoint)
            .expect("the checkpoint was written")
            .len()
            > 0,
        "empty checkpoint"
    );
}

#[test]
fn serve_stdin_stops_reading_soon_after_the_frame_reader_closes() {
    let closed = serve_until_the_reader_closes("bounded");
    let stderr = &closed.stderr;
    assert_eq!(closed.status.code(), Some(0), "stderr: {stderr}");
    let served: usize = stderr
        .split("served ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no \"served N requests\" line in stderr: {stderr}"));
    let requests = closed.trace.requests();
    assert!(
        served * 2 < requests,
        "served {served} of {requests} requests after the frame reader closed"
    );
}
