//! The `lim` binary's stdout: a reader that goes away early
//! (`lim … | head`) is not an error. The command exits 0 and prints no
//! panic, however much of its output the reader took. `lim serve --stdin`
//! treats it as a drain: it still writes its report and checkpoint.

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

#[test]
fn serve_stdin_drains_and_reports_when_the_frame_reader_closes_after_one_line() {
    let (path, trace) = write_trace("cli-output-serve-trace.json");
    // Every request is answered with at least one disposition frame, and
    // none is shorter than a shed one.
    let shortest_frame = "{\"frame\":\"disposition\",\"status\":\"shed\",\"ticket\":0}\n".len();
    let frame_bytes = trace.requests() * shortest_frame;
    assert!(
        frame_bytes > PIPE_MAX_BYTES,
        "frames are at least {frame_bytes} bytes"
    );
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let report = dir.join("cli-output-serve-report.json");
    let checkpoint = dir.join("cli-output-serve.limsnap");
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
    let stderr = String::from_utf8_lossy(&served.stderr);
    assert_eq!(served.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    let wired = wire.wait_with_output().expect("wait for lim wire");
    assert_eq!(wired.status.code(), Some(0));

    let doc = std::fs::read_to_string(&report).expect("the report was written");
    let doc = lessismore::json::parse(&doc).expect("the report parses");
    let schema = doc.get("schema").and_then(|s| s.as_str());
    assert!(
        schema.is_some_and(|s| s.starts_with("lim-serve/report-v")),
        "schema: {schema:?}"
    );
    assert!(
        std::fs::metadata(&checkpoint)
            .expect("the checkpoint was written")
            .len()
            > 0,
        "empty checkpoint"
    );
}
