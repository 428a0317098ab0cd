//! The `lim` binary's stdout: a reader that goes away early
//! (`lim … | head`) is not an error. The command exits 0 and prints no
//! panic, however much of its output the reader took.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

use lessismore::serve::wire::trace_to_wire;
use lessismore::workloads::bfcl;
use lessismore::workloads::trace::{zipf_trace, TraceConfig};

/// Linux's largest pipe buffer by default (`fs.pipe-max-size`). A
/// command whose output is larger cannot finish writing into a pipe
/// whose reader has gone, so it meets a broken pipe whatever the
/// scheduling.
const PIPE_MAX_BYTES: usize = 1 << 20;

#[test]
fn wire_exits_quietly_when_the_reader_closes_after_one_line() {
    let workload = bfcl(1, 20);
    let trace = zipf_trace(
        &workload,
        &TraceConfig {
            sessions: 2048,
            requests_per_session: 16,
            ..TraceConfig::default()
        },
    );
    let stream_bytes = trace_to_wire(&trace).len();
    assert!(
        stream_bytes > PIPE_MAX_BYTES,
        "stream is {stream_bytes} bytes"
    );
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-output-trace.json");
    std::fs::write(&path, trace.to_json().to_string()).expect("write trace");

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
