//! `lim/wire-v1` — the line-delimited JSON wire protocol of the
//! ingestion front-end.
//!
//! `lim serve --stdin` (and `--listen`) speak a newline-delimited JSON
//! framing: every line is one JSON object carrying a `"frame"` tag.  The
//! client opens with a `hello` frame describing the stream (which
//! workload the query indices refer to, the seed/skew metadata echoed
//! into the report, and the arrival process), then sends one `request`
//! frame per arriving request, interleaved with optional `register` /
//! `retire` frames that mutate the live catalog at exactly that stream
//! position.  The server answers with `ready`, then a `disposition`
//! frame per resolved request (plus a `latency` frame for the ones that
//! actually executed), a `catalog` frame acknowledging each applied
//! mutation with the epoch it advanced to, and — once the client half
//! closes — one final `report` frame that is the ordinary
//! `lim-serve/report-v5` document (energy section included) with an
//! additive `"frame": "report"` tag.
//!
//! This module is the **pure codec**: parsing client frames and building
//! server frames, with no I/O.  The read/write loop (stdin, unix
//! sockets, signals) lives in the `lim` binary — the deterministic core
//! stays testable and the async shell stays thin.  The full frame table
//! and the versioning rule are documented in `docs/SCHEMAS.md`.
//!
//! # Examples
//!
//! ```
//! use lim_serve::wire::{parse_client_frame, ClientFrame, WIRE_PROTO};
//!
//! let hello = parse_client_frame(
//!     r#"{"frame":"hello","proto":"lim/wire-v1","benchmark":"bfcl",
//!         "pool_size":60,"trace_seed":7,"zipf_s":1.0,
//!         "arrivals":"back-to-back"}"#,
//! )
//! .expect("valid hello");
//! match hello {
//!     ClientFrame::Hello(h) => assert_eq!(h.benchmark, "bfcl"),
//!     other => panic!("expected hello, got {other:?}"),
//! }
//! assert_eq!(WIRE_PROTO, "lim/wire-v1");
//! ```

use lim_json::Value;
use lim_tools::ToolDoc;
use lim_workloads::trace::{ArrivalProcess, ChurnOp, SessionTrace, TraceBuilder};

use crate::admission::Disposition;
use crate::report::ServeReport;
use crate::session::RequestEvent;

/// Protocol identifier carried by the `hello` frame. Bumped only when a
/// frame is renamed, removed or changes meaning; adding a frame kind or
/// an optional field is additive and keeps the id.
pub const WIRE_PROTO: &str = "lim/wire-v1";

/// The stream header: everything `lim serve` must know before the first
/// request — which workload the query indices index into, the metadata
/// echoed into the report, and whether the stream is open-loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// Workload the `request.query` indices refer to (`"bfcl"`/…).
    pub benchmark: String,
    /// Query-pool size the indices were drawn from; the server rejects
    /// the stream if it disagrees with the workload it loaded.
    pub pool_size: usize,
    /// Seed the stream was drawn with; echoed as the report's
    /// `trace_seed`.
    pub trace_seed: u64,
    /// Zipf popularity exponent; echoed into the report.
    pub zipf_s: f64,
    /// Arrival process ([`ArrivalProcess::label`] form on the wire).
    /// Anything but back-to-back makes the stream open-loop: every
    /// request must then carry `arrival_us`.
    pub arrivals: ArrivalProcess,
    /// Session count to report, when the sender knows it (an encoded
    /// trace does). Absent on the wire when unknown.
    pub sessions: Option<usize>,
    /// How many tenants the stream's `tenant` fields index into
    /// (`0..tenants`). Omitted on the wire when 1 — a single-tenant
    /// stream is byte-identical to the pre-tenancy protocol. A value
    /// above 1 asks the server to serve the stream through a fleet.
    pub tenants: usize,
}

/// One parsed client → server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// Stream header; must be the first frame.
    Hello(Hello),
    /// One arriving request.
    Request {
        /// Tenant the request belongs to. Omitted on the wire when 0
        /// (the single-tenant default). An id outside the fleet's range
        /// is answered with a typed `error` frame — the stream
        /// survives.
        tenant: u64,
        /// Session the request belongs to.
        session: u64,
        /// Index into the workload's query pool.
        query: usize,
        /// Virtual arrival stamp in integer microseconds — required on
        /// open-loop streams, forbidden on back-to-back ones (the same
        /// rule `trace-v1` documents follow).
        arrival_us: Option<u64>,
    },
    /// Live-catalog mutation: register the tool this document describes.
    /// Applied at the stream position the frame arrives at — after every
    /// request already sent, before the next one.
    Register {
        /// Tenant whose catalog grows. Omitted on the wire when 0.
        tenant: u64,
        /// The tool to register.
        tool: ToolDoc,
    },
    /// Live-catalog mutation: retire the tool at this registry index.
    Retire {
        /// Tenant whose catalog shrinks. Omitted on the wire when 0.
        tenant: u64,
        /// Registry index of the tool to retire.
        id: usize,
    },
}

fn field_u64(doc: &Value, field: &'static str) -> Result<u64, String> {
    match doc.get(field).and_then(Value::as_i64) {
        Some(x) if x >= 0 => Ok(x as u64),
        Some(x) => Err(format!("{field} is negative ({x})")),
        None => Err(format!("missing {field}")),
    }
}

/// The optional `tenant` field of a request/register/retire frame;
/// absent means tenant 0, the single-tenant default.
fn optional_tenant(doc: &Value) -> Result<u64, String> {
    match doc.get("tenant") {
        None => Ok(0),
        Some(_) => field_u64(doc, "tenant"),
    }
}

/// Parses one client line.
///
/// # Errors
///
/// Returns a description of the first problem: non-JSON input, a
/// missing/unknown `frame` tag, an unsupported `proto`, or a
/// missing/negative field.
pub fn parse_client_frame(line: &str) -> Result<ClientFrame, String> {
    let doc = lim_json::parse(line).map_err(|e| format!("bad frame JSON: {e}"))?;
    let frame = doc
        .get("frame")
        .and_then(Value::as_str)
        .ok_or("missing frame tag")?;
    match frame {
        "hello" => {
            let proto = doc
                .get("proto")
                .and_then(Value::as_str)
                .ok_or("hello missing proto")?;
            if proto != WIRE_PROTO {
                return Err(format!(
                    "unsupported wire proto {proto:?} (want {WIRE_PROTO:?})"
                ));
            }
            let arrivals = ArrivalProcess::parse(
                doc.get("arrivals")
                    .and_then(Value::as_str)
                    .ok_or("hello missing arrivals")?,
            )?;
            Ok(ClientFrame::Hello(Hello {
                benchmark: doc
                    .get("benchmark")
                    .and_then(Value::as_str)
                    .ok_or("hello missing benchmark")?
                    .to_owned(),
                pool_size: field_u64(&doc, "pool_size")? as usize,
                trace_seed: field_u64(&doc, "trace_seed")?,
                zipf_s: doc
                    .get("zipf_s")
                    .and_then(Value::as_f64)
                    .ok_or("hello missing zipf_s")?,
                arrivals,
                sessions: match doc.get("sessions") {
                    None => None,
                    Some(_) => Some(field_u64(&doc, "sessions")? as usize),
                },
                tenants: match doc.get("tenants") {
                    None => 1,
                    Some(_) => match field_u64(&doc, "tenants")? as usize {
                        0 => return Err("hello declares zero tenants".to_owned()),
                        n => n,
                    },
                },
            }))
        }
        "request" => Ok(ClientFrame::Request {
            tenant: optional_tenant(&doc)?,
            session: field_u64(&doc, "session")?,
            query: field_u64(&doc, "query")? as usize,
            arrival_us: match doc.get("arrival_us") {
                None => None,
                Some(_) => Some(field_u64(&doc, "arrival_us")?),
            },
        }),
        "register" => {
            let tool = doc.get("tool").ok_or("register frame missing tool")?;
            Ok(ClientFrame::Register {
                tenant: optional_tenant(&doc)?,
                tool: ToolDoc::from_json(tool).map_err(|e| format!("register frame: {e}"))?,
            })
        }
        "retire" => Ok(ClientFrame::Retire {
            tenant: optional_tenant(&doc)?,
            id: field_u64(&doc, "id")? as usize,
        }),
        other => Err(format!("unknown client frame {other:?}")),
    }
}

/// Builds the `hello` frame for a stream with the given header.
pub fn hello_frame(hello: &Hello) -> Value {
    let mut doc = Value::object([
        ("frame", Value::from("hello")),
        ("proto", Value::from(WIRE_PROTO)),
        ("benchmark", Value::from(hello.benchmark.as_str())),
        ("pool_size", Value::from(hello.pool_size)),
        ("trace_seed", Value::from(hello.trace_seed as i64)),
        ("zipf_s", Value::from(hello.zipf_s)),
        ("arrivals", Value::from(hello.arrivals.label())),
    ]);
    if let Some(sessions) = hello.sessions {
        doc.insert("sessions", Value::from(sessions));
    }
    if hello.tenants != 1 {
        doc.insert("tenants", Value::from(hello.tenants));
    }
    doc
}

/// Builds one `request` frame. Tenant 0 (the single-tenant default)
/// omits the `tenant` field, keeping single-tenant streams
/// byte-identical to the pre-tenancy protocol.
pub fn request_frame(tenant: u64, session: u64, query: usize, arrival_us: Option<u64>) -> Value {
    let mut doc = Value::object([
        ("frame", Value::from("request")),
        ("session", Value::from(session as i64)),
        ("query", Value::from(query)),
    ]);
    if tenant != 0 {
        doc.insert("tenant", Value::from(tenant as i64));
    }
    if let Some(us) = arrival_us {
        doc.insert("arrival_us", Value::from(us as i64));
    }
    doc
}

/// Builds one `register` frame announcing a live tool registration on
/// `tenant`'s catalog (the field is omitted for tenant 0).
pub fn register_frame(tenant: u64, doc: &ToolDoc) -> Value {
    let mut frame = Value::object([("frame", Value::from("register")), ("tool", doc.to_json())]);
    if tenant != 0 {
        frame.insert("tenant", Value::from(tenant as i64));
    }
    frame
}

/// Builds one `retire` frame announcing a live tool retirement from
/// `tenant`'s catalog (the field is omitted for tenant 0).
pub fn retire_frame(tenant: u64, id: usize) -> Value {
    let mut frame = Value::object([("frame", Value::from("retire")), ("id", Value::from(id))]);
    if tenant != 0 {
        frame.insert("tenant", Value::from(tenant as i64));
    }
    frame
}

/// Builds the server's `catalog` acknowledgement of an applied mutation:
/// the op it applied (`"register"`/`"retire"`), the registry index it
/// affected, and the catalog epoch the engine advanced to — how a client
/// confirms its mutation is live before relying on it.
pub fn catalog_frame(op: &str, id: usize, epoch: u64) -> Value {
    debug_assert!(op == "register" || op == "retire");
    Value::object([
        ("frame", Value::from("catalog")),
        ("op", Value::from(op)),
        ("id", Value::from(id)),
        ("epoch", Value::from(epoch as i64)),
    ])
}

/// Builds the server's `ready` acknowledgement of a `hello`.
pub fn ready_frame() -> Value {
    Value::object([
        ("frame", Value::from("ready")),
        ("proto", Value::from(WIRE_PROTO)),
    ])
}

/// Builds the `disposition` frame of a resolved request: its ticket
/// (zero-based submission index), a `status` of `"served"`,
/// `"degraded"` or `"shed"`, and the queue wait for admitted requests.
pub fn disposition_frame(event: &RequestEvent) -> Value {
    let status = match event.disposition {
        Disposition::Served { .. } => "served",
        Disposition::Degraded { .. } => "degraded",
        Disposition::Shed => "shed",
    };
    let mut doc = Value::object([
        ("frame", Value::from("disposition")),
        ("ticket", Value::from(event.ticket.index())),
        ("status", Value::from(status)),
    ]);
    if let Some(wait_s) = event.disposition.wait_s() {
        doc.insert("wait_s", Value::from(wait_s));
    }
    doc
}

/// Builds the `latency` frame billing an executed request's simulated
/// service seconds. Shed requests never execute and get none.
pub fn latency_frame(ticket: usize, service_s: f64) -> Value {
    Value::object([
        ("frame", Value::from("latency")),
        ("ticket", Value::from(ticket)),
        ("service_s", Value::from(service_s)),
    ])
}

/// Frames announcing one resolved request: its `disposition`, plus a
/// `latency` frame when it actually executed.
pub fn event_frames(event: &RequestEvent) -> Vec<Value> {
    let mut frames = vec![disposition_frame(event)];
    if let Some(service_s) = event.service_s {
        frames.push(latency_frame(event.ticket.index(), service_s));
    }
    frames
}

/// Builds an `error` frame; the server sends one and closes on a
/// protocol violation.
pub fn error_frame(message: &str) -> Value {
    Value::object([
        ("frame", Value::from("error")),
        ("message", Value::from(message)),
    ])
}

/// Builds the final `report` frame: the ordinary `lim-serve/report-v5`
/// document with an additive `"frame": "report"` tag, so the stream's
/// last line parses both as a wire frame and as a report file.
pub fn report_frame(report: &ServeReport) -> Value {
    let mut doc = report.to_json();
    doc.insert("frame", Value::from("report"));
    doc
}

/// Encodes a whole trace as a `lim/wire-v1` client stream — one `hello`
/// line, then one `request` line per request in canonical session-major
/// order, with any churn events emitted as `register`/`retire` lines at
/// their [`ChurnEvent::after_requests`] positions. `lim wire` uses this,
/// and CI pipes the result into `lim serve --stdin` to assert the
/// streamed path reproduces the offline replay bit-for-bit.
///
/// [`ChurnEvent::after_requests`]: lim_workloads::trace::ChurnEvent
pub fn trace_to_wire(trace: &SessionTrace) -> String {
    let mut out = String::new();
    let hello = Hello {
        benchmark: trace.benchmark.clone(),
        pool_size: trace.pool_size,
        trace_seed: trace.seed,
        zipf_s: trace.zipf_s,
        arrivals: trace.arrivals,
        sessions: Some(trace.sessions.len()),
        tenants: trace.tenants,
    };
    out.push_str(&hello_frame(&hello).to_string());
    out.push('\n');
    let mut churn = trace.churn.iter().peekable();
    let mut emit_churn_at = |sent: usize, out: &mut String| {
        while let Some(e) = churn.next_if(|e| e.after_requests <= sent) {
            let frame = match &e.op {
                ChurnOp::Register(doc) => register_frame(e.tenant, doc),
                ChurnOp::Retire(id) => retire_frame(e.tenant, *id),
            };
            out.push_str(&frame.to_string());
            out.push('\n');
        }
    };
    let timed = trace.arrivals != ArrivalProcess::BackToBack;
    let mut sent = 0usize;
    for session in &trace.sessions {
        for (i, &query) in session.query_indices.iter().enumerate() {
            emit_churn_at(sent, &mut out);
            let arrival_us = timed.then(|| session.arrival_us[i]);
            out.push_str(&request_frame(session.tenant, session.id, query, arrival_us).to_string());
            out.push('\n');
            sent += 1;
        }
    }
    emit_churn_at(sent, &mut out);
    out
}

/// Starts a [`TraceBuilder`] from a parsed [`Hello`] — the decode half
/// of [`trace_to_wire`]. Feeding every subsequent `request` frame into
/// [`TraceBuilder::push`] (and `register`/`retire` frames into
/// [`TraceBuilder::push_register`]/[`TraceBuilder::push_retire`])
/// reassembles the original trace.
///
/// # Errors
///
/// Propagates the builder's pool-size sanity bound.
pub fn builder_from_hello(hello: &Hello) -> Result<TraceBuilder, String> {
    TraceBuilder::new(
        &hello.benchmark,
        hello.trace_seed,
        hello.zipf_s,
        hello.pool_size,
        hello.arrivals,
    )?
    .with_tenants(hello.tenants)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Ticket;
    use lim_workloads::trace::{zipf_trace, TraceConfig};

    fn sample_trace(arrivals: ArrivalProcess) -> SessionTrace {
        let workload = lim_workloads::bfcl(42, 60);
        zipf_trace(
            &workload,
            &TraceConfig {
                seed: 9,
                sessions: 6,
                arrivals,
                ..TraceConfig::default()
            },
        )
    }

    #[test]
    fn wire_round_trips_a_back_to_back_trace() {
        let trace = sample_trace(ArrivalProcess::BackToBack);
        let stream = trace_to_wire(&trace);
        let mut lines = stream.lines();
        let hello = match parse_client_frame(lines.next().expect("hello line")).unwrap() {
            ClientFrame::Hello(h) => h,
            other => panic!("expected hello, got {other:?}"),
        };
        assert_eq!(hello.sessions, Some(trace.sessions.len()));
        let mut builder = builder_from_hello(&hello).unwrap();
        for line in lines {
            match parse_client_frame(line).unwrap() {
                ClientFrame::Request {
                    tenant,
                    session,
                    query,
                    arrival_us,
                } => builder
                    .push_for(tenant, session, query, arrival_us)
                    .unwrap(),
                other => panic!("expected request, got {other:?}"),
            }
        }
        assert_eq!(builder.finish(), trace);
    }

    #[test]
    fn wire_round_trips_poisson_timestamps_bit_exactly() {
        let trace = sample_trace(ArrivalProcess::Poisson { rate_rps: 3.0 });
        let stream = trace_to_wire(&trace);
        let mut lines = stream.lines();
        let hello = match parse_client_frame(lines.next().unwrap()).unwrap() {
            ClientFrame::Hello(h) => h,
            other => panic!("expected hello, got {other:?}"),
        };
        assert_eq!(hello.arrivals, trace.arrivals);
        let mut builder = builder_from_hello(&hello).unwrap();
        for line in lines {
            match parse_client_frame(line).unwrap() {
                ClientFrame::Request {
                    tenant,
                    session,
                    query,
                    arrival_us,
                } => {
                    assert!(arrival_us.is_some(), "timed stream stamps every request");
                    builder
                        .push_for(tenant, session, query, arrival_us)
                        .unwrap();
                }
                other => panic!("expected request, got {other:?}"),
            }
        }
        // Bit-exact: integer micros survive the JSON round trip untouched.
        assert_eq!(builder.finish(), trace);
    }

    #[test]
    fn wire_round_trips_churn_frames_at_their_positions() {
        let workload = lim_workloads::bfcl(42, 60);
        let trace = lim_workloads::churn::with_churn(
            &workload,
            sample_trace(ArrivalProcess::BackToBack),
            &lim_workloads::churn::ChurnConfig::default(),
        );
        assert!(!trace.churn.is_empty());
        let stream = trace_to_wire(&trace);
        let mut lines = stream.lines();
        let hello = match parse_client_frame(lines.next().unwrap()).unwrap() {
            ClientFrame::Hello(h) => h,
            other => panic!("expected hello, got {other:?}"),
        };
        let mut builder = builder_from_hello(&hello).unwrap();
        for line in lines {
            match parse_client_frame(line).unwrap() {
                ClientFrame::Request {
                    tenant,
                    session,
                    query,
                    arrival_us,
                } => builder
                    .push_for(tenant, session, query, arrival_us)
                    .unwrap(),
                ClientFrame::Register { tenant, tool } => {
                    builder.push_register_for(tenant, tool).unwrap()
                }
                ClientFrame::Retire { tenant, id } => builder.push_retire_for(tenant, id).unwrap(),
                other => panic!("unexpected frame {other:?}"),
            }
        }
        // Frame position encodes after_requests exactly, so the decoded
        // trace — churn schedule included — is the original.
        assert_eq!(builder.finish(), trace);
    }

    #[test]
    fn wire_round_trips_a_multi_tenant_trace_and_defaults_tenant_fields() {
        let workload = lim_workloads::bfcl(42, 60);
        let trace = zipf_trace(
            &workload,
            &TraceConfig {
                seed: 11,
                sessions: 8,
                tenants: 3,
                tenant_skew: 1.2,
                ..TraceConfig::default()
            },
        );
        assert!(trace.sessions.iter().any(|s| s.tenant != 0));
        let stream = trace_to_wire(&trace);
        let mut lines = stream.lines();
        let hello = match parse_client_frame(lines.next().unwrap()).unwrap() {
            ClientFrame::Hello(h) => h,
            other => panic!("expected hello, got {other:?}"),
        };
        assert_eq!(hello.tenants, 3);
        let mut builder = builder_from_hello(&hello).unwrap();
        for line in lines {
            match parse_client_frame(line).unwrap() {
                ClientFrame::Request {
                    tenant,
                    session,
                    query,
                    arrival_us,
                } => builder
                    .push_for(tenant, session, query, arrival_us)
                    .unwrap(),
                other => panic!("expected request, got {other:?}"),
            }
        }
        assert_eq!(builder.finish(), trace);

        // Single-tenant frames stay byte-identical to the pre-tenancy
        // protocol: no tenant/tenants members appear.
        let hello1 = Hello {
            benchmark: "bfcl".into(),
            pool_size: 60,
            trace_seed: 7,
            zipf_s: 1.0,
            arrivals: ArrivalProcess::BackToBack,
            sessions: None,
            tenants: 1,
        };
        assert!(hello_frame(&hello1).get("tenants").is_none());
        assert!(request_frame(0, 4, 2, None).get("tenant").is_none());
        assert_eq!(
            request_frame(2, 4, 2, None)
                .get("tenant")
                .and_then(Value::as_i64),
            Some(2)
        );
        // A zero tenant count is a malformed header, not a silent 1.
        let err = parse_client_frame(
            r#"{"frame":"hello","proto":"lim/wire-v1","benchmark":"bfcl",
                "pool_size":60,"trace_seed":7,"zipf_s":1.0,
                "arrivals":"back-to-back","tenants":0}"#,
        )
        .unwrap_err();
        assert!(err.contains("zero tenants"), "{err}");
    }

    #[test]
    fn catalog_frames_parse_and_reject_garbage() {
        match parse_client_frame(&register_frame(0, &ToolDoc::new("t", "c", "d")).to_string()) {
            Ok(ClientFrame::Register { tenant, tool }) => {
                assert_eq!((tenant, tool.name.as_str()), (0, "t"))
            }
            other => panic!("expected register, got {other:?}"),
        }
        match parse_client_frame(&retire_frame(2, 9).to_string()) {
            Ok(ClientFrame::Retire { tenant, id }) => assert_eq!((tenant, id), (2, 9)),
            other => panic!("expected retire, got {other:?}"),
        }
        let ack = catalog_frame("register", 51, 3);
        assert_eq!(ack.get("op").and_then(Value::as_str), Some("register"));
        assert_eq!(ack.get("epoch").and_then(Value::as_i64), Some(3));
        // Malformed mutations are rejected with a description.
        let err = parse_client_frame(r#"{"frame":"register"}"#).unwrap_err();
        assert!(err.contains("missing tool"), "{err}");
        let err = parse_client_frame(r#"{"frame":"register","tool":{"name":""}}"#).unwrap_err();
        assert!(err.contains("register frame"), "{err}");
        let err = parse_client_frame(r#"{"frame":"retire","id":-2}"#).unwrap_err();
        assert!(err.contains("negative"), "{err}");
    }

    #[test]
    fn hello_rejects_wrong_proto_and_unknown_frames() {
        let err = parse_client_frame(
            r#"{"frame":"hello","proto":"lim/wire-v0","benchmark":"bfcl",
                "pool_size":60,"trace_seed":7,"zipf_s":1.0,"arrivals":"back-to-back"}"#,
        )
        .unwrap_err();
        assert!(err.contains("unsupported wire proto"), "{err}");
        let err = parse_client_frame(r#"{"frame":"goodbye"}"#).unwrap_err();
        assert!(err.contains("unknown client frame"), "{err}");
        let err = parse_client_frame("not json").unwrap_err();
        assert!(err.contains("bad frame JSON"), "{err}");
    }

    #[test]
    fn server_frames_carry_the_documented_fields() {
        let served = RequestEvent {
            ticket: Ticket(3),
            disposition: Disposition::Served { wait_s: 0.25 },
            service_s: Some(1.5),
        };
        let frames = event_frames(&served);
        assert_eq!(frames.len(), 2);
        assert_eq!(
            frames[0].get("frame").and_then(Value::as_str),
            Some("disposition")
        );
        assert_eq!(frames[0].get("ticket").and_then(Value::as_i64), Some(3));
        assert_eq!(
            frames[0].get("status").and_then(Value::as_str),
            Some("served")
        );
        assert_eq!(frames[0].get("wait_s").and_then(Value::as_f64), Some(0.25));
        assert_eq!(
            frames[1].get("frame").and_then(Value::as_str),
            Some("latency")
        );
        assert_eq!(
            frames[1].get("service_s").and_then(Value::as_f64),
            Some(1.5)
        );

        let shed = RequestEvent {
            ticket: Ticket(4),
            disposition: Disposition::Shed,
            service_s: None,
        };
        let frames = event_frames(&shed);
        assert_eq!(frames.len(), 1, "shed requests bill no latency");
        assert_eq!(
            frames[0].get("status").and_then(Value::as_str),
            Some("shed")
        );
        assert!(frames[0].get("wait_s").is_none());

        assert_eq!(
            ready_frame().get("proto").and_then(Value::as_str),
            Some(WIRE_PROTO)
        );
        assert_eq!(
            error_frame("boom").get("message").and_then(Value::as_str),
            Some("boom")
        );
    }
}
