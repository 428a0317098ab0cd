//! The incremental serving session: `submit` → `drain` → `finish`.
//!
//! [`ServeEngine::process_trace`] replays a whole trace at once, but a
//! live front-end sees requests one at a time. [`ServeSession`] is the
//! streaming shape of the same engine: requests are [`ServeSession::submit`]ted
//! as they arrive, [`ServeSession::drain`] advances the deterministic
//! plan/compute/fill/execute stages plus the virtual-clock admission
//! queue over the batch accumulated so far, and [`ServeSession::finish`]
//! produces the exact [`ServeReport`] the batch replay would have
//! produced — `process_trace` *is* a session fed the whole trace.
//!
//! There is one stream implementation, [`crate::FleetSession`]; a
//! [`ServeSession`] is its one-tenant view over a standalone engine
//! (every call forwards with tenant 0). This module owns the stream
//! vocabulary ([`StreamMeta`], [`StreamRequest`], [`Ticket`],
//! [`RequestEvent`]) and the per-engine drain stages 1–4, which hand
//! each request's executions (the full-quality outcome plus any
//! alternative the stream may pick) back for the current drain only;
//! stage 5 (governor + admission), the per-request records and the
//! report fold live with the stream in [`crate::fleet`]. With one
//! tenant the stream skips everything only a fleet needs — budget
//! rebalancing, governor apportioning and the fleet-wide estimator — so
//! the view does no work a standalone engine would not.
//!
//! # Why batching boundaries cannot change the numbers
//!
//! Every observable number is a pure function of the *lookup sequence*,
//! which is the submission order regardless of how it is chopped into
//! drains:
//!
//! * The caches evolve only in the sequential plan stage, in submission
//!   order. `fill` never touches recency or counters (and insertions are
//!   counted at reservation), so *when* fills land — per batch or at the
//!   end of a trace — is unobservable.
//! * A key resolved `Reserved`/`Pending` inside one big batch resolves
//!   `Hit`/`Ready` across a drain boundary instead; both count as hits,
//!   bill the same [cost class](crate::ServeConfig), and carry the same
//!   selection value (selection is a pure function of the normalized
//!   query).
//! * Admission is driven through the incremental
//!   [`crate::FleetAdmissionSim`] one offer per request in submission
//!   order, however the batches fall.
//!
//! # Examples
//!
//! ```
//! use lim_serve::{ServeConfig, ServeEngine, StreamMeta, StreamRequest};
//!
//! let workload = lim_workloads::bfcl(7, 40);
//! let model = lim_llm::ModelProfile::by_name("llama3.1-8b").expect("model exists");
//! let mut engine = ServeEngine::new(workload, model, ServeConfig::default());
//!
//! let mut session = engine.begin_stream(StreamMeta::default(), 1);
//! let ticket = session
//!     .submit(StreamRequest { session: 0, query_index: 3, arrival_s: None })
//!     .expect("index in pool");
//! assert_eq!(ticket.index(), 0);
//! let events = session.drain();
//! assert_eq!(events.len(), 1, "closed loop resolves instantly");
//! let report = session.finish();
//! assert_eq!(report.requests, 1);
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use lim_core::{sharded_map, Pipeline, ServiceLevel};
use lim_workloads::trace::{ArrivalProcess, SessionTrace};

use crate::admission::Disposition;
use crate::engine::{
    ComputedSelection, RequestOutcome, SelectionJob, SelectionSource, ServeEngine,
};
use crate::fleet::{FleetSession, Host};
use crate::report::ServeReport;

/// Trace-level metadata a streaming front-end declares up front (the
/// wire protocol's `hello` frame carries exactly these fields): the
/// report inputs that are not derivable from the requests themselves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamMeta {
    /// Seed the trace (or live generator) was drawn with; echoed in the
    /// report as `trace_seed`.
    pub trace_seed: u64,
    /// Zipf popularity exponent of the stream; echoed in the report.
    pub zipf_s: f64,
    /// Arrival process of the stream. Anything but
    /// [`ArrivalProcess::BackToBack`] makes the stream *open-loop*:
    /// every request must then carry an arrival timestamp, and the
    /// admission queue participates.
    pub arrivals: ArrivalProcess,
    /// Session count to report, when the caller knows it (a replayed
    /// trace does). `None` counts runs of consecutive session ids in
    /// submission order, which equals the trace's session count for any
    /// session-major stream.
    pub sessions: Option<usize>,
}

impl StreamMeta {
    /// The metadata a replayed trace declares.
    pub(crate) fn of_trace(trace: &SessionTrace) -> Self {
        Self {
            trace_seed: trace.seed,
            zipf_s: trace.zipf_s,
            arrivals: trace.arrivals,
            sessions: Some(trace.sessions.len()),
        }
    }
}

impl Default for StreamMeta {
    fn default() -> Self {
        Self {
            trace_seed: 0,
            zipf_s: 0.0,
            arrivals: ArrivalProcess::BackToBack,
            sessions: None,
        }
    }
}

/// One request entering a [`ServeSession`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamRequest {
    /// Session (conversation) the request belongs to — the per-session
    /// fast-path and admission-fairness key.
    pub session: u64,
    /// Index into the engine workload's query pool (trace-v1 semantics).
    pub query_index: usize,
    /// Virtual arrival instant in seconds. Required on open-loop
    /// streams, forbidden on closed-loop ones.
    pub arrival_s: Option<f64>,
}

/// Receipt for one submitted request: its index in global submission
/// order. [`RequestEvent`]s and the stream's per-request records refer
/// back to this index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(pub(crate) usize);

impl Ticket {
    /// Zero-based position of the request in submission order.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// A request's fate, emitted once its admission disposition resolves —
/// immediately for idle-served and shed requests, at a later drain for
/// queued ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestEvent {
    /// Which request resolved.
    pub ticket: Ticket,
    /// Its admission verdict (wait time included for admitted requests).
    pub disposition: Disposition,
    /// Simulated service seconds of the outcome actually served —
    /// degraded requests bill the degraded (Level-3, selection-free)
    /// path — which are the seconds the admission queue charged its
    /// executor. `None` for shed requests, which never execute.
    pub service_s: Option<f64>,
}

/// One drained request's executions: the full-quality outcome plus the
/// alternatives admission or the governor may pick instead. They live
/// only until the stream settles the request's record at its admission
/// offer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Executed {
    pub(crate) full: RequestOutcome,
    /// The degraded (Level-3, selection-free) path; `None` when the
    /// admission config can never degrade to it.
    pub(crate) degraded: Option<RequestOutcome>,
    /// The Economy rung (one quant step coarser); `None` when no
    /// governor can ever choose it.
    pub(crate) eco: Option<RequestOutcome>,
}

impl ServeEngine {
    /// Opens an incremental serving session: the one-tenant view of a
    /// [`FleetSession`] over this engine. The session borrows the
    /// engine exclusively until [`ServeSession::finish`]; caches,
    /// per-session fast-path state and lifetime counters keep evolving
    /// across sessions exactly as they do across traces.
    pub fn begin_stream(&mut self, meta: StreamMeta, workers: usize) -> ServeSession<'_> {
        ServeSession(FleetSession::new(Host::Solo(self), meta, workers))
    }

    /// Runs one submitted batch through the deterministic stages:
    /// sequential cache plan, parallel unique-selection compute,
    /// sequential fill, parallel execute (plus the requested
    /// alternatives), one [`Executed`] per request in batch order.
    /// Admission is *not* part of the batch — the stream owns the
    /// incremental [`crate::FleetAdmissionSim`].
    pub(crate) fn drain_batch(
        &mut self,
        batch: &[StreamRequest],
        workers: usize,
        needs_degraded: bool,
        needs_eco: bool,
    ) -> Vec<Executed> {
        // ---- Stage 1: sequential cache plan in submission (canonical)
        // order. Cache state evolves exactly as a sequential server
        // would evolve it.
        let mut jobs: Vec<SelectionJob> = Vec::new();
        let mut slot_of: HashMap<String, usize> = HashMap::new();
        let mut planned = Vec::with_capacity(batch.len());
        for request in batch {
            planned.push(self.plan_request(
                request.session,
                request.query_index,
                &mut jobs,
                &mut slot_of,
            ));
        }

        // ---- Stage 2: parallel unique-selection compute. Workers claim
        // small chunks of jobs (cold, k-NN-only and refill jobs differ
        // about 10x in cost) and outputs are placed by job index, so
        // `computed[slot]` is the job in `jobs[slot]` for any worker count.
        let pipeline = Pipeline::new(&self.workload, &self.levels, &self.model, self.config.quant)
            .with_seed(self.config.seed)
            .with_device(self.config.device.profile());
        let computed: Vec<ComputedSelection> = sharded_map(&jobs, workers, |_, job| {
            self.run_selection_job(&pipeline, job)
        });

        // ---- Stage 3: sequential cache fill (keeps the engine warm for
        // the next batch). Fills are unconditional: `fill` no-ops on
        // already-filled slots, and a key whose embed entry was evicted
        // and re-reserved mid-batch must not be left valueless.
        for (job, result) in jobs.iter().zip(&computed) {
            // Fills land on the epoch the batch was planned under —
            // mutations only apply between drains, so the epoch cannot
            // have moved since the reservation.
            self.embed_cache
                .fill(&self.embed_key(&job.key), Arc::clone(&result.embeddings));
            self.memo
                .fill(&self.memo_key(&job.key), Arc::clone(&result.selection));
        }

        // Re-anchor the per-session fast path: a `Pending` source
        // indexes this batch's job table, which dies now. Resolving it
        // to the computed selection keeps the fast path armed across
        // batch (and trace) boundaries; the selection value is identical
        // to what the memo holds for the same key.
        for request in batch {
            if let Some(state) = self.sessions.get_mut(&request.session) {
                if let Some(SelectionSource::Pending(slot)) = &state.last_selection {
                    state.last_selection = Some(SelectionSource::Ready(Arc::clone(
                        &computed[*slot].selection,
                    )));
                }
            }
        }

        // ---- Stage 4: parallel chain execution, with the alternatives
        // the stream may pick. The degraded path serves the Level-3
        // full catalog with zero selection work. The governor's Economy
        // rung re-executes the same resolved tool selections (and the
        // same selection-overhead costs — the recommender ran once, at
        // the configured quant) one quant step coarser. Both are
        // computed up front, in parallel, so the sequential admission
        // walk just picks per request.
        let eco_pipeline = needs_eco
            .then(|| pipeline.at_quant(ServiceLevel::Economy.quant_for(self.config.quant)));
        let executed = sharded_map(&planned, workers, |_, request| Executed {
            full: self.execute_request(&pipeline, request, &computed),
            degraded: needs_degraded.then(|| self.execute_degraded(&pipeline, request)),
            eco: eco_pipeline
                .as_ref()
                .map(|eco| self.execute_request(eco, request, &computed)),
        });
        self.requests_served += planned.len() as u64;
        executed
    }
}

/// An in-flight incremental serving session over a mutably borrowed
/// [`ServeEngine`]: a one-tenant view of [`FleetSession`]. See the
/// [module docs](self) for the contract: any chopping of one request
/// stream into `drain` batches — including one request at a time —
/// produces a bit-identical report.
pub struct ServeSession<'e>(FleetSession<'e>);

impl ServeSession<'_> {
    /// Accepts one request into the current batch. Cheap: no engine work
    /// happens until [`ServeSession::drain`].
    ///
    /// # Errors
    ///
    /// Rejects query indices outside the engine's pool, a missing
    /// arrival timestamp on an open-loop stream (or a present one on a
    /// closed-loop stream), and arrival timestamps that decrease.
    pub fn submit(&mut self, request: StreamRequest) -> Result<Ticket, String> {
        self.0.submit(0, request).map_err(|e| e.to_string())
    }

    /// Requests submitted so far (drained or not).
    pub fn submitted(&self) -> usize {
        self.0.submitted()
    }

    /// Runs the batch accumulated since the last drain through the
    /// engine's deterministic stages and offers each request to the
    /// virtual-clock admission queue. Returns the requests whose
    /// disposition resolved — from this batch or earlier ones whose
    /// executor slot came up. Queued requests resolve in a later drain
    /// or at [`ServeSession::finish`].
    pub fn drain(&mut self) -> Vec<RequestEvent> {
        self.0.drain()
    }

    /// Registers a tool on the live engine mid-stream, draining the
    /// pending batch first (see [`FleetSession::register_tool`] for the
    /// boundary semantics). Returns the new tool's catalog index plus
    /// the [`RequestEvent`]s the forced drain resolved.
    ///
    /// # Errors
    ///
    /// See [`ServeEngine::register_tool`]; the stream is unaffected on
    /// error (the forced drain still happened).
    pub fn register_tool(
        &mut self,
        doc: &lim_tools::ToolDoc,
    ) -> Result<(usize, Vec<RequestEvent>), String> {
        self.0.register_tool(0, doc)
    }

    /// Retires the tool at `index` from the live engine mid-stream,
    /// draining the pending batch first. Returns the [`RequestEvent`]s
    /// the forced drain resolved.
    ///
    /// # Errors
    ///
    /// See [`ServeEngine::retire_tool`]; the stream is unaffected on
    /// error (the forced drain still happened).
    pub fn retire_tool(&mut self, index: usize) -> Result<Vec<RequestEvent>, String> {
        self.0.retire_tool(0, index)
    }

    /// The engine's current catalog epoch — what a wire front-end stamps
    /// into the `catalog` acknowledgement frame after a mutation.
    pub fn epoch(&self) -> u64 {
        self.0.epoch(0).expect("tenant 0 always exists")
    }

    /// Submits a whole trace (see [`ServeEngine::process_trace`]).
    pub(crate) fn replay(&mut self, trace: &SessionTrace) -> Result<(), String> {
        self.0.replay(trace)
    }

    /// Drains any pending batch, works the admission queue dry, and
    /// aggregates the final report — exactly what
    /// [`ServeEngine::process_trace`] returns for the same stream.
    pub fn finish(self) -> ServeReport {
        self.finish_with_events().0
    }

    /// [`ServeSession::finish`], also returning the tail
    /// [`RequestEvent`]s resolved by the final queue drain (a wire
    /// front-end still owes its client those dispositions).
    pub fn finish_with_events(self) -> (ServeReport, Vec<RequestEvent>) {
        let (report, events) = self.0.finish_with_events();
        (report.overall, events)
    }
}
