//! # megasw-obs — run observability for both execution backends
//!
//! The paper's whole argument is about *where time goes*: the circular
//! buffer hides border communication behind computation, and the evaluation
//! is a set of utilization/stall pictures. This crate is the workspace-wide
//! event model that lets both backends produce those pictures:
//!
//! * [`ObsSpan`] / [`ObsKind`] — typed spans (`Kernel`, `RingPush`,
//!   `RingPopWait`, `BorderXfer`, `Traceback`) with device and block-row
//!   attribution. The threaded pipeline emits them with wall-clock
//!   timestamps; the discrete-event backend emits them with simulated-time
//!   timestamps. Both use nanoseconds since the run epoch, so the rest of
//!   the stack is backend-agnostic.
//! * [`Recorder`] — a cheap, clonable, thread-safe collector with an
//!   [`ObsLevel`] filter (`off` / `kernels` / `full`).
//! * [`MetricsRegistry`] — per-run counters and log-bucketed percentile
//!   histograms (GCUPS, ring occupancy, stall totals, span durations)
//!   rendered as a text summary or exported via [`prom`] in Prometheus
//!   text exposition or JSON.
//! * [`LiveTelemetry`] / [`ProgressSampler`] — lock-free **in-flight**
//!   counters the pipeline workers update per block-row (cells, rows,
//!   busy time, ring occupancy) and a sampler thread that renders the
//!   `--progress` line while the run executes.
//! * [`chrome`] — a Chrome `trace_event` JSON exporter: the output opens
//!   directly in `chrome://tracing` or <https://ui.perfetto.dev>, one lane
//!   per device plus a host lane, plus per-device stall counter tracks.
//!   [`chrome::validate`] structurally checks a trace (golden tests use
//!   it), backed by the dependency-free JSON parser in [`json`].
//! * [`FlightRecorder`] — a lock-free ring of the last N structured
//!   events per worker, dumped as JSONL on fault/abort/panic or on
//!   demand; the black box for post-mortem debugging.
//! * [`MetricsHub`] / [`MetricsServer`] — a std-only HTTP/1.1 endpoint
//!   (`/metrics`, `/health`, `/flight`) serving live telemetry from a run
//!   in progress.

pub mod chrome;
pub mod flight;
pub mod http;
pub mod json;
pub mod live;
pub mod metrics;
pub mod prom;
pub mod span;

pub use chrome::{chrome_trace, validate, TraceCheck};
pub use flight::{FlightEvent, FlightKind, FlightRecorder};
pub use http::{
    http_delete, http_get, http_post, http_request, Handler, MetricsHub, MetricsServer, Request,
    Response,
};
pub use live::{
    render_progress_line, DeviceSnapshot, LiveSnapshot, LiveTelemetry, ProgressSampler, RingGauge,
};
pub use metrics::{Histogram, MetricsRegistry};
pub use prom::{
    escape_label_value, metrics_json, prometheus, validate_exposition, ExpositionSummary,
};
pub use span::{ObsKind, ObsLevel, ObsSpan, Recorder};
