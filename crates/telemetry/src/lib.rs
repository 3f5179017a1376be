//! Observability primitives for the EXION serving simulator — spans,
//! timelines, histograms, and self-metering timers.
//!
//! The crate is deliberately dependency-free (std only): its hooks sit in
//! the cluster hot loop, and the workspace builds offline. Everything here
//! is a *pure observer* — nothing in this crate feeds back into simulated
//! time, so a run with sinks attached is byte-identical to one without.
//!
//! - [`Sink`] / [`NullSink`] / [`MemorySink`]: where the serving stack
//!   emits typed request-lifecycle [`SpanRecord`]s, per-unit
//!   [`TimelineSlice`]s, and [`InstantMarker`]s. The default [`NullSink`]
//!   reports itself disabled so emission sites can skip even building the
//!   records.
//! - [`chrome_trace_json`]: renders a [`MemorySink`] as Chrome trace-event
//!   JSON loadable in Perfetto / `chrome://tracing` — per-instance tracks
//!   of busy/idle/collective/refill/drain slices, planner re-plans as
//!   instant markers, and per-request async spans.
//! - [`LogHistogram`]: a streaming, log-bucketed (HDR-style) histogram
//!   with a fixed bucket count — O(1) memory percentiles with a bounded
//!   relative error, replacing sort-everything percentile paths.
//! - [`StopWatch`]: a wall-clock accumulator for self-metering (simulated
//!   ms per wall ms).
//!
//! Report counter/gauge time-series need no registry here: the serving
//! crate snapshots the running totals its cluster loop already keeps.

pub mod chrome;
pub mod hist;
pub mod json;
pub mod profile;
pub mod sink;
pub mod span;

pub use chrome::chrome_trace_json;
pub use hist::LogHistogram;
pub use profile::StopWatch;
pub use sink::{
    CounterSample, InstantMarker, MemorySink, NullSink, Sink, SliceKind, TimelineSlice,
};
pub use span::{RequestEvent, SpanRecord};
