//! Chrome trace-event JSON export of a recorded run.
//!
//! [`chrome_trace_json`] renders a [`MemorySink`] as the Trace Event
//! Format that Perfetto and `chrome://tracing` load:
//!
//! - **pid 0 "units"** — one thread (track) per instance, named by the
//!   run's track declarations. Busy/idle/collective/refill/drain slices
//!   become complete (`ph: "X"`) events; collectives and refills nest
//!   inside their iteration's busy slice.
//! - **pid 0, tid 0** — planner markers
//!   ([`InstantMarker`](crate::sink::InstantMarker)) as global instant
//!   (`ph: "i"`) events.
//! - **pid 0 counter tracks** — [`CounterSample`] readings (queue depth,
//!   GSC occupancy, in-flight rows) as counter (`ph: "C"`) events, one
//!   named track per `(instance, counter)` pair, so Perfetto shows *why*
//!   a busy slice stalled next to the slice itself.
//! - **pid 1 "requests"** — each request's lifecycle as one async
//!   nestable span (`ph: "b"` at arrival, `ph: "e"` at its terminal
//!   shed/completion) with intermediate transitions as async instants
//!   (`ph: "n"`), all correlated by the request id.
//!
//! Timestamps are microseconds in the trace format; simulated
//! milliseconds are scaled by 1000 on the way out.

use crate::json::{push_f64, push_str};
use crate::sink::{CounterSample, MemorySink};
use crate::span::RequestEvent;

/// Scale from simulated ms to trace-format µs.
const TS_SCALE: f64 = 1000.0;

/// Renders `sink` as a Chrome trace-event JSON document (an object with a
/// `traceEvents` array and `displayTimeUnit: "ms"`).
pub fn chrome_trace_json(sink: &MemorySink) -> String {
    let mut out = String::with_capacity(256 + 160 * sink.len());
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;

    // Process / thread naming metadata.
    for (pid, name) in [(0u32, "units"), (1, "requests")] {
        sep(&mut out, &mut first);
        out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
        out.push_str(&pid.to_string());
        out.push_str(",\"tid\":0,\"args\":{\"name\":");
        push_str(&mut out, name);
        out.push_str("}}");
    }
    for (instance, name) in &sink.tracks {
        sep(&mut out, &mut first);
        out.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":");
        out.push_str(&instance.to_string());
        out.push_str(",\"args\":{\"name\":");
        push_str(&mut out, name);
        out.push_str("}}");
    }

    // Per-instance timeline slices.
    for s in &sink.slices {
        sep(&mut out, &mut first);
        out.push_str("{\"name\":");
        push_str(&mut out, s.label);
        out.push_str(",\"cat\":");
        push_str(&mut out, s.kind.category());
        out.push_str(",\"ph\":\"X\",\"ts\":");
        push_f64(&mut out, s.start_ms * TS_SCALE);
        out.push_str(",\"dur\":");
        push_f64(&mut out, s.dur_ms * TS_SCALE);
        out.push_str(",\"pid\":0,\"tid\":");
        out.push_str(&s.instance.to_string());
        out.push_str(",\"args\":{\"batch\":");
        out.push_str(&s.batch.to_string());
        out.push_str("}}");
    }

    // Counter tracks. Chrome keys counter tracks by (pid, name), so the
    // instance id is folded into the name to keep per-unit series apart;
    // cluster-wide counters keep the bare name.
    for c in &sink.counters {
        sep(&mut out, &mut first);
        out.push_str("{\"name\":");
        if c.instance == CounterSample::CLUSTER {
            push_str(&mut out, c.name);
        } else {
            push_str(&mut out, &format!("{} (inst {})", c.name, c.instance));
        }
        out.push_str(",\"cat\":\"counter\",\"ph\":\"C\",\"ts\":");
        push_f64(&mut out, c.at_ms * TS_SCALE);
        out.push_str(",\"pid\":0,\"tid\":0,\"args\":{\"value\":");
        push_f64(&mut out, c.value);
        out.push_str("}}");
    }

    // Planner markers.
    for m in &sink.instants {
        sep(&mut out, &mut first);
        out.push_str("{\"name\":");
        push_str(&mut out, m.name);
        out.push_str(",\"ph\":\"i\",\"s\":\"g\",\"ts\":");
        push_f64(&mut out, m.at_ms * TS_SCALE);
        out.push_str(",\"pid\":0,\"tid\":0,\"args\":{\"detail\":");
        push_str(&mut out, &m.detail);
        out.push_str("}}");
    }

    // Request lifecycle spans (async nestable, correlated by request id).
    for r in &sink.spans {
        let (ph, name) = match r.event {
            RequestEvent::Arrival => ("b", r.model),
            e if e.is_terminal() => ("e", r.model),
            e => ("n", e.label()),
        };
        sep(&mut out, &mut first);
        out.push_str("{\"name\":");
        push_str(&mut out, name);
        out.push_str(",\"cat\":\"request\",\"ph\":\"");
        out.push_str(ph);
        out.push_str("\",\"id\":");
        out.push_str(&r.request.to_string());
        out.push_str(",\"ts\":");
        push_f64(&mut out, r.at_ms * TS_SCALE);
        out.push_str(",\"pid\":1,\"tid\":0,\"args\":{\"event\":");
        push_str(&mut out, r.event.label());
        if let RequestEvent::Degraded { steps } = r.event {
            out.push_str(",\"steps\":");
            out.push_str(&steps.to_string());
        }
        if let RequestEvent::BatchJoin { instance }
        | RequestEvent::Iteration { instance, .. }
        | RequestEvent::Parked { instance }
        | RequestEvent::Resumed { instance }
        | RequestEvent::Completed { instance } = r.event
        {
            out.push_str(",\"instance\":");
            out.push_str(&instance.to_string());
        }
        if let RequestEvent::Iteration { step, .. } = r.event {
            out.push_str(",\"step\":");
            out.push_str(&step.to_string());
        }
        out.push_str("}}");
    }

    out.push_str("]}");
    out
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::is_well_formed;
    use crate::sink::{InstantMarker, Sink, SliceKind, TimelineSlice};
    use crate::span::SpanRecord;

    #[test]
    fn export_is_well_formed_json_with_all_channels() {
        let mut sink = MemorySink::new();
        sink.declare_track(0, "replica 0 (inst 0)".to_string());
        for (at, ev) in [
            (0.0, RequestEvent::Arrival),
            (0.0, RequestEvent::Admitted),
            (0.0, RequestEvent::Enqueued),
            (1.0, RequestEvent::BatchJoin { instance: 0 }),
            (
                2.0,
                RequestEvent::Iteration {
                    instance: 0,
                    step: 1,
                },
            ),
            (3.0, RequestEvent::Parked { instance: 0 }),
            (4.0, RequestEvent::Resumed { instance: 0 }),
            (5.0, RequestEvent::Migrated),
            (6.0, RequestEvent::Completed { instance: 0 }),
        ] {
            sink.span(SpanRecord {
                at_ms: at,
                request: 42,
                model: "sdxl \"turbo\"",
                event: ev,
            });
        }
        sink.span(SpanRecord {
            at_ms: 0.5,
            request: 43,
            model: "sd",
            event: RequestEvent::Degraded { steps: 12 },
        });
        sink.slice(TimelineSlice {
            instance: 0,
            kind: SliceKind::Busy,
            start_ms: 1.0,
            dur_ms: 5.0,
            label: "sdxl",
            batch: 4,
        });
        sink.instant(InstantMarker {
            at_ms: 2.5,
            name: "replan",
            detail: "replicated x2 -> tp2 gang x1".to_string(),
        });
        sink.counter(CounterSample {
            instance: CounterSample::CLUSTER,
            at_ms: 2.0,
            name: "queue depth",
            value: 5.0,
        });
        sink.counter(CounterSample {
            instance: 0,
            at_ms: 2.0,
            name: "gsc bytes",
            value: 1.5e9,
        });
        let json = chrome_trace_json(&sink);
        assert!(is_well_formed(&json), "{json}");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"ph\":\"e\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"queue depth\""));
        assert!(json.contains("\"gsc bytes (inst 0)\""));
        assert!(json.contains("\"steps\":12"));
        // Simulated ms scale to µs timestamps.
        assert!(json.contains("\"ts\":6000"));
    }

    #[test]
    fn empty_sink_exports_an_empty_but_valid_trace() {
        let json = chrome_trace_json(&MemorySink::new());
        assert!(is_well_formed(&json), "{json}");
    }
}
