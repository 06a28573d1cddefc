//! # rde-obs
//!
//! The observability layer for the reverse-data-exchange engines:
//! structured tracing, a process-wide metrics registry, and a bounded
//! JSONL event journal — with **zero external dependencies** (the build
//! environment is offline, so `tracing`/`metrics` stand-ins live here).
//!
//! Three cooperating pieces:
//!
//! * [`span`](mod@span) — RAII spans over thread-local span stacks with monotonic
//!   timestamps. A span emits `span_open`/`span_close` journal records;
//!   parentage is the enclosing span on the same thread. The whole
//!   tracing side compiles out behind the `trace` cargo feature: with
//!   the feature off every span/journal call site is an empty inline
//!   function and the journal provably emits nothing.
//! * [`metrics`] — named counters and log₂-scale histograms behind
//!   lock-free atomics. Registration takes a lock once per call site
//!   (the [`counter!`]/[`histogram!`] macros cache the handle in a
//!   `OnceLock`); the increment path is a relaxed atomic add. Metrics
//!   are **not** feature-gated — snapshots feed `--metrics` and the
//!   benchmark baselines even in no-trace builds.
//! * [`journal`] — a bounded JSONL sink (file, stderr, or in-memory)
//!   recording span boundaries, chase rounds, tgd firings, budget
//!   exhaustions, and cache hit/miss events. Every line is one JSON
//!   object; a capacity cap drops excess records and reports the count
//!   in a final `journal_truncated` record.
//!
//! Layered on those: [`request`] installs a thread-scoped request id
//! that stamps a `req` field onto every journal record (the serve
//! daemon's end-to-end attribution), [`metrics::labeled_counter`] and
//! friends key series by `(name, labels)` for per-op × per-mapping
//! breakdowns, and [`expo`] renders a snapshot in Prometheus-style
//! text exposition for the `METRICS` wire op.
//!
//! Metric names follow `crate.subsystem.event` (for example
//! `chase.triggers.fired`, `hom.search.nodes`, `core.arrow.misses`);
//! journal record names reuse the same convention.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed errors, not panics; the
// seed-sweep suite in rde-faults depends on it. Test modules are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod expo;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod request;
pub mod span;

pub use journal::{event, Field, Record, Sink};
pub use metrics::{
    labeled_counter, labeled_gauge, labeled_histogram, snapshot, Counter, Gauge, Histogram,
    Snapshot,
};
pub use span::{span, Span};
