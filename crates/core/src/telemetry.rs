//! Live telemetry: a metrics registry, a JSONL run journal, and
//! Prometheus-style exposition.
//!
//! Everything the paper reports (Tables 1–3, Figure 1: idle ratio,
//! transferred/collected nodes, max simultaneously active solvers,
//! racing winner, gap) is a *post-mortem* statistic — [`crate::UgStats`]
//! reproduces exactly that, but nothing could be observed while a run
//! was alive. This module is the in-flight counterpart, three pieces:
//!
//! * a **metrics registry** ([`MetricsRegistry`]): atomic counters,
//!   gauges and fixed-bucket histograms (std::sync only, no deps) that
//!   cost one relaxed atomic op per update, rendered as Prometheus text
//!   exposition on demand. A process-wide [`global()`] registry carries
//!   cross-cutting series (wire bytes/frames); subsystems that may be
//!   instantiated several times per process (a [`crate::Server`]) own a
//!   private registry and render both.
//! * a **run journal** ([`Journal`]): timestamped [`TelemetryEvent`]s
//!   appended as JSON lines — phase changes, racing winner, incumbents,
//!   checkpoints, load-balance transfers, worker lifecycle, periodic
//!   [`ProgressMsg`] snapshots, and a final [`crate::UgStats`]. A
//!   journal is replayable ([`Journal::replay`]) for post-hoc analysis
//!   (gap-over-time plots, Figure 1-style) and is asserted on in tests
//!   ([`reconstruct_stats`] rebuilds the final statistics from the
//!   event stream alone).
//! * **exposition glue** ([`TelemetrySink`], [`ProgressSink`]): how a
//!   [`crate::supervisor::LoadCoordinator`] publishes without knowing
//!   who listens. The sink is cheap to clone, defaults to disabled, and
//!   a disabled sink costs one branch per call site.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// Primitives: counter, gauge, histogram
// ---------------------------------------------------------------------

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A floating-point value that can go up and down (stored as f64 bits).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Stores `v`.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Fixed-bucket histogram: `bounds` are the inclusive upper bounds
/// (`le`) of the finite buckets; an implicit `+Inf` bucket catches the
/// rest. Observation is two relaxed atomic ops plus a CAS loop for the
/// float sum — cheap enough for per-frame call sites.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One slot per finite bound plus the `+Inf` slot.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// Bounds are sanitized: sorted, deduplicated, non-finite dropped
    /// (the `+Inf` bucket always exists implicitly).
    pub fn new(bounds: &[f64]) -> Self {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        bounds.sort_by(|a, b| a.total_cmp(b));
        bounds.dedup();
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram { bounds, buckets, count: AtomicU64::new(0), sum_bits: AtomicU64::new(0) }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// The configured inclusive upper bucket bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// `(le, cumulative count)` pairs ending with the `+Inf` bucket.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(self.buckets.len());
        let mut acc = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            acc += b.load(Ordering::Relaxed);
            let le = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((le, acc));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Registry and exposition
// ---------------------------------------------------------------------

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct Family {
    help: String,
    /// Keyed by the rendered label set (`""` for unlabeled).
    series: BTreeMap<String, Metric>,
}

/// A named collection of metrics rendering to Prometheus text format.
/// Registration is get-or-create: asking twice for the same
/// (name, labels) returns the same underlying atomic, so independent
/// layers can share a series without plumbing.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let key = render_labels(labels);
        let mut families = self.families.lock().unwrap();
        let family = families
            .entry(name.to_string())
            .or_insert_with(|| Family { help: help.to_string(), series: BTreeMap::new() });
        family.series.entry(key).or_insert_with(make).clone()
    }

    /// The unlabeled counter `name`, registering it on first use.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, &[], help)
    }

    /// The counter `name{labels}`, registering it on first use.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Counter> {
        match self.register(name, labels, help, || Metric::Counter(Arc::new(Counter::default()))) {
            Metric::Counter(c) => c,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// The unlabeled gauge `name`, registering it on first use.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[], help)
    }

    /// The gauge `name{labels}`, registering it on first use.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Gauge> {
        match self.register(name, labels, help, || Metric::Gauge(Arc::new(Gauge::default()))) {
            Metric::Gauge(g) => g,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// The histogram `name{labels}`, registering it on first use.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        bounds: &[f64],
    ) -> Arc<Histogram> {
        match self
            .register(name, labels, help, || Metric::Histogram(Arc::new(Histogram::new(bounds))))
        {
            Metric::Histogram(h) => h,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Drops one labeled series (e.g. a finished job's gauges).
    pub fn remove(&self, name: &str, labels: &[(&str, &str)]) {
        let key = render_labels(labels);
        let mut families = self.families.lock().unwrap();
        if let Some(f) = families.get_mut(name) {
            f.series.remove(&key);
        }
    }

    /// Renders every family in Prometheus text exposition format,
    /// deterministically ordered by (family, label set).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// [`MetricsRegistry::render`], appending into `out`.
    pub fn render_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let families = self.families.lock().unwrap();
        for (name, family) in families.iter() {
            let Some(kind) = family.series.values().next().map(|m| m.kind()) else { continue };
            let _ = writeln!(out, "# HELP {name} {}", family.help.replace('\n', " "));
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (labels, metric) in family.series.iter() {
                match metric {
                    Metric::Counter(c) => {
                        let _ = writeln!(out, "{name}{labels} {}", fmt_value(c.get() as f64));
                    }
                    Metric::Gauge(g) => {
                        let _ = writeln!(out, "{name}{labels} {}", fmt_value(g.get()));
                    }
                    Metric::Histogram(h) => {
                        for (le, cum) in h.cumulative() {
                            let le = fmt_value(le);
                            let inner = labels.trim_start_matches('{').trim_end_matches('}');
                            let all = if inner.is_empty() {
                                format!("{{le=\"{le}\"}}")
                            } else {
                                format!("{{{inner},le=\"{le}\"}}")
                            };
                            let _ = writeln!(out, "{name}_bucket{all} {cum}");
                        }
                        let _ = writeln!(out, "{name}_sum{labels} {}", fmt_value(h.sum()));
                        let _ = writeln!(out, "{name}_count{labels} {}", h.count());
                    }
                }
            }
        }
    }
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    format!("{{{}}}", inner.join(","))
}

/// Escapes a label value per the exposition format: backslash, double
/// quote and newline.
pub fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Prometheus sample-value formatting: `+Inf`/`-Inf`/`NaN` spellings
/// for the non-finite cases.
pub fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

/// Sums every sample of a metric family in a Prometheus-style
/// exposition: all lines whose metric name (up to `{` or whitespace)
/// equals `family`, ignoring comments. Unlabeled gauges yield their
/// single value; labeled counters yield the total across label sets.
/// The consumer-side inverse of [`MetricsRegistry::render`] — how the
/// gateway's steal/health loops and `ugd top` read a peer's exposition
/// without a full parser.
pub fn sample_sum(text: &str, family: &str) -> f64 {
    let mut sum = 0.0;
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        let name_end = line.find(['{', ' ']).unwrap_or(line.len());
        if &line[..name_end] != family {
            continue;
        }
        if let Some(value) = line.rsplit(' ').next() {
            if let Ok(v) = value.parse::<f64>() {
                sum += v;
            }
        }
    }
    sum
}

/// Validates text against the subset of the Prometheus exposition
/// grammar this module emits (comment lines, `# HELP`/`# TYPE`, and
/// `name{labels} value` samples). Returns the first offending line.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    fn valid_value(s: &str) -> bool {
        matches!(s, "+Inf" | "-Inf" | "NaN") || s.parse::<f64>().is_ok()
    }
    fn valid_labels(s: &str) -> bool {
        // `{}`-wrapped, comma-separated `key="escaped value"` pairs.
        let Some(inner) = s.strip_prefix('{').and_then(|s| s.strip_suffix('}')) else {
            return false;
        };
        let mut rest = inner;
        loop {
            let Some(eq) = rest.find('=') else { return false };
            if !valid_name(&rest[..eq]) {
                return false;
            }
            let mut chars = rest[eq + 1..].char_indices();
            if chars.next().map(|(_, c)| c) != Some('"') {
                return false;
            }
            let mut end = None;
            let mut escaped = false;
            for (i, c) in chars {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    end = Some(eq + 1 + i);
                    break;
                }
            }
            let Some(end) = end else { return false };
            rest = &rest[end + 1..];
            match rest.strip_prefix(',') {
                Some(r) => rest = r,
                None => return rest.is_empty(),
            }
        }
    }
    for (no, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(meta) = line.strip_prefix("# ") {
            let mut parts = meta.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            let ok = match keyword {
                "HELP" => valid_name(name),
                "TYPE" => {
                    valid_name(name)
                        && matches!(
                            parts.next().unwrap_or(""),
                            "counter" | "gauge" | "histogram" | "summary" | "untyped"
                        )
                }
                _ => true, // plain comment
            };
            if !ok {
                return Err(format!("line {}: bad metadata line {line:?}", no + 1));
            }
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            return Err(format!("line {}: no sample value in {line:?}", no + 1));
        };
        let (name, labels) = match series.find('{') {
            Some(i) => (&series[..i], &series[i..]),
            None => (series, ""),
        };
        if !valid_name(name) {
            return Err(format!("line {}: bad metric name in {line:?}", no + 1));
        }
        if !labels.is_empty() && !valid_labels(labels) {
            return Err(format!("line {}: bad label set in {line:?}", no + 1));
        }
        if !valid_value(value) {
            return Err(format!("line {}: bad sample value in {line:?}", no + 1));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Process-wide series
// ---------------------------------------------------------------------

/// The process-wide registry: cross-cutting series that have no owning
/// subsystem instance (the wire codec runs in every transport).
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Wire-codec traffic counters, maintained by [`crate::wire`] itself so
/// every transport (per-call process comm, server pool, client
/// connections) is covered without plumbing.
pub struct WireStats {
    /// Frames encoded by this process.
    pub tx_frames: Arc<Counter>,
    /// Bytes (including length prefixes) encoded by this process.
    pub tx_bytes: Arc<Counter>,
    /// Frames decoded by this process.
    pub rx_frames: Arc<Counter>,
    /// Bytes (including length prefixes) decoded by this process.
    pub rx_bytes: Arc<Counter>,
}

/// The process-wide wire counters, registered in [`global`] on first use.
pub fn wire() -> &'static WireStats {
    static WIRE: OnceLock<WireStats> = OnceLock::new();
    WIRE.get_or_init(|| {
        let r = global();
        WireStats {
            tx_frames: r
                .counter("ugrs_wire_tx_frames_total", "Wire frames encoded by this process"),
            tx_bytes: r.counter(
                "ugrs_wire_tx_bytes_total",
                "Wire bytes (frames incl. length prefix) encoded by this process",
            ),
            rx_frames: r
                .counter("ugrs_wire_rx_frames_total", "Wire frames decoded by this process"),
            rx_bytes: r.counter(
                "ugrs_wire_rx_bytes_total",
                "Wire bytes (frames incl. length prefix) decoded by this process",
            ),
        }
    })
}

/// Transport self-healing counters, maintained by [`crate::process`]:
/// how often worker connections were resumed instead of declared dead,
/// and what the recovery cost.
pub struct CommStats {
    /// Successful session resumptions (a worker reconnected and its
    /// rank was restored instead of going through `WorkerDied`).
    pub reconnects: Arc<Counter>,
    /// Frames replayed from a retransmit ring after a resume.
    pub frames_retransmitted: Arc<Counter>,
    /// Frames rejected by the CRC check (corruption caught in flight).
    pub frames_corrupt: Arc<Counter>,
    /// Duplicate frames suppressed by sequence number after a replay.
    pub dup_frames: Arc<Counter>,
    /// Sequence gaps detected by a receiver — frames missing from the
    /// byte stream. Each forces a reconnect so the resume replays the
    /// missing range instead of silently running past it.
    pub seq_gaps: Arc<Counter>,
    /// Retransmit rings that hit capacity. The session is declared
    /// dead loudly (requeue path) rather than silently evicting — and
    /// losing — the oldest un-acked payload.
    pub ring_overflows: Arc<Counter>,
}

/// The process-wide transport recovery counters, registered in
/// [`global`] on first use.
pub fn comm() -> &'static CommStats {
    static COMM: OnceLock<CommStats> = OnceLock::new();
    COMM.get_or_init(|| {
        let r = global();
        CommStats {
            reconnects: r.counter(
                "ugrs_comm_reconnects_total",
                "Worker connections resumed via session reconnect",
            ),
            frames_retransmitted: r.counter(
                "ugrs_comm_frames_retransmitted_total",
                "Frames replayed from a retransmit ring after a reconnect",
            ),
            frames_corrupt: r
                .counter("ugrs_comm_frames_corrupt_total", "Frames rejected by the CRC32 check"),
            dup_frames: r.counter(
                "ugrs_comm_dup_frames_total",
                "Duplicate frames suppressed by sequence number",
            ),
            seq_gaps: r.counter(
                "ugrs_comm_seq_gaps_total",
                "Sequence gaps detected by a receiver (each forces a reconnect)",
            ),
            ring_overflows: r.counter(
                "ugrs_comm_ring_overflows_total",
                "Retransmit rings that overflowed (the session is declared dead)",
            ),
        }
    })
}

// ---------------------------------------------------------------------
// Progress snapshots
// ---------------------------------------------------------------------

/// A point-in-time snapshot of one coordinator's run — the live
/// counterpart of [`crate::UgStats`], emitted periodically through a
/// [`ProgressSink`] and into the journal. Everything a `ugd top` row
/// needs.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ProgressMsg {
    /// Seconds since the run started.
    pub wall: f64,
    /// `"racing"` or `"normal"`.
    pub phase: String,
    /// Best incumbent objective (internal sense; +inf when none).
    pub primal_bound: f64,
    /// Global dual bound (internal sense).
    pub dual_bound: f64,
    /// Relative gap in percent (Table 2 convention; +inf when open).
    pub gap_percent: f64,
    /// Coordinator queue + assigned subtree roots.
    pub open_nodes: u64,
    /// Completed B&B nodes plus the freshest in-flight status counts.
    pub nodes: u64,
    /// Subproblems sent coordinator → solver so far.
    pub transferred: u64,
    /// Subproblems collected solver → coordinator so far.
    pub collected: u64,
    /// Improving incumbents that reached the coordinator so far.
    pub incumbents: u64,
    /// Solvers currently holding a subproblem.
    pub active: usize,
    /// Aggregate idle ratio over all ranks so far, in percent.
    pub idle_percent: f64,
    /// Ranks declared dead by the transport so far.
    pub workers_died: u64,
}

/// Where a coordinator pushes [`ProgressMsg`]s: an opaque callback so
/// the supervisor needs no knowledge of the server's aggregation
/// structures (or of whatever a library embedder wires up).
#[derive(Clone)]
pub struct ProgressSink(Arc<dyn Fn(&ProgressMsg) + Send + Sync>);

impl ProgressSink {
    /// Wraps a callback as a sink.
    pub fn new(f: impl Fn(&ProgressMsg) + Send + Sync + 'static) -> Self {
        ProgressSink(Arc::new(f))
    }

    /// Pushes one snapshot through the callback.
    pub fn emit(&self, msg: &ProgressMsg) {
        (self.0)(msg)
    }
}

impl std::fmt::Debug for ProgressSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ProgressSink")
    }
}

// ---------------------------------------------------------------------
// The run journal
// ---------------------------------------------------------------------

/// One journaled occurrence. Progress snapshots carry the full
/// [`ProgressMsg`]; everything else is a discrete lifecycle event.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub enum TelemetryEvent {
    /// The coordinator's run loop began.
    RunStarted {
        /// Solver ranks in this run.
        workers: usize,
        /// Position in the restart chain (run `1.run_index`).
        run_index: u32,
        /// True when the run resumed from a checkpoint.
        restarted: bool,
    },
    /// Ramp-up phase change: `"racing"` or `"normal"`.
    Phase {
        /// The phase entered: `"racing"` or `"normal"`.
        phase: String,
    },
    /// Racing concluded: the winning rank and its settings index
    /// (Figure 1's statistic).
    RacingWinner {
        /// The rank whose racing run won.
        winner_rank: usize,
        /// Index of the winning settings bundle.
        settings_index: usize,
    },
    /// An improving incumbent reached the coordinator.
    Incumbent {
        /// Objective of the improving solution (internal sense).
        obj: f64,
    },
    /// Periodic progress snapshot (gap-over-time comes from these).
    Progress(ProgressMsg),
    /// A subproblem left the coordinator for `rank` (load balancing).
    Transferred {
        /// Receiving solver rank.
        rank: usize,
        /// Dual bound of the transferred subproblem.
        dual_bound: f64,
    },
    /// A collected subproblem arrived from `rank`.
    Collected {
        /// Exporting solver rank.
        rank: usize,
        /// Dual bound of the collected subproblem.
        dual_bound: f64,
    },
    /// A checkpoint hit disk.
    CheckpointSaved {
        /// Primitive (coordinator-held) nodes the checkpoint preserves.
        primitive_nodes: usize,
    },
    /// The transport declared `rank` dead; its work was requeued.
    WorkerDied {
        /// The dead rank.
        rank: usize,
    },
    /// The run ended; the final statistics.
    RunFinished {
        /// Final cumulative statistics of the run.
        stats: crate::UgStats,
    },
    /// Job provenance, written once at the head of a per-job journal:
    /// which instance family ran and — when the job was submitted from
    /// a file (`ugd submit --file`) — the FNV-1a 64 checksum of the
    /// exact bytes solved.
    JobMeta {
        /// Instance family label (`stp`, `misdp`, `maxcut`, …).
        family: Option<String>,
        /// Hex FNV-1a 64 of the source instance file, if known.
        checksum: Option<String>,
        /// Instance size hint (family-specific unit: STP alive edges,
        /// MISDP variables, max-cut edges).
        size: Option<u64>,
    },
    /// The full racing field at the moment racing concluded: every
    /// arm's settings index and final root progress, best first — how
    /// every arm stood, not only which one won.
    RacingField {
        /// All racing arms, ordered best (winner) to worst.
        arms: Vec<RacingArm>,
    },
}

/// One racing participant's final standing, recorded in
/// [`TelemetryEvent::RacingField`].
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct RacingArm {
    /// Solver rank that ran this arm.
    pub rank: usize,
    /// Settings bundle index the rank raced under.
    pub settings_index: usize,
    /// Root dual bound the arm reached at the trigger (internal sense).
    pub dual_bound: f64,
    /// Open nodes the arm reported at the trigger.
    pub open_nodes: usize,
    /// Branch-and-bound nodes the arm had spent by the trigger — what
    /// its bound *cost*.
    pub nodes: u64,
}

/// One journal line: seconds since run start plus the event.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct JournalRecord {
    /// Seconds since the run started.
    pub t: f64,
    /// The journaled event.
    pub event: TelemetryEvent,
}

/// An append-only JSONL event log for one run/job. The solve path only
/// serializes and enqueues; one process-wide writer thread owns every
/// journal file, drains bursts in one write, and flushes whenever its
/// queue runs empty — so a tailing reader sees a near-current journal,
/// yet no coordinator loop ever blocks on filesystem latency, and a
/// short job pays a channel round-trip on close rather than a thread
/// spawn + join (measured: each was the difference between ~0% and
/// several % job overhead on a serve-mode batch of millisecond jobs).
pub struct Journal {
    path: PathBuf,
    start: Instant,
    id: u64,
    tx: std::sync::mpsc::Sender<JournalOp>,
}

enum JournalOp {
    /// Create (truncate) the file for journal `id`; parent dirs made as
    /// needed. An open failure is reported to stderr once and the
    /// journal degrades to a sink — telemetry must never kill a run.
    Open {
        id: u64,
        path: PathBuf,
    },
    Line {
        id: u64,
        line: Vec<u8>,
    },
    /// Flush every open journal, then ack.
    Flush {
        ack: std::sync::mpsc::Sender<()>,
    },
    /// Flush + close journal `id`, then ack — after the ack the file is
    /// complete on disk.
    Close {
        id: u64,
        ack: std::sync::mpsc::Sender<()>,
    },
}

/// The process-wide journal writer: spawned once, owns all journal
/// files, keyed by the creating [`Journal`]'s id. Ops for one journal
/// arrive in order because each `Journal` sends on the same channel.
fn journal_service(rx: std::sync::mpsc::Receiver<JournalOp>) {
    use std::collections::HashMap;
    let mut files: HashMap<u64, std::io::BufWriter<std::fs::File>> = HashMap::new();
    // Block for the next op, drain whatever else queued up behind it,
    // then flush once per drained batch. I/O errors are swallowed.
    while let Ok(op) = rx.recv() {
        let mut acks = Vec::new();
        let mut next = Some(op);
        while let Some(op) = next {
            match op {
                JournalOp::Open { id, path } => {
                    let opened = (|| {
                        if let Some(dir) = path.parent() {
                            if !dir.as_os_str().is_empty() {
                                std::fs::create_dir_all(dir)?;
                            }
                        }
                        std::fs::File::create(&path)
                    })();
                    match opened {
                        Ok(f) => {
                            files.insert(id, std::io::BufWriter::new(f));
                        }
                        Err(e) => {
                            eprintln!("ugrs: cannot create run journal {}: {e}", path.display());
                        }
                    }
                }
                JournalOp::Line { id, line } => {
                    if let Some(out) = files.get_mut(&id) {
                        let _ = out.write_all(&line);
                    }
                }
                JournalOp::Flush { ack } => acks.push(ack),
                JournalOp::Close { id, ack } => {
                    if let Some(mut out) = files.remove(&id) {
                        let _ = out.flush();
                    }
                    acks.push(ack);
                }
            }
            next = rx.try_recv().ok();
        }
        for out in files.values_mut() {
            let _ = out.flush();
        }
        for ack in acks {
            let _ = ack.send(());
        }
    }
}

/// Lazily spawns the writer and hands out its channel.
fn journal_service_tx() -> &'static std::sync::mpsc::Sender<JournalOp> {
    static TX: std::sync::OnceLock<std::sync::mpsc::Sender<JournalOp>> = std::sync::OnceLock::new();
    TX.get_or_init(|| {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::Builder::new()
            .name("ugrs-journal".into())
            .spawn(move || journal_service(rx))
            .expect("spawn journal writer thread");
        tx
    })
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Journal({})", self.path.display())
    }
}

impl Journal {
    /// Creates (truncating) the journal file, making parent directories
    /// as needed. The open itself happens on the shared writer thread
    /// so the caller pays no filesystem latency; an unwritable path is
    /// reported to stderr by the writer, not returned here. `Err` is
    /// reserved for future setup failures — today this always succeeds.
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<Journal> {
        static NEXT_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = path.into();
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let tx = journal_service_tx().clone();
        let _ = tx.send(JournalOp::Open { id, path: path.clone() });
        Ok(Journal { path, start: Instant::now(), id, tx })
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one event, stamped with seconds since journal creation.
    /// Serialization happens here; the write is handed to the shared
    /// writer thread. I/O errors are swallowed: telemetry must never
    /// kill a run.
    pub fn log(&self, event: TelemetryEvent) {
        let record = JournalRecord { t: self.start.elapsed().as_secs_f64(), event };
        let Ok(mut line) = serde_json::to_vec(&record) else { return };
        line.push(b'\n');
        let _ = self.tx.send(JournalOp::Line { id: self.id, line });
    }

    /// Blocks until everything logged so far is written and flushed —
    /// for readers that replay a journal they also write (tests). The
    /// writer also flushes whenever its queue drains and on close.
    pub fn flush(&self) {
        let (ack_tx, ack_rx) = std::sync::mpsc::channel();
        if self.tx.send(JournalOp::Flush { ack: ack_tx }).is_ok() {
            let _ = ack_rx.recv();
        }
    }

    /// Reads a journal back; malformed lines (a crash mid-write leaves
    /// one) are skipped rather than failing the whole replay.
    pub fn replay(path: impl AsRef<Path>) -> std::io::Result<Vec<JournalRecord>> {
        Self::replay_counted(path).map(|(records, _)| records)
    }

    /// Like [`Journal::replay`], but also reports how many malformed
    /// (torn) lines were skipped. Mirrors the ledger's recovery
    /// semantics: a torn line anywhere in the file — not just at the
    /// tail — is skipped and counted, and every later well-formed
    /// record is still returned.
    pub fn replay_counted(path: impl AsRef<Path>) -> std::io::Result<(Vec<JournalRecord>, u64)> {
        let file = std::fs::File::open(path)?;
        let reader = std::io::BufReader::new(file);
        let mut out = Vec::new();
        let mut torn = 0u64;
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<JournalRecord>(&line) {
                Ok(r) => out.push(r),
                Err(_) => torn += 1,
            }
        }
        Ok((out, torn))
    }
}

impl Drop for Journal {
    /// Sends a close and waits for the writer's ack — a dropped journal
    /// is always complete on disk. A channel round-trip, not a thread
    /// join: the writer is shared and outlives every journal.
    fn drop(&mut self) {
        let (ack_tx, ack_rx) = std::sync::mpsc::channel();
        if self.tx.send(JournalOp::Close { id: self.id, ack: ack_tx }).is_ok() {
            let _ = ack_rx.recv();
        }
    }
}

/// Rebuilds final run statistics from the event stream alone — the
/// journal-replay check: everything [`crate::UgStats`] reports must be
/// derivable from what was journaled while the run was alive. Discrete
/// events drive the counters; the last [`TelemetryEvent::Progress`]
/// supplies bounds, node counts and idle ratio; `max_active` is the
/// maximum `active` any snapshot saw.
pub fn reconstruct_stats(records: &[JournalRecord]) -> crate::UgStats {
    let mut stats = crate::UgStats::default();
    for r in records {
        match &r.event {
            TelemetryEvent::Incumbent { .. } => stats.incumbents_seen += 1,
            TelemetryEvent::Transferred { .. } => stats.transferred += 1,
            TelemetryEvent::Collected { .. } => stats.collected += 1,
            TelemetryEvent::WorkerDied { .. } => stats.workers_died += 1,
            TelemetryEvent::RacingWinner { settings_index, .. } => {
                stats.racing_winner = Some(*settings_index)
            }
            TelemetryEvent::Progress(p) => {
                stats.wall_time = p.wall;
                stats.primal_bound = p.primal_bound;
                stats.dual_bound = p.dual_bound;
                stats.open_nodes = p.open_nodes;
                stats.nodes_total = p.nodes;
                stats.idle_percent = p.idle_percent;
                if p.active > stats.max_active {
                    stats.max_active = p.active;
                    stats.first_max_active_time = p.wall;
                }
            }
            _ => {}
        }
    }
    stats
}

// ---------------------------------------------------------------------
// The sink handed to a coordinator
// ---------------------------------------------------------------------

/// Telemetry wiring of one run: both halves optional, both cheap when
/// absent. Cloning shares the underlying journal/sink.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySink {
    /// Event journal, when this run writes one.
    pub journal: Option<Arc<Journal>>,
    /// Live progress callback, when someone is watching.
    pub progress: Option<ProgressSink>,
}

impl TelemetrySink {
    /// A sink that only journals.
    pub fn with_journal(journal: Arc<Journal>) -> Self {
        TelemetrySink { journal: Some(journal), progress: None }
    }

    /// True when any half is wired (callers may skip building events
    /// otherwise).
    pub fn enabled(&self) -> bool {
        self.journal.is_some() || self.progress.is_some()
    }

    /// Journals one event (no-op without a journal).
    pub fn log(&self, event: TelemetryEvent) {
        if let Some(j) = &self.journal {
            j.log(event);
        }
    }

    /// Journals the snapshot and pushes it to the progress sink.
    pub fn progress(&self, msg: &ProgressMsg) {
        if let Some(p) = &self.progress {
            p.emit(msg);
        }
        if let Some(j) = &self.journal {
            j.log(TelemetryEvent::Progress(msg.clone()));
        }
    }
}

/// Builds a filesystem-safe journal file name fragment from a free-form
/// job name.
pub fn sanitize_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .take(48)
        .collect();
    if out.is_empty() {
        out.push('_');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = MetricsRegistry::new();
        let c = r.counter("ugrs_test_events_total", "events");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Get-or-create returns the same series.
        let c2 = r.counter("ugrs_test_events_total", "events");
        c2.inc();
        assert_eq!(c.get(), 6);
        let g = r.gauge_with("ugrs_test_depth", &[("q", "a b")], "depth");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        let text = r.render();
        assert!(text.contains("# TYPE ugrs_test_events_total counter"));
        assert!(text.contains("ugrs_test_events_total 6"));
        assert!(text.contains("ugrs_test_depth{q=\"a b\"} 2.5"));
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn histogram_exposition_shape() {
        let r = MetricsRegistry::new();
        let h = r.histogram_with("ugrs_test_latency_seconds", &[], "lat", &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(3.0);
        let text = r.render();
        assert!(text.contains("ugrs_test_latency_seconds_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("ugrs_test_latency_seconds_bucket{le=\"1\"} 2"));
        assert!(text.contains("ugrs_test_latency_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("ugrs_test_latency_seconds_count 3"));
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn exposition_grammar_accepts_non_finite_and_rejects_garbage() {
        validate_exposition("ugrs_gap_percent +Inf\nugrs_bound -Inf\nugrs_x NaN\n").unwrap();
        assert!(validate_exposition("1bad_name 3\n").is_err());
        assert!(validate_exposition("no_value\n").is_err());
        assert!(validate_exposition("m{unclosed=\"x} 1\n").is_err());
        assert!(validate_exposition("m 12parse\n").is_err());
        // Escaped quotes and label spaces are fine.
        validate_exposition("m{a=\"x \\\" y\",b=\"z\"} 1\n").unwrap();
    }

    #[test]
    fn labeled_histogram_merges_le_correctly() {
        let r = MetricsRegistry::new();
        let h = r.histogram_with("ugrs_hb_seconds", &[("worker", "3")], "hb", &[0.5]);
        h.observe(0.1);
        let text = r.render();
        assert!(text.contains("ugrs_hb_seconds_bucket{worker=\"3\",le=\"0.5\"} 1"));
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn journal_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("ugrs-journal-{}", std::process::id()));
        let path = dir.join("run.jsonl");
        let j = Journal::create(&path).unwrap();
        j.log(TelemetryEvent::RunStarted { workers: 2, run_index: 1, restarted: false });
        j.log(TelemetryEvent::Incumbent { obj: 5.0 });
        j.log(TelemetryEvent::Progress(ProgressMsg {
            wall: 0.5,
            phase: "normal".into(),
            primal_bound: 5.0,
            dual_bound: f64::NEG_INFINITY,
            gap_percent: f64::INFINITY,
            open_nodes: 3,
            nodes: 10,
            transferred: 1,
            collected: 0,
            incumbents: 1,
            active: 2,
            idle_percent: 12.5,
            workers_died: 0,
        }));
        j.flush();
        let records = Journal::replay(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert!(records.windows(2).all(|w| w[0].t <= w[1].t));
        match &records[2].event {
            TelemetryEvent::Progress(p) => {
                assert_eq!(p.open_nodes, 3);
                assert!(p.dual_bound.is_infinite() && p.dual_bound < 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        let stats = reconstruct_stats(&records);
        assert_eq!(stats.incumbents_seen, 1);
        assert_eq!(stats.nodes_total, 10);
        assert_eq!(stats.max_active, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_replay_ignores_torn_tail() {
        let dir = std::env::temp_dir().join(format!("ugrs-journal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let j = Journal::create(&path).unwrap();
        j.log(TelemetryEvent::Incumbent { obj: 1.0 });
        drop(j);
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"t\":0.5,\"event\":{\"Incumb").unwrap();
        drop(f);
        let records = Journal::replay(&path).unwrap();
        assert_eq!(records.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_replay_skips_and_counts_torn_middle_lines() {
        let dir =
            std::env::temp_dir().join(format!("ugrs-journal-torn-mid-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn-mid.jsonl");
        use std::io::Write as _;
        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(f, "{{\"t\":0.1,\"event\":{{\"Incumbent\":{{\"obj\":1.0}}}}}}").unwrap();
        writeln!(f, "{{\"t\":0.2,\"event\":{{\"Incumb").unwrap(); // torn mid-file
        writeln!(f, "not json at all").unwrap();
        writeln!(f, "{{\"t\":0.3,\"event\":{{\"Incumbent\":{{\"obj\":2.0}}}}}}").unwrap();
        drop(f);
        let (records, torn) = Journal::replay_counted(&path).unwrap();
        assert_eq!(records.len(), 2, "records after a torn line must survive");
        assert_eq!(torn, 2);
        match &records[1].event {
            TelemetryEvent::Incumbent { obj } => assert_eq!(*obj, 2.0),
            other => panic!("unexpected {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sanitize_name_is_fs_safe() {
        assert_eq!(sanitize_name("a/b c.stp"), "a_b_c_stp");
        assert_eq!(sanitize_name(""), "_");
        assert!(sanitize_name(&"x".repeat(100)).len() <= 48);
    }

    /// Histogram invariants over arbitrary bucket boundaries and
    /// observations: cumulative counts are monotone, the +Inf bucket
    /// equals the total count, every observation lands in the first
    /// bucket whose bound is >= the value, and the sum matches. Kept
    /// out of the `proptest!` body (the macro expands per statement).
    fn check_histogram_invariants(
        mut bounds: Vec<f64>,
        obs: Vec<f64>,
    ) -> Result<(), proptest::TestCaseError> {
        let h = Histogram::new(&bounds);
        bounds.sort_by(|a, b| a.total_cmp(b));
        bounds.dedup();
        prop_assert_eq!(h.bounds(), &bounds[..]);
        for &v in &obs {
            h.observe(v);
        }
        let cum = h.cumulative();
        prop_assert_eq!(cum.len(), bounds.len() + 1);
        for w in cum.windows(2) {
            prop_assert!(w[0].1 <= w[1].1, "cumulative counts must be monotone");
            prop_assert!(w[0].0 < w[1].0, "bounds must be strictly increasing");
        }
        prop_assert_eq!(cum.last().unwrap().1, obs.len() as u64);
        prop_assert_eq!(h.count(), obs.len() as u64);
        // Cross-check each cumulative bucket against a direct count.
        for &(le, got) in &cum {
            let expect = obs.iter().filter(|&&v| v <= le).count() as u64;
            prop_assert_eq!(got, expect, "bucket le={} disagrees", le);
        }
        let sum: f64 = obs.iter().sum();
        prop_assert!((h.sum() - sum).abs() <= 1e-9 * (1.0 + sum.abs()) * obs.len().max(1) as f64);
        Ok(())
    }

    proptest! {
        #[test]
        fn histogram_bucket_boundaries(
            bounds in proptest::collection::vec(-1e6f64..1e6, 0..8),
            obs in proptest::collection::vec(-1e6f64..1e6, 0..64),
        ) {
            check_histogram_invariants(bounds, obs)?;
        }
    }
}
