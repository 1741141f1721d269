//! The Kalis benchmark: replays seeded captures into Kalis nodes through
//! their public API and reports end-to-end cost, latency and verdict
//! quality (`--trace 0`), or a per-layer ledger from a separate traced
//! run (`--trace 1`). See `README.md` beside this package.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload wifi-flood --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod clock;
mod drive;
mod layers;
mod spans;
mod workload;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use kalis_bench::runner::Detection;
use kalis_bench::scoring::{score, Score};
use kalis_core::config::Config;
use kalis_core::modules::{ModuleKind, ModuleRegistry};
use kalis_core::{Alert, Kalis};
use kalis_telemetry::{metric_name, names, TelemetrySnapshot};

use clock::Region;
use drive::{build_node, flush, replay, Counts, Ids, NoProbe, Op, Probe, Timeline};
use layers::{kb_op_costs, LayerNode};
use spans::{SpanLog, SpanTotals};
use workload::{Trace, Workload};

/// Command-line arguments.
#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported number.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind a percentile or median, when it is one.
    samples: Option<usize>,
    /// Whether the metric goes into the result object.
    in_json: bool,
}

/// Everything one run reports.
#[derive(Debug, Default)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result.
    notes: Vec<String>,
    /// Alert fingerprint of every trace, in trace order.
    fingerprints: Vec<u64>,
}

impl Report {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
            in_json: true,
        });
    }

    fn push_sampled(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples: Some(samples),
            in_json: true,
        });
    }

    /// A metric printed by name but left out of the result object.
    fn info(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
            in_json: false,
        });
    }

    fn fail(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {why}"));
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().filter(|m| m.in_json).enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile (`q` in `[0, 1]`); 0 for no samples.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// FNV-1a over every alert's kind, victim, capture time and module.
fn fingerprint(alerts: &[&Alert]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for alert in alerts {
        let text = format!(
            "{}|{}|{}|{};",
            alert.attack.label(),
            alert.victim.as_ref().map_or("-", |v| v.as_str()),
            alert.time.as_micros(),
            alert.module
        );
        for byte in text.bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn all_alerts<I: Ids>(nodes: &[I]) -> Vec<&Alert> {
    nodes.iter().flat_map(|n| n.alerts()).collect()
}

/// Parse the workload's config and build its node(s).
fn setup(workload: Workload) -> (Config, Vec<Kalis>) {
    let config: Config = workload
        .config()
        .parse()
        .expect("the workload config parses");
    let nodes = (0..workload.nodes())
        .map(|i| build_node(&format!("K{}", i + 1), &config).expect("the workload config builds"))
        .collect();
    (config, nodes)
}

/// Capture+ingest calls per on-CPU time reading. The thread CPU clock is
/// a system call, so it is read per chunk rather than per call.
const CHUNK_CALLS: usize = 64;

/// Per-pass timings: wall time of every `capture` + `try_ingest` pair,
/// and on-CPU time of every chunk of [`CHUNK_CALLS`] pairs (including
/// whatever else the harness did in between: ticks and sync calls).
struct Timings {
    started: Instant,
    call_ns: Vec<u64>,
    chunk_cpu_ns: Vec<u64>,
    last_cpu_ns: u64,
}

impl Timings {
    fn new() -> Self {
        Timings {
            started: Instant::now(),
            call_ns: Vec::new(),
            chunk_cpu_ns: Vec::new(),
            last_cpu_ns: 0,
        }
    }

    fn begin(&mut self) {
        self.call_ns.clear();
        self.chunk_cpu_ns.clear();
        self.last_cpu_ns = clock::thread_cpu_ns();
    }

    fn end_chunk(&mut self) {
        let now = clock::thread_cpu_ns();
        self.chunk_cpu_ns.push(now - self.last_cpu_ns);
        self.last_cpu_ns = now;
    }
}

impl Probe for Timings {
    #[inline]
    fn call<R>(&mut self, op: Op, f: impl FnOnce() -> R) -> R {
        match op {
            Op::Capture => {
                self.started = Instant::now();
                f()
            }
            Op::Ingest => {
                let out = f();
                self.call_ns.push(self.started.elapsed().as_nanos() as u64);
                if self.call_ns.len().is_multiple_of(CHUNK_CALLS) {
                    self.end_chunk();
                }
                out
            }
            _ => f(),
        }
    }
}

/// The cleanest timing seen at each position of one trace, over every
/// pass of it. A pass repeats exactly the same work, and the host's
/// other tenants only ever slow a call down, so the minimum over passes
/// is the call's own cost.
#[derive(Default)]
struct Cleanest {
    passes: usize,
    call_ns: Vec<u64>,
    chunk_cpu_ns: Vec<u64>,
}

impl Cleanest {
    fn update(&mut self, t: &Timings) {
        if self.passes == 0 {
            self.call_ns = t.call_ns.clone();
            self.chunk_cpu_ns = t.chunk_cpu_ns.clone();
        } else {
            assert_eq!(
                self.call_ns.len(),
                t.call_ns.len(),
                "a pass repeats the trace"
            );
            for (best, &ns) in self.call_ns.iter_mut().zip(&t.call_ns) {
                *best = (*best).min(ns);
            }
            for (best, &ns) in self.chunk_cpu_ns.iter_mut().zip(&t.chunk_cpu_ns) {
                *best = (*best).min(ns);
            }
        }
        self.passes += 1;
    }
}

/// Records a root span per harness call; the packet id advances at every
/// call except `Ingest`, which shares its `Capture`'s id.
struct Spanned(Rc<RefCell<SpanLog>>);

impl Probe for Spanned {
    #[inline]
    fn call<R>(&mut self, op: Op, f: impl FnOnce() -> R) -> R {
        let name = match op {
            Op::Capture => "capture",
            Op::Ingest => "ingest",
            Op::Tick => "tick",
            Op::Poll => "sync.poll",
            Op::Receive => "sync.receive",
            Op::Beacon => "sync.beacon",
        };
        if op != Op::Ingest {
            self.0.borrow_mut().next_packet();
        }
        spans::span(&self.0, name, "", f)
    }
}

/// Failures and attempts of one node run, from the node's own counters.
fn failures(snapshots: &[TelemetrySnapshot], counts: &Counts) -> (u64, u64) {
    let sum = |name: &str| snapshots.iter().map(|s| s.counter(name)).sum::<u64>();
    let shed = sum(names::SHED_SKIPS);
    let attempted = counts.ingests + sum(names::WORK_UNITS) + shed + counts.frames;
    let failed = counts.ingest_errors + shed + sum(names::MODULE_PANICS) + counts.frames_rejected;
    (attempted, failed)
}

/// Verdict quality of one trace: Table II score and the delay from the
/// first injected symptom to the first correctly classified alert.
fn verdicts(trace: &Trace, alerts: &[&Alert]) -> (Score, Option<f64>) {
    let detections: Vec<Detection> = alerts
        .iter()
        .map(|a| Detection::from((*a).clone()))
        .collect();
    let s = score(&trace.truth, &detections);
    let first = trace.truth.iter().map(|t| t.time).min();
    let delay = first.and_then(|t0| {
        alerts
            .iter()
            .filter(|a| a.time >= t0 && trace.truth.iter().any(|t| t.attack == a.attack))
            .map(|a| a.time.saturating_since(t0).as_secs_f64())
            .reduce(f64::min)
    });
    (s, delay)
}

/// One untraced Kalis pass over a trace.
struct Pass {
    /// On-CPU time of the replay.
    cpu_ns: u64,
    /// The nodes, after a final flush.
    nodes: Vec<Kalis>,
    counts: Counts,
}

fn kalis_pass<P: Probe>(workload: Workload, trace: &Trace, probe: &mut P) -> Pass {
    let (_, mut nodes) = setup(workload);
    let region = Region::start();
    let counts = replay(&mut nodes, &trace.capture, probe, false, None);
    let cpu_ns = region.cpu_ns();
    flush(&mut nodes, &trace.capture, None);
    Pass {
        cpu_ns,
        nodes,
        counts,
    }
}

/// Time one parse + build, then the calibration kernel right after it, so
/// that the pair sees the same host conditions. Returns the nodes, the
/// set-up seconds and the kernel's on-CPU ns.
fn timed_setup(workload: Workload) -> (Vec<Kalis>, f64, u64) {
    let started = Instant::now();
    let (_, nodes) = setup(workload);
    let setup_s = started.elapsed().as_secs_f64();
    (nodes, setup_s, clock::calibration_kernel_ns())
}

/// Set-ups timed per run, at least.
const SETUP_SAMPLES: usize = 200;

/// The timed, untraced run: every end-to-end metric.
fn run_timed(workload: Workload, seed: u64, seconds: f64, reduced: bool) -> Report {
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let traces = workload.generate(seed, workload.size(reduced));
    // Warm-up: let caches fill and lazy set-up finish before timing.
    kalis_pass(workload, &traces[0], &mut NoProbe);

    let mut timings = Timings::new();
    let mut cleanest: Vec<Cleanest> = traces.iter().map(|_| Cleanest::default()).collect();
    let (mut setups, mut nominal_setups) = (Vec::new(), Vec::new());
    let mut kernel_ns = u64::MAX;
    let mut fingerprints: Vec<Option<u64>> = vec![None; traces.len()];
    let mut total = Score {
        instances: 0,
        detected: 0,
        correct_pairs: 0,
        total_pairs: 0,
        false_positives: 0,
    };
    let mut delays = Vec::new();
    let mut peak_state = Vec::new();
    let mut sync_bytes = 0u64;
    let mut packets = 0u64;
    let started = Region::start();
    let mut pass = 0usize;
    while pass < 2 * traces.len() || started.wall_s() < seconds {
        let index = pass % traces.len();
        let trace = &traces[index];
        // Set-up is timed with every pass, plus extra set-ups wherever
        // passes are too few to spread SETUP_SAMPLES over the run.
        let due = (SETUP_SAMPLES as f64 * started.wall_s() / seconds).ceil() as usize;
        while setups.len() + 1 < due.min(SETUP_SAMPLES) {
            let (nodes, setup_s, kernel) = timed_setup(workload);
            drop(black_box(nodes));
            setups.push(setup_s);
            nominal_setups.push(setup_s * clock::host_speed(kernel));
            kernel_ns = kernel_ns.min(kernel);
        }
        let (mut nodes, setup_s, kernel) = timed_setup(workload);
        setups.push(setup_s);
        nominal_setups.push(setup_s * clock::host_speed(kernel));
        kernel_ns = kernel_ns.min(kernel);
        timings.begin();
        let counts = replay(&mut nodes, &trace.capture, &mut timings, false, None);
        timings.end_chunk();
        cleanest[index].update(&timings);
        flush(&mut nodes, &trace.capture, None);
        let snapshots: Vec<TelemetrySnapshot> =
            nodes.iter().map(|n| n.telemetry().snapshot()).collect();
        let (attempted, failed) = failures(&snapshots, &counts);
        report.attempted += attempted;
        report.failed += failed;
        let alerts = all_alerts(&nodes);
        let fp = fingerprint(&alerts);
        match fingerprints[index] {
            None => {
                fingerprints[index] = Some(fp);
                let (s, delay) = verdicts(trace, &alerts);
                total.merge(&s);
                delays.extend(delay);
                peak_state.push(
                    snapshots
                        .iter()
                        .map(|s| s.gauge(names::PEAK_STATE_BYTES) as f64)
                        .sum::<f64>()
                        / 1024.0,
                );
                sync_bytes += counts.frame_bytes;
                packets += trace.capture.packets() as u64;
            }
            Some(first) if first != fp => report.fail(format!(
                "trace {index}: alert fingerprint {fp:016x} differs from the first pass's {first:016x}"
            )),
            Some(_) => {}
        }
        pass += 1;
    }
    report.fingerprints = fingerprints.into_iter().flatten().collect();
    if total.detected == 0 {
        report.fail("no injected symptom was detected".to_owned());
    }
    if delays.is_empty() {
        report.fail("no correctly classified alert followed the first symptom".to_owned());
    }
    let cpu_ns: u64 = cleanest.iter().flat_map(|c| &c.chunk_cpu_ns).sum();
    let call_us: Vec<f64> = cleanest
        .iter()
        .flat_map(|c| &c.call_ns)
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    let calls = call_us.len();
    let passes = cleanest.iter().map(|c| c.passes).min().unwrap_or(0);
    if calls / 100 < 10 {
        report.fail(format!(
            "{calls} calls leave fewer than 10 samples beyond p99"
        ));
    }
    // Times are reported at the nominal host speed (`clock::host_speed`):
    // replay timings by the run's cleanest kernel time, since they are
    // cleanest-pass timings too; each set-up by the kernel run right
    // after it, since the set-up median is typical, not cleanest.
    let speed = clock::host_speed(kernel_ns);
    let raw_cpu = cpu_ns as f64 / packets as f64;
    let (raw_p50, raw_p99) = (percentile(&call_us, 0.50), percentile(&call_us, 0.99));
    let raw_setup = median(&setups);
    report.push_sampled("cpu_ns_per_pkt", raw_cpu * speed, "ns", passes);
    report.push_sampled("ingest_p50_us", raw_p50 * speed, "us", calls);
    report.push_sampled("ingest_p99_us", raw_p99 * speed, "us", calls);
    report.push("detection_rate", total.detection_rate(), "ratio");
    report.push("accuracy", total.classification_accuracy(), "ratio");
    report.push_sampled(
        "peak_state_kib",
        median(&peak_state),
        "KiB",
        peak_state.len(),
    );
    report.push("peak_rss_mib", clock::peak_rss_kib() as f64 / 1024.0, "MiB");
    report.push_sampled("setup_s", median(&nominal_setups), "s", setups.len());
    // Reported by name but kept out of the result object: each is 0, or
    // does not apply, on some workload.
    report.info(
        "first_alert_delay_s",
        median(&delays),
        "s",
        Some(delays.len()),
    );
    report.info(
        "failed_ratio",
        ratio(report.failed as f64, report.attempted as f64),
        "ratio",
        None,
    );
    if workload.nodes() == 2 {
        report.info(
            "sync_bytes_per_kpkt",
            ratio(sync_bytes as f64 * 1000.0, packets as f64),
            "B",
            None,
        );
    }
    report.notes.push(format!(
        "host speed {speed:.4} (calibration kernel {kernel_ns} ns, nominal {} ns); as measured: \
         cpu_ns_per_pkt {raw_cpu:.1} ns, ingest_p50_us {raw_p50} us, ingest_p99_us {raw_p99} us, \
         setup_s {raw_setup} s",
        clock::NOMINAL_KERNEL_NS
    ));
    report.notes.push(format!(
        "{pass} passes ({passes}+ per trace; each call and chunk timed at its cleanest pass), \
         {calls} calls ({} beyond p99); {} of {} symptoms detected; {} failed of {} attempted",
        calls - (calls as f64 * 0.99).ceil() as usize,
        total.detected,
        total.instances,
        report.failed,
        report.attempted
    ));
    report
}

/// What the node run and the layer replay must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    alerts: Vec<(String, String, u64, String)>,
    timelines: Vec<Timeline>,
    revisions: Vec<u64>,
}

impl Outcome {
    fn of<I: Ids>(nodes: &[I], timelines: Vec<Timeline>) -> Self {
        Outcome {
            alerts: all_alerts(nodes)
                .iter()
                .map(|a| {
                    (
                        a.attack.label().to_owned(),
                        a.victim
                            .as_ref()
                            .map_or_else(String::new, |v| v.to_string()),
                        a.time.as_micros(),
                        a.module.clone(),
                    )
                })
                .collect(),
            timelines,
            revisions: nodes.iter().map(Ids::kb_revision).collect(),
        }
    }

    /// Where two outcomes first differ, for the gate's message.
    fn difference(&self, other: &Outcome) -> Option<String> {
        if self.alerts != other.alerts {
            let at = self
                .alerts
                .iter()
                .zip(&other.alerts)
                .position(|(a, b)| a != b);
            return Some(format!(
                "alerts differ ({} vs {}, first at {at:?})",
                self.alerts.len(),
                other.alerts.len()
            ));
        }
        for (node, (a, b)) in self.timelines.iter().zip(&other.timelines).enumerate() {
            if a.activation != b.activation {
                let at = a
                    .activation
                    .iter()
                    .zip(&b.activation)
                    .position(|(x, y)| x != y);
                return Some(format!(
                    "node {node}: activation timelines differ (first at {at:?})"
                ));
            }
        }
        (self.revisions != other.revisions).then(|| {
            format!(
                "final KB revisions differ: {:?} vs {:?}",
                self.revisions, other.revisions
            )
        })
    }
}

/// Sums over the traced passes of one run.
#[derive(Default)]
struct Ledger {
    packets: u64,
    node: SpanTotals,
    layer: SpanTotals,
    counts: Counts,
    layer_counts: layers::LayerCounts,
    counters: BTreeMap<String, u64>,
    kb_evictions: u64,
    passes: u64,
    untraced: Vec<f64>,
    traced: Vec<f64>,
    traditional: Vec<f64>,
    kb_costs: Option<(f64, f64)>,
}

fn module_counter(module: &str) -> String {
    metric_name(names::MODULE_CPU_NS, &[("module", module)])
}

fn kb_counter(op: &str) -> String {
    metric_name(names::KB_OPS, &[("op", op)])
}

/// One traced round on one trace: the node-level traced pass, then the
/// layer-level replay of the same trace, then the equivalence gate.
fn traced_pass(
    workload: Workload,
    trace: &Trace,
    ledger: &mut Ledger,
    span_files: Option<&str>,
) -> Result<u64, String> {
    // Node level: spans around capture, tick, ingest and the sync calls.
    let log = Rc::new(RefCell::new(SpanLog::new()));
    let (config, mut nodes) = setup(workload);
    let mut timelines = vec![Timeline::default(); nodes.len()];
    let region = Region::start();
    let counts = replay(
        &mut nodes,
        &trace.capture,
        &mut Spanned(Rc::clone(&log)),
        true,
        Some(&mut timelines),
    );
    ledger
        .traced
        .push(region.cpu_ns() as f64 / trace.capture.packets() as f64);
    flush(&mut nodes, &trace.capture, Some(&mut timelines));
    let shed: Vec<_> = timelines.iter().map(|t| t.shed.clone()).collect();
    let node_outcome = Outcome::of(&nodes, timelines);

    // Layer level: the same trace through the public layer APIs.
    let layer_log = Rc::new(RefCell::new(SpanLog::new()));
    let mut layer_nodes = shed
        .into_iter()
        .enumerate()
        .map(|(i, s)| LayerNode::new(&format!("K{}", i + 1), &config, s, Rc::clone(&layer_log)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("layer replay set-up failed: {e}"))?;
    let mut layer_timelines = vec![Timeline::default(); layer_nodes.len()];
    let layer_counts = replay(
        &mut layer_nodes,
        &trace.capture,
        &mut Spanned(Rc::clone(&layer_log)),
        true,
        Some(&mut layer_timelines),
    );
    flush(&mut layer_nodes, &trace.capture, Some(&mut layer_timelines));
    let layer_outcome = Outcome::of(&layer_nodes, layer_timelines);
    if let Some(diff) = node_outcome.difference(&layer_outcome) {
        return Err(format!(
            "decomposition equivalence gate: the layer replay does not reproduce the node run: {diff}"
        ));
    }
    if counts.frames != layer_counts.frames || counts.ingests != layer_counts.ingests {
        return Err("decomposition equivalence gate: sync traffic differs".to_owned());
    }

    if let Some(prefix) = span_files {
        let dir = std::path::Path::new("target/perfbench");
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        for (kind, l) in [("node", &log), ("layer", &layer_log)] {
            let path = dir.join(format!("{prefix}-{kind}.jsonl"));
            std::fs::write(&path, l.borrow().to_json_lines())
                .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        }
    }

    ledger.packets += trace.capture.packets() as u64;
    ledger.passes += 1;
    ledger.node.merge(&log.borrow().totals());
    ledger.layer.merge(&layer_log.borrow().totals());
    let c = &mut ledger.counts;
    c.undecoded += counts.undecoded;
    c.frames += counts.frames;
    c.frame_bytes += counts.frame_bytes;
    c.frames_rejected += counts.frames_rejected;
    c.retransmits += counts.retransmits;
    for node in &layer_nodes {
        let l = &mut ledger.layer_counts;
        l.packets += node.counts.packets;
        l.reconfigures += node.counts.reconfigures;
        l.active_detection += node.counts.active_detection;
    }
    let registry = ModuleRegistry::with_defaults();
    let mut wanted: Vec<String> = registry.names().iter().map(|m| module_counter(m)).collect();
    wanted.extend(["get", "insert"].map(kb_counter));
    wanted.extend(
        [
            names::KB_CHURN,
            names::MODULES_ACTIVATED,
            names::MODULES_DEACTIVATED,
            names::SHED_SKIPS,
            names::MODULE_PANICS,
            names::WORK_UNITS,
        ]
        .map(str::to_owned),
    );
    for node in &nodes {
        let snapshot = node.telemetry().snapshot();
        for name in &wanted {
            *ledger.counters.entry(name.clone()).or_default() += snapshot.counter(name);
        }
        ledger.kb_evictions += node.knowledge().entity_evictions();
    }
    if ledger.kb_costs.is_none() {
        ledger.kb_costs = Some(kb_op_costs(
            nodes[0].knowledge(),
            Duration::from_millis(200),
        ));
    }
    Ok(fingerprint(&all_alerts(&nodes)))
}

/// One traditional-IDS (all modules on) pass: on-CPU ns per packet.
fn traditional_pass(workload: Workload, trace: &Trace, seed: u64) -> f64 {
    let mut nodes: Vec<Kalis> = (0..workload.nodes())
        .map(|i| kalis_baselines::traditional::build_with_seed(&format!("T{}", i + 1), seed))
        .collect();
    let region = Region::start();
    replay(&mut nodes, &trace.capture, &mut NoProbe, false, None);
    region.cpu_ns() as f64 / trace.capture.packets() as f64
}

/// The traced run: the per-layer ledger.
fn run_traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    reduced: bool,
) -> Result<Report, String> {
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let traces = workload.generate(seed, workload.size(reduced));
    kalis_pass(workload, &traces[0], &mut NoProbe);
    let mut ledger = Ledger::default();
    let started = Region::start();
    let mut round = 0usize;
    let mut fingerprints: Vec<Option<u64>> = vec![None; traces.len()];
    while round == 0 || started.wall_s() < seconds {
        for (index, trace) in traces.iter().enumerate() {
            // Kalis and the traditional baseline alternate which runs
            // first, round by round.
            let kalis_first = (round + index).is_multiple_of(2);
            if !kalis_first {
                ledger
                    .traditional
                    .push(traditional_pass(workload, trace, seed));
            }
            let run = kalis_pass(workload, trace, &mut NoProbe);
            ledger
                .untraced
                .push(run.cpu_ns as f64 / trace.capture.packets() as f64);
            let (attempted, failed) = failures(
                &run.nodes
                    .iter()
                    .map(|n| n.telemetry().snapshot())
                    .collect::<Vec<_>>(),
                &run.counts,
            );
            report.attempted += attempted;
            report.failed += failed;
            let untraced_fp = fingerprint(&all_alerts(&run.nodes));
            if kalis_first {
                ledger
                    .traditional
                    .push(traditional_pass(workload, trace, seed));
            }
            let files =
                (round == 0 && index == 0).then(|| format!("spans-{}-seed{seed}", workload.name()));
            let traced_fp = traced_pass(workload, trace, &mut ledger, files.as_deref())?;
            if traced_fp != untraced_fp || fingerprints[index].is_some_and(|f| f != traced_fp) {
                report.fail(format!(
                    "trace {index}: alert fingerprints differ between passes"
                ));
            }
            fingerprints[index] = Some(traced_fp);
        }
        round += 1;
    }
    report.fingerprints = fingerprints.into_iter().flatten().collect();
    ledger_metrics(&ledger, &mut report);
    Ok(report)
}

/// Turn the summed ledger into the per-layer metrics.
fn ledger_metrics(ledger: &Ledger, report: &mut Report) {
    let pkts = ledger.packets as f64;
    let per_pkt = |ns: u64| ns as f64 / pkts;
    let per_call = |t: spans::Totals| ratio(t.self_ns as f64, t.calls as f64);
    let layer =
        |root: Option<&str>, name: &str, module: Option<&str>| ledger.layer.sum(root, name, module);
    let node = |name: &str| ledger.node.sum(None, name, None);
    let counter = |name: &str| ledger.counters.get(name).copied().unwrap_or(0) as f64;

    report.push(
        "packets.decode_ns_per_pkt",
        per_pkt(node("capture").self_ns),
        "ns",
    );
    report.push(
        "packets.undecoded_ratio",
        ledger.counts.undecoded as f64 / pkts,
        "ratio",
    );
    report.push(
        "store.push_ns_per_pkt",
        per_pkt(layer(None, "store.push", None).self_ns),
        "ns",
    );
    report.push(
        "store.clone_ns_per_pkt",
        per_pkt(layer(None, "store.clone", None).self_ns),
        "ns",
    );

    let registry = ModuleRegistry::with_defaults();
    let mut reported = 0.0;
    let mut external = 0.0;
    let mut ratios = Vec::new();
    for name in registry.names() {
        let module = registry
            .build(&kalis_core::config::ModuleDef::new(name))
            .expect("the default registry builds its own names");
        let prefix = match module.descriptor().kind {
            ModuleKind::Sensing => "sensing",
            ModuleKind::Detection => "detection",
        };
        let packet = layer(None, "module.packet", Some(name));
        let tick = layer(None, "module.tick", Some(name));
        report.push(
            format!("{prefix}.{name}.packet_ns_per_pkt"),
            per_pkt(packet.self_ns),
            "ns",
        );
        report.push(
            format!("{prefix}.{name}.tick_ns_per_call"),
            per_call(tick),
            "ns",
        );
        let own = counter(&module_counter(name));
        let timed = (packet.self_ns + tick.self_ns) as f64;
        reported += own;
        external += timed;
        ratios.push((
            format!("modules.{name}.cpu_ns_reported_ratio"),
            ratio(own, timed),
        ));
    }
    report.push(
        "detection.active_mean",
        ledger.layer_counts.active_detection as f64 / ledger.layer_counts.packets.max(1) as f64,
        "count",
    );

    let inserts = counter(&kb_counter("insert"));
    let changes = counter(names::KB_CHURN);
    let (get_ns, insert_ns) = ledger.kb_costs.unwrap_or((0.0, 0.0));
    report.push(
        "knowledge.gets_per_pkt",
        counter(&kb_counter("get")) / pkts,
        "count",
    );
    report.push("knowledge.inserts_per_pkt", inserts / pkts, "count");
    report.push("knowledge.changes_per_pkt", changes / pkts, "count");
    report.push(
        "knowledge.write_useful_ratio",
        ratio(changes, inserts),
        "ratio",
    );
    report.push("knowledge.get_ns_per_call", get_ns, "ns");
    report.push("knowledge.insert_ns_per_call", insert_ns, "ns");
    report.push(
        "knowledge.drain_ns_per_pkt",
        per_pkt(layer(None, "knowledge.drain", None).self_ns),
        "ns",
    );
    report.push(
        "knowledge.entity_evictions",
        ledger.kb_evictions as f64 / ledger.passes as f64,
        "count",
    );

    let lc = &ledger.layer_counts;
    let flips = counter(names::MODULES_ACTIVATED) + counter(names::MODULES_DEACTIVATED);
    let kalis = median(&ledger.untraced);
    let traditional = median(&ledger.traditional);
    report.push(
        "modules.reconfigure_ns_per_call",
        per_call(layer(None, "modules.reconfigure", None)),
        "ns",
    );
    report.push(
        "modules.reconfigures_per_pkt",
        lc.reconfigures as f64 / pkts,
        "count",
    );
    report.push(
        "modules.flip_ratio",
        ratio(flips, lc.reconfigures as f64),
        "ratio",
    );
    report.push_sampled(
        "modules.activation_saving",
        ratio(traditional, kalis),
        "ratio",
        ledger.traditional.len(),
    );
    report.push(
        "modules.cpu_ns_reported_ratio",
        ratio(reported, external),
        "ratio",
    );
    for (name, value) in ratios {
        report.push(name, value, "ratio");
    }
    report.push_sampled(
        "baselines.traditional_ns_per_pkt",
        traditional,
        "ns",
        ledger.traditional.len(),
    );

    report.push(
        "response.apply_ns_per_alert",
        per_call(layer(None, "response.apply", None)),
        "ns",
    );

    // Layers on the per-packet path, as the layer replay timed them under
    // its `ingest` spans; the rest of the node's traced ingest is the
    // node's own orchestration.
    let ingest = node("ingest");
    let in_ingest: u64 = [
        "store.push",
        "store.clone",
        "module.packet",
        "knowledge.drain",
        "modules.reconfigure",
        "response.apply",
    ]
    .iter()
    .map(|n| layer(Some("ingest"), n, None).self_ns)
    .sum();
    let residual = (ingest.self_ns as f64 - in_ingest as f64) / pkts;
    let tick = node("tick");
    report.push("node.tick_ns_per_call", per_call(tick), "ns");
    report.push(
        "node.ticks_per_kpkt",
        tick.calls as f64 * 1000.0 / pkts,
        "count",
    );
    report.push("node.ingest_residual_ns_per_pkt", residual, "ns");

    let c = &ledger.counts;
    report.push("sync.poll_ns_per_call", per_call(node("sync.poll")), "ns");
    report.push(
        "sync.receive_ns_per_call",
        per_call(node("sync.receive")),
        "ns",
    );
    report.push(
        "sync.frames_per_kpkt",
        c.frames as f64 * 1000.0 / pkts,
        "count",
    );
    report.push(
        "sync.bytes_per_frame",
        ratio(c.frame_bytes as f64, c.frames as f64),
        "B",
    );
    report.push(
        "sync.bytes_per_kpkt",
        c.frame_bytes as f64 * 1000.0 / pkts,
        "B",
    );
    report.push(
        "sync.retransmits",
        c.retransmits as f64 / ledger.passes as f64,
        "count",
    );
    report.push(
        "sync.accept_ratio",
        ratio((c.frames - c.frames_rejected) as f64, c.frames as f64),
        "ratio",
    );

    let traced = median(&ledger.traced);
    report.push_sampled(
        "trace.untraced_cpu_ns_per_pkt",
        kalis,
        "ns",
        ledger.untraced.len(),
    );
    report.push_sampled(
        "trace.traced_cpu_ns_per_pkt",
        traced,
        "ns",
        ledger.traced.len(),
    );
    report.push("trace.overhead_ratio", ratio(traced, kalis), "ratio");

    let ingest_per_pkt = per_pkt(ingest.self_ns);
    let layers_per_pkt = per_pkt(in_ingest);
    report.notes.push(format!(
        "ledger check: traced ingest {ingest_per_pkt:.0} ns/pkt = layers {layers_per_pkt:.0} + residual {residual:.0} \
         (layers cover {:.1}%); {} traced passes, {} packets",
        100.0 * ratio(layers_per_pkt, ingest_per_pkt),
        ledger.passes,
        ledger.packets
    ));
    report.notes.push(format!(
        "tracing overhead: untraced {kalis:.0} ns/pkt, traced {traced:.0} ns/pkt"
    ));
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        match run_traced(args.workload, args.seed, args.seconds, false) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
    } else {
        run_timed(args.workload, args.seed, args.seconds, false)
    };
    println!(
        "workload={} seed={} trace={} alert_fingerprints={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        report
            .fingerprints
            .iter()
            .map(|f| format!("{f:016x}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    for m in &report.metrics {
        match m.samples {
            Some(n) => println!("{:<48} {:>16.6} {:<6} (n={n})", m.name, m.value, m.unit),
            None => println!("{:<48} {:>16.6} {}", m.name, m.value, m.unit),
        }
    }
    for note in &report.notes {
        println!("{note}");
    }
    println!("{}", report.json());
}

#[cfg(test)]
mod tests {
    //! The benchmark's self-check: all four workloads at reduced size.

    use super::*;

    /// End-to-end metrics every workload reports, with their units.
    const END_TO_END: [(&str, &str); 10] = [
        ("cpu_ns_per_pkt", "ns"),
        ("ingest_p50_us", "us"),
        ("ingest_p99_us", "us"),
        ("detection_rate", "ratio"),
        ("accuracy", "ratio"),
        ("peak_state_kib", "KiB"),
        ("peak_rss_mib", "MiB"),
        ("setup_s", "s"),
        ("first_alert_delay_s", "s"),
        ("failed_ratio", "ratio"),
    ];

    /// Metrics that are a percentile or median and so carry a count.
    const SAMPLED: [&str; 5] = [
        "cpu_ns_per_pkt",
        "ingest_p50_us",
        "ingest_p99_us",
        "setup_s",
        "first_alert_delay_s",
    ];

    fn metric<'a>(report: &'a Report, name: &str) -> &'a Metric {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is missing"))
    }

    #[test]
    fn every_workload_emits_every_metric_and_repeats_its_alerts() {
        for workload in Workload::ALL {
            let first = run_timed(workload, 7, 0.01, true);
            let again = run_timed(workload, 7, 0.01, true);
            let name = workload.name();
            assert!(first.correct, "{name}: {:?}", first.notes);
            assert_eq!(
                first.fingerprints, again.fingerprints,
                "{name}: same seed, same alerts"
            );
            for (metric_name, unit) in END_TO_END {
                let m = metric(&first, metric_name);
                assert_eq!(m.unit, unit, "{name}: {metric_name}");
                assert!(m.value.is_finite(), "{name}: {metric_name}");
                if SAMPLED.contains(&metric_name) {
                    assert!(
                        m.samples.is_some_and(|n| n > 0),
                        "{name}: {metric_name} has no count"
                    );
                }
            }
            let sync = first
                .metrics
                .iter()
                .find(|m| m.name == "sync_bytes_per_kpkt");
            assert_eq!(
                sync.is_some(),
                workload.nodes() == 2,
                "{name}: sync bytes on wsn-collab only"
            );
            assert!(
                sync.is_none_or(|m| m.unit == "B" && m.value > 0.0),
                "{name}"
            );
            assert!(first.attempted > 0, "{name}: nothing attempted");
            assert_eq!(
                metric(&first, "failed_ratio").value,
                first.failed as f64 / first.attempted as f64,
                "{name}: failed_ratio is failed over attempted"
            );
            let json = first.json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
            assert!(
                !json.contains("first_alert_delay_s"),
                "info metrics stay out of the result"
            );
        }
    }

    #[test]
    fn every_workload_passes_the_equivalence_gate_and_fills_the_ledger() {
        for workload in Workload::ALL {
            let report = run_traced(workload, 7, 0.01, true)
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert!(report.correct, "{}: {:?}", workload.name(), report.notes);
            for name in [
                "packets.decode_ns_per_pkt",
                "store.push_ns_per_pkt",
                "node.tick_ns_per_call",
            ] {
                assert!(
                    metric(&report, name).value > 0.0,
                    "{}: {name}",
                    workload.name()
                );
            }
            let sync = metric(&report, "sync.frames_per_kpkt").value;
            assert_eq!(
                sync > 0.0,
                workload.nodes() == 2,
                "{}: sync runs only on wsn-collab",
                workload.name()
            );
        }
    }
}
