//! The metric catalogue, result labels, and output: a table of every
//! metric with its unit, one labelled result record, an output file per
//! run under `perfbench/out/`, and the one-line contract result last.

use std::fmt::Write as _;
use std::path::Path;

use crate::trace::{Ledger, Tracer};

/// Version of the result record layout.
pub const SCHEMA: u32 = 1;

/// End-to-end metrics, reported with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("queries_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("answered_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the separate traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.edge_us", "us"),
    ("net.wakeups_per_query", "count"),
    ("net.writev_batch_frac", "ratio"),
    ("net.partial_read_frac", "ratio"),
    ("wire.frame_encode_ns", "ns"),
    ("wire.frame_decode_ns", "ns"),
    ("wire.request_bytes", "bytes"),
    ("graph.encode_us", "us"),
    ("graph.decode_us", "us"),
    ("graph.nodes", "count"),
    ("service.inproc_rtt_us", "us"),
    ("service.handoff_us", "us"),
    ("service.queue_wait_p50_us", "us"),
    ("service.queue_wait_p99_us", "us"),
    ("service.compile_mean_us", "us"),
    ("service.sampling_mean_us", "us"),
    ("service.rejected", "count"),
    ("service.timeouts", "count"),
    ("service.sessions_evicted", "count"),
    ("session.query_us", "us"),
    ("session.cache_hit_rate", "ratio"),
    ("session.compile_us", "us"),
    ("session.compile_share", "ratio"),
    ("session.dispatch_exact_frac", "ratio"),
    ("session.dispatch_kernel_frac", "ratio"),
    ("session.dispatch_closure_frac", "ratio"),
    ("kernel.ns_per_sample", "ns"),
    ("plan.ns_per_sample", "ns"),
    ("exact.decide_ns", "ns"),
    ("exact.share", "ratio"),
    ("sprt.samples_per_decision", "count"),
    ("sprt.samples_p99", "count"),
    ("sprt.capped_frac", "ratio"),
    ("dist.fill_ns_per_sample", "ns"),
    ("app.build_us", "us"),
    ("ledger.unattributed_frac", "ratio"),
    ("ledger.outside_eval_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Metric values by name.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Copies every metric whose name starts with one of `prefixes`.
    pub fn take_from(&mut self, other: &Metrics, prefixes: &[&str]) {
        for &(name, v) in &other.0 {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.set(name, v);
            }
        }
    }
}

/// Everything one run produced.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Extra labelled fields for the result record, as JSON values.
    pub details: Vec<(String, String)>,
    pub ledger: Option<Ledger>,
    pub tracer: Option<Tracer>,
}

impl RunResult {
    pub fn detail(&mut self, key: &str, json_value: impl std::fmt::Display) {
        self.details.push((key.to_string(), json_value.to_string()));
    }
}

/// What the run was asked to do.
pub struct Labels<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// A JSON number; non-finite values become `null` (and fail the run).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Prints the table and the result record, writes the run's files, and
/// prints the contract line last.
pub fn emit(labels: &Labels, mut run: RunResult) {
    let catalogue = if labels.traced { PER_LAYER } else { END_TO_END };
    let mut contract = String::new();
    let mut table = String::new();
    for &(name, unit) in catalogue {
        let v = run.metrics.get(name).unwrap_or(f64::NAN);
        if !v.is_finite() {
            eprintln!("perfbench: metric {name} was not measured");
            run.correct = false;
        }
        let _ = writeln!(table, "  {name:<32} {:>16} {unit}", format!("{v:.4}"));
        if !contract.is_empty() {
            contract.push(',');
        }
        let _ = write!(
            contract,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            num(v)
        );
    }

    let mode = if labels.traced { "traced" } else { "untraced" };
    println!(
        "perfbench {} seed={} seconds={} mode={mode}",
        labels.workload, labels.seed, labels.seconds
    );
    print!("{table}");
    if let Some(l) = &run.ledger {
        println!(
            "  ledger: {} requests, {:.1} us mean end to end, unattributed {:.4}",
            l.roots,
            l.total_ns as f64 / l.roots.max(1) as f64 / 1e3,
            l.unattributed_frac
        );
        for r in &l.rows {
            println!(
                "    {:<28} self {:>10.2} us/request  share {:>7.4}",
                r.name,
                r.self_ns as f64 / l.roots.max(1) as f64 / 1e3,
                r.self_ns as f64 / l.total_ns.max(1) as f64
            );
        }
    }

    let mut record = format!(
        "{{\"schema\":{SCHEMA},\"git_rev\":\"{}\",\"source_digest\":\"{:016x}\",\
         \"nproc\":{},\"mode\":\"{mode}\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\
         \"note\":\"the default 4 shards, the event loops and the load generator \
         oversubscribe a 2-CPU host, so no figure measures parallel speedup\",\
         \"correct\":{},\"attempted\":{},\"failed\":{}",
        git_rev(),
        source_digest(),
        nproc(),
        labels.workload,
        labels.seed,
        labels.seconds,
        run.correct,
        run.attempted,
        run.failed
    );
    for (k, v) in &run.details {
        let _ = write!(record, ",\"{k}\":{v}");
    }
    if let Some(l) = &run.ledger {
        let _ = write!(
            record,
            ",\"ledger\":{{\"requests\":{},\"total_ns\":{},\"unattributed_frac\":{},\"rows\":[",
            l.roots,
            l.total_ns,
            num(l.unattributed_frac)
        );
        for (i, r) in l.rows.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                record,
                "{sep}{{\"span\":\"{}\",\"count\":{},\"self_ns\":{}}}",
                r.name, r.count, r.self_ns
            );
        }
        record.push_str("]}");
    }
    let _ = write!(record, ",\"metrics\":{{{contract}}}}}");
    println!("result {record}");

    let dir = Path::new("perfbench/out");
    let stem = format!("{}-seed{}-{mode}", labels.workload, labels.seed);
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{stem}.json")), format!("{record}\n"));
        if let Some(t) = &run.tracer {
            // The first spans suffice to inspect a run; the ledger above
            // covers all of them.
            let _ = std::fs::write(
                dir.join(format!("{stem}.spans.jsonl")),
                t.to_json_lines(65_536),
            );
        }
    }

    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{contract}}}}}",
        run.correct,
        run.attempted.max(1),
        run.failed
    );
}

/// Available parallelism of this host.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.len() == 40 && rev.bytes().all(|b| b.is_ascii_hexdigit()) {
        rev.to_string()
    } else {
        "unknown".to_string()
    }
}

/// FNV-1a over the library sources (`crates/*/src/**`, sorted by path),
/// which names the code under test even where there is no git metadata.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.retain(|p| p.components().any(|c| c.as_os_str() == "src"));
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}
