//! Seeded inputs, made in a child process before the measured one loads
//! them: the learning set the model is fitted on, the serving stream as
//! Jaeger JSON (one document per scrape window, one document per line),
//! the observed metrics the sanity check and the adapter read, and the
//! what-if query grid.

use std::fmt::Write as _;
use std::path::Path;

use deeprest_metrics::{MetricsRegistry, ResourceKind, TimeSeries};
use deeprest_sim::anomaly::CryptojackingAttack;
use deeprest_sim::apps;
use deeprest_sim::engine::{simulate, simulate_with, SimConfig};
use deeprest_trace::window::WindowedTraces;
use deeprest_trace::{Interner, SpanNode, Trace};
use deeprest_workload::{ApiTraffic, TrafficShape, WorkloadSpec};
use serde::{Deserialize, Serialize};

use crate::Workload;

/// Seed of the learning day. The model is the system under test, so it is
/// the same for every run; `--seed` varies the traffic it serves.
pub const LEARN_SEED: u64 = 17;
/// Windows of the learning day (one simulated day).
pub const LEARN_WINDOWS: usize = 64;
/// Users behind the learning traffic (≈0.6 requests per user per window at
/// the daily peak).
pub const LEARN_USERS: f64 = 100.0;
/// Users behind the serving traffic: 10% above the learning day.
pub const SERVE_USERS: f64 = 110.0;
/// Windows of one serving round, per serving workload.
pub const INGEST_WINDOWS: usize = 256;
pub const ADAPT_WINDOWS: usize = 512;
/// Cryptojacking onset (ingest-social) and its extra CPU, in percent.
pub const ATTACK_ONSET: usize = 32;
pub const ATTACK_CPU_PCT: f64 = 6.0;
/// Drift (adapt-social): observed CPU of every component ramps linearly
/// from ×1 at the onset to ×(1 + DRIFT) over DRIFT_RAMP windows.
pub const DRIFT_ONSET: usize = 128;
pub const DRIFT_RAMP: usize = 64;
pub const DRIFT: f64 = 0.5;
/// Tenants of tenants-hotel.
pub const TENANTS: usize = 8;
/// What-if grid: scales × API mixes × day shapes, each query this many
/// windows long.
pub const QUERY_SCALES: [f64; 3] = [0.5, 1.0, 2.0];
pub const QUERY_WINDOWS: usize = 8;

/// A traffic spec whose volume does not depend on the seed: the seed
/// still draws every window's counts (±5% window noise) and every trace,
/// but not a whole-day scale factor, so every seed makes inputs of the
/// same size and runs of different seeds measure the same amount of work.
fn spec(users: f64, mix: Vec<(String, f64)>) -> WorkloadSpec {
    WorkloadSpec {
        day_jitter: 0.0,
        ..WorkloadSpec::new(users, mix)
    }
}

/// Everything a learning run needs.
#[derive(Serialize, Deserialize)]
pub struct Learn {
    pub traces: WindowedTraces,
    pub metrics: MetricsRegistry,
    pub interner: Interner,
}

/// One what-if query: hypothetical traffic and its synthesis seed.
#[derive(Serialize, Deserialize)]
pub struct Query {
    pub label: String,
    pub traffic: ApiTraffic,
    pub seed: u64,
}

/// Facts about the generated inputs the checks rely on.
#[derive(Serialize, Deserialize)]
pub struct Manifest {
    pub window_secs: f64,
    /// Traces written into the stream, per window.
    pub traces_per_window: Vec<usize>,
}

/// The loaded inputs of one workload.
pub struct Inputs {
    pub manifest: Manifest,
    pub learn: Learn,
    /// One Jaeger document per line (serving workloads).
    pub stream: Vec<String>,
    /// Every name the stream's documents use (see README: the
    /// `Pipeline::new` name-table fault).
    pub names: Interner,
    pub observed: MetricsRegistry,
    pub queries: Vec<Query>,
}

fn write_json<T: Serialize>(dir: &Path, name: &str, value: &T) {
    let text = serde_json::to_string(value).expect("inputs serialize");
    std::fs::write(dir.join(name), text).expect("write input file");
}

fn read_json<T: Deserialize>(dir: &Path, name: &str) -> T {
    let text = std::fs::read_to_string(dir.join(name))
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.join(name).display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {name}: {e:?}"))
}

/// Generates the inputs of `workload` for `seed` into `dir`.
pub fn generate(workload: Workload, seed: u64, dir: &Path) {
    std::fs::create_dir_all(dir).expect("create input directory");
    let app = match workload {
        Workload::TenantsHotel => apps::hotel_reservation(),
        _ => apps::social_network(),
    };
    let learn_traffic = spec(LEARN_USERS, app.default_mix())
        .with_days(1)
        .with_windows_per_day(LEARN_WINDOWS)
        .with_seed(LEARN_SEED)
        .generate();
    let learned = simulate(
        &app,
        &learn_traffic,
        &SimConfig::default().with_seed(LEARN_SEED),
    );
    let window_secs = learned.traces.window_secs;

    let mut names = learned.interner.clone();
    let mut stream = Vec::new();
    let mut observed = MetricsRegistry::new();
    let mut queries = Vec::new();
    let mut traces_per_window = Vec::new();
    let serve_spec = |windows: usize| {
        spec(SERVE_USERS, app.default_mix())
            .with_days(windows / LEARN_WINDOWS)
            .with_windows_per_day(LEARN_WINDOWS)
            .with_seed(seed ^ 0x5e7e)
            .generate()
    };
    let serve_sim = SimConfig::default().with_seed(seed ^ 0x71);
    match workload {
        Workload::IngestSocial | Workload::TenantsHotel | Workload::AdaptSocial => {
            let windows = if workload == Workload::AdaptSocial {
                ADAPT_WINDOWS
            } else {
                INGEST_WINDOWS
            };
            let traffic = serve_spec(windows);
            let served = if workload == Workload::IngestSocial {
                let attack =
                    CryptojackingAttack::new("PostStorageMongoDB", ATTACK_ONSET, ATTACK_CPU_PCT);
                simulate_with(&app, &traffic, &serve_sim, &[&attack])
            } else {
                simulate(&app, &traffic, &serve_sim)
            };
            for (t, window) in served.traces.windows.iter().enumerate() {
                traces_per_window.push(window.len());
                stream.push(jaeger_document(t, window, window_secs, &served.interner));
            }
            observed = served.metrics;
            if workload == Workload::AdaptSocial {
                observed = with_cpu_drift(&observed);
            }
            // The name table handed to the pipelines: every name the
            // documents carry, decoded here, outside the measured process.
            for doc in &stream {
                deeprest_serve::replay::load_jsonl(doc, &mut names).expect("own document decodes");
            }
        }
        Workload::WhatifSocial => queries = query_grid(&app.default_mix(), seed),
    }
    write_json(
        dir,
        "learn.json",
        &Learn {
            traces: learned.traces,
            metrics: learned.metrics,
            interner: learned.interner,
        },
    );
    write_json(dir, "names.json", &names);
    write_json(dir, "observed.json", &observed);
    write_json(dir, "queries.json", &queries);
    std::fs::write(dir.join("stream.jsonl"), stream.join("\n")).expect("write stream");
    write_json(
        dir,
        "manifest.json",
        &Manifest {
            window_secs,
            traces_per_window,
        },
    );
}

/// Loads what [`generate`] wrote.
pub fn load(dir: &Path) -> Inputs {
    let stream_text = std::fs::read_to_string(dir.join("stream.jsonl")).expect("read stream");
    Inputs {
        manifest: read_json(dir, "manifest.json"),
        learn: read_json(dir, "learn.json"),
        stream: stream_text
            .lines()
            .filter(|l| !l.is_empty())
            .map(str::to_owned)
            .collect(),
        names: read_json(dir, "names.json"),
        observed: read_json(dir, "observed.json"),
        queries: read_json(dir, "queries.json"),
    }
}

/// Multiplies every CPU series by the drift factor from [`DRIFT_ONSET`]:
/// the same requests now cost more CPU, as after a slower release.
fn with_cpu_drift(metrics: &MetricsRegistry) -> MetricsRegistry {
    let mut out = MetricsRegistry::new();
    for (key, series) in metrics.iter() {
        let values: Vec<f64> = series
            .values()
            .iter()
            .enumerate()
            .map(|(t, &v)| {
                if key.resource != ResourceKind::Cpu || t < DRIFT_ONSET {
                    return v;
                }
                let ramp = ((t - DRIFT_ONSET) as f64 / DRIFT_RAMP as f64).min(1.0);
                v * (1.0 + DRIFT * ramp)
            })
            .collect();
        out.insert(key.clone(), TimeSeries::from_values(values));
    }
    out
}

/// The what-if sweep of paper Figs. 14–16: traffic scale × API mix × day
/// shape, each a short seeded query.
fn query_grid(mix: &[(String, f64)], seed: u64) -> Vec<Query> {
    let boosted = |i: usize| -> Vec<(String, f64)> {
        mix.iter()
            .enumerate()
            .map(|(j, (api, w))| (api.clone(), if j == i { w * 4.0 } else { *w }))
            .collect()
    };
    let mixes = [
        ("default", mix.to_vec()),
        ("first-api-x4", boosted(0)),
        ("last-api-x4", boosted(mix.len() - 1)),
    ];
    let shapes = [
        ("two-peak", TrafficShape::TwoPeak),
        ("single-peak", TrafficShape::SinglePeak),
        ("flat", TrafficShape::Flat),
    ];
    let mut out = Vec::new();
    for &scale in &QUERY_SCALES {
        for (mix_name, mix) in &mixes {
            for (shape_name, shape) in &shapes {
                let q = out.len() as u64;
                let traffic = spec(SERVE_USERS * scale, mix.clone())
                    .with_shape(shape.clone())
                    .with_days(1)
                    .with_windows_per_day(QUERY_WINDOWS)
                    .with_seed(seed ^ (q << 8))
                    .generate();
                out.push(Query {
                    label: format!("x{scale}/{mix_name}/{shape_name}"),
                    traffic,
                    seed: seed.wrapping_mul(31).wrapping_add(q),
                });
            }
        }
    }
    out
}

/// One scrape window as a Jaeger API document. Trace `j` of `n` arrives at
/// `(t + (j + ½)/n) · window_secs`, carried in span `startTime`
/// (microseconds); the endpoint rides on a synthetic `__api__` root span.
pub fn jaeger_document(t: usize, traces: &[Trace], window_secs: f64, names: &Interner) -> String {
    let n = traces.len().max(1) as f64;
    let mut doc = String::from(r#"{"data":["#);
    for (j, trace) in traces.iter().enumerate() {
        if j > 0 {
            doc.push(',');
        }
        let at_us = ((t as f64 + (j as f64 + 0.5) / n) * window_secs * 1e6).round() as u64;
        let id = format!("w{t:05}t{j:05}");
        let mut spans = String::new();
        let mut services: Vec<&str> = vec!["__api__"];
        write!(
            spans,
            r#"{{"traceID":"{id}","spanID":"{id}.0","operationName":"{}","references":[],"processID":"p0","startTime":{at_us},"duration":900}}"#,
            names.resolve(trace.api)
        )
        .expect("write to String");
        let mut next = 1usize;
        write_span(
            &trace.root,
            &format!("{id}.0"),
            &id,
            at_us,
            1,
            names,
            &mut next,
            &mut services,
            &mut spans,
        );
        let processes: Vec<String> = services
            .iter()
            .enumerate()
            .map(|(p, s)| format!(r#""p{p}":{{"serviceName":"{s}"}}"#))
            .collect();
        write!(
            doc,
            r#"{{"traceID":"{id}","spans":[{spans}],"processes":{{{}}}}}"#,
            processes.join(",")
        )
        .expect("write to String");
    }
    doc.push_str("]}");
    doc
}

#[allow(clippy::too_many_arguments)]
fn write_span<'a>(
    node: &SpanNode,
    parent: &str,
    trace_id: &str,
    at_us: u64,
    depth: u64,
    names: &'a Interner,
    next: &mut usize,
    services: &mut Vec<&'a str>,
    out: &mut String,
) {
    let span_id = format!("{trace_id}.{next}");
    *next += 1;
    let service = names.resolve(node.component);
    let pid = match services.iter().position(|s| *s == service) {
        Some(p) => p,
        None => {
            services.push(service);
            services.len() - 1
        }
    };
    write!(
        out,
        r#",{{"traceID":"{trace_id}","spanID":"{span_id}","operationName":"{}","references":[{{"refType":"CHILD_OF","traceID":"{trace_id}","spanID":"{parent}"}}],"processID":"p{pid}","startTime":{},"duration":{}}}"#,
        names.resolve(node.operation),
        at_us + 20 * depth,
        900u64.saturating_sub(40 * depth).max(10),
    )
    .expect("write to String");
    for child in &node.children {
        write_span(
            child,
            &span_id,
            trace_id,
            at_us,
            depth + 1,
            names,
            next,
            services,
            out,
        );
    }
}
