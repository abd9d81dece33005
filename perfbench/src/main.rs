//! `deeprest-perfbench`: CPU-clocked end-to-end benchmark of DeepRest, from
//! Jaeger bytes to estimates, alerts and what-if answers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ingest-social --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Inputs are made from `--seed` by a child process (`gen`), outside the
//! measured one. The measured process fits the model (set-up), then serves
//! requests from one thread in a closed loop, whole rounds of the same
//! requests, for `--seconds` and at least [`MIN_REQUESTS`] requests, timing
//! each on the process CPU clock. A fixed reference work, timed between
//! requests, puts those CPU times at one reference speed, so that a host
//! that runs the process slower for a while does not read as a slower
//! program. It checks the outputs and prints one JSON
//! line last: end-to-end metrics with `--trace 0`; with `--trace 1`, an
//! untraced and a traced pass over the same rounds and the per-layer
//! metrics. See README.md.

mod adapt;
mod clock;
mod inputs;
mod serving;
mod spans;
mod stats;
mod whatif;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use deeprest_core::{DeepRest, DeepRestConfig};
use deeprest_serve::WindowOutput;

use spans::Tracer;

/// Requests per untraced run at the least, so the p99 has ≥10 beyond it.
const MIN_REQUESTS: usize = 1000;
/// Fits (with serving-state builds) per run; set-up time is their median.
const SETUP_REPS: usize = 3;
/// Largest share of a request's CPU time its own span may keep, i.e. time
/// no layer span covers, before the stage sum is called incomplete.
const STAGE_SUM_TOLERANCE: f64 = 0.03;
/// Request CPU time between two timings of the reference work.
const CALIBRATE_EVERY_NS: u64 = 50_000_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    IngestSocial,
    TenantsHotel,
    AdaptSocial,
    WhatifSocial,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::IngestSocial,
        Workload::TenantsHotel,
        Workload::AdaptSocial,
        Workload::WhatifSocial,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestSocial => "ingest-social",
            Workload::TenantsHotel => "tenants-hotel",
            Workload::AdaptSocial => "adapt-social",
            Workload::WhatifSocial => "whatif-social",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What one pass of request rounds measured.
#[derive(Default)]
pub struct Pass {
    pub req_ns: Vec<u64>,
    pub traces: u64,
    pub windows: u64,
    pub failed: u64,
    /// Digest of every round's outputs, in round order.
    pub fingerprints: Vec<u64>,
    /// Reference work timed between requests: (requests before it, CPU ns).
    pub calibrations: Vec<(usize, u64)>,
    /// Request CPU time since the last calibration.
    since_calibration_ns: u64,
}

impl Pass {
    /// Records one request's CPU time; times the reference work, outside
    /// every request, once [`CALIBRATE_EVERY_NS`] of requests have passed.
    pub fn record(&mut self, ns: u64) {
        self.req_ns.push(ns);
        self.since_calibration_ns += ns;
        if self.since_calibration_ns >= CALIBRATE_EVERY_NS {
            self.calibrate();
        }
    }

    fn calibrate(&mut self) {
        self.since_calibration_ns = 0;
        self.calibrations
            .push((self.req_ns.len(), clock::reference_ns()));
    }

    /// Request CPU times in milliseconds at reference speed: each request's
    /// CPU time scaled by [`clock::REFERENCE_NS`] over the mean of the two
    /// reference timings around it.
    pub fn reference_ms(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.req_ns.len());
        for pair in self.calibrations.windows(2) {
            let ((from, a), (to, b)) = (pair[0], pair[1]);
            let scale = clock::reference_scale(a, b);
            out.extend(
                self.req_ns[from..to]
                    .iter()
                    .map(|&n| n as f64 * scale / 1e6),
            );
        }
        assert_eq!(
            out.len(),
            self.req_ns.len(),
            "every request lies between two calibrations"
        );
        out
    }

    /// Traces and windows per CPU-second of requests at reference speed.
    pub fn rates(&self) -> (f64, f64) {
        let cpu_s = self.reference_ms().iter().sum::<f64>() / 1e3;
        (self.traces as f64 / cpu_s, self.windows as f64 / cpu_s)
    }
}

/// FNV-1a over output bits: equal digests for bit-identical rounds.
#[derive(Default)]
pub struct Digest(u64);

impl Digest {
    pub fn add(&mut self, word: u64) {
        if self.0 == 0 {
            self.0 = 0xcbf2_9ce4_8422_2325;
        }
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

pub fn fingerprint<'a>(outputs: impl Iterator<Item = &'a WindowOutput>) -> u64 {
    let mut d = Digest::default();
    for o in outputs {
        d.add(o.window as u64);
        d.add(o.trace_count as u64);
        for p in &o.estimates {
            d.add(p.expected.to_bits());
            d.add(p.lower.to_bits());
            d.add(p.upper.to_bits());
        }
        for s in &o.scores {
            d.add(s.to_bits());
        }
        for a in &o.alerts {
            d.add(a.window as u64);
            d.add(a.score.to_bits());
        }
    }
    d.finish()
}

/// Bitwise equality of two window outputs, alerts included.
pub fn outputs_equal(a: &WindowOutput, b: &WindowOutput) -> bool {
    let bits = |x: f64, y: f64| x.to_bits() == y.to_bits();
    a.window == b.window
        && a.trace_count == b.trace_count
        && a.estimates.len() == b.estimates.len()
        && a.estimates.iter().zip(&b.estimates).all(|(x, y)| {
            bits(x.expected, y.expected) && bits(x.lower, y.lower) && bits(x.upper, y.upper)
        })
        && a.scores.len() == b.scores.len()
        && a.scores.iter().zip(&b.scores).all(|(x, y)| bits(*x, *y))
        && a.alerts.len() == b.alerts.len()
        && a.alerts.iter().zip(&b.alerts).all(|(x, y)| {
            x.component == y.component
                && x.resource == y.resource
                && x.window == y.window
                && bits(x.score, y.score)
                && bits(x.deviation_pct, y.deviation_pct)
                && x.contributing_apis == y.contributing_apis
        })
}

/// The per-layer metrics, in `BENCHMARK.json` order. A layer the workload
/// never calls reads 0.
pub struct Layers(Vec<(&'static str, &'static str, f64)>);

impl Layers {
    fn new() -> Self {
        Self(
            [
                ("trace.decode_us_per_trace", "us"),
                ("trace.assemble_us_per_trace", "us"),
                ("core.features_us_per_window", "us"),
                ("core.step_us_per_window", "us"),
                ("core.step_1t_us_per_window", "us"),
                ("core.snapshot_us_per_window", "us"),
                ("core.fit_s_per_epoch", "s"),
                ("core.synthesize_us_per_window", "us"),
                ("core.batch_features_us_per_window", "us"),
                ("core.batch_predict_us_per_window", "us"),
                ("core.what_if_us_per_window", "us"),
                ("serve.sanity_us_per_window", "us"),
                ("serve.pipeline_self_us_per_window", "us"),
                ("serve.submit_us_per_arrival", "us"),
                ("serve.round_self_us", "us"),
                ("serve.checkpoint_save_ms", "ms"),
                ("serve.checkpoint_mb", "MB"),
                ("adapt.checkpoint_ms", "ms"),
                ("adapt.update_request_ms", "ms"),
                ("adapt.serve_request_ms", "ms"),
            ]
            .into_iter()
            .map(|(n, u)| (n, u, 0.0))
            .collect(),
        )
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|m| m.0 == name)
            .expect("known per-layer metric");
        slot.2 = value;
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("deeprest-perfbench: {msg}");
    eprintln!(
        "usage: deeprest-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Args {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("missing value for {flag}")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                );
            }
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds takes a number"))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
    }
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("gen") {
        argv.next();
        let args = parse_args(argv.by_ref().take(4));
        let dir = PathBuf::from(
            argv.next()
                .unwrap_or_else(|| usage("gen needs an output directory")),
        );
        inputs::generate(args.workload, args.seed, &dir);
        return;
    }
    let args = parse_args(argv);
    // Every request runs on one thread. On a host of few cores a pool that
    // spawns a worker per core on every call makes the process's CPU time
    // depend on how the host schedules its cores; the traced run still
    // times the model step on the program's default pool width.
    std::env::set_var("DEEPREST_THREADS", "1");
    let run_clock = clock::RunClock::start();
    let work = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let run_id = format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    );
    let dir = work.join(format!("inputs-{run_id}"));
    let status = Command::new(std::env::current_exe().expect("own executable"))
        .args([
            "gen",
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .arg(&dir)
        .status()
        .expect("start the input generator");
    assert!(status.success(), "input generator failed: {status}");
    let inputs = inputs::load(&dir);
    std::fs::remove_dir_all(&dir).ok();

    let (model, setup_s, fit_s_per_epoch) = setup(args.workload, &inputs);
    let mut outcome = measure(&args, &model, &inputs, &work);
    let (wall, steal) = run_clock.elapsed();
    let raw_ms: Vec<f64> = outcome
        .untraced
        .req_ns
        .iter()
        .map(|&n| n as f64 / 1e6)
        .collect();
    let refs: Vec<f64> = outcome
        .untraced
        .calibrations
        .iter()
        .map(|c| c.1 as f64 / 1e6)
        .collect();
    println!(
        "reference work: median {:.3} ms over {} timings (nominal {:.3} ms); median request {:.3} ms of CPU as measured",
        stats::median(&refs),
        refs.len(),
        clock::REFERENCE_NS as f64 / 1e6,
        stats::median(&raw_ms),
    );
    println!(
        "host: nproc {} | pool threads {} | kernels {} | wall {wall:.2} s | steal {steal:.2} s",
        host_threads(),
        deeprest_tensor::pool::Pool::global().threads(),
        if is_avx2() { "avx2" } else { "portable" },
    );
    if args.trace {
        outcome.layers.set("core.fit_s_per_epoch", fit_s_per_epoch);
    }
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        outcome.layers.0.clone()
    } else {
        let p = &outcome.untraced;
        let (traces_per_s, windows_per_s) = p.rates();
        let ms = p.reference_ms();
        let p99 = stats::percentile(&ms, 0.99).unwrap_or_else(|| {
            outcome.problems.push(format!(
                "{} requests leave fewer than 10 beyond the p99",
                ms.len()
            ));
            f64::NAN
        });
        vec![
            ("setup_s", "s", setup_s),
            ("traces_per_cpu_s", "1/s", traces_per_s),
            ("windows_per_cpu_s", "1/s", windows_per_s),
            ("request_cpu_p50_ms", "ms", stats::median(&ms)),
            ("request_cpu_p99_ms", "ms", p99),
            ("peak_rss_mb", "MB", clock::peak_rss_mb()),
        ]
    };
    for problem in &outcome.problems {
        eprintln!("check FAILED: {problem}");
    }
    let correct = outcome.problems.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!(r#""{n}": {{"value": {}, "unit": "{u}"}}"#, json_number(*v)))
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

fn is_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Fits the model with the default configuration and builds the serving
/// state, [`SETUP_REPS`] times; returns the model, the median set-up CPU
/// seconds and the median fit CPU seconds per epoch.
fn setup(workload: Workload, inputs: &inputs::Inputs) -> (DeepRest, f64, f64) {
    let learn = &inputs.learn;
    let config = DeepRestConfig::default();
    let (mut setups, mut fits) = (Vec::new(), Vec::new());
    let mut model: Option<DeepRest> = None;
    for _ in 0..SETUP_REPS {
        let before = clock::reference_ns();
        let t0 = clock::process_cpu_ns();
        let (m, _) = DeepRest::fit(
            &learn.traces,
            &learn.metrics,
            &learn.interner,
            config.clone(),
        );
        let t1 = clock::process_cpu_ns();
        match workload {
            Workload::IngestSocial | Workload::TenantsHotel => {
                std::hint::black_box(serving::build_state(workload, &m, inputs));
            }
            Workload::AdaptSocial => {
                let ap = deeprest_adapt::AdaptivePipeline::new(
                    m.clone(),
                    &inputs.names,
                    inputs.observed.clone(),
                    adapt::adapt_config(inputs),
                );
                std::hint::black_box(ap.keys().len());
            }
            Workload::WhatifSocial => {
                std::hint::black_box(m.stream_predictor().snapshot());
            }
        }
        let t2 = clock::process_cpu_ns();
        let scale = clock::reference_scale(before, clock::reference_ns());
        setups.push((t2 - t0) as f64 * scale / 1e9);
        fits.push((t1 - t0) as f64 * scale / 1e9 / config.epochs as f64);
        if let Some(prev) = &model {
            let same = prev.parameters().iter().zip(m.parameters()).all(|(a, b)| {
                a.1.len() == b.1.len()
                    && a.1.iter().zip(b.1).all(|(x, y)| x.to_bits() == y.to_bits())
            });
            assert!(same, "two fits of the same inputs differ");
        }
        model = Some(m);
    }
    (
        model.expect("at least one fit"),
        stats::median(&setups),
        stats::median(&fits),
    )
}

/// The same model on a pool of `threads` workers (the config's thread
/// count is not settable after fitting, so it goes through the model's
/// JSON).
fn with_threads(model: &DeepRest, threads: usize) -> DeepRest {
    let json = model.to_json().expect("model serializes");
    let pinned = json.replacen("\"threads\":null", &format!("\"threads\":{threads}"), 1);
    assert_ne!(pinned, json, "model JSON carries a threads field");
    DeepRest::from_json(&pinned).expect("pinned model parses")
}

/// The program's default pool width: one worker per hardware thread.
fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One workload's request loop, its checks and its per-layer figures.
pub trait Bench {
    /// Serves one round: the whole input, with fresh serving state.
    fn round(&mut self, tr: &mut Tracer, pass: &mut Pass);
    /// Checks of the outputs against independent paths, one line per failure.
    fn check(&self) -> Vec<String>;
    /// Per-layer figures from the traced pass.
    fn layers(&self, tr: &Tracer, out: &mut Layers);
}

/// Runs whole rounds until `seconds` of wall time and `min_requests`
/// requests have passed, or exactly `rounds` rounds when given.
fn drive(
    bench: &mut dyn Bench,
    tr: &mut Tracer,
    seconds: f64,
    min_requests: usize,
    rounds: Option<usize>,
) -> Pass {
    let start = Instant::now();
    let mut pass = Pass::default();
    pass.calibrate();
    loop {
        bench.round(tr, &mut pass);
        let done = pass.fingerprints.len();
        let more = match rounds {
            Some(r) => done < r,
            None => start.elapsed().as_secs_f64() < seconds || pass.req_ns.len() < min_requests,
        };
        if !more {
            if pass.since_calibration_ns > 0 {
                pass.calibrate();
            }
            return pass;
        }
    }
}

struct Outcome {
    untraced: Pass,
    /// Requests and failed requests over every pass.
    attempted: usize,
    failed: u64,
    problems: Vec<String>,
    layers: Layers,
}

fn measure(args: &Args, model: &DeepRest, inputs: &inputs::Inputs, work: &Path) -> Outcome {
    let model_pool = args.trace.then(|| with_threads(model, host_threads()));
    let ckpt = work.join(format!(
        "checkpoints-{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let mut bench: Box<dyn Bench + '_> = match args.workload {
        Workload::IngestSocial | Workload::TenantsHotel => Box::new(serving::Serving::new(
            args.workload,
            model,
            model_pool.as_ref(),
            inputs,
        )),
        Workload::AdaptSocial => Box::new(adapt::Adapt::new(model, inputs, ckpt.clone())),
        Workload::WhatifSocial => Box::new(whatif::Whatif::new(model, inputs)),
    };
    let mut problems = Vec::new();
    let same_rounds = |pass: &Pass, what: &str, problems: &mut Vec<String>| {
        if pass.fingerprints.iter().any(|f| *f != pass.fingerprints[0]) {
            problems.push(format!(
                "{what}: rounds of the same requests gave different outputs"
            ));
        }
    };
    let mut off = Tracer::new(false);
    let mut layers = Layers::new();
    let untraced = if args.trace {
        drive(bench.as_mut(), &mut off, args.seconds / 2.0, 0, None)
    } else {
        drive(bench.as_mut(), &mut off, args.seconds, MIN_REQUESTS, None)
    };
    same_rounds(&untraced, "untraced", &mut problems);
    let (mut attempted, mut failed) = (untraced.req_ns.len(), untraced.failed);
    if args.trace {
        let mut tr = Tracer::new(true);
        let traced = drive(
            bench.as_mut(),
            &mut tr,
            0.0,
            0,
            Some(untraced.fingerprints.len()),
        );
        same_rounds(&traced, "traced", &mut problems);
        attempted += traced.req_ns.len();
        failed += traced.failed;
        if traced.fingerprints != untraced.fingerprints {
            problems.push("traced outputs differ from the untraced run's".to_owned());
        }
        let own = tr.self_ns();
        for root in ["request", "shadow"] {
            let (mut total, mut uncovered) = (0u64, 0u64);
            for (span, own) in tr.spans().iter().zip(&own) {
                if span.name == root {
                    total += span.duration_ns();
                    uncovered += own;
                }
            }
            if total == 0 {
                continue;
            }
            let share = uncovered as f64 / total as f64;
            println!(
                "stage sum: {root} spans {:.3} s CPU, {:.2}% outside every layer span (tolerance {:.0}%)",
                total as f64 / 1e9,
                share * 100.0,
                STAGE_SUM_TOLERANCE * 100.0
            );
            if share > STAGE_SUM_TOLERANCE {
                problems.push(format!(
                    "{root}: layer spans cover only {:.1}% of its time",
                    (1.0 - share) * 100.0
                ));
            }
        }
        let med =
            |p: &Pass| stats::median(&p.req_ns.iter().map(|&n| n as f64 / 1e6).collect::<Vec<_>>());
        let (a, b) = (med(&untraced), med(&traced));
        println!(
            "tracing overhead: median request {a:.4} ms untraced, {b:.4} ms traced ({:+.2}%)",
            (b / a - 1.0) * 100.0
        );
        bench.layers(&tr, &mut layers);
        let path = work.join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        tr.write_jsonl(&path).expect("write spans");
        println!("spans: {} written to {}", tr.spans().len(), path.display());
    }
    problems.extend(bench.check());
    std::fs::remove_dir_all(&ckpt).ok();
    Outcome {
        untraced,
        attempted,
        failed,
        problems,
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_scaled_by_the_reference_timings_around_them() {
        let nominal = clock::REFERENCE_NS;
        let pass = Pass {
            req_ns: vec![1_000_000, 2_000_000, 3_000_000],
            traces: 30,
            windows: 3,
            // Requests 0 and 1 ran while the reference work took its
            // nominal time, request 2 while it took twice as long.
            calibrations: vec![(0, nominal), (2, nominal), (3, 3 * nominal)],
            ..Pass::default()
        };
        assert_eq!(pass.reference_ms(), vec![1.0, 2.0, 1.5]);
        let (traces, windows) = pass.rates();
        assert!((traces - 30.0 / 4.5e-3).abs() < 1e-6);
        assert!((windows - 3.0 / 4.5e-3).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "between two calibrations")]
    fn a_request_after_the_last_calibration_is_refused() {
        let pass = Pass {
            req_ns: vec![1, 2],
            calibrations: vec![(0, 1), (1, 1)],
            ..Pass::default()
        };
        pass.reference_ms();
    }
}
