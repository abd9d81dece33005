//! adapt-social: `AdaptivePipeline` over a stream whose observed CPU
//! drifts upward partway through, with the full state saved through
//! `CheckpointStore::save` every [`CHECKPOINT_EVERY`] windows.

use std::path::PathBuf;

use deeprest_adapt::{AdaptConfig, AdaptivePipeline};
use deeprest_core::DeepRest;
use deeprest_metrics::eval::interval_calibration;
use deeprest_metrics::TimeSeries;
use deeprest_serve::replay::load_jsonl;
use deeprest_serve::{CheckpointStore, ServeConfig, WindowOutput};

use crate::inputs::{Inputs, DRIFT_ONSET};
use crate::spans::Tracer;
use crate::{fingerprint, outputs_equal, stats, Pass};

/// Requests (windows) between two checkpoints: one save per 512-window
/// round, which leaves 192 windows after it for the resume check.
pub const CHECKPOINT_EVERY: usize = 320;

pub fn adapt_config(inputs: &Inputs) -> AdaptConfig {
    AdaptConfig {
        serve: ServeConfig::default().with_window_secs(inputs.manifest.window_secs),
        ..AdaptConfig::default()
    }
}

pub struct Adapt<'m> {
    model: &'m DeepRest,
    inputs: &'m Inputs,
    store: CheckpointStore,
    first: Option<Vec<WindowOutput>>,
    problems: Vec<String>,
    /// (request CPU ns, whether an update ran during it) of traced requests.
    traced_requests: Vec<(u64, bool)>,
    checkpoint_bytes: Vec<u64>,
    /// First-round outputs already produced when the last save ran.
    outputs_at_last_save: usize,
}

impl<'m> Adapt<'m> {
    pub fn new(model: &'m DeepRest, inputs: &'m Inputs, dir: PathBuf) -> Self {
        Self {
            model,
            inputs,
            store: CheckpointStore::new(dir),
            first: None,
            problems: Vec::new(),
            traced_requests: Vec::new(),
            checkpoint_bytes: Vec::new(),
            outputs_at_last_save: 0,
        }
    }
}

impl crate::Bench for Adapt<'_> {
    fn round(&mut self, tr: &mut Tracer, pass: &mut Pass) {
        let inputs = self.inputs;
        let mut live = inputs.names.clone();
        let mut ap = AdaptivePipeline::new(
            self.model.clone(),
            &inputs.names,
            inputs.observed.clone(),
            adapt_config(inputs),
        );
        let mut outputs = Vec::new();
        for (i, doc) in inputs.stream.iter().enumerate() {
            let last = i + 1 == inputs.stream.len();
            let updates_before = ap.updates_run();
            tr.set_request(pass.req_ns.len() as u64);
            let t0 = crate::clock::process_cpu_ns();
            let req = tr.begin("request");
            let d = tr.begin("trace.decode");
            let decoded = load_jsonl(doc, &mut live);
            tr.end(d);
            let mut ok = true;
            let mut produced = Vec::new();
            match decoded {
                Err(_) => ok = false,
                Ok(arrivals) => {
                    pass.traces += arrivals.len() as u64;
                    let s = tr.begin("adapt.ingest");
                    for a in arrivals {
                        match ap.ingest(a) {
                            Ok(out) => produced.extend(out),
                            Err(_) => ok = false,
                        }
                    }
                    if last {
                        match ap.flush() {
                            Ok(out) => produced.extend(out),
                            Err(_) => ok = false,
                        }
                    }
                    tr.end(s);
                }
            }
            let saving = (i + 1) % CHECKPOINT_EVERY == 0;
            if saving {
                let s = tr.begin("adapt.checkpoint");
                let checkpoint = ap.checkpoint();
                tr.end(s);
                match checkpoint {
                    Ok(ck) => {
                        let s = tr.begin("serve.checkpoint_save");
                        ok &= self.store.save(&ck).is_ok();
                        tr.end(s);
                    }
                    Err(_) => ok = false,
                }
            }
            tr.end(req);
            let ns = crate::clock::process_cpu_ns() - t0;
            pass.record(ns);
            pass.failed += u64::from(!ok);
            pass.windows += produced.len() as u64;
            outputs.extend(produced);
            if saving && self.first.is_none() {
                self.outputs_at_last_save = outputs.len();
            }
            if tr.enabled() {
                self.traced_requests
                    .push((ns, ap.updates_run() > updates_before));
                if saving {
                    let bytes = std::fs::metadata(self.store.latest_path()).map_or(0, |m| m.len());
                    self.checkpoint_bytes.push(bytes);
                }
            }
        }
        if ap.updates_run() == 0 {
            self.problems.push("no adaptation update ran".to_owned());
        }
        if ap.updates_failed() > 0 {
            self.problems
                .push(format!("{} adaptation updates failed", ap.updates_failed()));
        }
        pass.fingerprints.push(fingerprint(outputs.iter()));
        if self.first.is_none() {
            self.first = Some(outputs);
        }
    }

    /// Resume-from-checkpoint identity and the drift calibration check.
    fn check(&self) -> Vec<String> {
        let mut problems = self.problems.clone();
        let inputs = self.inputs;
        let Some(first) = &self.first else {
            return vec!["no round ran".to_owned()];
        };
        let cfg = adapt_config(inputs);
        let serve_rest = |mut ap: AdaptivePipeline, from: usize| -> Vec<WindowOutput> {
            let mut names = inputs.names.clone();
            let mut out = Vec::new();
            for doc in &inputs.stream[from..] {
                for a in load_jsonl(doc, &mut names).expect("stream decodes") {
                    out.extend(ap.ingest(a).expect("adaptive ingest"));
                }
            }
            out.extend(ap.flush().expect("adaptive flush"));
            out
        };

        // Every round saves at the same requests, so the store's latest
        // checkpoint is the first round's last one.
        let saved = (inputs.stream.len() / CHECKPOINT_EVERY) * CHECKPOINT_EVERY;
        match self.store.load_latest() {
            Ok(ck) => {
                let resumed =
                    AdaptivePipeline::restore(&inputs.names, inputs.observed.clone(), cfg, &ck)
                        .expect("checkpoint restores");
                let rest = serve_rest(resumed, saved);
                let tail = &first[self.outputs_at_last_save..];
                if rest.len() != tail.len()
                    || !rest.iter().zip(tail).all(|(a, b)| outputs_equal(a, b))
                {
                    problems.push(format!(
                        "resuming from the checkpoint at window {saved} changes the outputs"
                    ));
                } else {
                    println!(
                        "check: resume from window {saved} reproduces {} windows bit for bit",
                        rest.len()
                    );
                }
            }
            Err(e) => problems.push(format!("cannot load the last checkpoint: {e}")),
        }

        let frozen = AdaptivePipeline::new(
            self.model.clone(),
            &inputs.names,
            inputs.observed.clone(),
            cfg.frozen(),
        );
        let frozen_out = serve_rest(frozen, 0);
        let nominal = f64::from(self.model.config().delta);
        let adaptive = coverage(self.model, inputs, first);
        let frozen_cov = coverage(self.model, inputs, &frozen_out);
        println!("check: coverage after drift: adaptive {adaptive:.3}, frozen {frozen_cov:.3}, nominal {nominal:.2}");
        if (adaptive - nominal).abs() >= (frozen_cov - nominal).abs() {
            problems.push(format!(
                "adaptive coverage {adaptive:.3} is not nearer nominal {nominal} than frozen {frozen_cov:.3}"
            ));
        }
        problems
    }

    fn layers(&self, tr: &Tracer, out: &mut crate::Layers) {
        let totals = tr.totals();
        let mean = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| t.1 as f64 / t.0.max(1) as f64)
        };
        let decoded: usize = self.inputs.manifest.traces_per_window.iter().sum();
        let rounds = self.traced_requests.len() / self.inputs.stream.len().max(1);
        let decode_total = totals.get("trace.decode").map_or(0, |t| t.1) as f64;
        out.set(
            "trace.decode_us_per_trace",
            decode_total / 1e3 / (decoded as f64 * rounds.max(1) as f64),
        );
        out.set("adapt.checkpoint_ms", mean("adapt.checkpoint") / 1e6);
        out.set(
            "serve.checkpoint_save_ms",
            mean("serve.checkpoint_save") / 1e6,
        );
        let bytes: Vec<f64> = self.checkpoint_bytes.iter().map(|&b| b as f64).collect();
        if !bytes.is_empty() {
            out.set("serve.checkpoint_mb", stats::median(&bytes) / 1e6);
        }
        let split = |updating: bool| -> Vec<f64> {
            self.traced_requests
                .iter()
                .filter(|r| r.1 == updating)
                .map(|r| r.0 as f64 / 1e6)
                .collect()
        };
        let (upd, serve) = (split(true), split(false));
        if !upd.is_empty() {
            out.set("adapt.update_request_ms", stats::median(&upd));
        }
        if !serve.is_empty() {
            out.set("adapt.serve_request_ms", stats::median(&serve));
        }
    }
}

/// Pooled δ-interval coverage over every expert from the drift onset on,
/// cumulative resources compared as per-window increments.
fn coverage(model: &DeepRest, inputs: &Inputs, outputs: &[WindowOutput]) -> f64 {
    let (mut actual, mut lower, mut upper) = (Vec::new(), Vec::new(), Vec::new());
    for (e, key) in model.expert_keys().iter().enumerate() {
        let Some(series) = inputs.observed.get(key) else {
            continue;
        };
        let is_delta = model.expert_is_delta(key).unwrap_or(false);
        for out in outputs
            .iter()
            .filter(|o| o.window >= DRIFT_ONSET && o.window < series.len())
        {
            let p = &out.estimates[e];
            if !(p.lower.is_finite() && p.upper.is_finite()) {
                continue;
            }
            let v = series.get(out.window);
            actual.push(if is_delta {
                (v - series.get(out.window - 1)).max(0.0)
            } else {
                v
            });
            lower.push(p.lower);
            upper.push(p.upper);
        }
    }
    interval_calibration(
        &TimeSeries::from_values(actual),
        &TimeSeries::from_values(lower),
        &TimeSeries::from_values(upper),
        f64::from(model.config().delta),
    )
    .coverage
}
