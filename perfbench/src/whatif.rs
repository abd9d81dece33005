//! whatif-social: a seeded sweep of what-if queries through
//! `DeepRest::estimate_traffic`, one query per request.

use deeprest_core::stream::{PointEstimate, StreamSnapshot};
use deeprest_core::{DeepRest, Estimates};

use crate::inputs::Inputs;
use crate::spans::Tracer;
use crate::Pass;

pub struct Whatif<'m> {
    model: &'m DeepRest,
    inputs: &'m Inputs,
    /// Per query: the answer of a fresh `StreamPredictor` stepped through
    /// the same synthesized features, window by window.
    reference: Vec<Vec<Vec<PointEstimate>>>,
    /// Synthesized traces per query.
    traces: Vec<u64>,
    cold: StreamSnapshot,
    mismatches: usize,
    traced_windows: u64,
}

impl<'m> Whatif<'m> {
    pub fn new(model: &'m DeepRest, inputs: &'m Inputs) -> Self {
        let mut reference = Vec::new();
        let mut traces = Vec::new();
        for q in &inputs.queries {
            let synthetic = model
                .synthesizer()
                .synthesize(&q.traffic, model.interner(), q.seed);
            traces.push(synthetic.trace_count() as u64);
            let xs = model.feature_space().extract_all_normalized(&synthetic);
            let mut fresh = model.stream_predictor();
            reference.push(xs.iter().map(|x| fresh.step(x)).collect());
        }
        Self {
            model,
            inputs,
            reference,
            traces,
            cold: model.stream_predictor().snapshot(),
            mismatches: 0,
            traced_windows: 0,
        }
    }

    /// Bitwise comparison with the fresh-predictor reference.
    fn matches(&self, answer: &Estimates, q: usize, digest: &mut crate::Digest) -> bool {
        let reference = &self.reference[q];
        let mut equal = true;
        for (e, key) in self.model.expert_keys().iter().enumerate() {
            let Some(series) = answer.get(key) else {
                return false;
            };
            for (w, points) in reference.iter().enumerate() {
                let p = &points[e];
                for (a, b) in [
                    (series.expected.get(w), p.expected),
                    (series.lower.get(w), p.lower),
                    (series.upper.get(w), p.upper),
                ] {
                    digest.add(a.to_bits());
                    equal &= a.to_bits() == b.to_bits();
                }
            }
        }
        equal
    }
}

impl crate::Bench for Whatif<'_> {
    fn round(&mut self, tr: &mut Tracer, pass: &mut Pass) {
        let mut digest = crate::Digest::default();
        for (q, query) in self.inputs.queries.iter().enumerate() {
            tr.set_request(pass.req_ns.len() as u64);
            let t0 = crate::clock::process_cpu_ns();
            let req = tr.begin("request");
            let s = tr.begin("core.estimate_traffic");
            let answer = self.model.estimate_traffic(&query.traffic, query.seed);
            tr.end(s);
            tr.end(req);
            pass.record(crate::clock::process_cpu_ns() - t0);
            let windows = query.traffic.window_count();
            pass.windows += windows as u64;
            pass.traces += self.traces[q];
            if !self.matches(&answer, q, &mut digest) {
                self.mismatches += 1;
            }
            if tr.enabled() {
                let root = tr.begin("shadow");
                let s = tr.begin("core.synthesize");
                let synthetic = self.model.synthesizer().synthesize(
                    &query.traffic,
                    self.model.interner(),
                    query.seed,
                );
                tr.end(s);
                let s = tr.begin("core.batch_features");
                let xs = self
                    .model
                    .feature_space()
                    .extract_all_normalized(&synthetic);
                tr.end(s);
                let s = tr.begin("core.what_if");
                let what_if = self
                    .model
                    .estimate_what_if(&self.cold, &query.traffic, query.seed)
                    .expect("cold snapshot fits the model");
                tr.end(s);
                tr.end(root);
                std::hint::black_box((xs, what_if));
                self.traced_windows += windows as u64;
            }
        }
        pass.fingerprints.push(digest.finish());
    }

    fn check(&self) -> Vec<String> {
        if self.mismatches == 0 {
            println!(
                "check: {} what-if answers equal a fresh StreamPredictor bit for bit",
                self.inputs.queries.len()
            );
            Vec::new()
        } else {
            vec![format!(
                "{} what-if answers differ from a fresh StreamPredictor",
                self.mismatches
            )]
        }
    }

    fn layers(&self, tr: &Tracer, out: &mut crate::Layers) {
        let totals = tr.totals();
        let sum = |name: &str| totals.get(name).map_or(0, |t| t.1) as f64;
        let windows = self.traced_windows.max(1) as f64;
        let synth = sum("core.synthesize");
        let feats = sum("core.batch_features");
        out.set("core.synthesize_us_per_window", synth / 1e3 / windows);
        out.set("core.batch_features_us_per_window", feats / 1e3 / windows);
        out.set(
            "core.batch_predict_us_per_window",
            (sum("core.estimate_traffic") - synth - feats) / 1e3 / windows,
        );
        out.set(
            "core.what_if_us_per_window",
            sum("core.what_if") / 1e3 / windows,
        );
    }
}
