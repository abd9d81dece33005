//! ingest-social and tenants-hotel: one scrape window's Jaeger document per
//! request, through one `serve::Pipeline` or through a `TenantRegistry` of
//! identical tenants.
//!
//! The traced run adds a *shadow* per pipeline: the same arrivals driven
//! through the layers the pipeline is built from (window assembly, feature
//! extraction, predictor snapshot and step, online sanity), each call in
//! its own span, outside the request span. Its outputs must equal the
//! pipeline's bit for bit, which proves the decomposition; the pipeline's
//! own cost is its span minus the shadow's layer spans.

use deeprest_core::stream::{PointEstimate, StreamPredictor};
use deeprest_core::{DeepRest, ExpertKey};
use deeprest_metrics::MetricsRegistry;
use deeprest_serve::replay::load_jsonl;
use deeprest_serve::sanity::OnlineSanity;
use deeprest_serve::tenant::TenantOutput;
use deeprest_serve::{
    batch_reference, contributing_apis, Accepted, Alert, ObservationSource, OverloadConfig,
    Pipeline, SchedConfig, ServeConfig, ServeError, TenantConfig, TenantRegistry, WindowOutput,
};
use deeprest_trace::stream::WindowAssembler;
use deeprest_trace::window::TimestampedTrace;
use deeprest_trace::Interner;

use crate::inputs::{Inputs, ATTACK_ONSET, TENANTS};
use crate::spans::Tracer;
use crate::{fingerprint, outputs_equal, Pass, Workload};

/// Arrivals submitted to every tenant between two scheduling rounds.
const SUBMIT_CHUNK: usize = 8;

pub fn serve_config(inputs: &Inputs) -> ServeConfig {
    ServeConfig::default().with_window_secs(inputs.manifest.window_secs)
}

/// The serving state a user builds once: what setup time covers.
pub fn build_state(kind: Workload, model: &DeepRest, inputs: &Inputs) -> usize {
    let cfg = serve_config(inputs);
    match kind {
        Workload::IngestSocial => {
            let p =
                Pipeline::new(model, &inputs.names, cfg).with_observations(inputs.observed.clone());
            p.keys().len()
        }
        _ => registry(model, inputs).tenant_count(),
    }
}

fn registry<'m>(model: &'m DeepRest, inputs: &Inputs) -> TenantRegistry<'m> {
    let cfg = serve_config(inputs);
    let mut reg = TenantRegistry::new(SchedConfig::default(), OverloadConfig::default());
    for t in 0..TENANTS {
        reg.add_tenant(
            model,
            &inputs.names,
            cfg,
            TenantConfig::new(format!("tenant{t}")),
        );
    }
    reg
}

/// The layer-by-layer replica of one pipeline (traced run only).
struct Shadow<'m> {
    model: &'m DeepRest,
    assembler: WindowAssembler,
    predictor: StreamPredictor<'m>,
    predictor_1t: StreamPredictor<'m>,
    sanity: Option<OnlineSanity>,
    keys: Vec<ExpertKey>,
    is_delta: Vec<bool>,
    contributing: Vec<Vec<String>>,
    outputs: Vec<WindowOutput>,
    one_thread_mismatches: usize,
}

impl<'m> Shadow<'m> {
    /// `model` runs on the process's one-thread pool, `model_pool` on the
    /// program's default pool width.
    fn new(model: &'m DeepRest, model_pool: &'m DeepRest, cfg: &ServeConfig, scored: bool) -> Self {
        let keys = model.expert_keys();
        Self {
            model,
            assembler: WindowAssembler::new(cfg.window_secs, cfg.lateness_secs),
            predictor: model_pool.stream_predictor(),
            predictor_1t: model.stream_predictor(),
            sanity: scored.then(|| OnlineSanity::new(cfg.sanity, keys.len())),
            is_delta: keys
                .iter()
                .map(|k| model.expert_is_delta(k).unwrap_or(false))
                .collect(),
            contributing: contributing_apis(model, &keys, cfg.api_threshold),
            keys,
            outputs: Vec::new(),
            one_thread_mismatches: 0,
        }
    }

    fn feed(
        &mut self,
        arrivals: Vec<TimestampedTrace>,
        last: bool,
        names: &Interner,
        observed: &mut MetricsRegistry,
        tr: &mut Tracer,
    ) {
        let root = tr.begin("shadow");
        let s = tr.begin("trace.assemble");
        let mut sealed = Vec::new();
        for a in arrivals {
            sealed.extend(self.assembler.push(a));
        }
        if last {
            sealed.extend(self.assembler.flush());
        }
        tr.end(s);
        for w in &sealed {
            let s = tr.begin("core.features");
            let x = self.model.window_features(&w.traces, names);
            tr.end(s);
            let s = tr.begin("core.snapshot");
            let snap = self.predictor.snapshot();
            drop(std::hint::black_box(snap));
            tr.end(s);
            let s = tr.begin("core.step");
            let estimates = self.predictor.step(&x);
            tr.end(s);
            let s = tr.begin("core.step_1t");
            let single = self.predictor_1t.step(&x);
            tr.end(s);
            if !points_equal(&estimates, &single) {
                self.one_thread_mismatches += 1;
            }
            let s = tr.begin("serve.sanity");
            let (mut scores, mut alerts) = (Vec::new(), Vec::new());
            if let Some(sanity) = &mut self.sanity {
                for (e, key) in self.keys.iter().enumerate() {
                    let Some(actual) = observed.observe(key, w.index) else {
                        scores.push(f64::NAN);
                        continue;
                    };
                    let outcome = sanity.observe(e, actual, &estimates[e], self.is_delta[e]);
                    scores.push(outcome.score);
                    if outcome.alerting {
                        alerts.push(Alert {
                            component: key.component.clone(),
                            resource: key.resource,
                            window: w.index,
                            score: outcome.score,
                            deviation_pct: outcome.deviation_pct,
                            contributing_apis: self.contributing[e].clone(),
                        });
                    }
                }
            }
            tr.end(s);
            self.outputs.push(WindowOutput {
                window: w.index,
                trace_count: w.traces.len(),
                estimates,
                scores,
                alerts,
            });
        }
        tr.end(root);
    }
}

/// Appends a single pipeline's outputs as tenant 0's; `false` on error.
fn collect(
    result: Result<Vec<WindowOutput>, ServeError>,
    produced: &mut Vec<TenantOutput>,
) -> bool {
    match result {
        Ok(out) => {
            produced.extend(
                out.into_iter()
                    .map(|output| TenantOutput { tenant: 0, output }),
            );
            true
        }
        Err(_) => false,
    }
}

fn points_equal(a: &[PointEstimate], b: &[PointEstimate]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.expected.to_bits() == y.expected.to_bits()
                && x.lower.to_bits() == y.lower.to_bits()
                && x.upper.to_bits() == y.upper.to_bits()
        })
}

/// Per-round serving bench state and what the checks need afterwards.
pub struct Serving<'m> {
    kind: Workload,
    model: &'m DeepRest,
    model_pool: Option<&'m DeepRest>,
    inputs: &'m Inputs,
    /// Outputs of the first round, per tenant (one entry for ingest).
    first: Option<Vec<Vec<WindowOutput>>>,
    problems: Vec<String>,
    shadow_windows: u64,
    shadow_traces: u64,
    submits: u64,
}

impl<'m> Serving<'m> {
    pub fn new(
        kind: Workload,
        model: &'m DeepRest,
        model_pool: Option<&'m DeepRest>,
        inputs: &'m Inputs,
    ) -> Self {
        Self {
            kind,
            model,
            model_pool,
            inputs,
            first: None,
            problems: Vec::new(),
            shadow_windows: 0,
            shadow_traces: 0,
            submits: 0,
        }
    }

    /// One pass over the stream with fresh serving state.
    /// Submits one request's arrivals to every tenant in chunks, runs a
    /// scheduling round after each chunk and drains the queues.
    fn drive_registry(
        &mut self,
        reg: &mut TenantRegistry<'_>,
        arrivals: &[TimestampedTrace],
        last: bool,
        tr: &mut Tracer,
        produced: &mut Vec<TenantOutput>,
    ) -> bool {
        let mut ok = true;
        let mut take = |outs: Vec<TenantOutput>, errors: usize, shed: u64| {
            produced.extend(outs);
            errors == 0 && shed == 0
        };
        for chunk in arrivals.chunks(SUBMIT_CHUNK) {
            let s = tr.begin("serve.submit");
            for a in chunk {
                for t in 0..reg.tenant_count() {
                    match reg.submit(t, a.clone()) {
                        Ok(Accepted::Displaced { .. }) | Err(_) => ok = false,
                        Ok(_) => {}
                    }
                }
            }
            tr.end(s);
            self.submits += (chunk.len() * reg.tenant_count()) as u64;
            let s = tr.begin("serve.round");
            let r = reg.run_round();
            tr.end(s);
            ok &= take(r.outputs, r.errors.len(), r.shed);
        }
        while (0..reg.tenant_count()).any(|t| reg.queue_depth(t) > 0) {
            let s = tr.begin("serve.round");
            let r = reg.run_round();
            tr.end(s);
            ok &= take(r.outputs, r.errors.len(), r.shed);
        }
        if last {
            let s = tr.begin("serve.round");
            let f = reg.flush();
            tr.end(s);
            ok &= take(f.outputs, f.errors.len(), 0);
        }
        ok
    }
}

impl crate::Bench for Serving<'_> {
    fn round(&mut self, tr: &mut Tracer, pass: &mut Pass) {
        let inputs = self.inputs;
        let cfg = serve_config(inputs);
        let tenants = if self.kind == Workload::IngestSocial {
            1
        } else {
            TENANTS
        };
        let scored = self.kind == Workload::IngestSocial;
        let mut shadows: Vec<Shadow<'_>> = match self.model_pool {
            Some(m1) if tr.enabled() => (0..tenants)
                .map(|_| Shadow::new(self.model, m1, &cfg, scored))
                .collect(),
            _ => Vec::new(),
        };
        let mut shadow_names = inputs.names.clone();
        let mut shadow_observed = inputs.observed.clone();
        let mut live = inputs.names.clone();
        let mut outputs: Vec<Vec<WindowOutput>> = vec![Vec::new(); tenants];

        let mut pipeline = (self.kind == Workload::IngestSocial).then(|| {
            Pipeline::new(self.model, &inputs.names, cfg).with_observations(inputs.observed.clone())
        });
        let mut reg = (self.kind == Workload::TenantsHotel).then(|| registry(self.model, inputs));

        for (i, doc) in inputs.stream.iter().enumerate() {
            let last = i + 1 == inputs.stream.len();
            tr.set_request(pass.req_ns.len() as u64);
            let t0 = crate::clock::process_cpu_ns();
            let req = tr.begin("request");
            let d = tr.begin("trace.decode");
            let decoded = load_jsonl(doc, &mut live);
            tr.end(d);
            let mut ok = true;
            let mut produced: Vec<TenantOutput> = Vec::new();
            match decoded {
                Err(_) => ok = false,
                Ok(arrivals) => {
                    pass.traces += (arrivals.len() * tenants) as u64;
                    if let Some(p) = &mut pipeline {
                        let s = tr.begin("serve.pipeline");
                        for a in arrivals {
                            ok &= collect(p.ingest(a), &mut produced);
                        }
                        if last {
                            ok &= collect(p.flush(), &mut produced);
                        }
                        tr.end(s);
                    } else if let Some(reg) = &mut reg {
                        ok &= self.drive_registry(reg, &arrivals, last, tr, &mut produced);
                    }
                }
            }
            tr.end(req);
            pass.record(crate::clock::process_cpu_ns() - t0);
            pass.failed += u64::from(!ok);
            pass.windows += produced.len() as u64;
            for out in produced {
                outputs[out.tenant].push(out.output);
            }
            if !shadows.is_empty() {
                let arrivals = load_jsonl(doc, &mut shadow_names).expect("stream decodes");
                self.shadow_traces += arrivals.len() as u64;
                for sh in &mut shadows {
                    sh.feed(
                        arrivals.clone(),
                        last,
                        &inputs.names,
                        &mut shadow_observed,
                        tr,
                    );
                }
            }
        }
        if let Some(p) = &pipeline {
            if p.late_dropped() > 0 {
                self.problems
                    .push(format!("{} arrivals dropped as late", p.late_dropped()));
            }
        }
        if let Some(reg) = &reg {
            for t in 0..tenants {
                let st = reg.stats(t);
                let refused = st.shed
                    + st.rejected_queue
                    + st.rejected_breaker
                    + st.rejected_window_quota
                    + st.rejected_byte_quota;
                if refused > 0 {
                    self.problems
                        .push(format!("tenant {t}: {refused} arrivals shed or rejected"));
                }
                if reg.pipeline(t).late_dropped() > 0 {
                    self.problems
                        .push(format!("tenant {t}: arrivals dropped as late"));
                }
            }
        }
        if live.len() != inputs.names.len() {
            self.problems
                .push("decode met a name outside the pipeline's name table".to_owned());
        }
        for (t, sh) in shadows.iter().enumerate() {
            self.shadow_windows += sh.outputs.len() as u64;
            if sh.one_thread_mismatches > 0 {
                self.problems.push(format!(
                    "one-thread step differs in {} windows",
                    sh.one_thread_mismatches
                ));
            }
            if sh.outputs.len() != outputs[t].len()
                || !sh
                    .outputs
                    .iter()
                    .zip(&outputs[t])
                    .all(|(a, b)| outputs_equal(a, b))
            {
                self.problems.push(format!(
                    "tenant {t}: layer-by-layer shadow differs from the pipeline"
                ));
            }
        }
        pass.fingerprints
            .push(fingerprint(outputs.iter().flatten()));
        if self.first.is_none() {
            self.first = Some(outputs);
        }
    }

    /// Checks of the first round against independent paths.
    fn check(&self) -> Vec<String> {
        let mut problems = self.problems.clone();
        let inputs = self.inputs;
        let Some(first) = &self.first else {
            return vec!["no round ran".to_owned()];
        };
        let cfg = serve_config(inputs);
        // Decode the stream again and seal it in batch.
        let mut names = inputs.names.clone();
        let mut assembler = WindowAssembler::new(cfg.window_secs, cfg.lateness_secs);
        let mut sealed = Vec::new();
        let mut decoded = 0usize;
        for doc in &inputs.stream {
            let arrivals = load_jsonl(doc, &mut names).expect("stream decodes");
            decoded += arrivals.len();
            for a in arrivals {
                sealed.extend(assembler.push(a));
            }
        }
        sealed.extend(assembler.flush());
        let generated: usize = inputs.manifest.traces_per_window.iter().sum();
        if decoded != generated {
            problems.push(format!("decoded {decoded} of {generated} generated traces"));
        }
        let observed = (self.kind == Workload::IngestSocial).then_some(&inputs.observed);
        let expected = batch_reference(self.model, &sealed, &inputs.names, observed, &cfg);
        for (t, outs) in first.iter().enumerate() {
            let sealed_traces: usize = outs.iter().map(|o| o.trace_count).sum();
            if sealed_traces != generated {
                problems.push(format!(
                    "tenant {t}: {sealed_traces} of {generated} traces reached a window"
                ));
            }
            if outs.len() != expected.len()
                || !outs.iter().zip(&expected).all(|(a, b)| outputs_equal(a, b))
            {
                problems.push(format!(
                    "tenant {t}: outputs differ from serve::batch_reference"
                ));
            }
        }
        println!(
            "check: {} pipeline(s) x {} windows against serve::batch_reference, {decoded} of {generated} traces decoded",
            first.len(),
            expected.len()
        );
        if self.kind == Workload::IngestSocial {
            let victim: Vec<usize> = first[0]
                .iter()
                .flat_map(|o| &o.alerts)
                .filter(|a| {
                    a.component == "PostStorageMongoDB"
                        && a.resource == deeprest_metrics::ResourceKind::Cpu
                })
                .map(|a| a.window)
                .collect();
            let before = victim.iter().filter(|&&w| w < ATTACK_ONSET).count();
            match victim.iter().find(|&&w| w >= ATTACK_ONSET) {
                Some(&w) if w <= ATTACK_ONSET + 4 => println!(
                    "check: PostStorageMongoDB CPU alert at window {w} (attack onset {ATTACK_ONSET}; {before} alerts on it before the onset)"
                ),
                other => problems.push(format!(
                    "first PostStorageMongoDB CPU alert from the onset on is at {other:?}, expected within 4 windows of {ATTACK_ONSET}"
                )),
            }
        }
        problems
    }

    /// Per-layer figures from the traced pass.
    fn layers(&self, tr: &Tracer, out: &mut crate::Layers) {
        let totals = tr.totals();
        let sum = |name: &str| totals.get(name).map_or(0, |t| t.1) as f64;
        let windows = self.shadow_windows.max(1) as f64;
        let decoded = self.shadow_traces.max(1) as f64;
        let copies = if self.kind == Workload::IngestSocial {
            1.0
        } else {
            TENANTS as f64
        };
        out.set(
            "trace.decode_us_per_trace",
            sum("trace.decode") / 1e3 / decoded,
        );
        out.set(
            "trace.assemble_us_per_trace",
            sum("trace.assemble") / 1e3 / (decoded * copies),
        );
        // The shadow's layers as the pipelines run them: the step on the
        // process's one-thread pool, not on the program's default width.
        let layer = [
            "trace.assemble",
            "core.features",
            "core.snapshot",
            "core.step_1t",
            "serve.sanity",
        ];
        for (name, span) in [
            ("core.features_us_per_window", "core.features"),
            ("core.step_us_per_window", "core.step"),
            ("core.step_1t_us_per_window", "core.step_1t"),
            ("core.snapshot_us_per_window", "core.snapshot"),
        ] {
            out.set(name, sum(span) / 1e3 / windows);
        }
        if self.kind == Workload::IngestSocial {
            out.set(
                "serve.sanity_us_per_window",
                sum("serve.sanity") / 1e3 / windows,
            );
            let children: f64 = layer.iter().map(|n| sum(n)).sum();
            out.set(
                "serve.pipeline_self_us_per_window",
                (sum("serve.pipeline") - children) / 1e3 / windows,
            );
        } else {
            out.set(
                "serve.submit_us_per_arrival",
                sum("serve.submit") / 1e3 / self.submits.max(1) as f64,
            );
            let rounds = totals.get("serve.round").map_or(1, |t| t.0) as f64;
            let children: f64 = layer.iter().map(|n| sum(n)).sum();
            out.set(
                "serve.round_self_us",
                (sum("serve.round") - children) / 1e3 / rounds,
            );
        }
    }
}
