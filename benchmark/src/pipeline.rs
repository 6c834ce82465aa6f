//! In-process calls into the pipeline's public API: the workload specs,
//! the reference schedules every served answer is compared against, and
//! the per-phase timings of the traced run.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gpu_sim::{FreqConfig, GpuConfig};
use hsoptflow::{build_app, synthetic_pair, HsParams, OptFlowApp};
use kgraph::GraphTrace;
use ktiler::{
    calibrate, execute_schedule, ktiler_schedule, schedule_from_text, schedule_to_text,
    verify_schedule, CalibrationConfig, KtilerConfig, RunReport, Schedule, TileParams,
};
use ktiler_svc::{
    schedule_cache_key, CacheKey, KeyHasher, ScheduleCache, ScheduleRequest, Service,
    ServiceConfig, WorkloadSpec,
};

use crate::trace::Spans;

/// One schedule request of a workload: an optical-flow scale at an
/// operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Frame width and height.
    pub size: u32,
    /// Jacobi iterations per pyramid step.
    pub iters: u32,
    /// Pyramid levels.
    pub levels: u32,
    /// GPU core clock, MHz.
    pub gpu_mhz: f64,
    /// Memory clock, MHz.
    pub mem_mhz: f64,
}

impl Spec {
    /// The request the service receives for this spec.
    pub fn request(&self) -> ScheduleRequest {
        ScheduleRequest {
            workload: WorkloadSpec::OptFlow {
                size: self.size,
                iters: self.iters,
                levels: self.levels,
            },
            gpu_mhz: self.gpu_mhz,
            mem_mhz: self.mem_mhz,
            deadline_ms: None,
        }
    }

    /// The operating point.
    pub fn freq(&self) -> FreqConfig {
        FreqConfig::new(self.gpu_mhz, self.mem_mhz)
    }

    /// A file-name-safe label.
    pub fn label(&self) -> String {
        format!(
            "optflow-{}-{}-{}-{}-{}",
            self.size, self.iters, self.levels, self.gpu_mhz, self.mem_mhz
        )
    }

    /// Builds the application exactly as the service does for this
    /// request: synthetic frames with flow (1.0, 0.5) from seed 7, one
    /// warp iteration, alpha² = 0.1.
    pub fn build(&self) -> OptFlowApp {
        let p =
            HsParams { levels: self.levels, jacobi_iters: self.iters, warp_iters: 1, alpha2: 0.1 };
        let (f0, f1) = synthetic_pair(self.size, self.size, 1.0, 0.5, 7);
        build_app(&f0, &f1, &p)
    }
}

/// The device model and tiling configuration of a default service node.
pub fn service_model() -> (GpuConfig, KtilerConfig) {
    let cfg = ServiceConfig::new("");
    let kcfg = KtilerConfig {
        weight_threshold_ns: cfg.weight_threshold_ns,
        tile: TileParams::paper(cfg.gpu.cache.capacity_bytes, cfg.gpu.cache.line_bytes, 0.0),
    };
    (cfg.gpu, kcfg)
}

/// The reference answer for one spec: the schedule text an in-process
/// single-node [`Service`] serves, and the simulated time of the default
/// order and of that schedule at the spec's operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// The schedule text every served answer must equal byte for byte.
    pub text: String,
    /// Simulated ns of the default (one launch per kernel) order.
    pub default_ns: f64,
    /// Simulated ns of the reference schedule.
    pub served_ns: f64,
}

impl Reference {
    /// Simulated speedup of the schedule over the default order.
    pub fn speedup(&self) -> f64 {
        self.default_ns / self.served_ns
    }

    fn encode(&self) -> String {
        format!("ktbench-ref v1 {:?} {:?}\n{}", self.default_ns, self.served_ns, self.text)
    }

    fn decode(text: &str) -> Option<Reference> {
        let (head, body) = text.split_once('\n')?;
        let mut f = head.strip_prefix("ktbench-ref v1 ")?.split(' ');
        let default_ns = f.next()?.parse().ok()?;
        let served_ns = f.next()?.parse().ok()?;
        Some(Reference { text: body.to_string(), default_ns, served_ns })
    }
}

/// The directory reference records are kept in for this build of the
/// benchmark, created if needed; directories of other builds are removed.
/// References are pure functions of the code and the spec, and the
/// benchmark executable embeds all of that code, so records are keyed by
/// the executable's size and modification time and reused by every later
/// run of the same build.
fn reference_dir(root: &Path) -> io::Result<PathBuf> {
    let meta = std::fs::metadata(std::env::current_exe()?)?;
    let mtime = meta
        .modified()?
        .duration_since(std::time::UNIX_EPOCH)
        .map_err(io::Error::other)?
        .as_nanos();
    let mut h = KeyHasher::new();
    h.write_u64(meta.len());
    h.write_str(&mtime.to_string());
    let dir = root.join(h.finish().to_string());
    if !dir.exists() {
        if let Ok(entries) = std::fs::read_dir(root) {
            for e in entries.flatten() {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
        std::fs::create_dir_all(&dir)?;
    }
    Ok(dir)
}

/// The reference of every spec, computed once per build and then read
/// back. Computing runs the specs through an in-process single-node
/// service (its own cache under `work`), then simulates the default order
/// and the answer.
///
/// # Errors
///
/// Filesystem errors, or a spec the reference service or the simulator
/// cannot handle.
pub fn references(specs: &[Spec], root: &Path, work: &Path) -> io::Result<Vec<Reference>> {
    let dir = reference_dir(root)?;
    let mut out = Vec::with_capacity(specs.len());
    let mut svc: Option<Service> = None;
    for spec in specs {
        let path = dir.join(format!("{}.ref", spec.label()));
        if let Some(r) = std::fs::read_to_string(&path).ok().as_deref().and_then(Reference::decode)
        {
            out.push(r);
            continue;
        }
        let svc = match &mut svc {
            Some(s) => s,
            None => {
                let mut cfg = ServiceConfig::new(work.join("reference-cache"));
                // Answers do not depend on the memo; a small one bounds
                // the memory of large spec sets.
                cfg.memo_capacity = 2;
                svc.insert(Service::start(cfg)?)
            }
        };
        let resp = svc
            .client()
            .schedule(spec.request())
            .map_err(|e| io::Error::other(format!("reference for {}: {e}", spec.label())))?;
        let (gpu, _) = service_model();
        let mut app = spec.build();
        let gt = kgraph::analyze_fast(&app.graph, &mut app.mem, gpu.cache.line_bytes)
            .map_err(|e| io::Error::other(format!("analysis of {}: {e}", spec.label())))?;
        let (default, served) = simulate(&resp.text, &app, &gt, spec)?;
        let r =
            Reference { text: resp.text, default_ns: default.total_ns, served_ns: served.total_ns };
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        std::fs::write(&tmp, r.encode())?;
        std::fs::rename(&tmp, &path)?;
        out.push(r);
    }
    if let Some(s) = svc {
        s.shutdown();
    }
    Ok(out)
}

/// Simulates the default order and the schedule `text` on the service's
/// device model at the spec's operating point.
///
/// # Errors
///
/// An unparseable schedule, or one the simulator rejects.
pub fn simulate(
    text: &str,
    app: &OptFlowApp,
    gt: &GraphTrace,
    spec: &Spec,
) -> io::Result<(RunReport, RunReport)> {
    let sched = schedule_from_text(text).map_err(io::Error::other)?;
    Ok((run(&Schedule::default_order(&app.graph), app, gt, spec)?, run(&sched, app, gt, spec)?))
}

/// Simulates one schedule on the service's device model at the spec's
/// operating point.
///
/// # Errors
///
/// A schedule the simulator rejects.
pub fn run(
    sched: &Schedule,
    app: &OptFlowApp,
    gt: &GraphTrace,
    spec: &Spec,
) -> io::Result<RunReport> {
    let (gpu, _) = service_model();
    execute_schedule(sched, &app.graph, gt, &gpu, spec.freq(), None).map_err(io::Error::other)
}

/// One spec taken through the whole pipeline in process, each phase a
/// span: build, analyze, calibrate, key, tile (Algorithms 1 and 2),
/// serialize and store — the work a node does on a miss, minus the
/// network — followed by the read path of a hit: probe, parse and verify.
pub struct Traced {
    /// The application.
    pub app: OptFlowApp,
    /// Its block analysis.
    pub gt: GraphTrace,
    /// The tiled schedule's text.
    pub text: String,
    /// The artifact key.
    pub key: CacheKey,
    /// Launches in the schedule.
    pub launches: usize,
    /// Merges Algorithm 1 accepted.
    pub merges_accepted: usize,
    /// Phase durations, by span name.
    pub phases: Vec<(&'static str, Duration)>,
}

impl Traced {
    /// The duration of phase `name` (zero when absent).
    pub fn phase(&self, name: &str) -> Duration {
        self.phases.iter().find(|(n, _)| *n == name).map_or(Duration::ZERO, |(_, d)| *d)
    }
}

/// Runs [`Traced`]'s phases for `spec`, storing the artifact in `cache`
/// and recording every phase as a child span of `parent`.
///
/// # Errors
///
/// A pipeline failure, a store failure, or an artifact that fails its
/// own probe.
pub fn trace_pipeline(
    spec: &Spec,
    cache: &ScheduleCache,
    spans: &mut Spans,
    req: u64,
    parent: u64,
) -> io::Result<Traced> {
    let (gpu, kcfg) = service_model();
    let mut phases = Vec::new();
    let mut step = |spans: &mut Spans, name: &'static str, t: Instant| {
        let d = spans.record(name, req, Some(parent), t);
        phases.push((name, d));
    };
    let t = Instant::now();
    let mut app = std::hint::black_box(spec.build());
    step(spans, "hsoptflow.build", t);
    let t = Instant::now();
    let gt = kgraph::analyze_fast(&app.graph, &mut app.mem, gpu.cache.line_bytes)
        .map_err(io::Error::other)?;
    step(spans, "kgraph.analyze", t);
    let t = Instant::now();
    let cal = calibrate(&app.graph, &gt, &gpu, spec.freq(), &CalibrationConfig::default());
    step(spans, "ktiler.calibrate", t);
    let t = Instant::now();
    let key = schedule_cache_key(&app.graph, &gt, &gpu.cache, &cal, &kcfg);
    step(spans, "ktiler-svc.key", t);
    let t = Instant::now();
    let out = ktiler_schedule(&app.graph, &gt, &cal, &kcfg).map_err(io::Error::other)?;
    step(spans, "ktiler.tile", t);
    let t = Instant::now();
    let text = schedule_to_text(&out.schedule);
    step(spans, "ktiler.to_text", t);
    let t = Instant::now();
    cache.store(&key, &text)?;
    step(spans, "ktiler-svc.cache_store", t);
    let t = Instant::now();
    let probe = cache.probe(&key, &app.graph, &gt, &kcfg.tile);
    step(spans, "ktiler-svc.cache_probe", t);
    if !matches!(probe, ktiler_svc::CacheProbe::Hit { .. }) {
        return Err(io::Error::other(format!(
            "{}: stored artifact did not probe as a hit",
            spec.label()
        )));
    }
    let t = Instant::now();
    let parsed = schedule_from_text(&text).map_err(io::Error::other)?;
    step(spans, "ktiler.from_text", t);
    let t = Instant::now();
    let clean = verify_schedule(&parsed, &app.graph, &gt, &kcfg.tile).is_clean();
    step(spans, "ktiler.verify", t);
    if !clean {
        return Err(io::Error::other(format!("{}: schedule failed verification", spec.label())));
    }
    Ok(Traced {
        launches: out.schedule.num_launches(),
        merges_accepted: out.report.merges_accepted,
        app,
        gt,
        text,
        key,
        phases,
    })
}
