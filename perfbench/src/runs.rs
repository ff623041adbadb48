//! The timed run (end-to-end metrics) and the traced run (per-layer metrics).

use std::sync::Arc;
use std::time::{Duration, Instant};

use atlas_pipeline::experiments::Substrate;
use atlas_pipeline::orchestrator::{CampaignConfig, CampaignReport, Orchestrator};
use atlas_pipeline::{AtlasPipeline, CampaignWorkload};
use deseq_norm::CountsMatrix;
use genomics::annotation::AnnotationParams;
use genomics::{Annotation, EnsemblGenerator, Release};
use star_aligner::index::IndexParams;
use star_aligner::quant::Strandedness;
use star_aligner::StarIndex;

use crate::check;
use crate::fixture::{Error, Fixture, Size, Workload, DEFAULT_SEED};
use crate::metrics::RunResult;
use crate::stats::{mean, median, peak_rss_mb, quantile, timed};
use crate::sweep::{stage_sweep, SweepTotals};
use crate::timed::{Call, TimedWorkload};

/// Campaigns a timed run measures at least, however short `--seconds` is.
const MIN_CAMPAIGNS: usize = 3;

/// Run options shared by both runs.
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time, in seconds.
    pub seconds: f64,
    /// Fixture size.
    pub size: Size,
}

impl Options {
    /// Is the output digest pinned for this run (default seed, bench size)?
    fn pinned(&self) -> bool {
        self.seed == DEFAULT_SEED
            && self.size.n_accessions == Size::bench(self.workload).n_accessions
    }
}

/// Run one accession through the fixture's workload, so lazily built state
/// (the index's runtime prefix tables, the thread pool) is part of set-up.
fn warm(fx: &Fixture) -> Result<(), Error> {
    let first = fx.ids.first().ok_or("empty accession list")?;
    std::hint::black_box(fx.inner.run_accession(first)?);
    Ok(())
}

/// One campaign through the timing wrapper.
struct Campaign {
    report: CampaignReport,
    wall_s: f64,
    calls: Vec<Call>,
}

impl Campaign {
    fn run(
        inner: &Arc<dyn CampaignWorkload>,
        config: &CampaignConfig,
        ids: &[String],
    ) -> Result<Campaign, Error> {
        let timed = TimedWorkload::new(Arc::clone(inner));
        let orchestrator = Orchestrator::with_workload(
            Arc::clone(&timed) as Arc<dyn CampaignWorkload>,
            config.clone(),
        )?;
        let started = Instant::now();
        let report = orchestrator.run(ids)?;
        let wall_s = started.elapsed().as_secs_f64();
        Ok(Campaign {
            report,
            wall_s,
            calls: timed.take_calls(),
        })
    }

    /// Wall seconds spent inside the workload.
    fn pipeline_s(&self) -> f64 {
        self.calls.iter().map(|c| c.secs).sum()
    }

    fn failed_calls(&self) -> u64 {
        self.calls.iter().filter(|c| !c.ok).count() as u64
    }

    /// Aligned reads (fragments for paired libraries) the campaign's results carry.
    fn processed_reads(&self) -> u64 {
        self.report
            .completed
            .iter()
            .map(|r| r.early_stop.processed_reads)
            .sum()
    }

    /// The campaign's output digest, which must equal `expected`.
    fn check_digest(&self, expected: u64, what: &str) -> Result<(), Error> {
        let digest = check::output_digest(&self.report);
        if digest != expected {
            return Err(format!(
                "{what}: output digest {digest:#018x} != {expected:#018x} of the first campaign"
            )
            .into());
        }
        Ok(())
    }
}

/// The first campaign of a run: checks the invariants (and the pinned digest
/// at the default seed) and returns the digest every later campaign must
/// reproduce.
fn first_campaign(opts: &Options, fx: &Fixture, res: &mut RunResult) -> Result<u64, Error> {
    let c = Campaign::run(&fx.inner, &fx.config, &fx.ids)?;
    let digest = check::verify(fx, &c.report, opts.pinned())?;
    res.attempted += fx.ids.len() as u64;
    res.failed += c.failed_calls();
    res.note("digest", format!("{digest:#018x}"));
    res.note("digest_pinned", opts.pinned());
    res.note("submitted", fx.ids.len());
    res.note("completed", c.report.completed.len());
    res.note("dead_lettered", c.report.dead_lettered.len());
    res.note(
        "failed_frac",
        c.report.dead_lettered.len() as f64 / fx.ids.len() as f64,
    );
    Ok(digest)
}

/// Set-up time sampled per build, at least: a set-up much shorter than this
/// (the modeled fleet's) is repeated, so its median rests on enough samples.
const SETUP_SAMPLE_SECS: f64 = 0.05;

/// Campaign seconds a timed run measures on one fixture per second its
/// set-up took, before it builds the next: set-up is then about a fifth of
/// the run, and most of the run measures campaigns.
const CAMPAIGN_SECS_PER_SETUP_SEC: f64 = 4.0;

/// Build and warm the fixture (at least once, and for at least
/// [`SETUP_SAMPLE_SECS`]), pushing one `setup_s` sample per build. Returns
/// the last fixture built and the seconds the call took.
fn setup(opts: &Options, samples: &mut Vec<f64>) -> Result<(Fixture, f64), Error> {
    let began = Instant::now();
    loop {
        let started = Instant::now();
        let fx = Fixture::build(opts.workload, opts.seed, &opts.size)?;
        warm(&fx)?;
        samples.push(started.elapsed().as_secs_f64());
        let took = began.elapsed().as_secs_f64();
        if took >= SETUP_SAMPLE_SECS {
            return Ok((fx, took));
        }
    }
}

/// The timed run: every end-to-end metric, measured with tracing off.
///
/// Campaigns run on one fixture until they have taken
/// [`CAMPAIGN_SECS_PER_SETUP_SEC`] times its set-up; then the fixture is
/// built afresh. Set-up and campaign samples alike are thus spread over the
/// whole run rather than bunched at its start; on a host whose speed drifts,
/// both then cover the same conditions.
pub fn timed_run(opts: &Options) -> Result<RunResult, Error> {
    let mut res = RunResult::default();
    let mut setup_s = Vec::new();
    let (mut fx, mut setup_took) = setup(opts, &mut setup_s)?;
    let digest = first_campaign(opts, &fx, &mut res)?;
    // The first campaign is unmeasured, so the first fixture is rebuilt
    // before any measured one.
    let mut on_fixture_s = f64::INFINITY;
    // Throughputs are totals over the run's campaigns (completed ÷ campaign
    // wall) and job percentiles are per-campaign percentiles averaged over
    // them: both move in proportion to the share of the run the host spent
    // slow, where a pooled median would jump between the fast and slow modes.
    // The per-campaign values go to the context line.
    let (mut per_s, mut reads_per_s) = (Vec::new(), Vec::new());
    let (mut job_p50, mut job_p90, mut jobs) = (Vec::new(), Vec::new(), 0);
    let (mut completed, mut reads, mut wall_s) = (0, 0, 0.0);
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    while per_s.len() < MIN_CAMPAIGNS || Instant::now() < deadline {
        if on_fixture_s >= CAMPAIGN_SECS_PER_SETUP_SEC * setup_took {
            drop(fx);
            (fx, setup_took) = setup(opts, &mut setup_s)?;
            on_fixture_s = 0.0;
        }
        let c = Campaign::run(&fx.inner, &fx.config, &fx.ids)?;
        c.check_digest(digest, "rerun")?;
        on_fixture_s += c.wall_s;
        res.attempted += fx.ids.len() as u64;
        res.failed += c.failed_calls();
        completed += c.report.completed.len();
        reads += c.processed_reads();
        wall_s += c.wall_s;
        per_s.push(c.report.completed.len() as f64 / c.wall_s);
        reads_per_s.push(c.processed_reads() as f64 / c.wall_s);
        let job_ms: Vec<f64> = c.calls.iter().map(|call| call.secs * 1e3).collect();
        job_p50.push(quantile(&job_ms, 0.5));
        job_p90.push(quantile(&job_ms, 0.9));
        jobs += job_ms.len();
    }

    let campaigns = per_s.len();
    res.note("campaigns", campaigns);
    res.note("setup_samples", setup_s.len());
    res.note("job_samples", jobs);
    res.put_samples("setup_s", median(&setup_s), setup_s);
    res.put_samples("accessions_per_s", completed as f64 / wall_s, per_s);
    res.put_samples("reads_per_s", reads as f64 / wall_s, reads_per_s);
    res.put_samples("job_p50_ms", mean(&job_p50), job_p50);
    res.put_samples("job_p90_ms", mean(&job_p90), job_p90);
    res.put("peak_rss_mb", peak_rss_mb().ok_or("VmHWM unavailable")?);
    res.put(
        "completed_frac",
        completed as f64 / (campaigns * fx.ids.len()) as f64,
    );
    Ok(res)
}

/// Set-up layer times of the traced run.
#[derive(Default)]
struct SetupLayers {
    assembly_s: f64,
    annotation_s: f64,
    index_build_s: f64,
}

/// `Substrate::build`, one public call at a time, each timed.
fn traced_setup(opts: &Options) -> Result<(Fixture, SetupLayers), Error> {
    let mut l = SetupLayers::default();
    if !opts.workload.is_pipeline() {
        return Ok((Fixture::build(opts.workload, opts.seed, &opts.size)?, l));
    }
    let generator = EnsemblGenerator::new(opts.size.ensembl.clone())?;
    let asm_108 = Arc::new(timed(&mut l.assembly_s, || {
        generator.generate(Release::R108)
    }));
    let asm_111 = Arc::new(timed(&mut l.assembly_s, || {
        generator.generate(Release::R111)
    }));
    let annotation = Arc::new(timed(&mut l.annotation_s, || {
        Annotation::simulate(&asm_111, &generator, &AnnotationParams::default())
    })?);
    let params = IndexParams::default();
    let index_108 = Arc::new(timed(&mut l.index_build_s, || {
        StarIndex::build(&asm_108, &annotation, &params)
    })?);
    let index_111 = Arc::new(timed(&mut l.index_build_s, || {
        StarIndex::build(&asm_111, &annotation, &params)
    })?);
    let sub = Substrate {
        generator,
        asm_108,
        asm_111,
        annotation,
        index_108,
        index_111,
    };
    Ok((
        Fixture::from_substrate(opts.workload, opts.seed, &opts.size, &sub)?,
        l,
    ))
}

/// DESeq2 over the completed accessions' counts matrix, built the way the
/// campaign builds it. Returns seconds in `normalize` (median of `reps`).
fn deseq_normalize_s(report: &CampaignReport, reps: usize) -> Result<f64, Error> {
    let with_counts: Vec<_> = report
        .completed
        .iter()
        .filter(|r| r.gene_counts.is_some())
        .collect();
    let Some(first) = with_counts.first() else {
        return Ok(0.0);
    };
    let gene_ids = first
        .gene_counts
        .as_ref()
        .expect("filtered on counts")
        .gene_ids
        .clone();
    let samples = with_counts.iter().map(|r| r.accession.clone()).collect();
    let mut matrix = CountsMatrix::zeros(gene_ids.clone(), samples);
    for (j, r) in with_counts.iter().enumerate() {
        let gc = r.gene_counts.as_ref().expect("filtered on counts");
        for (g, id) in gene_ids.iter().enumerate() {
            if let Some(c) = gc.count(id, Strandedness::Unstranded) {
                matrix.set(g, j, c);
            }
        }
    }
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        let normalized = deseq_norm::normalize(&matrix).ok();
        secs.push(started.elapsed().as_secs_f64());
        if normalized != report.normalized {
            return Err(
                "DESeq2 over the campaign's counts differs from the campaign's normalized matrix"
                    .into(),
            );
        }
    }
    Ok(median(&secs))
}

/// One round of the traced run.
struct Round {
    /// Self seconds of the untraced campaign with telemetry off, on,
    /// +monitor, +SLO.
    self_s: [f64; 4],
    /// Untraced wall with every observer on.
    untraced_s: f64,
    /// Traced wall and the part of it inside the pipeline.
    traced_s: f64,
    traced_pipeline_s: f64,
    /// The stage sweep over the traced campaign's jobs.
    sweep: SweepTotals,
}

/// Sweep `traced`'s jobs through `pipeline` and check that each one
/// reproduces the campaign's result for its accession.
fn checked_sweep(pipeline: &AtlasPipeline, traced: &Campaign) -> Result<SweepTotals, Error> {
    let jobs: Vec<&str> = traced.calls.iter().map(|c| c.accession.as_str()).collect();
    let (totals, fingerprints) = stage_sweep(pipeline, &jobs)?;
    for (job, fp) in jobs.iter().zip(&fingerprints) {
        if let Some(r) = traced.report.completed.iter().find(|r| r.accession == *job) {
            if check::result_fingerprint(r) != *fp {
                return Err(
                    format!("stage sweep of {job} differs from its campaign result").into(),
                );
            }
        }
    }
    Ok(totals)
}

/// The traced run: every per-layer metric, each layer timed from outside.
///
/// Each round runs five campaigns — the observer ladder (telemetry off, on,
/// +monitor, +SLO) and the full campaign with the align phase clocks on —
/// in an order rotated from round to round, then the stage sweep. Layer
/// times are medians over rounds, so every layer sees the same host.
pub fn traced_run(opts: &Options) -> Result<RunResult, Error> {
    let mut res = RunResult::default();
    let (fx, setup) = traced_setup(opts)?;
    warm(&fx)?;
    let digest = first_campaign(opts, &fx, &mut res)?;

    let full = fx.config.clone();
    let mut configs = [
        full.clone(),
        full.clone(),
        full.clone(),
        full.clone(),
        full.clone(),
    ];
    configs[0].telemetry = false;
    for c in &mut configs[..3] {
        c.slo = None;
    }
    for c in &mut configs[..2] {
        c.monitor = None;
    }
    const TRACED: usize = 4;
    let traced_pipeline = fx.traced_pipeline();
    let traced_inner: Arc<dyn CampaignWorkload> = match &traced_pipeline {
        Some(p) => Arc::clone(p) as Arc<dyn CampaignWorkload>,
        None => Arc::clone(&fx.inner),
    };

    let mut rounds = Vec::new();
    let mut first_traced: Option<Campaign> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    while rounds.is_empty() || Instant::now() < deadline {
        let mut walls = [(0.0, 0.0); 5];
        let mut traced = None;
        for k in 0..configs.len() {
            let i = (k + rounds.len()) % configs.len();
            let inner = if i == TRACED {
                &traced_inner
            } else {
                &fx.inner
            };
            let c = Campaign::run(inner, &configs[i], &fx.ids)?;
            c.check_digest(digest, "traced-run campaign")?;
            res.attempted += fx.ids.len() as u64;
            res.failed += c.failed_calls();
            walls[i] = (c.wall_s, c.pipeline_s());
            if i == TRACED {
                traced = Some(c);
            }
        }
        let traced = first_traced.get_or_insert(traced.expect("the traced campaign ran"));
        let sweep = match &traced_pipeline {
            Some(p) => checked_sweep(p, traced)?,
            None => SweepTotals::default(),
        };
        rounds.push(Round {
            self_s: [0, 1, 2, 3].map(|i| walls[i].0 - walls[i].1),
            untraced_s: walls[3].0,
            traced_s: walls[TRACED].0,
            traced_pipeline_s: walls[TRACED].1,
            sweep,
        });
    }
    let traced = first_traced.expect("at least one round");
    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let self_s = [0, 1, 2, 3].map(|i| med(&|r| r.self_s[i]));
    let wall_s = med(&|r| r.traced_s);
    let pipeline_s = med(&|r| r.traced_pipeline_s);
    let sweep = SweepTotals {
        fetch_s: med(&|r| r.sweep.fetch_s),
        dump_s: med(&|r| r.sweep.dump_s),
        split_pairs_s: med(&|r| r.sweep.split_pairs_s),
        runner_new_s: med(&|r| r.sweep.runner_new_s),
        align_s: med(&|r| r.sweep.align_s),
        seed_s: med(&|r| r.sweep.seed_s),
        stitch_s: med(&|r| r.sweep.stitch_s),
        extend_s: med(&|r| r.sweep.extend_s),
        ..rounds[0].sweep.clone()
    };
    let deseq_s = deseq_normalize_s(&traced.report, 5)?;
    res.note("rounds", rounds.len());
    res.note("sweep_jobs_matched", rounds[0].sweep.jobs);
    res.note("deseq_normalized", traced.report.normalized.is_some());

    put_layers(
        &mut res,
        &fx,
        &setup,
        &sweep,
        &traced.report,
        traced.calls.len(),
    );
    res.put("atlas.pipeline_s", pipeline_s);
    res.put(
        "atlas.pipeline_other_s",
        med(&|r| r.traced_pipeline_s - r.sweep.stages_s()),
    );
    res.put("atlas.orchestrator_self_s", wall_s - pipeline_s);
    res.put("atlas.kernel_s", self_s[0] - deseq_s);
    res.put("telemetry.recorder_s", self_s[1] - self_s[0]);
    res.put("telemetry.monitor_s", self_s[2] - self_s[1]);
    res.put("telemetry.slo_s", self_s[3] - self_s[2]);
    res.put("deseq.normalize_s", deseq_s);
    res.put("trace.wall_s", wall_s);
    res.put("trace.overhead_frac", wall_s / med(&|r| r.untraced_s) - 1.0);
    let attributed: f64 = crate::metrics::WALL_LAYERS
        .iter()
        .map(|name| res.get(name).expect("every wall layer is recorded"))
        .sum();
    res.put("trace.unattributed_s", wall_s - attributed);
    Ok(res)
}

/// The per-layer counts and sweep times of a traced run.
fn put_layers(
    res: &mut RunResult,
    fx: &Fixture,
    setup: &SetupLayers,
    sweep: &SweepTotals,
    report: &CampaignReport,
    jobs: usize,
) {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    res.put("genomics.assembly_s", setup.assembly_s);
    res.put("genomics.annotation_s", setup.annotation_s);
    res.put("star.index_build_s", setup.index_build_s);
    res.put("star.index_bytes", fx.index_bytes as f64);
    res.put("sra.fetch_s", sweep.fetch_s);
    res.put("sra.archive_bytes", sweep.archive_bytes as f64);
    res.put("sra.dump_s", sweep.dump_s);
    res.put("sra.split_pairs_s", sweep.split_pairs_s);
    res.put("sra.fastq_bytes", sweep.fastq_bytes as f64);
    res.put("star.runner_new_s", sweep.runner_new_s);
    res.put("star.align_s", sweep.align_s);
    res.put("star.seed_s", sweep.seed_s);
    res.put("star.stitch_s", sweep.stitch_s);
    res.put("star.extend_s", sweep.extend_s);
    res.put(
        "star.align_other_s",
        sweep.align_s - sweep.seed_s - sweep.stitch_s - sweep.extend_s,
    );
    res.put("star.seed_units", sweep.seed_units as f64);
    res.put("star.stitch_units", sweep.stitch_units as f64);
    res.put("star.extend_units", sweep.extend_units as f64);
    res.put("star.reads_input", sweep.reads_input as f64);
    res.put("star.reads_processed", sweep.units_processed as f64);
    res.put(
        "star.processed_frac",
        ratio(sweep.units_processed, sweep.units_total),
    );
    res.put(
        "star.multimap_frac",
        ratio(sweep.units_multimapped, sweep.units_processed),
    );
    res.put("atlas.jobs", jobs as f64);
    res.put(
        "atlas.useful_job_frac",
        ratio(report.completed.len() as u64, jobs as u64),
    );
    res.put("cloudsim.sim_events", report.sim_events as f64);
    res.put(
        "cloudsim.instances_launched",
        report.instances_launched as f64,
    );
    res.put("cloudsim.interruptions", report.interruptions as f64);
    res.put("cloudsim.redeliveries", report.redeliveries as f64);
    res.put("cloudsim.dead_lettered", report.dead_lettered.len() as f64);
    let t = report.telemetry.as_ref();
    res.put("telemetry.events", t.map_or(0, |t| t.n_events) as f64);
    res.put("telemetry.spans", t.map_or(0, |t| t.n_spans) as f64);
    res.put(
        "telemetry.event_log_bytes",
        t.map_or(0, |t| t.event_log.len()) as f64,
    );
    res.put(
        "telemetry.perfetto_bytes",
        t.map_or(0, |t| t.perfetto_json.len()) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER, WALL_LAYERS};

    fn small(workload: Workload, seed: u64) -> Options {
        Options {
            workload,
            seed,
            seconds: 0.01,
            size: Size::small(workload),
        }
    }

    #[test]
    fn traced_layers_add_up_to_the_traced_wall() {
        for w in Workload::ALL {
            let res = traced_run(&small(w, 3)).unwrap();
            res.result_line(&PER_LAYER).unwrap();
            let layers: f64 = WALL_LAYERS.iter().map(|n| res.get(n).unwrap()).sum();
            let wall = res.get("trace.wall_s").unwrap();
            let total = layers + res.get("trace.unattributed_s").unwrap();
            assert!(
                (total - wall).abs() <= 1e-9 * wall,
                "{}: {total} != {wall}",
                w.name()
            );
            assert!(res.get("atlas.jobs").unwrap() > 0.0);
            if w.is_pipeline() {
                assert!(res.get("star.align_s").unwrap() > 0.0);
                assert!(
                    res.get("star.seed_s").unwrap() > 0.0,
                    "phase clocks on in the traced run"
                );
            } else {
                assert_eq!(res.get("star.align_s").unwrap(), 0.0);
            }
        }
    }

    #[test]
    fn timed_run_reports_every_end_to_end_metric() {
        for w in Workload::ALL {
            let res = timed_run(&small(w, 3)).unwrap();
            let line = res.result_line(&END_TO_END).unwrap();
            assert!(
                line.starts_with(r#"{"correct":true,"attempted":"#),
                "{line}"
            );
            assert_eq!(res.failed, 0);
            for (name, _) in END_TO_END {
                assert!(
                    res.get(name).unwrap() > 0.0,
                    "{}: {name} must never be 0",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn digest_is_a_function_of_the_seed() {
        let w = Workload::AtlasR111;
        let digest = |seed| {
            let opts = small(w, seed);
            let (fx, _) = setup(&opts, &mut Vec::new()).unwrap();
            let c = Campaign::run(&fx.inner, &fx.config, &fx.ids).unwrap();
            check::verify(&fx, &c.report, false).unwrap()
        };
        assert_eq!(digest(5), digest(5));
        assert_ne!(digest(5), digest(6));
    }
}
