//! The three workloads and the fixtures they run on.
//!
//! Every input is generated from the one workload seed: the catalog seed, the
//! spot-market seed and the modeled-workload seed are independent streams of
//! it. The system under test only ever sees the generated catalog, market and
//! accession list.

use std::sync::Arc;

use atlas_pipeline::experiments::{paper_scale_sizer, Substrate};
use atlas_pipeline::orchestrator::CampaignConfig;
use atlas_pipeline::pipeline::{AtlasPipeline, PipelineConfig};
use atlas_pipeline::{CampaignWorkload, ModeledWorkload};
use cloudsim::instance::InstanceType;
use cloudsim::{ScalingPolicy, SimDuration, SpotMarket};
use genomics::EnsemblParams;
use sra_sim::accession::CatalogParams;
use sra_sim::SraRepository;
use star_aligner::StarIndex;
use telemetry::{MonitorConfig, SloConfig, SloRegistry};

/// Boxed error used throughout the benchmark.
pub type Error = Box<dyn std::error::Error>;

/// Seed used when `--seed` is not given; the output digests are pinned for it.
pub const DEFAULT_SEED: u64 = 1;

/// Modeled align clock: seconds charged per processed read. Pinning it keeps
/// the simulated schedule, completion order and digest independent of the
/// host, while the aligner still does all of its real work.
const ALIGN_SECS_PER_READ: f64 = 2.0e-2;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Real pipeline, release-111 index, single-end bulk catalog with 10 %
    /// single-cell libraries, early stop on.
    AtlasR111,
    /// Real pipeline, release-108 toplevel index, all-paired bulk catalog.
    AtlasR108Paired,
    /// Modeled fleet: 10k accessions, 1250-instance ceiling, spot pressure.
    Fleet10k,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::AtlasR111,
        Workload::AtlasR108Paired,
        Workload::Fleet10k,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AtlasR111 => "atlas_r111",
            Workload::AtlasR108Paired => "atlas_r108_paired",
            Workload::Fleet10k => "fleet_10k",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Does this workload run the real pipeline (as opposed to the modeled one)?
    pub fn is_pipeline(self) -> bool {
        !matches!(self, Workload::Fleet10k)
    }

    /// Is this workload listed in `BENCHMARK.json`, and so gated on? The
    /// modeled fleet runs by hand only: its cache-bound kernel and observer
    /// work swings too far with the load of a shared host for a bound to
    /// hold (see the README's *Steadiness*).
    pub fn gated(self) -> bool {
        self.is_pipeline()
    }
}

/// How big a fixture is. [`Size::bench`] is what the benchmark measures; the
/// tests use [`Size::small`].
#[derive(Clone, Debug)]
pub struct Size {
    /// Synthetic assembly parameters (pipeline workloads).
    pub ensembl: EnsemblParams,
    /// Accessions per campaign.
    pub n_accessions: usize,
    /// Reads actually generated per accession (catalog sizes stay as drawn).
    pub spot_cap: u64,
}

impl Size {
    /// The benchmark's size for `w`: the paper-scale synthetic substrate.
    pub fn bench(w: Workload) -> Size {
        let n_accessions = match w {
            Workload::AtlasR111 => 120,
            Workload::AtlasR108Paired => 100,
            Workload::Fleet10k => 10_000,
        };
        Size {
            ensembl: EnsemblParams::default(),
            n_accessions,
            spot_cap: 500,
        }
    }

    /// A seconds-fast fixture of the same shape, for tests.
    #[cfg(test)]
    pub fn small(w: Workload) -> Size {
        let n_accessions = if w.is_pipeline() { 12 } else { 300 };
        Size {
            ensembl: EnsemblParams::tiny(),
            n_accessions,
            spot_cap: 300,
        }
    }
}

/// Stream `stream` of the workload seed (SplitMix64 finalizer).
fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const CATALOG_STREAM: u64 = 1;
const SPOT_STREAM: u64 = 2;
const MODELED_STREAM: u64 = 3;

/// Everything one campaign needs, built before timing starts.
pub struct Fixture {
    /// Which workload this is.
    pub workload: Workload,
    /// Per-accession work: the real pipeline or the modeled stand-in.
    pub inner: Arc<dyn CampaignWorkload>,
    /// The real pipeline (pipeline workloads only).
    pub pipeline: Option<Arc<AtlasPipeline>>,
    /// Accessions submitted, sorted.
    pub ids: Vec<String>,
    /// Campaign configuration with the `cloud_atlas` observers: telemetry,
    /// the standard monitor and the standard SLOs.
    pub config: CampaignConfig,
    /// Serialized-footprint bytes of the index the pipeline aligns against
    /// (0 for the modeled fleet).
    pub index_bytes: u64,
}

impl Fixture {
    /// Build the fixture for `w` at `seed`, going through `Substrate::build`.
    pub fn build(w: Workload, seed: u64, size: &Size) -> Result<Fixture, Error> {
        if !w.is_pipeline() {
            return Ok(Fixture::fleet(seed, size));
        }
        let substrate = Substrate::build(size.ensembl.clone())?;
        Fixture::from_substrate(w, seed, size, &substrate)
    }

    /// Build a pipeline workload's fixture on an already built substrate.
    pub fn from_substrate(
        w: Workload,
        seed: u64,
        size: &Size,
        sub: &Substrate,
    ) -> Result<Fixture, Error> {
        let (index, paired, single_cell_fraction): (&Arc<StarIndex>, bool, f64) = match w {
            Workload::AtlasR111 => (&sub.index_111, false, 0.1),
            Workload::AtlasR108Paired => (&sub.index_108, true, 0.0),
            Workload::Fleet10k => return Err("the modeled fleet has no substrate".into()),
        };
        let catalog = CatalogParams {
            seed: derive_seed(seed, CATALOG_STREAM),
            n_accessions: size.n_accessions,
            single_cell_fraction,
            paired_fraction: if paired { 1.0 } else { 0.0 },
            ..CatalogParams::default()
        }
        .generate()?;
        // Reads are simulated from the release-111 assembly for both indices,
        // as in the release comparison: release 108 only adds duplicated
        // scaffolds that attract multimapping seeds.
        let repo = SraRepository::new(
            Arc::clone(&sub.asm_111),
            Arc::clone(&sub.annotation),
            catalog,
        )
        .with_spot_cap(size.spot_cap);
        let mut pc = PipelineConfig::default();
        pc.run_config.threads = crate::stats::nproc().min(2);
        pc.align_secs_per_read = Some(ALIGN_SECS_PER_READ);
        let pipeline = Arc::new(AtlasPipeline::new(
            Arc::new(repo),
            Arc::clone(index),
            Arc::clone(&sub.annotation),
            pc,
        )?);
        let ids = pipeline.repository().ids();

        // Right-size the fleet from the index footprint, paper-scale, like
        // the `cloud_atlas` example.
        let stats = index.stats();
        let sizer = paper_scale_sizer(&stats, sub.human_scale());
        let instance = sizer.choose().ok_or("no instance type fits the index")?;
        let mut config =
            CampaignConfig::new(instance, (sizer.index_gib * (1u64 << 30) as f64) as u64);
        config.spot = true;
        config.spot_market = SpotMarket {
            price_factor: 0.35,
            interruptions_per_hour: 0.5,
            seed: derive_seed(seed, SPOT_STREAM),
        };
        config.scaling = ScalingPolicy {
            min_size: 0,
            max_size: 6,
            target_backlog_per_instance: 4,
        };
        with_observers(&mut config);

        Ok(Fixture {
            workload: w,
            inner: Arc::clone(&pipeline) as Arc<dyn CampaignWorkload>,
            pipeline: Some(pipeline),
            ids,
            config,
            index_bytes: stats.total_bytes() as u64,
        })
    }

    /// The modeled fleet: `bench_fleet_campaign`'s spot pressure (2
    /// interruptions per instance-hour, dead-letter after 6 receives) at a
    /// 1250-instance ceiling.
    fn fleet(seed: u64, size: &Size) -> Fixture {
        let modeled = ModeledWorkload {
            seed: derive_seed(seed, MODELED_STREAM),
            ..ModeledWorkload::default()
        };
        let t = InstanceType::by_name("r6a.xlarge").expect("r6a.xlarge is in the instance catalog");
        let mut config = CampaignConfig::new(t, 1 << 20);
        config.scaling = ScalingPolicy {
            min_size: 0,
            max_size: 1250,
            target_backlog_per_instance: 8,
        };
        config.scale_tick = SimDuration::from_secs(10.0);
        config.poll_interval = SimDuration::from_secs(5.0);
        config.spot_market = SpotMarket {
            price_factor: 0.35,
            interruptions_per_hour: 2.0,
            seed: derive_seed(seed, SPOT_STREAM),
        };
        config.max_receive_count = Some(6);
        with_observers(&mut config);
        Fixture {
            workload: Workload::Fleet10k,
            inner: modeled.into_workload(),
            pipeline: None,
            ids: ModeledWorkload::accessions(size.n_accessions),
            config,
            index_bytes: 0,
        }
    }

    /// A copy of the pipeline with `AlignParams::measure_phase_nanos` on, for
    /// the traced run. Outputs are identical; only the phase clocks tick.
    pub fn traced_pipeline(&self) -> Option<Arc<AtlasPipeline>> {
        let p = self.pipeline.as_ref()?;
        let mut pc = p.config().clone();
        pc.align_params.measure_phase_nanos = true;
        let traced = AtlasPipeline::new(p.repository_arc(), p.index_arc(), p.annotation_arc(), pc)
            .expect("a validated config stays valid with phase timing on");
        Some(Arc::new(traced))
    }
}

/// The `cloud_atlas` observers: telemetry, the standard monitor rules and the
/// standard SLOs.
fn with_observers(config: &mut CampaignConfig) {
    config.telemetry = true;
    config.monitor = Some(MonitorConfig::standard());
    config.slo = Some(SloConfig {
        registry: SloRegistry::standard(4.0 * 3600.0, 3600.0, 0.25),
        ..SloConfig::default()
    });
}
