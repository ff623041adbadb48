//! The stage sweep: each job of a campaign replayed through the public stage
//! functions, in pipeline order, each call timed from outside.
//!
//! It mirrors `AtlasPipeline::run_accession`: `SraRepository::fetch` →
//! `FasterqDump::run` → `Runner::new` (with the pipeline's batch clamp) →
//! `FasterqOutput::pairs` → `Runner::run` / `run_pairs` under the early-stop
//! policy. Each job's outcome must equal the campaign's result for that
//! accession, which shows the sweep timed the same work.

use atlas_pipeline::AtlasPipeline;
use sra_sim::FasterqDump;
use star_aligner::runner::{RunMonitor, Runner};
use star_aligner::RunStatus;

use crate::fixture::Error;
use crate::stats::timed;

/// Per-stage totals over every job swept.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SweepTotals {
    /// Jobs swept.
    pub jobs: u64,
    /// `SraRepository::fetch` seconds (read simulation + archive encode).
    pub fetch_s: f64,
    /// Archive bytes fetched.
    pub archive_bytes: u64,
    /// `FasterqDump::run` seconds.
    pub dump_s: f64,
    /// FASTQ text bytes dumped.
    pub fastq_bytes: u64,
    /// `FasterqOutput::pairs` seconds (paired libraries only).
    pub split_pairs_s: f64,
    /// `Runner::new` seconds.
    pub runner_new_s: f64,
    /// `Runner::run` / `run_pairs` seconds.
    pub align_s: f64,
    /// Seed-phase seconds (`PhaseWork::seed_nanos`).
    pub seed_s: f64,
    /// Stitch-phase seconds.
    pub stitch_s: f64,
    /// Extend-phase seconds.
    pub extend_s: f64,
    /// Seed work units.
    pub seed_units: u64,
    /// Stitch work units.
    pub stitch_units: u64,
    /// Extend work units.
    pub extend_units: u64,
    /// Reads handed to the aligner (both mates for paired libraries).
    pub reads_input: u64,
    /// Alignment units (reads, or fragments for paired libraries) in the input.
    pub units_total: u64,
    /// Alignment units processed before the run ended or stopped.
    pub units_processed: u64,
    /// Processed units that multimapped.
    pub units_multimapped: u64,
}

impl SweepTotals {
    /// Sum of the stage times.
    pub fn stages_s(&self) -> f64 {
        self.fetch_s + self.dump_s + self.split_pairs_s + self.runner_new_s + self.align_s
    }
}

/// Sweep `accessions` (one entry per job) through `pipeline`'s stages.
/// Returns the totals and each job's [`crate::check::fingerprint`].
pub fn stage_sweep(
    pipeline: &AtlasPipeline,
    accessions: &[&str],
) -> Result<(SweepTotals, Vec<u64>), Error> {
    let cfg = pipeline.config();
    let repo = pipeline.repository();
    let index = pipeline.index_arc();
    let annotation = pipeline.annotation_arc();
    let dumper = FasterqDump::new(cfg.dump);
    let monitor = cfg.early_stop.as_ref().map(|p| p as &dyn RunMonitor);
    let mut t = SweepTotals::default();
    let mut fingerprints = Vec::with_capacity(accessions.len());
    for &accession in accessions {
        let archive = timed(&mut t.fetch_s, || repo.fetch(accession))?;
        let dump = timed(&mut t.dump_s, || dumper.run(&archive))?;
        let mut run_config = cfg.run_config.clone();
        run_config.batch_size = run_config
            .batch_size
            .clamp(1, (dump.spots() as usize / 20).max(50));
        let runner = timed(&mut t.runner_new_s, || {
            Runner::new(&index, cfg.align_params.clone(), run_config)
        })?;
        let pairs = timed(&mut t.split_pairs_s, || dump.pairs());
        let output = timed(&mut t.align_s, || match &pairs {
            Some(pairs) => runner.run_pairs(pairs, Some(&annotation), monitor, None),
            None => runner.run(&dump.reads, Some(&annotation), monitor, None),
        })?;

        let snap = &output.final_snapshot;
        let completed = output.status == RunStatus::Completed;
        fingerprints.push(crate::check::fingerprint(
            &output.status,
            output.mapped_fraction(),
            snap.processed,
            output.gene_counts.as_ref().filter(|_| completed),
        ));
        let work = &output.phase_work;
        t.jobs += 1;
        t.archive_bytes += archive.size_bytes();
        t.fastq_bytes += dump.fastq_bytes;
        t.seed_s += work.seed_nanos as f64 * 1e-9;
        t.stitch_s += work.stitch_nanos as f64 * 1e-9;
        t.extend_s += work.extend_nanos as f64 * 1e-9;
        t.seed_units += work.seed_units;
        t.stitch_units += work.stitch_units;
        t.extend_units += work.extend_units;
        t.reads_input += dump.reads.len() as u64;
        t.units_total += snap.total_reads;
        t.units_processed += snap.processed;
        t.units_multimapped += snap.multi;
    }
    Ok((t, fingerprints))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use atlas_pipeline::orchestrator::Orchestrator;

    use super::*;
    use crate::check::result_fingerprint;
    use crate::fixture::{Fixture, Size, Workload};

    /// On a small fixture, sweeping every accession reproduces the campaign's
    /// result for it: status, mapping rate, processed reads and gene counts.
    #[test]
    fn stage_sweep_equals_the_campaign_for_every_accession() {
        for w in [Workload::AtlasR111, Workload::AtlasR108Paired] {
            let fx = Fixture::build(w, 7, &Size::small(w)).unwrap();
            let pipeline = fx.pipeline.clone().unwrap();
            let report = Orchestrator::with_workload(Arc::clone(&fx.inner), fx.config.clone())
                .unwrap()
                .run(&fx.ids)
                .unwrap();
            assert_eq!(report.completed.len(), fx.ids.len());
            let ids: Vec<&str> = report
                .completed
                .iter()
                .map(|r| r.accession.as_str())
                .collect();
            let (totals, fingerprints) = stage_sweep(&pipeline, &ids).unwrap();
            for (r, fp) in report.completed.iter().zip(&fingerprints) {
                assert_eq!(result_fingerprint(r), *fp, "{}: {}", w.name(), r.accession);
            }
            assert_eq!(totals.jobs, ids.len() as u64);
            assert!(totals.units_processed > 0 && totals.units_processed <= totals.units_total);
            assert_eq!(
                totals.reads_input > totals.units_total,
                w == Workload::AtlasR108Paired,
                "mates count as reads"
            );
            assert_eq!(
                totals.seed_s, 0.0,
                "phase clocks stay off unless the pipeline turns them on"
            );
        }
    }
}
