//! Output checks: a content digest per campaign, the invariants every seed
//! must satisfy, and the digests pinned for the default seed.

use std::collections::BTreeSet;

use atlas_pipeline::orchestrator::CampaignReport;
use atlas_pipeline::{EarlyStopPolicy, PipelineResult};
use star_aligner::quant::GeneCounts;
use star_aligner::RunStatus;

use crate::fixture::{Fixture, Workload};

/// Output digests of [`crate::fixture::Size::bench`] campaigns at
/// [`crate::fixture::DEFAULT_SEED`]. The align clock is pinned, so these hold
/// on any host; a change that moves one changed what the campaign computes.
pub fn pinned_digest(w: Workload) -> u64 {
    match w {
        Workload::AtlasR111 => 0x3129_06bc_157c_019a,
        Workload::AtlasR108Paired => 0xa752_947f_554f_4584,
        Workload::Fleet10k => 0x3281_e08a_2628_14ec,
    }
}

/// FNV-1a, the hash the campaign's own `summary_digest` uses.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }
}

/// Fingerprint of what one accession's alignment produced: status, mapping
/// rate bits, processed reads and gene counts.
pub fn fingerprint(
    status: &RunStatus,
    mapping_rate: f64,
    processed_reads: u64,
    counts: Option<&GeneCounts>,
) -> u64 {
    let mut h = Fnv::new();
    match status {
        RunStatus::Completed => h.u64(0),
        RunStatus::EarlyStopped { processed_reads } => {
            h.u64(1);
            h.u64(*processed_reads);
        }
        RunStatus::Cancelled { processed_reads } => {
            h.u64(2);
            h.u64(*processed_reads);
        }
    }
    h.u64(mapping_rate.to_bits());
    h.u64(processed_reads);
    match counts {
        None => h.u64(0),
        Some(gc) => {
            h.u64(1);
            for (id, c) in gc.gene_ids.iter().zip(&gc.counts) {
                h.eat(id.as_bytes());
                c.iter().for_each(|&v| h.u64(v));
            }
            gc.n_no_feature
                .iter()
                .chain(&gc.n_ambiguous)
                .for_each(|&v| h.u64(v));
            h.u64(gc.n_multimapping);
            h.u64(gc.n_unmapped);
        }
    }
    h.0
}

/// [`fingerprint`] of a campaign result.
pub fn result_fingerprint(r: &PipelineResult) -> u64 {
    fingerprint(
        &r.status,
        r.mapping_rate,
        r.early_stop.processed_reads,
        r.gene_counts.as_ref(),
    )
}

/// Content digest of a campaign: every completed accession (in completion
/// order) with its fingerprint, then `summary_digest()` and the completed and
/// dead-lettered counts.
pub fn output_digest(report: &CampaignReport) -> u64 {
    let mut h = Fnv::new();
    for r in &report.completed {
        h.eat(r.accession.as_bytes());
        h.u64(result_fingerprint(r));
    }
    h.u64(report.summary_digest());
    h.u64(report.completed.len() as u64);
    h.u64(report.dead_lettered.len() as u64);
    h.0
}

/// Check the invariants every seed must satisfy and return the digest.
/// With `pinned`, the digest must also equal [`pinned_digest`].
pub fn verify(fx: &Fixture, report: &CampaignReport, pinned: bool) -> Result<u64, String> {
    let submitted: BTreeSet<&str> = fx.ids.iter().map(String::as_str).collect();
    let resolved = report.completed.len() + report.dead_lettered.len();
    if resolved != fx.ids.len() {
        return Err(format!(
            "completed {} + dead-lettered {} != submitted {}",
            report.completed.len(),
            report.dead_lettered.len(),
            fx.ids.len()
        ));
    }
    let seen: BTreeSet<&str> = report
        .completed
        .iter()
        .map(|r| r.accession.as_str())
        .chain(report.dead_lettered.iter().map(String::as_str))
        .collect();
    if seen != submitted {
        return Err("resolved accessions differ from the submitted ones".into());
    }
    let threshold = EarlyStopPolicy::default().min_mapping_rate;
    for r in &report.completed {
        // The modeled fleet produces no counts by design (it skips DESeq2).
        if fx.workload.is_pipeline() && r.status == RunStatus::Completed && r.gene_counts.is_none()
        {
            return Err(format!("{}: completed without gene counts", r.accession));
        }
        if r.early_stopped() && r.mapping_rate >= threshold {
            return Err(format!(
                "{}: early-stopped at mapping rate {} (threshold {threshold})",
                r.accession, r.mapping_rate
            ));
        }
    }
    let digest = output_digest(report);
    if pinned && digest != pinned_digest(fx.workload) {
        return Err(format!(
            "output digest {digest:#018x} != pinned {:#018x} for {} at the default seed",
            pinned_digest(fx.workload),
            fx.workload.name()
        ));
    }
    Ok(digest)
}
