//! A `CampaignWorkload` that times every call into the workload it wraps.
//!
//! The orchestrator sees an ordinary workload; each `run_accession*` call (one
//! accession on one worker) is timed from outside and logged, so the
//! benchmark gets per-job wall times and the pipeline's share of campaign
//! wall time without instrumenting the library.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use atlas_pipeline::{AtlasError, CampaignWorkload, PipelineResult};
use star_aligner::ProgressSnapshot;

/// One call into the wrapped workload.
#[derive(Clone, Debug)]
pub struct Call {
    /// Accession the job ran.
    pub accession: String,
    /// Wall seconds of the call.
    pub secs: f64,
    /// Did the call return a result (not an error)?
    pub ok: bool,
}

/// The timing wrapper.
pub struct TimedWorkload {
    inner: Arc<dyn CampaignWorkload>,
    calls: Mutex<Vec<Call>>,
}

impl TimedWorkload {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn CampaignWorkload>) -> Arc<TimedWorkload> {
        Arc::new(TimedWorkload {
            inner,
            calls: Mutex::new(Vec::new()),
        })
    }

    /// Drain the call log.
    pub fn take_calls(&self) -> Vec<Call> {
        std::mem::take(
            &mut *self
                .calls
                .lock()
                .expect("call log poisoned by a panicking job"),
        )
    }

    fn timed<T>(
        &self,
        accession: &str,
        call: impl FnOnce() -> Result<T, AtlasError>,
    ) -> Result<T, AtlasError> {
        let started = Instant::now();
        let out = call();
        let secs = started.elapsed().as_secs_f64();
        self.calls
            .lock()
            .expect("call log poisoned by a panicking job")
            .push(Call {
                accession: accession.to_string(),
                secs,
                ok: out.is_ok(),
            });
        out
    }
}

impl CampaignWorkload for TimedWorkload {
    fn run_accession(&self, accession: &str) -> Result<PipelineResult, AtlasError> {
        self.timed(accession, || self.inner.run_accession(accession))
    }

    fn run_accession_with_history(
        &self,
        accession: &str,
    ) -> Result<(PipelineResult, Vec<ProgressSnapshot>), AtlasError> {
        self.timed(accession, || {
            self.inner.run_accession_with_history(accession)
        })
    }
}
