//! # megasw-multigpu — fine-grain multi-GPU megabase Smith-Waterman
//!
//! This crate is the paper's contribution: spreading the computation of a
//! *single* huge Smith-Waterman matrix over a chain of (simulated)
//! heterogeneous GPUs.
//!
//! * [`partition`] — column-wise decomposition of the matrix into one
//!   vertical **slab per device**, either equal or proportional to each
//!   device's measured compute power (the heterogeneous case);
//! * [`circbuf`] — the **circular buffer**: a bounded, blocking ring
//!   through which a device streams the border columns of its slab to its
//!   right-hand neighbour one block-row at a time, decoupling producer and
//!   consumer so communication hides behind computation;
//! * [`pipeline`] — the **threaded runtime**: one OS thread per simulated
//!   device executes the real block kernels over its slab and exchanges
//!   real borders through the rings; its result is bit-identical to the
//!   sequential reference (the integration tests prove it);
//! * [`desrun`] — the same schedule handed to the discrete-event simulator
//!   in `megasw-gpusim`, yielding the *simulated* GCUPS, per-device
//!   utilization and buffer-stall breakdowns that regenerate the paper's
//!   tables and figures;
//! * [`stages`] — multi-GPU **alignment retrieval** (CUDAlign stages 1–3
//!   analogue): forward local pipeline, reversed anchored pipeline, then
//!   Myers–Miller on the bounded segment;
//! * [`batch`] — the **many-pair batch engine**: length-sorted bins over a
//!   device work-queue, small pairs dispatched whole to idle devices
//!   (inter-task parallelism), large pairs through the slab pipeline, plus
//!   the DES twin that pins the packing speedup;
//! * [`job`] — the unified job abstraction ([`job::JobSpec`] /
//!   [`job::JobReport`]): single-pair and batch workloads behind one
//!   submit/report surface;
//! * [`service`] — the resident alignment service: a prioritized job
//!   queue with an executor thread, cooperative cancellation, per-job
//!   latency SLOs and an HTTP control surface mounted on `obs::http`;
//! * [`balance`] — device-weight calibration for proportional splits;
//! * [`baseline`] — the comparison points: single device, bulk-synchronous
//!   (non-overlapped) exchange, equal split on heterogeneous platforms, and
//!   a multicore CPU wavefront;
//! * [`stats`] — the [`stats::RunReport`] every executor produces.

pub mod autotune;
pub mod balance;
pub mod baseline;
pub mod batch;
pub mod checkpoint;
pub mod circbuf;
pub mod config;
pub mod desrun;
pub mod error;
pub mod job;
pub mod memory;
pub mod partition;
pub mod pipeline;
pub mod service;
pub mod stages;
pub mod stats;

pub use batch::{
    BatchConfig, BatchFault, BatchJob, BatchPlan, BatchReport, BatchRun, BatchSim, BatchSimReport,
    BatchSpec,
};
pub use checkpoint::{Checkpoint, CheckpointStore, RecoveryPolicy};
pub use circbuf::BorderMsg;
pub use config::{
    CheckpointCadence, KernelPolicy, PartitionPolicy, PruneMode, RebalanceMode, RunConfig,
};
pub use desrun::DesSim;
pub use error::MegaswError;
pub use job::{JobKind, JobOutcome, JobReport, JobSpec};
pub use partition::{
    make_slabs, make_slabs_excluding, make_slabs_excluding_with_weights, resplit_slabs, Slab,
};
pub use pipeline::{FaultPhase, FaultSchedule, PipelineRun, ScheduledFault, Semantics};
pub use service::{AlignService, JobState, JobStatus, ServiceConfig};
pub use stages::multigpu_local_align;
pub use stats::{
    DeviceReport, PruningReport, RebalanceReport, RecoveryReport, RunReport, StallBreakdown,
};

/// The types most callers need: builders, reports, errors, observability.
pub mod prelude {
    pub use crate::batch::{
        jobs_from_fasta_pair, jobs_from_manifest, BatchConfig, BatchFault, BatchJob, BatchPlan,
        BatchReport, BatchRun, BatchSim, BatchSimReport, BatchSpec,
    };
    pub use crate::checkpoint::{Checkpoint, CheckpointStore, RecoveryPolicy};
    pub use crate::circbuf::BorderMsg;
    pub use crate::config::{
        CheckpointCadence, KernelPolicy, PartitionPolicy, PruneMode, RebalanceMode, RunConfig,
    };
    pub use crate::desrun::{DesRun, DesSim};
    pub use crate::error::MegaswError;
    pub use crate::job::{JobKind, JobOutcome, JobReport, JobSpec};
    pub use crate::pipeline::{
        FaultPhase, FaultPlan, FaultSchedule, PipelineRun, ScheduledFault, Semantics,
    };
    pub use crate::service::{AlignService, JobState, JobStatus, ServiceConfig};
    pub use crate::stats::{
        DeviceReport, PruningReport, RebalanceReport, RecoveryReport, RunReport, StallBreakdown,
    };
    pub use megasw_obs::{
        chrome_trace, metrics_json, prometheus, render_progress_line, LiveSnapshot, LiveTelemetry,
        MetricsRegistry, ObsKind, ObsLevel, ObsSpan, ProgressSampler, Recorder,
    };
}
