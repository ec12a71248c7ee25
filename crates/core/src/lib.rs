//! # flextensor
//!
//! A Rust reproduction of **FlexTensor** (Zheng, Liang, Wang, Chen, Sheng —
//! ASPLOS 2020): an automatic schedule exploration and optimization
//! framework for tensor computation on heterogeneous systems.
//!
//! Describe a tensor computation mathematically (with
//! [`flextensor_ir::ops`] or a custom
//! [`GraphBuilder`](flextensor_ir::graph::GraphBuilder)), pick a device
//! model, and [`optimize()`] does the rest — static analysis, schedule-space
//! generation, simulated-annealing + Q-learning exploration, and
//! target-specific schedule implementation. No schedule templates, no
//! manual tuning.
//!
//! ```
//! use flextensor::{optimize, OptimizeOptions, Task};
//! use flextensor_ir::ops;
//! use flextensor_sim::spec::{Device, v100};
//!
//! // A 2D convolution, described only by its math.
//! let graph = ops::conv2d(ops::ConvParams::same(1, 64, 128, 3), 28, 28);
//! let task = Task::new(graph, Device::Gpu(v100()));
//! let result = optimize(&task, &OptimizeOptions::quick())?;
//! println!("{:.0} GFLOPS with schedule:\n{}", result.gflops(), result.schedule_text());
//! # Ok::<(), flextensor::OptimizeError>(())
//! ```
//!
//! The crate re-exports the full stack: IR ([`flextensor_ir`]), schedules
//! ([`flextensor_schedule`]), the correctness interpreter
//! ([`flextensor_interp`]), device models ([`flextensor_sim`]) and the
//! exploration back-end ([`flextensor_explore`]). The [`dnn`] module
//! optimizes whole networks (YOLO-v1, OverFeat — §6.6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dnn;
pub mod optimize;
pub mod serve;

pub use flextensor_explore::methods::{Method, SearchOptions};
pub use flextensor_explore::pool::{EvalPool, EvalStats, MemoCache, PoolOptions};
pub use flextensor_telemetry::{JsonlSink, MemorySink, NullSink, Telemetry, TraceEvent, TraceSink};
pub use flextensor_tunedb::{TuneDb, TuneKey, TuneRecord};
pub use optimize::{optimize, OptimizeError, OptimizeOptions, OptimizeResult, Task};
pub use serve::{
    task_key, ServeError, ServeOptions, ServeResult, ServeSource, Session, SessionServer,
    SessionStats, Ticket, TuneRunner, Tuned,
};

// The tuning database crate, re-exported for downstream users.
pub use flextensor_tunedb as tunedb;

// Re-export the substrate crates under stable names.
pub use flextensor_explore as explore;
pub use flextensor_interp as interp;
pub use flextensor_ir as ir;
pub use flextensor_schedule as schedule;
pub use flextensor_sim as sim;
pub use flextensor_telemetry as telemetry;
