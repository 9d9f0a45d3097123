//! The benchmark harness of the uic workspace: load drivers, order
//! statistics, spans and the result line. The workloads themselves
//! live in the binary (`main.rs`); see `README.md` for what each one
//! measures and why.

pub mod json;
pub mod load;
pub mod report;
pub mod sched;
pub mod stats;
pub mod trace;
