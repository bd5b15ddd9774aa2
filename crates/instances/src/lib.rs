//! `ugrs-instances`: the instance zoo.
//!
//! Real-format instance I/O and generation for the three applications
//! served by the UG fleet — Steiner tree problems, mixed-integer
//! semidefinite programs, and max-cut:
//!
//! * [`stp`] — strict SteinLib/OR-Library `.stp` parsing and writing
//!   (the format of the PUC test set the paper's §4.1 experiments use);
//! * [`cbf`] — strict CBF-lite (CBLIB subset) parsing for MISDPs, the
//!   dialect `ugrs_misdp::cbf::write_cbf` emits;
//! * [`maxcut`] — the rudy/Biq Mac `.mc` edge-list format;
//! * [`gen`] — seeded generators per family (hypercube/grid/incidence
//!   STP, PACE-2018-like sparse random, max-cut rings and random
//!   graphs, MISDP wrappers), with analytic reference optima where
//!   known;
//! * [`catalog`] — the on-disk catalog: instance files plus a
//!   `manifest.json` with name, family, size, FNV-1a 64 checksum
//!   ([`checksum`]), and reference optimum.
//!
//! All parsers are *strict*: counts must match, indices are
//! range-checked, and every rejection is a [`ParseError`] naming the
//! line (and usually column) at fault — never a panic, never a silent
//! misread. They are the workspace's only readers of these formats:
//! `ug-instances`, `ugd submit --file`, the examples and the benchmark
//! all come through here.

pub mod catalog;
pub mod cbf;
pub mod checksum;
mod error;
pub mod gen;
pub mod maxcut;
pub mod stp;

pub use catalog::{Catalog, CatalogEntry, ValidationError};
pub use checksum::{checksum_hex, file_checksum, fnv1a64};
pub use error::{ParseError, ReadError};
pub use maxcut::MaxCutInstance;
pub use stp::StpInstance;
