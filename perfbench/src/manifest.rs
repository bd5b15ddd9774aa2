//! Frozen instance manifests and the generators behind them.
//!
//! Hardness inside one generator family ranges from a millisecond to a
//! time-out across generator seeds, so the instance lists are
//! calibrated once (`ugrs-bench calibrate`) and committed; a run only
//! re-generates the listed instances and checks every optimum against
//! the recorded reference.

use serde::{Deserialize, Serialize};
use ugrs_misdp::{gen as mgen, Approach, MisdpProblem};
use ugrs_steiner::gen::{self as sgen, CostScheme};
use ugrs_steiner::Graph;

/// One calibrated instance.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct Entry {
    /// Unique within the manifest; also the catalog file stem.
    pub id: String,
    /// `cc`, `hc`, `bip` (STP) or `ttd`, `cls`, `mkp` (MISDP).
    pub family: String,
    /// Generator parameters, in the generator's argument order.
    pub params: Vec<u64>,
    /// STP only: unit (`u`) instead of perturbed (`p`) edge costs.
    pub unit_cost: bool,
    /// Generator seed.
    pub gen_seed: u64,
    /// MISDP only: `sdp` or `lp`.
    pub approach: Option<String>,
    /// `ug_par` only: racing ramp-up instead of normal ramp-up.
    pub racing: bool,
    /// STP: vertices. MISDP: variables.
    pub n: u64,
    /// STP: edges. MISDP: PSD blocks + linear rows.
    pub m: u64,
    /// STP: terminals. MISDP: integer variables.
    pub terminals: u64,
    /// Proven optimum (STP: tree cost; MISDP: maximisation objective).
    pub reference: f64,
    /// Sequential B&B nodes at calibration (0 = solved by presolve).
    pub seq_nodes: u64,
    /// Sequential solve time at calibration, milliseconds.
    pub seq_ms: f64,
}

/// A workload's frozen instance list.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct Manifest {
    pub workload: String,
    /// 1 = default set, 2 = hold-out set.
    pub set: u64,
    pub entries: Vec<Entry>,
}

/// A generated instance, ready to solve.
#[derive(Clone, Debug)]
pub enum Instance {
    Stp(Graph),
    Misdp(MisdpProblem),
}

impl Entry {
    pub fn is_stp(&self) -> bool {
        matches!(self.family.as_str(), "cc" | "hc" | "bip")
    }

    pub fn approach(&self) -> Approach {
        match self.approach.as_deref() {
            Some("lp") => Approach::Lp,
            _ => Approach::Sdp,
        }
    }

    /// Re-generates the instance from its recorded parameters.
    pub fn generate(&self) -> Result<Instance, String> {
        let p = |i: usize| -> Result<usize, String> {
            self.params
                .get(i)
                .map(|&v| v as usize)
                .ok_or_else(|| format!("{}: missing generator parameter {i}", self.id))
        };
        let scheme = if self.unit_cost { CostScheme::Unit } else { CostScheme::Perturbed };
        Ok(match self.family.as_str() {
            "cc" => Instance::Stp(sgen::code_covering(p(0)?, p(1)?, p(2)?, scheme, self.gen_seed)),
            "hc" => {
                Instance::Stp(sgen::hypercube_sparse_terminals(p(0)?, p(1)?, scheme, self.gen_seed))
            }
            "bip" => Instance::Stp(sgen::bipartite(p(0)?, p(1)?, p(2)?, scheme, self.gen_seed)),
            "ttd" => Instance::Misdp(mgen::truss_topology(p(0)?, p(1)?, self.gen_seed)),
            "cls" => Instance::Misdp(mgen::cardinality_ls(p(0)?, p(1)?, self.gen_seed)),
            "mkp" => Instance::Misdp(mgen::min_k_partitioning(p(0)?, p(1)?, self.gen_seed)),
            other => return Err(format!("{}: unknown family {other:?}", self.id)),
        })
    }
}

/// The committed manifests, embedded so the binary does not depend on
/// its working directory. `calibrate` rewrites the files; rebuild to
/// pick them up.
const EMBEDDED: &[(&str, u64, &str)] = &[
    ("stp_seq", 1, include_str!("../manifests/stp_seq.seed1.json")),
    ("misdp_seq", 1, include_str!("../manifests/misdp_seq.seed1.json")),
    ("ug_par", 1, include_str!("../manifests/ug_par.seed1.json")),
    ("serve", 1, include_str!("../manifests/serve.seed1.json")),
    ("stp_seq", 2, include_str!("../manifests/stp_seq.seed2.json")),
    ("misdp_seq", 2, include_str!("../manifests/misdp_seq.seed2.json")),
    ("ug_par", 2, include_str!("../manifests/ug_par.seed2.json")),
    ("serve", 2, include_str!("../manifests/serve.seed2.json")),
];

impl Manifest {
    /// Loads the committed manifest of `workload` for instance set `set`.
    pub fn load(workload: &str, set: u64) -> Result<Manifest, String> {
        let text = EMBEDDED
            .iter()
            .find(|(w, s, _)| *w == workload && *s == set)
            .map(|(_, _, t)| *t)
            .ok_or_else(|| format!("no manifest for workload {workload:?}, set {set}"))?;
        let m: Manifest = serde_json::from_str(text)
            .map_err(|e| format!("manifest {workload}.seed{set}.json: {e}"))?;
        if m.entries.is_empty() {
            return Err(format!("manifest {workload}.seed{set}.json lists no instances"));
        }
        Ok(m)
    }
}
