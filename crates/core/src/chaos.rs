//! Deterministic fault injection for the process transport.
//!
//! A [`FaultPlan`] is a *seeded* schedule of transport faults: given
//! the same seed and [`ChaosProfile`], the same sequence of outgoing
//! frames hits the same delays, drops, duplications, corruptions,
//! partitions and kills — so a failing run is reproducible from the
//! one-line JSON the plan serializes to (`--chaos-seed`/
//! `--chaos-profile` on `ugd-worker`/`ugd-server`, see the README
//! chaos runbook). The injector sits on the worker's frame-write path
//! ([`write_frame`], called by the per-call session's
//! [`crate::process::Endpoint`] and by the pool worker's uplink);
//! every outgoing frame (heartbeats included) advances the schedule,
//! which gives the plan a steady clock even while the solver is quiet.
//!
//! Faults model what real networks do to a TCP connection:
//!
//! * **Delay** — the frame is written late (latency spike).
//! * **Drop** — the frame is discarded *and the connection is torn
//!   down*, like a host crashing before the send buffer is flushed.
//!   (TCP never silently loses a frame mid-stream; loss always comes
//!   with a broken connection. The frame sits in the retransmit ring
//!   and is replayed after the reconnect.)
//! * **Duplicate** — the frame is written twice; the receiver's
//!   sequence check must suppress the copy.
//! * **Corrupt** — one bit of the frame is flipped before writing;
//!   the receiver's CRC must catch it and drop the connection.
//! * **Partition** — all writes (heartbeats included) stop for a
//!   while; the connection is torn down when the partition lifts (or
//!   earlier, by the peer's liveness sweep), so the suppressed frames
//!   are replayed by the session resume — never leaving a sequence
//!   gap — or, on a pool connection, the worker is replaced.
//! * **Kill** — the worker process exits immediately (exit code 137,
//!   as if SIGKILLed): exercises the `WorkerDied` → requeue path.

use serde::{Deserialize, Serialize};
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// What the injector decided for one outgoing frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Write the frame normally.
    Pass,
    /// Sleep this long, then write.
    Delay(Duration),
    /// Discard the frame and break the connection.
    Drop,
    /// Write the frame twice.
    Duplicate,
    /// Flip the given bit (modulo frame size) before writing.
    Corrupt {
        /// Pseudo-random bit index; the writer reduces it mod the
        /// frame's bit length.
        bit: u64,
    },
    /// Suppress all writes for this long.
    Partition(Duration),
    /// Exit the process immediately.
    Kill,
}

/// Per-frame fault probabilities and magnitudes. All probabilities
/// are evaluated per outgoing frame, in the order corrupt → drop →
/// duplicate → delay → partition (at most one fault per frame).
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct ChaosProfile {
    /// Probability of corrupting a frame.
    pub corrupt_p: f64,
    /// Probability of dropping a frame (and breaking the connection).
    pub drop_p: f64,
    /// Probability of duplicating a frame.
    pub dup_p: f64,
    /// Probability of delaying a frame.
    pub delay_p: f64,
    /// Delay length in milliseconds.
    pub delay_ms: u64,
    /// Probability of starting a write partition.
    pub partition_p: f64,
    /// Partition length in milliseconds.
    pub partition_ms: u64,
    /// Kill the process when this many frames have been written.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub kill_after_frames: Option<u64>,
}

impl ChaosProfile {
    /// A profile with no faults at all.
    pub fn none() -> Self {
        ChaosProfile {
            corrupt_p: 0.0,
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            delay_ms: 0,
            partition_p: 0.0,
            partition_ms: 0,
            kill_after_frames: None,
        }
    }

    /// Named presets, also accepted by `--chaos-profile`:
    /// `flaky` (drops + corruption + duplicates + small delays, the
    /// default chaos-test profile), `corrupt` (corruption only),
    /// `drop` (connection breaks only), `partition` (write outages),
    /// `mayhem` (everything, aggressively).
    pub fn named(name: &str) -> Option<Self> {
        let base = ChaosProfile::none();
        match name {
            "flaky" => Some(ChaosProfile {
                corrupt_p: 0.02,
                drop_p: 0.012,
                dup_p: 0.05,
                delay_p: 0.05,
                delay_ms: 20,
                ..base
            }),
            "corrupt" => Some(ChaosProfile { corrupt_p: 0.05, ..base }),
            "drop" => Some(ChaosProfile { drop_p: 0.03, ..base }),
            "partition" => Some(ChaosProfile { partition_p: 0.01, partition_ms: 400, ..base }),
            "mayhem" => Some(ChaosProfile {
                corrupt_p: 0.05,
                drop_p: 0.03,
                dup_p: 0.1,
                delay_p: 0.1,
                delay_ms: 40,
                partition_p: 0.005,
                partition_ms: 300,
                ..base
            }),
            _ => None,
        }
    }

    /// Parses a `--chaos-profile` value: a preset name or inline JSON.
    pub fn parse(s: &str) -> Result<Self, String> {
        if let Some(p) = ChaosProfile::named(s) {
            return Ok(p);
        }
        serde_json::from_str(s).map_err(|e| {
            format!("--chaos-profile: not a preset (flaky/corrupt/drop/partition/mayhem) and not valid JSON: {e}")
        })
    }
}

/// A complete, serializable fault schedule: seed + profile. The JSON
/// form (`Display`) is the one-line repro an assertion message should
/// carry; [`FaultPlan::injector`] turns it into the stateful
/// per-frame decider.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct FaultPlan {
    /// RNG seed; equal seeds give equal schedules.
    pub seed: u64,
    /// Fault probabilities/magnitudes.
    pub profile: ChaosProfile,
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", serde_json::to_string(self).expect("plan serializes"))
    }
}

impl FaultPlan {
    /// Builds the plan for a seed and profile.
    pub fn new(seed: u64, profile: ChaosProfile) -> Self {
        FaultPlan { seed, profile }
    }

    /// The stateful per-frame fault decider for this plan.
    pub fn injector(&self) -> FaultInjector {
        FaultInjector { rng: SplitMix64::new(self.seed), plan: self.clone(), frame: 0 }
    }

    /// The first `n` scheduled non-`Pass` events, as `(frame_index,
    /// action)` — for logs and failure messages.
    pub fn events(&self, n: usize, horizon: u64) -> Vec<(u64, FaultAction)> {
        let mut inj = self.injector();
        let mut out = Vec::new();
        for i in 0..horizon {
            let a = inj.on_frame();
            if a != FaultAction::Pass {
                out.push((i, a));
                if out.len() >= n {
                    break;
                }
            }
        }
        out
    }
}

/// `ChaosConfig` is the transport-level knob: `None` everywhere in
/// production, `Some(plan)` only under test/benchmark harnesses. (An
/// alias so config structs read as intent rather than mechanism.)
pub type ChaosConfig = FaultPlan;

/// Walks a [`FaultPlan`]'s schedule one outgoing frame at a time.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    rng: SplitMix64,
    plan: FaultPlan,
    frame: u64,
}

impl FaultInjector {
    /// Decides the fault (if any) for the next outgoing frame.
    pub fn on_frame(&mut self) -> FaultAction {
        let p = &self.plan.profile;
        self.frame += 1;
        if let Some(k) = p.kill_after_frames {
            if self.frame > k {
                return FaultAction::Kill;
            }
        }
        // One draw decides the fault class (at most one per frame),
        // a second supplies its magnitude — so adding probability to
        // one class never perturbs another class's schedule position.
        let roll = self.rng.next_f64();
        let magnitude = self.rng.next_u64();
        let mut edge = p.corrupt_p;
        if roll < edge {
            return FaultAction::Corrupt { bit: magnitude };
        }
        edge += p.drop_p;
        if roll < edge {
            return FaultAction::Drop;
        }
        edge += p.dup_p;
        if roll < edge {
            return FaultAction::Duplicate;
        }
        edge += p.delay_p;
        if roll < edge {
            return FaultAction::Delay(Duration::from_millis(p.delay_ms));
        }
        edge += p.partition_p;
        if roll < edge {
            return FaultAction::Partition(Duration::from_millis(p.partition_ms));
        }
        FaultAction::Pass
    }

    /// Frames seen so far.
    pub fn frames(&self) -> u64 {
        self.frame
    }

    /// The plan this injector walks (for repro messages).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

/// The fault schedule on one connection's write path: the injector
/// plus the partition it may have opened.
#[derive(Debug)]
pub struct FrameFaults {
    injector: FaultInjector,
    /// Writes are suppressed (the socket stays open and silent) until
    /// this instant.
    partition_until: Option<Instant>,
}

impl FrameFaults {
    /// Arms `plan` on a connection's write path.
    pub fn new(plan: &FaultPlan) -> Self {
        FrameFaults { injector: plan.injector(), partition_until: None }
    }

    /// A fresh connection replaces the one a partition silenced.
    pub fn reconnected(&mut self) {
        self.partition_until = None;
    }
}

/// Writes one complete frame to `w`, through the fault schedule when
/// `faults` is armed — the one place a [`FaultAction`] becomes bytes
/// (or their absence) on a socket. `Ok` means the connection is still
/// usable: the frame was written, or a partition swallowed it. `Err`
/// means the caller must tear the connection down: the write failed, a
/// `Drop` fired (TCP never loses a frame mid-stream silently — loss is
/// a torn connection), or a partition lifted with frames suppressed
/// behind it (writing on would leave a hole in the stream). A frame
/// suppressed by an open partition does not advance the schedule.
pub fn write_frame<W: Write>(
    faults: Option<&mut FrameFaults>,
    w: &mut W,
    frame: &[u8],
) -> io::Result<()> {
    let mut write = |bytes: &[u8]| w.write_all(bytes).and_then(|_| w.flush());
    let Some(f) = faults else { return write(frame) };
    if let Some(until) = f.partition_until {
        if Instant::now() < until {
            return Ok(());
        }
        f.partition_until = None;
        return Err(io::Error::other("chaos: partition lifted over suppressed frames"));
    }
    match f.injector.on_frame() {
        FaultAction::Pass => write(frame),
        FaultAction::Delay(d) => {
            std::thread::sleep(d);
            write(frame)
        }
        FaultAction::Drop => Err(io::Error::other("chaos: frame dropped, connection torn")),
        FaultAction::Duplicate => write(frame).and_then(|_| write(frame)),
        FaultAction::Corrupt { bit } => {
            let mut bad = frame.to_vec();
            let b = (bit % (bad.len() as u64 * 8)) as usize;
            bad[b / 8] ^= 1 << (b % 8);
            write(&bad)
        }
        FaultAction::Partition(d) => {
            f.partition_until = Some(Instant::now() + d);
            Ok(())
        }
        // Hard worker loss; only meaningful in spawned worker
        // processes (the chaos e2e suites), never in-process.
        FaultAction::Kill => std::process::exit(137),
    }
}

/// What [`RpcFaultGate::before_rpc`] decided for one gateway↔shard RPC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RpcFault {
    /// Make the call normally (a scheduled delay already slept).
    Proceed,
    /// The call must fail as if the link were down.
    Fail,
    /// The process must exit immediately (gateway kill, exit 137).
    Exit,
}

/// Fault injection for the gateway↔shard *RPC* links: where the frame
/// injector sits on the worker transport's write path, this gate sits
/// in front of every control-plane call the gateway makes (health
/// polls, dispatch submits, steal reclaims, cancel forwards, tracker
/// connects). The same [`FaultPlan`] vocabulary applies, re-read as RPC
/// semantics: `Delay` slows the call, `Drop`/`Corrupt` fail it
/// (a failed RPC and a corrupted one look identical to a bounded
/// client — an `io::Error`), `Partition` fails every call for its
/// duration, `Duplicate` is a no-op (the gateway's RPCs are idempotent
/// by design — that is what the epoch machinery guarantees — so a
/// duplicated call adds nothing a test could observe), and `Kill`
/// exits the gateway process, which is exactly the fault HA exists to
/// absorb.
#[derive(Debug)]
pub struct RpcFaultGate {
    inner: std::sync::Mutex<GateInner>,
}

#[derive(Debug)]
struct GateInner {
    injector: FaultInjector,
    partition_until: Option<std::time::Instant>,
}

impl RpcFaultGate {
    /// Builds the gate for a plan.
    pub fn new(plan: &FaultPlan) -> Self {
        RpcFaultGate {
            inner: std::sync::Mutex::new(GateInner {
                injector: plan.injector(),
                partition_until: None,
            }),
        }
    }

    /// Decides (and applies the sleep of) the fault for the next RPC.
    /// `Fail` is returned *without* sleeping, so a partition fails
    /// calls fast — like a refused connection, not a hung one.
    pub fn before_rpc(&self) -> RpcFault {
        let action = {
            let mut g = self.inner.lock().unwrap();
            if let Some(until) = g.partition_until {
                if std::time::Instant::now() < until {
                    // Still advance the schedule: partitioned RPCs keep
                    // the plan's clock ticking, like suppressed frames.
                    let _ = g.injector.on_frame();
                    return RpcFault::Fail;
                }
                g.partition_until = None;
            }
            let action = g.injector.on_frame();
            if let FaultAction::Partition(d) = action {
                g.partition_until = Some(std::time::Instant::now() + d);
            }
            action
        };
        match action {
            FaultAction::Pass | FaultAction::Duplicate => RpcFault::Proceed,
            FaultAction::Delay(d) => {
                std::thread::sleep(d);
                RpcFault::Proceed
            }
            FaultAction::Drop | FaultAction::Corrupt { .. } | FaultAction::Partition(_) => {
                RpcFault::Fail
            }
            FaultAction::Kill => RpcFault::Exit,
        }
    }
}

/// SplitMix64 (Steele, Lea & Flood): tiny, seedable, and good enough
/// for fault scheduling — chosen over the vendored `rand` so the
/// schedule is bit-identical on every platform and toolchain forever
/// (a chaos seed in a bug report must never rot).
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::new(42, ChaosProfile::named("mayhem").unwrap());
        let a: Vec<_> = {
            let mut i = plan.injector();
            (0..500).map(|_| i.on_frame()).collect()
        };
        let b: Vec<_> = {
            let mut i = plan.injector();
            (0..500).map(|_| i.on_frame()).collect()
        };
        assert_eq!(a, b);
        let other: Vec<_> = {
            let mut i = FaultPlan::new(43, plan.profile.clone()).injector();
            (0..500).map(|_| i.on_frame()).collect()
        };
        assert_ne!(a, other, "different seeds should give different schedules");
    }

    #[test]
    fn plan_round_trips_as_one_line_json() {
        let plan = FaultPlan::new(1337, ChaosProfile::named("flaky").unwrap());
        let line = plan.to_string();
        assert!(!line.contains('\n'));
        let back: FaultPlan = serde_json::from_str(&line).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn presets_parse_and_garbage_does_not() {
        for name in ["flaky", "corrupt", "drop", "partition", "mayhem"] {
            ChaosProfile::parse(name).unwrap();
        }
        assert!(ChaosProfile::parse("no-such-profile").is_err());
        let json = serde_json::to_string(&ChaosProfile::named("flaky").unwrap()).unwrap();
        assert_eq!(ChaosProfile::parse(&json).unwrap(), ChaosProfile::named("flaky").unwrap());
    }

    #[test]
    fn kill_fires_after_the_configured_frame() {
        let profile = ChaosProfile { kill_after_frames: Some(3), ..ChaosProfile::none() };
        let mut inj = FaultPlan::new(7, profile).injector();
        assert_eq!(inj.on_frame(), FaultAction::Pass);
        assert_eq!(inj.on_frame(), FaultAction::Pass);
        assert_eq!(inj.on_frame(), FaultAction::Pass);
        assert_eq!(inj.on_frame(), FaultAction::Kill);
    }

    #[test]
    fn rpc_gate_maps_faults_and_partitions_stick() {
        let profile = ChaosProfile { partition_p: 1.0, partition_ms: 60, ..ChaosProfile::none() };
        let gate = RpcFaultGate::new(&FaultPlan::new(3, profile));
        assert_eq!(gate.before_rpc(), RpcFault::Fail, "partition start fails the call");
        assert_eq!(gate.before_rpc(), RpcFault::Fail, "...and every call inside the window");
        std::thread::sleep(Duration::from_millis(80));
        // The window lifted; with partition_p = 1.0 the next roll
        // starts a new one, still observable as Fail — but the window
        // state was reset in between, which is what we assert here.
        assert_eq!(gate.before_rpc(), RpcFault::Fail);

        let profile = ChaosProfile { kill_after_frames: Some(2), ..ChaosProfile::none() };
        let gate = RpcFaultGate::new(&FaultPlan::new(3, profile));
        assert_eq!(gate.before_rpc(), RpcFault::Proceed);
        assert_eq!(gate.before_rpc(), RpcFault::Proceed);
        assert_eq!(gate.before_rpc(), RpcFault::Exit, "kill maps to process exit");

        let gate = RpcFaultGate::new(&FaultPlan::new(3, ChaosProfile::none()));
        for _ in 0..50 {
            assert_eq!(gate.before_rpc(), RpcFault::Proceed);
        }
    }

    #[test]
    fn flaky_profile_schedules_drops_and_corruption_early() {
        // The chaos tests rely on the default profile actually firing:
        // within a few hundred frames every seed must schedule at
        // least one drop and one corruption.
        for seed in [41, 1337, 20260807] {
            let plan = FaultPlan::new(seed, ChaosProfile::named("flaky").unwrap());
            let mut inj = plan.injector();
            let mut drops = 0;
            let mut corrupts = 0;
            for _ in 0..400 {
                match inj.on_frame() {
                    FaultAction::Drop => drops += 1,
                    FaultAction::Corrupt { .. } => corrupts += 1,
                    _ => {}
                }
            }
            assert!(drops >= 1 && corrupts >= 1, "seed {seed}: {drops} drops, {corrupts} corrupts");
        }
    }
}
