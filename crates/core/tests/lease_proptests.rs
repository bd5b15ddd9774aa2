//! Property tests for the HA lease protocol (DESIGN §5f). The lease
//! directory is the gateway pair's only election mechanism, so its
//! failure modes are the failover's failure modes: a torn or truncated
//! lease file — a crash mid-write, a tampered disk — must never panic
//! a reader, corrupt the election, or hand two claimants the same
//! epoch; and of N simultaneous claimants exactly one may win.

use proptest::prelude::*;
use std::path::PathBuf;
use ugrs_core::ledger::{unix_ms_now, Lease, LeaseDir};

fn scratch_dir(label: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ugrs-lease-{label}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const TTL: std::time::Duration = std::time::Duration::from_millis(50);

/// One write the property below will replay into the lease dir: a
/// well-formed claim, the same claim truncated at an arbitrary byte
/// (a crash mid-write), or outright garbage under a lease filename.
#[derive(Clone, Debug)]
enum LeaseWrite {
    Valid { epoch: u64, expired: bool },
    Torn { epoch: u64, keep: usize },
    Garbage { epoch: u64, bytes: Vec<u8> },
}

fn arb_write() -> impl Strategy<Value = LeaseWrite> {
    (0usize..3, 1u64..20, 0usize..200, proptest::collection::vec(0u8..=255u8, 0..64), any::<bool>())
        .prop_map(|(kind, epoch, keep, bytes, expired)| match kind {
            0 => LeaseWrite::Valid { epoch, expired },
            1 => LeaseWrite::Torn { epoch, keep },
            _ => LeaseWrite::Garbage { epoch, bytes },
        })
}

fn lease_json(epoch: u64, expired: bool) -> Vec<u8> {
    let lease = Lease {
        epoch,
        owner: format!("gw-{epoch}"),
        // A fresh lease renews "now"; an expired one is the drain
        // handover sentinel every reader must treat as free.
        renewed_unix_ms: if expired { 0 } else { unix_ms_now() },
        ttl_ms: TTL.as_millis() as u64,
    };
    serde_json::to_vec(&lease).unwrap()
}

proptest! {
    /// Replaying any mix of valid, torn, and garbage lease files, the
    /// reader returns the highest *parseable* epoch (torn files hide
    /// an epoch, never corrupt the election), and a subsequent claim
    /// either publishes an epoch strictly above every parseable one or
    /// loses cleanly to an existing file — it never clobbers one.
    #[test]
    fn torn_lease_files_never_corrupt_the_election(writes in proptest::collection::vec(arb_write(), 0..12)) {
        let dir = scratch_dir("torn");
        let lease_dir = LeaseDir::open(&dir).unwrap();
        let mut best_valid: Option<(u64, bool)> = None;
        for w in &writes {
            let (epoch, bytes) = match w {
                LeaseWrite::Valid { epoch, expired } => (*epoch, lease_json(*epoch, *expired)),
                LeaseWrite::Torn { epoch, keep } => {
                    let full = lease_json(*epoch, false);
                    let keep = (*keep).min(full.len().saturating_sub(1));
                    (*epoch, full[..keep].to_vec())
                }
                LeaseWrite::Garbage { epoch, bytes } => (*epoch, bytes.clone()),
            };
            std::fs::write(dir.join("lease").join(format!("lease-{epoch}.json")), &bytes).unwrap();
            // Later writes to the same epoch overwrite earlier ones,
            // so track what the file holds *now*, not what it held.
            let parses = serde_json::from_slice::<Lease>(&bytes).is_ok();
            if let LeaseWrite::Valid { epoch, expired } = w {
                prop_assert!(parses, "a valid write must serialize parseably");
                if best_valid.is_none_or(|(e, _)| *epoch >= e) {
                    best_valid = Some((*epoch, *expired));
                }
            } else if parses {
                // Vanishingly unlikely (garbage parsing as a Lease),
                // but be honest about it rather than mis-assert below.
                best_valid = None;
            } else if best_valid.is_some_and(|(e, _)| e == epoch) {
                best_valid = None; // clobbered the best valid file
            }
        }

        let read = lease_dir.read();
        if let Some((epoch, expired)) = best_valid {
            let seen = read.as_ref().map(|l| l.epoch);
            prop_assert_eq!(seen, Some(epoch), "reader must surface the best parseable epoch");
            prop_assert_eq!(read.as_ref().unwrap().renewed_unix_ms == 0, expired);
        }
        let parseable_max = read.as_ref().map_or(0, |l| l.epoch);
        // A live lease is never claimed over: its owner hands it over
        // first, as a draining primary does.
        if let Some(live) = read.as_ref().filter(|l| !l.expired_at(unix_ms_now())) {
            lease_dir.release(live).unwrap();
        }
        let before_claim = lease_dir.read();

        // A claim over this rubble either wins an epoch strictly above
        // every parseable one, or collides with an existing file (a
        // torn file occupying `parseable_max + 1`) and loses cleanly.
        match lease_dir.claim("claimant", TTL).unwrap() {
            Some(won) => {
                prop_assert!(
                    before_claim.is_none_or(|l| l.expired_at(unix_ms_now())),
                    "a claim may only win over an absent or expired lease"
                );
                prop_assert!(won.epoch > parseable_max);
                prop_assert_eq!(lease_dir.read().map(|l| l.epoch), Some(won.epoch));
            }
            None => {
                let occupied = dir.join("lease").join(format!("lease-{}.json", parseable_max + 1));
                prop_assert!(occupied.exists(), "a lost claim means the epoch file already existed");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// N threads racing to claim the same free lease: exactly one wins,
    /// and every loser observes the winner on re-read. This is the
    /// split-brain test — two winners would mean two primaries fencing
    /// each other's jobs.
    #[test]
    fn simultaneous_claims_elect_exactly_one(n in 2usize..8) {
        let dir = scratch_dir("race");
        let lease_dir = std::sync::Arc::new(LeaseDir::open(&dir).unwrap());
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(n));
        let mut handles = Vec::new();
        for i in 0..n {
            let lease_dir = lease_dir.clone();
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                lease_dir.claim(&format!("gw-{i}"), TTL).unwrap()
            }));
        }
        let results: Vec<Option<Lease>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        let winners: Vec<&Lease> = results.iter().flatten().collect();
        prop_assert_eq!(winners.len(), 1, "exactly one claimant may win epoch 1");
        prop_assert_eq!(winners[0].epoch, 1);
        let on_disk = lease_dir.read().expect("winner's lease is readable");
        prop_assert_eq!(&on_disk.owner, &winners[0].owner);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The full handover dance, deterministic: claim → renew keeps the
/// lease fresh → release expires it instantly → the standby's claim
/// takes the *next* epoch (fencing monotonicity), and the deposed
/// owner's late renewal of its own epoch cannot clobber the usurper.
#[test]
fn release_then_reclaim_bumps_epoch_and_survives_stale_renewal() {
    let dir = scratch_dir("handover");
    let lease_dir = LeaseDir::open(&dir).unwrap();

    let mut first = lease_dir.claim("gw-a", TTL).unwrap().expect("free dir: claim wins");
    assert_eq!(first.epoch, 1);
    lease_dir.renew(&mut first).unwrap();
    assert!(!lease_dir.read().unwrap().expired_at(unix_ms_now()));

    lease_dir.release(&first).unwrap();
    let released = lease_dir.read().unwrap();
    assert_eq!(released.renewed_unix_ms, 0, "release is the instant-handover sentinel");
    assert!(released.expired_at(unix_ms_now()));

    let second = lease_dir.claim("gw-b", TTL).unwrap().expect("released lease is claimable");
    assert_eq!(second.epoch, 2, "takeover must bump the fencing epoch");

    // gw-a wakes up late and renews the lease object it still holds:
    // that rewrites lease-1.json only, which every reader now ignores.
    lease_dir.renew(&mut first).unwrap();
    let current = lease_dir.read().unwrap();
    assert_eq!(current.epoch, 2);
    assert_eq!(current.owner, "gw-b");
    std::fs::remove_dir_all(&dir).ok();
}
