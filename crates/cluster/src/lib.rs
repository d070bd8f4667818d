//! # efm-cluster — a simulated distributed-memory cluster
//!
//! The paper's combinatorial parallel Nullspace Algorithm (its Algorithm 2)
//! is a bulk-synchronous message-passing program: every compute node holds a
//! full copy of the current mode matrix, processes its stripe of the
//! pos×neg candidate grid, and exchanges survivors with all other nodes at
//! the end of each iteration. The authors ran it over MPI on an SGI Altix
//! cluster and an IBM Blue Gene/P.
//!
//! We do not have those machines, so this crate provides the faithful
//! stand-in the reproduction runs on (see DESIGN.md §4):
//!
//! * **ranks as OS threads** with private state — nothing is shared unless
//!   it travels through a message;
//! * **typed FIFO channels** (crossbeam) as the interconnect, with
//!   [`NodeCtx::allgather`], [`NodeCtx::barrier`], and point-to-point
//!   [`NodeCtx::send`]/[`NodeCtx::recv`];
//! * **per-node memory meters** with a configurable capacity so the paper's
//!   out-of-memory failure mode ("the computation had to be abandoned at
//!   the 59th iteration") is reproducible;
//! * **per-node phase clocks and work counters**, which the table harnesses
//!   use to report the paper's `gen cand / rank test / communicate / merge`
//!   rows even on a single physical core.
//!
//! ## Abort safety
//!
//! A rank that fails — memory cap, protocol error, or panic — must not
//! strand its peers inside a collective (the MPI analogue: the job
//! scheduler kills every rank when one aborts). The runtime therefore
//! carries a **control plane** next to the data fabric:
//!
//! * the barrier is *poisonable*: the first failure wakes every current and
//!   future waiter with an error instead of blocking forever;
//! * an abort packet is broadcast to every mailbox, so ranks blocked in
//!   [`NodeCtx::recv`] (and every collective built on it) wake up;
//! * every communication primitive returns `Result`, surfacing
//!   [`ClusterError::Aborted`] with the originating rank;
//! * [`run_cluster`] returns the *originating* error — peers' secondary
//!   `Aborted` errors are discarded.

//!
//! ## Degraded-mode failover
//!
//! With [`ClusterConfig::with_failover`] enabled the runtime additionally
//! carries a **liveness layer**: every rank gets a heartbeat thread that
//! both beats on the rank's behalf and watches its peers' last-seen
//! stamps. A rank that dies *silently* (the [`fault::FaultSpec::KillRank`]
//! fault, modelling a node that vanishes without an MPI error) stops
//! beating; the first peer detector to notice declares it dead, advances
//! the **membership epoch**, and converts the loss into a typed
//! [`ClusterError::RankLost`] that wakes every survivor at the current
//! boundary. Data packets are stamped with the epoch they were sent under
//! and receivers drop stale-epoch traffic, so in-flight frames from the
//! old view cannot leak into the new one. The supervisor (crates/efm)
//! then re-enters the run from the last checkpoint with N−1 ranks instead
//! of replaying it — see DESIGN.md §14.

#![warn(missing_docs)]

pub mod crc;
pub mod fault;

pub use fault::{FaultInjector, FaultPlan, FaultSpec, SendFate};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

/// Deadlines and retry budgets for the communication primitives.
///
/// Every wait in the runtime is bounded: a silent peer death can stall a
/// rank for at most the configured deadline before it surfaces a typed
/// [`ClusterError::Timeout`] instead of hanging the run (previously only a
/// CI-level `timeout 900` caught such hangs). The defaults are generous —
/// 300 s — so legitimate long collectives never trip them; chaos tests
/// tighten them to seconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterTimeouts {
    /// Deadline for a blocking [`NodeCtx::recv`] (and every collective
    /// built on it).
    pub recv: Duration,
    /// Deadline for [`NodeCtx::barrier`].
    pub barrier: Duration,
    /// Retry attempts for a transiently failing send before giving up with
    /// [`ClusterError::SendFailed`].
    pub send_retries: u32,
    /// Base backoff between send retries; doubles per attempt
    /// (exponential backoff).
    pub send_retry_base: Duration,
}

impl Default for ClusterTimeouts {
    fn default() -> Self {
        ClusterTimeouts {
            recv: Duration::from_secs(300),
            barrier: Duration::from_secs(300),
            send_retries: 8,
            send_retry_base: Duration::from_millis(1),
        }
    }
}

impl ClusterTimeouts {
    /// A uniform deadline for both `recv` and `barrier`.
    pub fn uniform(deadline: Duration) -> Self {
        ClusterTimeouts { recv: deadline, barrier: deadline, ..Default::default() }
    }
}

/// Cluster-level configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of compute nodes (ranks).
    pub nodes: usize,
    /// Optional per-node memory capacity in bytes. Accounted allocations
    /// beyond this abort the node with [`ClusterError::MemoryExceeded`].
    pub memory_limit: Option<u64>,
    /// Deadlines for blocking primitives and the send retry budget.
    pub timeouts: ClusterTimeouts,
    /// Optional fault injector. Shared (`Arc`) so a supervisor can reuse
    /// one injector across restarts — point faults then fire exactly once
    /// per recovery session, not once per attempt.
    pub injector: Option<Arc<FaultInjector>>,
    /// Enables the heartbeat/liveness layer: a silently dead non-zero rank
    /// is detected by its peers and surfaced as [`ClusterError::RankLost`]
    /// (the supervisor's cue for in-place failover) instead of stalling
    /// the collective until a deadline.
    pub failover: bool,
    /// Heartbeat period for the liveness layer (default 10 ms). The
    /// staleness window is `20 × heartbeat`, floored at 200 ms so OS
    /// scheduler hiccups on loaded CI runners cannot fake a death.
    pub heartbeat: Duration,
}

impl ClusterConfig {
    /// A cluster of `nodes` ranks with unlimited memory, default deadlines,
    /// and no injected faults.
    pub fn new(nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            memory_limit: None,
            timeouts: ClusterTimeouts::default(),
            injector: None,
            failover: false,
            heartbeat: Duration::from_millis(10),
        }
    }

    /// Sets the per-node memory capacity.
    pub fn with_memory_limit(mut self, bytes: u64) -> Self {
        self.memory_limit = Some(bytes);
        self
    }

    /// Sets the communication deadlines and retry budget.
    pub fn with_timeouts(mut self, timeouts: ClusterTimeouts) -> Self {
        self.timeouts = timeouts;
        self
    }

    /// Installs a fault plan (a fresh injector is built from it).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.injector = Some(Arc::new(FaultInjector::new(plan)));
        self
    }

    /// Installs an existing (possibly partially fired) injector.
    pub fn with_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Enables or disables the heartbeat/liveness layer (degraded-mode
    /// failover). Off by default.
    pub fn with_failover(mut self, failover: bool) -> Self {
        self.failover = failover;
        self
    }

    /// Sets the heartbeat period for the liveness layer.
    pub fn with_heartbeat(mut self, heartbeat: Duration) -> Self {
        self.heartbeat = heartbeat;
        self
    }
}

/// Errors surfaced by a cluster run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A node exceeded its memory capacity.
    MemoryExceeded {
        /// Rank that failed.
        rank: usize,
        /// Bytes the failing allocation requested.
        requested: u64,
        /// Bytes already accounted on that node.
        in_use: u64,
        /// The configured capacity.
        limit: u64,
    },
    /// A node panicked; the message is the panic payload when printable.
    NodePanicked {
        /// Rank that panicked.
        rank: usize,
        /// Panic message.
        message: String,
    },
    /// A communication primitive was used inconsistently.
    Protocol(String),
    /// A blocking primitive exceeded its deadline — the failure-detector
    /// signal for a dead or wedged peer (see [`ClusterTimeouts`]).
    Timeout {
        /// Rank whose wait expired.
        rank: usize,
        /// What was being waited on (e.g. `"recv from 2"`, `"barrier"`).
        phase: String,
    },
    /// A planted fault from a [`FaultPlan`] killed this rank.
    InjectedCrash {
        /// Rank that crashed.
        rank: usize,
        /// Fault-point description (phase and iteration).
        at: String,
    },
    /// A planted [`fault::FaultSpec::KillRank`] silently terminated this
    /// rank: unlike [`ClusterError::InjectedCrash`] the death is *not*
    /// propagated through the abort machinery — peers must notice via the
    /// heartbeat detector. This variant only surfaces directly when
    /// failover is disabled (or the victim is rank 0), where it takes the
    /// ordinary retryable-restart path.
    RankKilled {
        /// Rank that was killed.
        rank: usize,
        /// Fault-point description (phase and iteration).
        at: String,
    },
    /// The heartbeat detector declared a rank dead and advanced the
    /// membership epoch. The supervisor treats this as its failover cue:
    /// re-enter the run at the last checkpoint with the survivors.
    RankLost {
        /// Rank declared dead.
        rank: usize,
        /// Membership epoch after the view change.
        epoch: u64,
    },
    /// A data-plane frame failed its CRC-32 header checksum — corruption
    /// in the fabric rather than loss or duplication.
    CorruptFrame {
        /// Sending rank stamped on the frame.
        src: usize,
        /// Receiving rank that detected the corruption.
        dst: usize,
        /// Sequence number carried by the frame (0 for control frames).
        seq: u64,
    },
    /// A send kept failing transiently past the retry budget.
    SendFailed {
        /// Sending rank.
        rank: usize,
        /// Destination rank.
        dst: usize,
        /// Attempts made (including retries).
        attempts: u32,
    },
    /// A sequence gap was observed in the per-sender FIFO stream: at least
    /// one earlier message from `src` was lost in the fabric.
    MessageLost {
        /// Receiving rank that detected the gap.
        rank: usize,
        /// Sender whose stream has the gap.
        src: usize,
        /// Sequence number the receiver expected next.
        expected: u64,
        /// Sequence number that actually arrived.
        got: u64,
    },
    /// The run was aborted by a failure on another rank: a communication
    /// primitive was woken out of its wait instead of blocking forever.
    /// `run_cluster` reports the *originating* error; this variant is what
    /// the surviving ranks' own collectives return on the way out.
    Aborted {
        /// Rank whose failure triggered the abort.
        origin: usize,
        /// Display form of the originating error.
        reason: String,
    },
}

impl ClusterError {
    /// Whether this error is (or propagates) a memory-capacity failure —
    /// the trigger for divide-and-conquer escalation.
    pub fn is_memory_exceeded(&self) -> bool {
        matches!(self, ClusterError::MemoryExceeded { .. })
    }

    /// Whether this error models a transient infrastructure failure — a
    /// crashed, wedged, or unlucky node rather than a broken program — and
    /// a restart of the run can reasonably succeed. Memory exhaustion is
    /// *not* retryable (a restart hits the same wall; it needs
    /// divide-and-conquer escalation), and protocol errors are programming
    /// bugs.
    /// [`ClusterError::RankLost`] is deliberately *not* retryable: it has
    /// its own failover path in the supervisor (re-enter with N−1 ranks),
    /// classified before the retryable check.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ClusterError::Timeout { .. }
                | ClusterError::InjectedCrash { .. }
                | ClusterError::RankKilled { .. }
                | ClusterError::CorruptFrame { .. }
                | ClusterError::SendFailed { .. }
                | ClusterError::MessageLost { .. }
                | ClusterError::NodePanicked { .. }
                | ClusterError::Aborted { .. }
        )
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::MemoryExceeded { rank, requested, in_use, limit } => write!(
                f,
                "rank {rank}: memory capacity exceeded (requested {requested} B on top of {in_use} B, limit {limit} B)"
            ),
            ClusterError::NodePanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            ClusterError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClusterError::Timeout { rank, phase } => {
                write!(f, "rank {rank}: deadline exceeded in {phase}")
            }
            ClusterError::InjectedCrash { rank, at } => {
                write!(f, "rank {rank}: {at}")
            }
            ClusterError::RankKilled { rank, at } => {
                write!(f, "rank {rank}: {at} (silent death)")
            }
            ClusterError::RankLost { rank, epoch } => {
                write!(f, "rank {rank} lost (heartbeat stale; membership epoch now {epoch})")
            }
            ClusterError::CorruptFrame { src, dst, seq } => {
                write!(f, "rank {dst}: corrupt frame from rank {src} (seq {seq}) failed its CRC")
            }
            ClusterError::SendFailed { rank, dst, attempts } => {
                write!(f, "rank {rank}: send to rank {dst} failed after {attempts} attempts")
            }
            ClusterError::MessageLost { rank, src, expected, got } => write!(
                f,
                "rank {rank}: message from rank {src} lost (expected seq {expected}, got {got})"
            ),
            ClusterError::Aborted { origin, reason } => {
                write!(f, "aborted by rank {origin}: {reason}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Per-node accounted memory meter.
///
/// Release-safe: an over-free (double free / stale size) cannot wrap the
/// counter. The balance saturates at zero, the meter is marked poisoned,
/// and the next [`MemoryMeter::alloc`]/[`MemoryMeter::realloc`] surfaces a
/// [`ClusterError::Protocol`] instead of silently disabling (or spuriously
/// tripping) the capacity check.
#[derive(Debug)]
pub struct MemoryMeter {
    current: AtomicU64,
    peak: AtomicU64,
    limit: Option<u64>,
    rank: usize,
    poisoned: AtomicBool,
}

impl MemoryMeter {
    fn new(rank: usize, limit: Option<u64>) -> Self {
        MemoryMeter {
            current: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            limit,
            rank,
            poisoned: AtomicBool::new(false),
        }
    }

    fn check_poisoned(&self) -> Result<(), ClusterError> {
        if self.poisoned.load(Ordering::Relaxed) {
            return Err(ClusterError::Protocol(format!(
                "rank {}: memory meter poisoned by an over-free (free exceeded accounted bytes)",
                self.rank
            )));
        }
        Ok(())
    }

    /// Accounts an allocation of `bytes`. Fails when the capacity would be
    /// exceeded (the allocation is then *not* accounted) or when the meter
    /// was poisoned by an earlier over-free.
    pub fn alloc(&self, bytes: u64) -> Result<(), ClusterError> {
        self.check_poisoned()?;
        let prev = self.current.fetch_add(bytes, Ordering::Relaxed);
        let now = prev + bytes;
        if let Some(limit) = self.limit {
            if now > limit {
                self.current.fetch_sub(bytes, Ordering::Relaxed);
                return Err(ClusterError::MemoryExceeded {
                    rank: self.rank,
                    requested: bytes,
                    in_use: prev,
                    limit,
                });
            }
        }
        self.peak.fetch_max(now, Ordering::Relaxed);
        Ok(())
    }

    /// Releases `bytes` previously accounted. Over-freeing saturates the
    /// balance at zero and poisons the meter; the violation is surfaced as
    /// a [`ClusterError::Protocol`] by the next `alloc`/`realloc`.
    pub fn free(&self, bytes: u64) {
        let mut cur = self.current.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self.current.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    if cur < bytes {
                        self.poisoned.store(true, Ordering::Relaxed);
                    }
                    return;
                }
                Err(observed) => cur = observed,
            }
        }
    }

    /// Adjusts the accounted size from `old` to `new` in one step.
    pub fn realloc(&self, old: u64, new: u64) -> Result<(), ClusterError> {
        if new >= old {
            self.alloc(new - old)
        } else {
            self.free(old - new);
            self.check_poisoned()
        }
    }

    /// Currently accounted bytes.
    pub fn current(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// Peak accounted bytes.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Whether an over-free has poisoned this meter.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }
}

/// One fabric message. Data packets carry a per-(sender→receiver) FIFO
/// sequence number so the receiver can discard duplicated deliveries and
/// detect lost ones (a gap in the stream); control packets (aborts) travel
/// outside the numbered stream. Every packet additionally carries the
/// membership epoch it was sent under (receivers drop stale-epoch data
/// frames after a view change) and a CRC-32 over its header fields, so a
/// frame corrupted in the fabric surfaces as a typed
/// [`ClusterError::CorruptFrame`] instead of being decoded as garbage.
struct Packet {
    from: usize,
    seq: Option<u64>,
    /// Membership epoch at send time; [`CONTROL_EPOCH`] for control frames
    /// (aborts are never stale).
    epoch: u64,
    /// Causal flow id stamped by the sender (see [`efm_obs::next_flow_id`]);
    /// `0` when tracing is disabled. The receiver closes the flow when it
    /// *consumes* the payload, which is what draws the comm arrow between
    /// rank tracks in the merged trace.
    flow: u64,
    /// CRC-32 over `(from, seq, epoch, flow)` — see [`frame_crc`].
    crc: u32,
    payload: Box<dyn Any + Send>,
}

/// Epoch stamp for control-plane frames: never compares less than any real
/// epoch, so aborts survive a view change.
const CONTROL_EPOCH: u64 = u64::MAX;

/// Header checksum of a fabric frame. The payload is a boxed value (never
/// serialized bytes), so the CRC covers the routing header — the part a
/// corrupted/duplicated delivery would garble first.
fn frame_crc(from: usize, seq: Option<u64>, epoch: u64, flow: u64) -> u32 {
    let mut c = crc::Crc32::new();
    c.update(&(from as u64).to_le_bytes());
    c.update(&[seq.is_some() as u8]);
    c.update(&seq.unwrap_or(0).to_le_bytes());
    c.update(&epoch.to_le_bytes());
    c.update(&flow.to_le_bytes());
    c.finish()
}

/// Shared liveness table for one run: per-rank last-beat stamps, exit
/// flags, and the membership epoch. Beats are written by per-rank
/// heartbeat threads (see [`run_cluster`]); detection is a peer noticing a
/// stamp has gone stale while the rank is neither done nor already dead.
struct Membership {
    /// Current membership epoch; advanced by the winning detector on each
    /// declared death.
    epoch: AtomicU64,
    /// Time origin for the beat stamps.
    start: Instant,
    /// Last beat per rank, µs since `start`.
    last_beat: Vec<AtomicU64>,
    /// Rank exited cleanly (or with a propagated error) — exempt from
    /// staleness: silence after a clean exit is not a death.
    done: Vec<AtomicBool>,
    /// Rank died silently (kill fault under failover): its beater stops,
    /// and the stale stamp *is* the detection signal.
    killed: Vec<AtomicBool>,
    /// Rank declared dead by a detector (CAS winner advances the epoch).
    dead: Vec<AtomicBool>,
}

impl Membership {
    fn new(n: usize) -> Self {
        Membership {
            epoch: AtomicU64::new(0),
            start: Instant::now(),
            last_beat: (0..n).map(|_| AtomicU64::new(0)).collect(),
            done: (0..n).map(|_| AtomicBool::new(false)).collect(),
            killed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            dead: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn beat(&self, rank: usize) {
        self.last_beat[rank].store(self.now_us(), Ordering::Relaxed);
    }

    fn mark_done(&self, rank: usize) {
        self.done[rank].store(true, Ordering::Release);
    }

    fn mark_killed(&self, rank: usize) {
        self.killed[rank].store(true, Ordering::Release);
    }

    /// Whether the rank's worker has exited (cleanly or killed) — its
    /// heartbeat thread stops on this.
    fn finished(&self, rank: usize) -> bool {
        self.done[rank].load(Ordering::Acquire) || self.killed[rank].load(Ordering::Acquire)
    }

    fn is_killed(&self, rank: usize) -> bool {
        self.killed[rank].load(Ordering::Acquire)
    }

    /// First silently-killed rank, if any (post-join sweep: a kill at the
    /// final phase can let every survivor finish before detection fires).
    fn first_killed(&self) -> Option<usize> {
        (0..self.killed.len()).find(|&r| self.is_killed(r) && !self.dead[r].load(Ordering::Acquire))
    }

    /// Declares `rank` dead; the CAS winner advances the membership epoch
    /// and returns `true` (exactly one view change per death).
    fn declare_dead(&self, rank: usize) -> bool {
        let won = !self.dead[rank].swap(true, Ordering::AcqRel);
        if won {
            self.epoch.fetch_add(1, Ordering::AcqRel);
        }
        won
    }

    /// Scans for a peer whose beat is older than `window` and that is
    /// neither done nor already declared dead.
    fn find_stale(&self, me: usize, window: Duration) -> Option<usize> {
        let now = self.now_us();
        let window_us = window.as_micros() as u64;
        (0..self.last_beat.len()).find(|&peer| {
            peer != me
                && !self.done[peer].load(Ordering::Acquire)
                && !self.dead[peer].load(Ordering::Acquire)
                && now.saturating_sub(self.last_beat[peer].load(Ordering::Relaxed)) > window_us
        })
    }
}

/// Deterministic, seeded jitter for the exponential send-retry backoff.
///
/// Plain exponential backoff re-collides: in a bulk-synchronous program the
/// ranks run in lockstep, so if two ranks hit a transient send failure at
/// the same instant they retry at the same instant too, forever. The
/// jitter spreads attempt `attempt` uniformly over `[0.5, 1.5)` of the
/// capped exponential delay, derived from SplitMix64 over
/// `(seed, rank, nth, attempt)` — the fault-plan seed keeps chaos runs
/// exactly reproducible.
pub fn backoff_with_jitter(
    base: Duration,
    attempt: u32,
    seed: u64,
    rank: usize,
    nth: u64,
) -> Duration {
    // Exponential, capped at 1 s so a large retry budget cannot sleep for
    // minutes (same cap the un-jittered schedule had).
    let exp = base
        .saturating_mul(1u32 << (attempt.saturating_sub(1)).min(16))
        .min(Duration::from_secs(1));
    let mut state = seed
        ^ (rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ nth.wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ (attempt as u64).wrapping_mul(0x94d0_49bb_1331_11eb);
    let r = fault::splitmix64(&mut state);
    exp / 2 + (exp * ((r % 1024) as u32)) / 1024
}

/// Control-plane marker delivered to every mailbox when a rank aborts; it
/// wakes ranks blocked in `recv` so they can observe the abort flag.
struct AbortPacket;

/// Trace name of the abort flow: a rank-death abort is the view-change
/// edge the failover path pivots on; everything else is a plain abort.
fn abort_flow_name(err: &ClusterError) -> &'static str {
    if matches!(err, ClusterError::RankLost { .. }) {
        "view change"
    } else {
        "abort"
    }
}

struct Fabric {
    /// `senders[dst]` delivers into `dst`'s mailbox.
    senders: Vec<Sender<Packet>>,
}

/// First-failure latch shared by every rank of a run. The winning failure
/// is recorded once; everything after observes it.
struct AbortState {
    flagged: AtomicBool,
    info: Mutex<Option<(usize, ClusterError)>>,
    /// Causal edge from the triggering failure to every rank that observes
    /// it: `(flow id, flow name)`, set once by the winning trigger. Ranks
    /// close the flow the first time they see the abort (whether through a
    /// control packet, a poisoned barrier, or the flag), so the trace shows
    /// the view change fanning out from the detector to the survivors.
    flow: Mutex<Option<(u64, &'static str)>>,
}

impl AbortState {
    fn new() -> Self {
        AbortState {
            flagged: AtomicBool::new(false),
            info: Mutex::new(None),
            flow: Mutex::new(None),
        }
    }

    /// Whether an abort has been triggered (fast path, no lock).
    fn is_flagged(&self) -> bool {
        self.flagged.load(Ordering::Acquire)
    }

    /// The abort's causal flow id and name, if tracing recorded one.
    fn flow(&self) -> Option<(u64, &'static str)> {
        *self.flow.lock()
    }

    /// Records the first failure, poisons the barrier, and wakes every
    /// mailbox with an [`AbortPacket`]. Later failures only keep their own
    /// slot result; the latch is first-writer-wins.
    fn trigger(&self, origin: usize, err: ClusterError, barrier: &PoisonBarrier, fabric: &Fabric) {
        if efm_obs::enabled() {
            efm_obs::instant_dyn(format!("abort: {err}"));
        }
        {
            let mut info = self.info.lock();
            if info.is_none() {
                if efm_obs::enabled() {
                    let name = abort_flow_name(&err);
                    let id = efm_obs::next_flow_id();
                    efm_obs::flow_start(name, id);
                    *self.flow.lock() = Some((id, name));
                }
                *info = Some((origin, err));
            }
        }
        self.flagged.store(true, Ordering::Release);
        barrier.poison();
        for dst in 0..fabric.senders.len() {
            // A closed mailbox just means that rank already exited.
            let _ = fabric.senders[dst].send(Packet {
                from: origin,
                seq: None,
                epoch: CONTROL_EPOCH,
                flow: 0,
                crc: frame_crc(origin, None, CONTROL_EPOCH, 0),
                payload: Box::new(AbortPacket),
            });
        }
    }

    /// The secondary error surviving ranks observe.
    fn aborted_error(&self) -> ClusterError {
        match &*self.info.lock() {
            Some((origin, err)) => {
                ClusterError::Aborted { origin: *origin, reason: err.to_string() }
            }
            // The flag is only ever raised after the latch is filled, but
            // stay defensive rather than panicking inside error handling.
            None => ClusterError::Aborted { origin: usize::MAX, reason: "unknown".into() },
        }
    }

    /// The originating failure, if any.
    fn take_origin_error(&self) -> Option<ClusterError> {
        self.info.lock().take().map(|(_, e)| e)
    }
}

/// A counting barrier whose waiters can be released early ("poisoned") by
/// an aborting rank. Poisoning is permanent: current waiters wake with an
/// error and future waiters fail immediately.
struct PoisonBarrier {
    total: usize,
    state: StdMutex<BarrierState>,
    cvar: Condvar,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    poisoned: bool,
    /// Flow id of the most recent release (0 = untraced). The releasing
    /// rank starts the flow; woken waiters close it, so the trace shows
    /// the release fanning out from the last arriver to every waiter.
    release_flow: u64,
}

/// Why a barrier wait returned early.
enum BarrierFailure {
    Poisoned,
    TimedOut,
}

impl PoisonBarrier {
    fn new(total: usize) -> Self {
        PoisonBarrier {
            total,
            state: StdMutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                poisoned: false,
                release_flow: 0,
            }),
            cvar: Condvar::new(),
        }
    }

    /// Blocks until all ranks arrive, the barrier is poisoned, or the
    /// deadline passes. A timed-out waiter withdraws its arrival so the
    /// round stays consistent for the remaining ranks (its own failure then
    /// aborts the run through the usual propagation).
    fn wait_deadline(&self, timeout: Duration) -> Result<(), BarrierFailure> {
        let deadline = Instant::now() + timeout;
        let mut s = self.state.lock().expect("barrier lock");
        if s.poisoned {
            return Err(BarrierFailure::Poisoned);
        }
        s.arrived += 1;
        if s.arrived == self.total {
            s.arrived = 0;
            s.generation = s.generation.wrapping_add(1);
            // The last arriver releases the round: start the causal flow the
            // woken waiters close. (With one rank there is nobody to wake;
            // the unmatched start would be dropped at export anyway.)
            if efm_obs::enabled() && self.total > 1 {
                let id = efm_obs::next_flow_id();
                efm_obs::flow_start("barrier release", id);
                s.release_flow = id;
            }
            self.cvar.notify_all();
            return Ok(());
        }
        let gen = s.generation;
        while s.generation == gen && !s.poisoned {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                s.arrived -= 1;
                return Err(BarrierFailure::TimedOut);
            }
            (s, _) = self.cvar.wait_timeout(s, remaining).expect("barrier wait");
        }
        // A round that completed before the poison still counts as passed.
        if s.generation == gen {
            Err(BarrierFailure::Poisoned)
        } else {
            // Woken by a release: close the releaser's flow. The id cannot
            // belong to a later round — the next release needs this rank to
            // arrive again, which it has not.
            efm_obs::flow_end("barrier release", s.release_flow);
            Ok(())
        }
    }

    fn poison(&self) {
        let mut s = self.state.lock().expect("barrier lock");
        s.poisoned = true;
        drop(s);
        self.cvar.notify_all();
    }
}

/// Per-node phase instrumentation: wall-clock per phase plus abstract work
/// counters (used for modeled scaling on machines with fewer physical cores
/// than simulated ranks).
#[derive(Debug, Default)]
pub struct PhaseStats {
    times: Mutex<HashMap<&'static str, Duration>>,
    work: Mutex<HashMap<&'static str, u64>>,
}

impl PhaseStats {
    /// Accumulated wall time per phase.
    pub fn times(&self) -> HashMap<&'static str, Duration> {
        self.times.lock().clone()
    }

    /// Accumulated work units per phase.
    pub fn work(&self) -> HashMap<&'static str, u64> {
        self.work.lock().clone()
    }
}

/// RAII guard accumulating elapsed time into a phase on drop. Also holds
/// an [`efm_obs`] span so every timed phase shows up as a slice on the
/// rank's trace track (inert unless tracing is enabled).
pub struct PhaseTimer<'a> {
    stats: &'a PhaseStats,
    phase: &'static str,
    start: Instant,
    _span: efm_obs::Span,
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        *self.stats.times.lock().entry(self.phase).or_default() += elapsed;
    }
}

/// A packet parked out of order: sender rank, flow id, payload.
type ParkedPacket = (usize, u64, Box<dyn Any + Send>);

/// Handle a node's code uses to talk to the rest of the simulated cluster.
pub struct NodeCtx<'a> {
    rank: usize,
    size: usize,
    fabric: &'a Fabric,
    mailbox: Receiver<Packet>,
    /// Out-of-order packets parked until a matching `recv` (sequence
    /// numbers already validated and consumed at mailbox-pull time). Each
    /// entry keeps the sender's flow id so the comm arrow lands where the
    /// payload is consumed, not where it was pulled off the mailbox.
    parked: Mutex<Vec<ParkedPacket>>,
    barrier: &'a PoisonBarrier,
    abort: &'a AbortState,
    membership: &'a Membership,
    meter: &'a MemoryMeter,
    stats: &'a PhaseStats,
    timeouts: &'a ClusterTimeouts,
    injector: Option<&'a FaultInjector>,
    failover: bool,
    /// Total sends performed by this rank (fault addressing).
    send_count: AtomicU64,
    /// Next sequence number per destination (sender side).
    send_seq: Vec<AtomicU64>,
    /// Next expected sequence number per source (receiver side).
    recv_expect: Vec<AtomicU64>,
    /// Duplicate deliveries discarded by the sequence check.
    dups_dropped: AtomicU64,
    /// Stale-epoch data frames discarded after a view change.
    stale_dropped: AtomicU64,
    /// This rank already closed the run's abort flow (one arrow per rank).
    abort_flow_closed: AtomicBool,
}

impl<'a> NodeCtx<'a> {
    /// This node's rank (0-based).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the cluster.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The node's memory meter.
    pub fn memory(&self) -> &MemoryMeter {
        self.meter
    }

    /// Starts a phase timer; elapsed time accumulates on drop.
    pub fn timed(&self, phase: &'static str) -> PhaseTimer<'a> {
        PhaseTimer { stats: self.stats, phase, start: Instant::now(), _span: efm_obs::span(phase) }
    }

    /// Adds abstract work units to a phase counter.
    pub fn add_work(&self, phase: &'static str, units: u64) {
        *self.stats.work.lock().entry(phase).or_default() += units;
    }

    /// Adds already-measured elapsed time to a phase counter — for callers
    /// whose phases interleave at sub-timer granularity (the streaming
    /// generation pipeline runs all its phases per batch and accumulates
    /// durations itself, where one [`NodeCtx::timed`] guard per phase
    /// would misattribute the interleaving).
    pub fn add_time(&self, phase: &'static str, elapsed: Duration) {
        *self.stats.times.lock().entry(phase).or_default() += elapsed;
    }

    /// The secondary error reported after another rank's abort. The first
    /// observation on this rank closes the abort/view-change flow, drawing
    /// the causal arrow from the trigger (a failing rank or the winning
    /// heartbeat detector) to this rank's track.
    fn aborted(&self) -> ClusterError {
        if efm_obs::enabled() && !self.abort_flow_closed.swap(true, Ordering::Relaxed) {
            if let Some((id, name)) = self.abort.flow() {
                efm_obs::flow_end(name, id);
            }
        }
        self.abort.aborted_error()
    }

    /// Blocks until every rank reaches the barrier, until the run is
    /// aborted by a failing rank (the barrier is then poisoned and every
    /// waiter — current and future — returns [`ClusterError::Aborted`]),
    /// or until the default deadline ([`ClusterTimeouts::barrier`]) passes
    /// and [`ClusterError::Timeout`] reports the wedged collective.
    pub fn barrier(&self) -> Result<(), ClusterError> {
        self.barrier_deadline(self.timeouts.barrier)
    }

    /// [`NodeCtx::barrier`] with an explicit deadline.
    pub fn barrier_deadline(&self, timeout: Duration) -> Result<(), ClusterError> {
        let _span = efm_obs::span("barrier wait");
        let start = Instant::now();
        let result = self.barrier.wait_deadline(timeout);
        efm_obs::hist::record("barrier wait us", start.elapsed().as_micros() as u64);
        match result {
            Ok(()) => Ok(()),
            Err(BarrierFailure::Poisoned) => Err(self.aborted()),
            Err(BarrierFailure::TimedOut) => {
                Err(ClusterError::Timeout { rank: self.rank, phase: "barrier".to_string() })
            }
        }
    }

    /// A fault-injection hook: engines call this at phase boundaries with a
    /// label and iteration index. With no injector installed it is a no-op;
    /// otherwise planted stragglers sleep here and planted crashes fire as
    /// [`ClusterError::InjectedCrash`].
    pub fn fault_point(&self, phase: &str, iteration: u64) -> Result<(), ClusterError> {
        let Some(inj) = self.injector else {
            return Ok(());
        };
        let straggle = inj.straggle_millis(self.rank);
        if straggle > 0 {
            // A span (not just an instant) so the critical-path analyzer can
            // attribute the stall to the straggler category by enclosure.
            let _sp = efm_obs::span("straggle");
            if efm_obs::enabled() {
                efm_obs::instant_dyn(format!("fault: straggle {straggle}ms @{phase}"));
            }
            std::thread::sleep(Duration::from_millis(straggle));
        }
        if let Some(at) = inj.crash_at(self.rank, phase, iteration) {
            if efm_obs::enabled() {
                efm_obs::instant_dyn(format!("fault: crash @{at}"));
            }
            return Err(ClusterError::InjectedCrash { rank: self.rank, at });
        }
        if let Some(at) = inj.kill_at(self.rank, phase, iteration) {
            if efm_obs::enabled() {
                efm_obs::instant_dyn(format!("fault: kill @{at}"));
            }
            return Err(ClusterError::RankKilled { rank: self.rank, at });
        }
        Ok(())
    }

    /// Records `bytes` of payload about to travel on this rank's link to
    /// `dst`. The cluster fabric moves boxed values, not serialized bytes,
    /// so senders that know their payload's true size (the engine knows
    /// its candidate buffers') report it here; the per-(src→dst) counters
    /// feed the merged trace and the `comm bytes` total.
    pub fn note_traffic(&self, dst: usize, bytes: u64) {
        if efm_obs::enabled() {
            efm_obs::counter_add_dyn(format!("link {}->{} bytes", self.rank, dst), bytes);
            efm_obs::counter_add("comm bytes", bytes);
        }
    }

    /// Delivers an already-numbered packet into `dst`'s mailbox.
    fn deliver<M: Send + 'static>(&self, dst: usize, seq: u64, msg: M) -> Result<(), ClusterError> {
        let mut flow = 0u64;
        if efm_obs::enabled() {
            efm_obs::counter_add_dyn(format!("link {}->{} msgs", self.rank, dst), 1);
            efm_obs::counter_add("comm msgs", 1);
            // Stamp the frame with a causal flow: started here on the
            // sender's track, closed where the receiver consumes the
            // payload. A duplicated delivery reuses the duplicate's id and
            // the discarded copy simply never closes.
            flow = efm_obs::next_flow_id();
            efm_obs::flow_start_dyn(format!("msg {}->{}", self.rank, dst), flow);
        }
        let epoch = self.membership.epoch();
        self.fabric.senders[dst]
            .send(Packet {
                from: self.rank,
                seq: Some(seq),
                epoch,
                flow,
                crc: frame_crc(self.rank, Some(seq), epoch, flow),
                payload: Box::new(msg),
            })
            .map_err(|_| {
                if self.abort.is_flagged() {
                    self.aborted()
                } else if self.failover && self.membership.is_killed(dst) {
                    // The sender discovered the death before the heartbeat
                    // window elapsed: declare it here and surface the
                    // failover cue immediately.
                    self.membership.declare_dead(dst);
                    ClusterError::RankLost { rank: dst, epoch: self.membership.epoch() }
                } else {
                    ClusterError::Protocol(format!(
                        "rank {}: send to rank {dst} failed (mailbox closed — peer already exited)",
                        self.rank
                    ))
                }
            })
    }

    /// Sends a message to `dst` (FIFO per sender→receiver pair). Fails with
    /// [`ClusterError::Aborted`] when the run is aborting, and with
    /// [`ClusterError::Protocol`] when `dst` has already exited and dropped
    /// its mailbox — senders observe the failure instead of crashing.
    ///
    /// Under fault injection the send may be dropped, duplicated, delayed,
    /// or fail transiently; transient failures are retried with exponential
    /// backoff up to [`ClusterTimeouts::send_retries`] attempts before
    /// surfacing [`ClusterError::SendFailed`].
    pub fn send<M: Clone + Send + 'static>(&self, dst: usize, msg: M) -> Result<(), ClusterError> {
        assert!(dst < self.size, "send to out-of-range rank");
        let nth = self.send_count.fetch_add(1, Ordering::Relaxed);
        let mut attempts: u32 = 0;
        loop {
            if self.abort.is_flagged() {
                return Err(self.aborted());
            }
            attempts += 1;
            let fate = match self.injector {
                Some(inj) => inj.on_send_attempt(self.rank, nth),
                None => SendFate::Deliver,
            };
            match fate {
                SendFate::Transient => {
                    if attempts > self.timeouts.send_retries {
                        return Err(ClusterError::SendFailed { rank: self.rank, dst, attempts });
                    }
                    // Exponential backoff with seeded jitter: lockstep ranks
                    // that failed together must not retry together.
                    let seed = self.injector.map_or(0, |i| i.plan().seed);
                    let pause = backoff_with_jitter(
                        self.timeouts.send_retry_base,
                        attempts,
                        seed,
                        self.rank,
                        nth,
                    );
                    efm_obs::hist::record("send backoff us", pause.as_micros() as u64);
                    std::thread::sleep(pause);
                }
                SendFate::Drop => {
                    // The fabric swallows the message: consume the sequence
                    // number so the receiver can detect the gap.
                    if efm_obs::enabled() {
                        efm_obs::instant_dyn(format!("fault: dropped send to {dst}"));
                    }
                    self.send_seq[dst].fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                SendFate::Duplicate => {
                    let seq = self.send_seq[dst].fetch_add(1, Ordering::Relaxed);
                    self.deliver(dst, seq, msg.clone())?;
                    return self.deliver(dst, seq, msg);
                }
                SendFate::DelayMs(ms) => {
                    std::thread::sleep(Duration::from_millis(ms));
                    let seq = self.send_seq[dst].fetch_add(1, Ordering::Relaxed);
                    return self.deliver(dst, seq, msg);
                }
                SendFate::Deliver => {
                    let seq = self.send_seq[dst].fetch_add(1, Ordering::Relaxed);
                    return self.deliver(dst, seq, msg);
                }
            }
        }
    }

    /// Validates a pulled packet's sequence number. Returns `Ok(false)` for
    /// a duplicate (discard silently), `Ok(true)` for an in-order packet,
    /// and [`ClusterError::MessageLost`] on a gap (an earlier message from
    /// this sender was dropped by the fabric).
    fn check_seq(&self, from: usize, seq: u64) -> Result<bool, ClusterError> {
        let expected = self.recv_expect[from].load(Ordering::Relaxed);
        if seq < expected {
            self.dups_dropped.fetch_add(1, Ordering::Relaxed);
            return Ok(false);
        }
        if seq > expected {
            return Err(ClusterError::MessageLost {
                rank: self.rank,
                src: from,
                expected,
                got: seq,
            });
        }
        self.recv_expect[from].store(expected + 1, Ordering::Relaxed);
        Ok(true)
    }

    /// Duplicate deliveries the sequence check has discarded on this rank.
    pub fn duplicates_dropped(&self) -> u64 {
        self.dups_dropped.load(Ordering::Relaxed)
    }

    /// Stale-epoch data frames discarded on this rank after a view change.
    pub fn stale_frames_dropped(&self) -> u64 {
        self.stale_dropped.load(Ordering::Relaxed)
    }

    /// Receives the next message of type `M` from rank `src` within the
    /// default deadline ([`ClusterTimeouts::recv`]). Messages of other
    /// types or sources are parked, preserving per-sender order. Wakes with
    /// [`ClusterError::Aborted`] when a failing rank aborts the run while
    /// this rank is blocked, and with [`ClusterError::Timeout`] when the
    /// deadline passes — a silent peer death can no longer hang a run.
    pub fn recv<M: Send + 'static>(&self, src: usize) -> Result<M, ClusterError> {
        self.recv_deadline(src, self.timeouts.recv)
    }

    /// [`NodeCtx::recv`] with an explicit deadline.
    pub fn recv_deadline<M: Send + 'static>(
        &self,
        src: usize,
        timeout: Duration,
    ) -> Result<M, ClusterError> {
        // Check parked packets first.
        {
            let mut parked = self.parked.lock();
            if let Some(pos) = parked.iter().position(|(from, _, b)| *from == src && b.is::<M>()) {
                let (from, flow, b) = parked.remove(pos);
                drop(parked);
                self.close_msg_flow(from, flow);
                return Ok(*b.downcast::<M>().unwrap());
            }
        }
        let deadline = Instant::now() + timeout;
        loop {
            let packet = if self.abort.is_flagged() {
                // Drain what already arrived before honouring the abort:
                // a peer that finished this collective and then failed
                // further on sent its data *before* its abort, so the
                // payload is queued (per-sender FIFO) and this rank can
                // still complete a round every rank finished — e.g. rank 0
                // writing the snapshot of the last complete iteration.
                match self.mailbox.try_recv() {
                    Ok(p) => p,
                    Err(_) => return Err(self.aborted()),
                }
            } else {
                let remaining = deadline.saturating_duration_since(Instant::now());
                let timeout_err =
                    || ClusterError::Timeout { rank: self.rank, phase: format!("recv from {src}") };
                if remaining.is_zero() {
                    return Err(timeout_err());
                }
                match self.mailbox.recv_timeout(remaining) {
                    Ok(p) => p,
                    Err(RecvTimeoutError::Timeout) => return Err(timeout_err()),
                    // All senders gone: only possible when the run is
                    // tearing down, which implies an abort is in flight.
                    Err(RecvTimeoutError::Disconnected) => return Err(self.aborted()),
                }
            };
            if packet.crc != frame_crc(packet.from, packet.seq, packet.epoch, packet.flow) {
                return Err(ClusterError::CorruptFrame {
                    src: packet.from,
                    dst: self.rank,
                    seq: packet.seq.unwrap_or(0),
                });
            }
            if packet.payload.is::<AbortPacket>() {
                return Err(self.aborted());
            }
            if packet.epoch < self.membership.epoch() {
                // Traffic from a pre-view-change epoch: the sender's view
                // included a rank that is now dead. Consume the sequence
                // number (the frame *was* delivered, merely obsolete) so
                // in-epoch traffic behind it is not mistaken for a gap.
                if let Some(seq) = packet.seq {
                    self.recv_expect[packet.from].fetch_max(seq + 1, Ordering::Relaxed);
                }
                self.stale_dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if let Some(seq) = packet.seq {
                if !self.check_seq(packet.from, seq)? {
                    continue; // duplicate delivery, discard
                }
            }
            if packet.from == src && packet.payload.is::<M>() {
                self.close_msg_flow(packet.from, packet.flow);
                return Ok(*packet.payload.downcast::<M>().unwrap());
            }
            self.parked.lock().push((packet.from, packet.flow, packet.payload));
        }
    }

    /// Closes a data-frame flow at its consumption point (the receiver's
    /// matching `recv`), completing the sender-started arrow.
    fn close_msg_flow(&self, from: usize, flow: u64) {
        if flow != 0 && efm_obs::enabled() {
            efm_obs::flow_end_dyn(format!("msg {}->{}", from, self.rank), flow);
        }
    }

    /// All-to-all collective: every rank contributes `local`; returns the
    /// contributions of all ranks indexed by rank. Every rank must call
    /// this the same number of times in the same order.
    pub fn allgather<M: Clone + Send + 'static>(&self, local: M) -> Result<Vec<M>, ClusterError> {
        let _span = efm_obs::span("allgather");
        for dst in 0..self.size {
            if dst != self.rank {
                self.send(dst, local.clone())?;
            }
        }
        let mut out: Vec<Option<M>> = (0..self.size).map(|_| None).collect();
        out[self.rank] = Some(local);
        // The receive loop is the collective's synchronization point: a
        // rank blocks here until every peer has sent, so the span length
        // is the time spent waiting on stragglers.
        let wait = efm_obs::span("barrier wait");
        let wait_start = Instant::now();
        for (src, slot) in out.iter_mut().enumerate() {
            if src != self.rank {
                *slot = Some(self.recv::<M>(src)?);
            }
        }
        efm_obs::hist::record("barrier wait us", wait_start.elapsed().as_micros() as u64);
        drop(wait);
        Ok(out.into_iter().map(Option::unwrap).collect())
    }

    /// Streaming all-to-all collective: every rank contributes `local` and
    /// folds the contributions of all ranks **in rank order** with `fold`,
    /// holding at most the accumulator plus one in-flight contribution —
    /// never the full `Vec` of all stripes that [`NodeCtx::allgather`]
    /// materializes. With an order-insensitive `fold` (a sorted merge
    /// keeping the lower rank's copy on equal keys, say) the result is
    /// identical to folding the allgather vector left to right.
    ///
    /// The wire pattern (send to all peers, then receive per source in
    /// rank order) is exactly [`NodeCtx::allgather`]'s, so the two are
    /// interchangeable within a run. Every rank must call collectives in
    /// the same order.
    pub fn allgather_fold<M, A>(
        &self,
        local: M,
        init: A,
        mut fold: impl FnMut(A, usize, M) -> Result<A, ClusterError>,
    ) -> Result<A, ClusterError>
    where
        M: Clone + Send + 'static,
    {
        let _span = efm_obs::span("allgather");
        for dst in 0..self.size {
            if dst != self.rank {
                self.send(dst, local.clone())?;
            }
        }
        // Receive in rank order, folding each contribution as it lands and
        // releasing it before the next is pulled. The wait span covers the
        // straggler synchronization exactly like the materialized variant.
        let wait = efm_obs::span("barrier wait");
        let wait_start = Instant::now();
        let mut local = Some(local);
        let mut acc = init;
        for src in 0..self.size {
            let contribution =
                if src == self.rank { local.take().unwrap() } else { self.recv::<M>(src)? };
            acc = fold(acc, src, contribution)?;
        }
        efm_obs::hist::record("barrier wait us", wait_start.elapsed().as_micros() as u64);
        drop(wait);
        Ok(acc)
    }

    /// Reduction collective: combines every rank's `local` with `op` (the
    /// result is identical on every rank).
    pub fn allreduce<M: Clone + Send + 'static>(
        &self,
        local: M,
        op: impl Fn(M, M) -> M,
    ) -> Result<M, ClusterError> {
        let _span = efm_obs::span("allreduce");
        let all = self.allgather(local)?;
        let mut it = all.into_iter();
        let first = it.next().expect("cluster has at least one rank");
        Ok(it.fold(first, op))
    }

    /// One-to-all broadcast: rank `root` supplies the value (others pass
    /// anything, conventionally `None`); every rank returns the root's
    /// value.
    pub fn broadcast<M: Clone + Send + 'static>(
        &self,
        root: usize,
        local: Option<M>,
    ) -> Result<M, ClusterError> {
        assert!(root < self.size, "broadcast root out of range");
        let _span = efm_obs::span("broadcast");
        if self.rank == root {
            let v = local.expect("root must supply the broadcast value");
            for dst in 0..self.size {
                if dst != self.rank {
                    self.send(dst, v.clone())?;
                }
            }
            Ok(v)
        } else {
            self.recv::<M>(root)
        }
    }

    /// All-to-one gather: returns `Some(values by rank)` on `root`, `None`
    /// elsewhere.
    pub fn gather<M: Clone + Send + 'static>(
        &self,
        root: usize,
        local: M,
    ) -> Result<Option<Vec<M>>, ClusterError> {
        assert!(root < self.size, "gather root out of range");
        let _span = efm_obs::span("gather");
        if self.rank == root {
            let mut out: Vec<Option<M>> = (0..self.size).map(|_| None).collect();
            out[self.rank] = Some(local);
            for (src, slot) in out.iter_mut().enumerate() {
                if src != self.rank {
                    *slot = Some(self.recv::<M>(src)?);
                }
            }
            Ok(Some(out.into_iter().map(Option::unwrap).collect()))
        } else {
            self.send(root, local)?;
            Ok(None)
        }
    }

    /// One-to-all scatter: `root` supplies one value per rank; every rank
    /// returns its slot.
    pub fn scatter<M: Clone + Send + 'static>(
        &self,
        root: usize,
        items: Option<Vec<M>>,
    ) -> Result<M, ClusterError> {
        assert!(root < self.size, "scatter root out of range");
        let _span = efm_obs::span("scatter");
        if self.rank == root {
            let items = items.expect("root must supply the scatter items");
            assert_eq!(items.len(), self.size, "scatter needs one item per rank");
            let mut mine = None;
            for (dst, item) in items.into_iter().enumerate() {
                if dst == self.rank {
                    mine = Some(item);
                } else {
                    self.send(dst, item)?;
                }
            }
            Ok(mine.expect("root keeps its own slot"))
        } else {
            self.recv::<M>(root)
        }
    }
}

/// A node's result together with its instrumentation.
#[derive(Debug, Clone)]
pub struct NodeReport<T> {
    /// The node's rank.
    pub rank: usize,
    /// Value returned by the node body.
    pub value: T,
    /// Wall time accumulated per phase.
    pub phase_times: HashMap<&'static str, Duration>,
    /// Work units accumulated per phase.
    pub phase_work: HashMap<&'static str, u64>,
    /// Peak accounted memory in bytes.
    pub peak_memory: u64,
}

/// Runs `body` on every rank of a simulated cluster and collects reports.
///
/// The first failure (memory exhaustion, protocol error, panic) aborts the
/// whole run *promptly*: the failing rank poisons the barrier and wakes
/// every mailbox, so peers blocked in any collective return
/// [`ClusterError::Aborted`] instead of hanging, the thread scope joins,
/// and the originating error is returned. This mirrors an MPI job killed
/// by one rank's failure.
pub fn run_cluster<T, F>(
    config: &ClusterConfig,
    body: F,
) -> Result<Vec<NodeReport<T>>, ClusterError>
where
    T: Send,
    F: Fn(&NodeCtx) -> Result<T, ClusterError> + Sync,
{
    assert!(config.nodes >= 1, "cluster needs at least one node");
    let n = config.nodes;
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (s, r) = unbounded::<Packet>();
        senders.push(s);
        receivers.push(r);
    }
    let fabric = Fabric { senders };
    let barrier = PoisonBarrier::new(n);
    let abort = AbortState::new();
    let membership = Membership::new(n);
    let meters: Vec<MemoryMeter> =
        (0..n).map(|r| MemoryMeter::new(r, config.memory_limit)).collect();
    let stats: Vec<PhaseStats> = (0..n).map(|_| PhaseStats::default()).collect();
    let results: Vec<Mutex<Option<Result<T, ClusterError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let receivers: Vec<Mutex<Option<Receiver<Packet>>>> =
        receivers.into_iter().map(|r| Mutex::new(Some(r))).collect();

    // Heartbeat staleness window: generous relative to the beat period,
    // floored so OS scheduler hiccups on loaded runners cannot fake a
    // death. Detection latency stays well under every recv/barrier
    // deadline, so the typed RankLost beats any Timeout to the latch.
    let stale_window = config.heartbeat.saturating_mul(20).max(Duration::from_millis(200));

    // Attempt flow: caller thread → every rank thread it spawns. This is
    // the happens-before edge that lets the critical-path analyzer walk
    // from a restarted attempt back through the supervisor to the failure
    // that caused it (supervisor respawns are otherwise invisible gaps).
    let attempt_flow = if efm_obs::enabled() {
        let id = efm_obs::next_flow_id();
        efm_obs::flow_start("attempt", id);
        id
    } else {
        0
    };

    std::thread::scope(|scope| {
        for rank in 0..n {
            let fabric = &fabric;
            let barrier = &barrier;
            let abort = &abort;
            let membership = &membership;
            let meter = &meters[rank];
            let stat = &stats[rank];
            let slot = &results[rank];
            let mailbox = receivers[rank].lock().take().expect("mailbox taken once");
            let body = &body;
            scope.spawn(move || {
                // One trace track per rank (tid == rank): this is what
                // merges a cluster run into a single multi-track trace.
                if efm_obs::enabled() {
                    efm_obs::set_track(rank as u32, &format!("rank {rank}"));
                    efm_obs::flow_end("attempt", attempt_flow);
                }
                // Progress lines from this thread say which rank they
                // belong to (multi-rank runs interleave on stderr).
                if efm_obs::progress::progress_enabled() {
                    efm_obs::progress::set_progress_context(Some(format!("rank {rank}")));
                }
                let ctx = NodeCtx {
                    rank,
                    size: n,
                    fabric,
                    mailbox,
                    parked: Mutex::new(Vec::new()),
                    barrier,
                    abort,
                    membership,
                    meter,
                    stats: stat,
                    timeouts: &config.timeouts,
                    injector: config.injector.as_deref(),
                    failover: config.failover,
                    send_count: AtomicU64::new(0),
                    send_seq: (0..n).map(|_| AtomicU64::new(0)).collect(),
                    recv_expect: (0..n).map(|_| AtomicU64::new(0)).collect(),
                    dups_dropped: AtomicU64::new(0),
                    stale_dropped: AtomicU64::new(0),
                    abort_flow_closed: AtomicBool::new(false),
                };
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&ctx)));
                let failure = match &out {
                    Ok(Err(e)) => Some(e.clone()),
                    Err(payload) => {
                        let message = payload
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "<non-string panic>".to_string());
                        Some(ClusterError::NodePanicked { rank, message })
                    }
                    Ok(Ok(_)) => None,
                };
                match failure {
                    // A silent kill under failover: the rank just stops —
                    // no abort, no barrier poison. Its heartbeat goes
                    // stale and a peer detector declares the death. Rank 0
                    // (the coordinator) is never silently lost: its death
                    // takes the ordinary abort → restart-ladder path.
                    Some(ClusterError::RankKilled { .. })
                        if config.failover && n > 1 && rank != 0 =>
                    {
                        membership.mark_killed(rank);
                        if efm_obs::enabled() {
                            efm_obs::instant_dyn(format!("fault: rank {rank} died silently"));
                        }
                    }
                    Some(err) => {
                        // Secondary Aborted errors never displace the
                        // original failure: the latch is first-writer-wins,
                        // and a rank woken by someone else's abort reports
                        // Aborted here.
                        membership.mark_done(rank);
                        abort.trigger(rank, err, barrier, fabric);
                    }
                    None => membership.mark_done(rank),
                }
                if let Ok(r) = out {
                    *slot.lock() = Some(r);
                }
            });
        }
        // The liveness layer: one beater/detector thread per rank. It
        // beats on the rank's behalf every heartbeat (so a busy compute
        // loop never looks dead) and scans peers for stale stamps. The
        // winning detector advances the membership epoch and triggers the
        // abort machinery with RankLost — barrier poison plus abort
        // packets ARE the view-change wake-up: every survivor blocked in
        // a collective returns at the current boundary, and the
        // supervisor re-enters with the agreed N−1 membership.
        if config.failover && n > 1 {
            for rank in 0..n {
                let fabric = &fabric;
                let barrier = &barrier;
                let abort = &abort;
                let membership = &membership;
                let heartbeat = config.heartbeat;
                scope.spawn(move || loop {
                    if membership.finished(rank) || abort.is_flagged() {
                        return;
                    }
                    membership.beat(rank);
                    if let Some(dead) = membership.find_stale(rank, stale_window) {
                        if membership.declare_dead(dead) {
                            let epoch = membership.epoch();
                            if efm_obs::enabled() {
                                efm_obs::instant_dyn(format!(
                                    "failover: rank {dead} lost, membership epoch {epoch}"
                                ));
                            }
                            abort.trigger(
                                rank,
                                ClusterError::RankLost { rank: dead, epoch },
                                barrier,
                                fabric,
                            );
                        }
                        return;
                    }
                    std::thread::sleep(heartbeat);
                });
            }
        }
    });

    if let Some(err) = abort.take_origin_error() {
        // The caller observes the abort here: one more arrival on its
        // track closes the abort/view-change flow at the exact timestamp
        // the failure reached the supervisor (the export picks the
        // latest arrival as the arrowhead).
        if let Some((id, name)) = abort.flow() {
            efm_obs::flow_end(name, id);
        }
        return Err(err);
    }

    // A kill at the very last phase can let every survivor finish before
    // the heartbeat window elapses: no detector fired, but the dead rank
    // produced no result. Synthesize the view change here so the caller
    // still sees the failover cue rather than an untyped protocol error.
    if config.failover {
        if let Some(dead) = membership.first_killed() {
            membership.declare_dead(dead);
            return Err(ClusterError::RankLost { rank: dead, epoch: membership.epoch() });
        }
    }

    let mut reports = Vec::with_capacity(n);
    for (rank, slot) in results.iter().enumerate() {
        let value = slot
            .lock()
            .take()
            .ok_or_else(|| ClusterError::Protocol(format!("rank {rank} produced no result")))??;
        reports.push(NodeReport {
            rank,
            value,
            phase_times: stats[rank].times(),
            phase_work: stats[rank].work(),
            peak_memory: meters[rank].peak(),
        });
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_runs() {
        let reports = run_cluster(&ClusterConfig::new(1), |ctx| {
            assert_eq!(ctx.rank(), 0);
            assert_eq!(ctx.size(), 1);
            Ok(ctx.rank() * 10)
        })
        .unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].value, 0);
    }

    #[test]
    fn allgather_orders_by_rank() {
        let reports = run_cluster(&ClusterConfig::new(4), |ctx| {
            let all = ctx.allgather(ctx.rank() as u64 * 100)?;
            Ok(all)
        })
        .unwrap();
        for rep in reports {
            assert_eq!(rep.value, vec![0, 100, 200, 300]);
        }
    }

    #[test]
    fn repeated_collectives_do_not_mix() {
        let reports = run_cluster(&ClusterConfig::new(3), |ctx| {
            let mut sums = Vec::new();
            for round in 0..10u64 {
                let all = ctx.allgather(round * 10 + ctx.rank() as u64)?;
                sums.push(all.iter().sum::<u64>());
            }
            Ok(sums)
        })
        .unwrap();
        let expect: Vec<u64> = (0..10u64).map(|r| 3 * (r * 10) + 3).collect();
        for rep in reports {
            assert_eq!(rep.value, expect);
        }
    }

    #[test]
    fn point_to_point_roundtrip() {
        let reports = run_cluster(&ClusterConfig::new(2), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, String::from("ping"))?;
                ctx.recv::<String>(1)
            } else {
                let m = ctx.recv::<String>(0)?;
                ctx.send(0, format!("{m}-pong"))?;
                Ok(m)
            }
        })
        .unwrap();
        assert_eq!(reports[0].value, "ping-pong");
        assert_eq!(reports[1].value, "ping");
    }

    #[test]
    fn recv_distinguishes_types_and_sources() {
        let reports = run_cluster(&ClusterConfig::new(3), |ctx| {
            match ctx.rank() {
                0 => {
                    // Receive u32 from 2 first even though 1 may arrive first.
                    let a = ctx.recv::<u32>(2)?;
                    let b = ctx.recv::<u32>(1)?;
                    let s = ctx.recv::<String>(1)?;
                    Ok(format!("{a}-{b}-{s}"))
                }
                1 => {
                    ctx.send(0, 11u32)?;
                    ctx.send(0, String::from("x"))?;
                    Ok(String::new())
                }
                _ => {
                    ctx.send(0, 22u32)?;
                    Ok(String::new())
                }
            }
        })
        .unwrap();
        assert_eq!(reports[0].value, "22-11-x");
    }

    #[test]
    fn allreduce_sums() {
        let reports = run_cluster(&ClusterConfig::new(4), |ctx| {
            ctx.allreduce(ctx.rank() as u64 + 1, |a, b| a + b)
        })
        .unwrap();
        for rep in reports {
            assert_eq!(rep.value, 10);
        }
    }

    #[test]
    fn memory_meter_tracks_peak() {
        let reports = run_cluster(&ClusterConfig::new(1), |ctx| {
            ctx.memory().alloc(1000)?;
            ctx.memory().alloc(500)?;
            ctx.memory().free(800);
            ctx.memory().alloc(100)?;
            Ok(())
        })
        .unwrap();
        assert_eq!(reports[0].peak_memory, 1500);
    }

    #[test]
    fn memory_limit_aborts_run() {
        let cfg = ClusterConfig::new(2).with_memory_limit(1024);
        let err = run_cluster(&cfg, |ctx| {
            if ctx.rank() == 1 {
                ctx.memory().alloc(512)?;
                ctx.memory().alloc(1024)?; // exceeds
            }
            Ok(())
        })
        .unwrap_err();
        match err {
            ClusterError::MemoryExceeded { rank, requested, in_use, limit } => {
                assert_eq!(rank, 1);
                assert_eq!(requested, 1024);
                assert_eq!(in_use, 512);
                assert_eq!(limit, 1024);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn over_free_saturates_and_poisons() {
        let meter = MemoryMeter::new(0, Some(1000));
        meter.alloc(100).unwrap();
        meter.free(100);
        meter.free(100); // double free: saturates instead of wrapping
        assert_eq!(meter.current(), 0, "no u64 wrap-around");
        assert!(meter.is_poisoned());
        match meter.alloc(1) {
            Err(ClusterError::Protocol(m)) => assert!(m.contains("over-free"), "{m}"),
            other => panic!("expected protocol error, got {other:?}"),
        }
        match meter.realloc(0, 1) {
            Err(ClusterError::Protocol(_)) => {}
            other => panic!("expected protocol error, got {other:?}"),
        }
    }

    #[test]
    fn realloc_shrink_and_grow() {
        let meter = MemoryMeter::new(0, Some(100));
        meter.alloc(50).unwrap();
        meter.realloc(50, 80).unwrap();
        assert_eq!(meter.current(), 80);
        meter.realloc(80, 20).unwrap();
        assert_eq!(meter.current(), 20);
        assert!(meter.realloc(20, 200).is_err());
        assert_eq!(meter.current(), 20);
    }

    #[test]
    fn phase_timing_and_work() {
        let reports = run_cluster(&ClusterConfig::new(1), |ctx| {
            {
                let _t = ctx.timed("gen");
                std::thread::sleep(Duration::from_millis(5));
            }
            ctx.add_work("gen", 42);
            ctx.add_work("gen", 8);
            Ok(())
        })
        .unwrap();
        let t = reports[0].phase_times.get("gen").copied().unwrap();
        assert!(t >= Duration::from_millis(4), "recorded {t:?}");
        assert_eq!(reports[0].phase_work.get("gen"), Some(&50));
    }

    #[test]
    fn node_panic_is_reported() {
        let err = run_cluster(&ClusterConfig::new(2), |ctx| {
            if ctx.rank() == 0 {
                panic!("boom");
            }
            Ok(())
        })
        .unwrap_err();
        match err {
            ClusterError::NodePanicked { rank, message } => {
                assert_eq!(rank, 0);
                assert!(message.contains("boom"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn panicking_rank_releases_peers_blocked_in_collectives() {
        // Before abort propagation this deadlocked: the panicking rank
        // exited while its peers waited in allgather's recv forever.
        let err = run_cluster(&ClusterConfig::new(4), |ctx| {
            if ctx.rank() == 2 {
                panic!("mid-collective failure");
            }
            let all = ctx.allgather(ctx.rank())?; // blocks on rank 2
            Ok(all.len())
        })
        .unwrap_err();
        match err {
            ClusterError::NodePanicked { rank: 2, message } => {
                assert!(message.contains("mid-collective"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn asymmetric_memory_abort_releases_barrier_waiters() {
        // Exactly one rank trips its cap; the others are blocked in the
        // barrier and must be woken with the typed originating error.
        let cfg = ClusterConfig::new(3).with_memory_limit(1000);
        let err = run_cluster(&cfg, |ctx| {
            if ctx.rank() == 1 {
                ctx.memory().alloc(2000)?; // asymmetric: only rank 1 allocates
            }
            ctx.barrier()?;
            Ok(())
        })
        .unwrap_err();
        match err {
            ClusterError::MemoryExceeded { rank: 1, requested: 2000, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn asymmetric_memory_abort_releases_recv_waiters() {
        let cfg = ClusterConfig::new(2).with_memory_limit(100);
        let err = run_cluster(&cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.memory().alloc(500)?;
                ctx.send(1, 7u32)?;
            }
            let v = ctx.recv::<u32>(1 - ctx.rank())?; // rank 1 blocks here
            Ok(v)
        })
        .unwrap_err();
        match err {
            ClusterError::MemoryExceeded { rank: 0, requested: 500, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn send_to_exited_rank_is_an_error_not_a_panic() {
        // Rank 0 exits immediately; rank 1 keeps sending until the mailbox
        // closes. The send must fail with a typed error (never panic).
        let reports = run_cluster(&ClusterConfig::new(2), |ctx| {
            if ctx.rank() == 0 {
                return Ok(0u64);
            }
            let mut sent = 0u64;
            for _ in 0..1_000_000 {
                match ctx.send(0, 1u8) {
                    Ok(()) => sent += 1,
                    Err(ClusterError::Protocol(_)) | Err(ClusterError::Aborted { .. }) => break,
                    Err(other) => panic!("unexpected send error {other:?}"),
                }
                std::thread::yield_now();
            }
            Ok(sent)
        })
        .unwrap();
        assert_eq!(reports[0].value, 0);
    }

    #[test]
    fn aborted_error_names_origin() {
        // A peer woken out of a collective observes Aborted{origin}.
        let observed = Mutex::new(None);
        let cfg = ClusterConfig::new(2).with_memory_limit(10);
        let err = run_cluster(&cfg, |ctx| {
            if ctx.rank() == 1 {
                ctx.memory().alloc(64)?;
            }
            let r = ctx.barrier();
            if let Err(e) = &r {
                *observed.lock() = Some(e.clone());
            }
            r.map(|_| ())
        })
        .unwrap_err();
        assert!(matches!(err, ClusterError::MemoryExceeded { rank: 1, .. }));
        let seen = observed.lock().take();
        match seen {
            Some(ClusterError::Aborted { origin: 1, reason }) => {
                assert!(reason.contains("memory capacity exceeded"), "{reason}");
            }
            other => panic!("peer saw {other:?}"),
        }
    }

    #[test]
    fn payload_sent_before_an_abort_still_reaches_a_late_receiver() {
        // Rank 1 sends, then trips its cap; rank 0 only starts receiving
        // once the abort flag is up. The payload that left before the abort
        // must still be delivered, and the abort surfaces on the next
        // collective.
        let observed = Mutex::new(None);
        let cfg = ClusterConfig::new(2).with_memory_limit(10);
        let err = run_cluster(&cfg, |ctx| {
            if ctx.rank() == 1 {
                ctx.send(0, 42u32)?;
                ctx.memory().alloc(64)?;
                return Ok(());
            }
            while !ctx.abort.is_flagged() {
                std::thread::yield_now();
            }
            let payload = ctx.recv::<u32>(1);
            let next = ctx.allgather(0u8).map(drop);
            *observed.lock() = Some((payload, next.clone()));
            next
        })
        .unwrap_err();
        assert!(matches!(err, ClusterError::MemoryExceeded { rank: 1, .. }));
        let seen = observed.lock().take();
        match seen {
            Some((Ok(42), Err(ClusterError::Aborted { origin: 1, .. }))) => {}
            other => panic!("late receiver saw {other:?}"),
        }
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let reports = run_cluster(&ClusterConfig::new(4), |ctx| {
            let v = if ctx.rank() == 2 { Some(String::from("hello")) } else { None };
            ctx.broadcast(2, v)
        })
        .unwrap();
        for rep in reports {
            assert_eq!(rep.value, "hello");
        }
    }

    #[test]
    fn gather_collects_on_root() {
        let reports =
            run_cluster(&ClusterConfig::new(3), |ctx| ctx.gather(1, ctx.rank() as u32 * 10))
                .unwrap();
        assert_eq!(reports[0].value, None);
        assert_eq!(reports[1].value, Some(vec![0, 10, 20]));
        assert_eq!(reports[2].value, None);
    }

    #[test]
    fn scatter_distributes_slots() {
        let reports = run_cluster(&ClusterConfig::new(3), |ctx| {
            let items = if ctx.rank() == 0 { Some(vec![100u64, 200, 300]) } else { None };
            ctx.scatter(0, items)
        })
        .unwrap();
        assert_eq!(reports[0].value, 100);
        assert_eq!(reports[1].value, 200);
        assert_eq!(reports[2].value, 300);
    }

    #[test]
    fn collectives_compose() {
        // scatter → local work → gather → broadcast in one program.
        let reports = run_cluster(&ClusterConfig::new(4), |ctx| {
            let items = if ctx.rank() == 0 { Some(vec![1u64, 2, 3, 4]) } else { None };
            let mine = ctx.scatter(0, items)?;
            let squared = mine * mine;
            let gathered = ctx.gather(0, squared)?;
            let total =
                if ctx.rank() == 0 { Some(gathered.unwrap().iter().sum::<u64>()) } else { None };
            ctx.broadcast(0, total)
        })
        .unwrap();
        for rep in reports {
            assert_eq!(rep.value, 1 + 4 + 9 + 16);
        }
    }

    #[test]
    fn injected_crash_aborts_run_with_typed_error() {
        let plan = FaultPlan::new(1).crash(1, "iteration", 0);
        let cfg = ClusterConfig::new(3).with_fault_plan(plan);
        let err = run_cluster(&cfg, |ctx| {
            ctx.fault_point("iteration", 0)?;
            ctx.barrier()?; // peers must be released, not hang
            Ok(())
        })
        .unwrap_err();
        match err {
            ClusterError::InjectedCrash { rank: 1, at } => {
                assert!(at.contains("iteration"), "{at}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn injected_crash_fires_once_across_runs_with_shared_injector() {
        let injector = Arc::new(FaultInjector::new(FaultPlan::new(2).crash(0, "iteration", 0)));
        let cfg = ClusterConfig::new(2).with_injector(Arc::clone(&injector));
        let body = |ctx: &NodeCtx| {
            ctx.fault_point("iteration", 0)?;
            ctx.allgather(ctx.rank())
        };
        assert!(run_cluster(&cfg, body).is_err());
        // Second run with the same injector: the one-shot already fired.
        let reports = run_cluster(&cfg, body).unwrap();
        assert_eq!(reports[0].value, vec![0, 1]);
        assert!(injector.exhausted());
    }

    #[test]
    fn dropped_message_is_detected_not_hung() {
        // Rank 0's first send is swallowed; its second send carries seq 1,
        // so rank 1 observes the gap as MessageLost (fail-fast, no timeout).
        let plan = FaultPlan::new(3).drop_send(0, 0);
        let cfg = ClusterConfig::new(2)
            .with_fault_plan(plan)
            .with_timeouts(ClusterTimeouts::uniform(Duration::from_secs(5)));
        let err = run_cluster(&cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 10u32)?; // dropped by the fabric
                ctx.send(1, 20u32)?;
                Ok(0)
            } else {
                let a = ctx.recv::<u32>(0)?;
                let b = ctx.recv::<u32>(0)?;
                Ok(a + b)
            }
        })
        .unwrap_err();
        match err {
            ClusterError::MessageLost { rank: 1, src: 0, expected: 0, got: 1 } => {}
            ClusterError::Timeout { rank: 1, .. } => {} // only one send observed
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dropped_final_message_times_out() {
        // The dropped message is the only one: no gap is ever observable, so
        // the recv deadline is the backstop.
        let plan = FaultPlan::new(4).drop_send(0, 0);
        let cfg = ClusterConfig::new(2)
            .with_fault_plan(plan)
            .with_timeouts(ClusterTimeouts::uniform(Duration::from_millis(200)));
        let err = run_cluster(&cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 10u32)?;
                Ok(0)
            } else {
                ctx.recv::<u32>(0)
            }
        })
        .unwrap_err();
        match err {
            ClusterError::Timeout { rank: 1, phase } => assert!(phase.contains("recv"), "{phase}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicated_message_is_discarded() {
        let plan = FaultPlan::new(5).duplicate_send(0, 0);
        let cfg = ClusterConfig::new(2).with_fault_plan(plan);
        let observed = Mutex::new(0u64);
        let reports = run_cluster(&cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 10u32)?;
                ctx.send(1, 20u32)?;
                Ok(0)
            } else {
                let a = ctx.recv::<u32>(0)?;
                let b = ctx.recv::<u32>(0)?;
                *observed.lock() = ctx.duplicates_dropped();
                Ok(a + b)
            }
        })
        .unwrap();
        assert_eq!(reports[1].value, 30, "duplicate must not displace the second message");
        assert_eq!(*observed.lock(), 1, "exactly one duplicate discarded");
    }

    #[test]
    fn flaky_send_retries_transparently() {
        let plan = FaultPlan::new(6).flaky_send(0, 0, 3);
        let cfg = ClusterConfig::new(2).with_fault_plan(plan);
        let reports = run_cluster(&cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7u32)?;
                Ok(0)
            } else {
                ctx.recv::<u32>(0)
            }
        })
        .unwrap();
        assert_eq!(reports[1].value, 7);
    }

    #[test]
    fn flaky_send_past_retry_budget_fails_typed() {
        let plan = FaultPlan::new(7).flaky_send(0, 0, 100);
        let timeouts = ClusterTimeouts { send_retries: 3, ..Default::default() };
        let cfg = ClusterConfig::new(2).with_fault_plan(plan).with_timeouts(timeouts);
        let err = run_cluster(&cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7u32)?;
                Ok(0)
            } else {
                ctx.recv::<u32>(0)
            }
        })
        .unwrap_err();
        match err {
            ClusterError::SendFailed { rank: 0, dst: 1, attempts: 4 } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn barrier_deadline_surfaces_timeout() {
        // Rank 1 never reaches the barrier within the deadline.
        let cfg = ClusterConfig::new(2)
            .with_timeouts(ClusterTimeouts::uniform(Duration::from_millis(100)));
        let err = run_cluster(&cfg, |ctx| {
            if ctx.rank() == 1 {
                std::thread::sleep(Duration::from_millis(500));
            }
            ctx.barrier()?;
            Ok(())
        })
        .unwrap_err();
        match err {
            ClusterError::Timeout { rank: 0, phase } => assert_eq!(phase, "barrier"),
            // The late rank may instead observe the abort in its barrier.
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn straggler_slows_but_does_not_fail() {
        let plan = FaultPlan::new(8).straggler(1, 30);
        let cfg = ClusterConfig::new(2).with_fault_plan(plan);
        let start = Instant::now();
        let reports = run_cluster(&cfg, |ctx| {
            ctx.fault_point("iteration", 0)?;
            ctx.allgather(ctx.rank() as u64)
        })
        .unwrap();
        assert!(start.elapsed() >= Duration::from_millis(25));
        assert_eq!(reports[0].value, vec![0, 1]);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        run_cluster(&ClusterConfig::new(4), |ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            ctx.barrier()?;
            // After the barrier every rank must observe all increments.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn jittered_backoff_is_deterministic_and_bounded() {
        let base = Duration::from_millis(1);
        for attempt in 1..=8u32 {
            let a = backoff_with_jitter(base, attempt, 42, 3, 7);
            let b = backoff_with_jitter(base, attempt, 42, 3, 7);
            assert_eq!(a, b, "same inputs must give the same delay");
            let exp = base * (1u32 << (attempt - 1));
            assert!(a >= exp / 2, "attempt {attempt}: {a:?} below half the exponential {exp:?}");
            assert!(a < exp * 3 / 2, "attempt {attempt}: {a:?} at or above 1.5x {exp:?}");
        }
    }

    #[test]
    fn jittered_backoff_separates_lockstep_ranks() {
        let base = Duration::from_millis(1);
        // Two ranks retrying the same nth send at the same attempt must not
        // share a delay (for at least one attempt in a short horizon —
        // individual collisions are possible but not across the board).
        let distinct = (1..=8u32).any(|attempt| {
            backoff_with_jitter(base, attempt, 42, 0, 7)
                != backoff_with_jitter(base, attempt, 42, 1, 7)
        });
        assert!(distinct, "ranks 0 and 1 collided on every attempt");
    }

    #[test]
    fn jittered_backoff_still_grows_exponentially() {
        let base = Duration::from_millis(1);
        // Attempt k+2's minimum (0.5 x 4 x 2^(k-1)) strictly exceeds
        // attempt k's maximum (1.5 x 2^(k-1)): the schedule still escalates
        // despite the jitter.
        for attempt in 1..=6u32 {
            let now = backoff_with_jitter(base, attempt, 9, 2, 0);
            let later = backoff_with_jitter(base, attempt + 2, 9, 2, 0);
            assert!(later > now, "attempt {}: {later:?} <= {now:?}", attempt + 2);
        }
    }

    #[test]
    fn corrupt_frame_is_detected_typed() {
        let err = run_cluster(&ClusterConfig::new(2), |ctx| {
            if ctx.rank() == 0 {
                // Bypass send(): inject a frame whose CRC does not match
                // its header, as fabric corruption would produce.
                let sent = ctx.fabric.senders[1].send(Packet {
                    from: 0,
                    seq: Some(0),
                    epoch: 0,
                    flow: 0,
                    crc: 0xDEAD_BEEF,
                    payload: Box::new(7u32),
                });
                assert!(sent.is_ok());
                Ok(0)
            } else {
                ctx.recv::<u32>(0)
            }
        })
        .unwrap_err();
        match err {
            ClusterError::CorruptFrame { src: 0, dst: 1, seq: 0 } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stale_epoch_frames_are_dropped_not_delivered() {
        let observed = Mutex::new((0u32, 0u64));
        run_cluster(&ClusterConfig::new(2), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 10u32)?; // stamped epoch 0
                ctx.barrier()?; // rank 1 advances the epoch
                ctx.barrier()?;
                ctx.send(1, 20u32)?; // stamped epoch 1
                Ok(())
            } else {
                ctx.barrier()?;
                // Simulate a view change between rank 0's two sends.
                ctx.membership.epoch.fetch_add(1, Ordering::SeqCst);
                ctx.barrier()?;
                let v = ctx.recv::<u32>(0)?;
                *observed.lock() = (v, ctx.stale_frames_dropped());
                Ok(())
            }
        })
        .unwrap();
        let (v, stale) = *observed.lock();
        assert_eq!(v, 20, "the pre-view-change frame must not be delivered");
        assert_eq!(stale, 1, "exactly one stale frame discarded");
    }

    #[test]
    fn killed_rank_is_detected_as_rank_lost() {
        // Rank 1 dies silently mid-run; rank 0 blocks in recv with a long
        // deadline. Only the heartbeat detector can wake it.
        let plan = FaultPlan::new(11).kill_rank(1, "iteration", 0);
        let cfg = ClusterConfig::new(2)
            .with_fault_plan(plan)
            .with_failover(true)
            .with_heartbeat(Duration::from_millis(5))
            .with_timeouts(ClusterTimeouts::uniform(Duration::from_secs(30)));
        let start = Instant::now();
        let err = run_cluster(&cfg, |ctx| {
            ctx.fault_point("iteration", 0)?;
            if ctx.rank() == 0 {
                ctx.recv::<u32>(1)?;
            }
            Ok(())
        })
        .unwrap_err();
        match err {
            ClusterError::RankLost { rank: 1, epoch } => assert!(epoch >= 1),
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "detection must come from the heartbeat window, not the recv deadline"
        );
    }

    #[test]
    fn kill_at_final_phase_synthesizes_rank_lost_after_join() {
        // No collective follows the kill: every survivor finishes before
        // the staleness window elapses, so the post-join sweep must still
        // surface the loss as RankLost (not an untyped protocol error).
        let plan = FaultPlan::new(12).kill_rank(2, "merge", 0);
        let cfg = ClusterConfig::new(3).with_fault_plan(plan).with_failover(true);
        let err = run_cluster(&cfg, |ctx| {
            ctx.fault_point("merge", 0)?;
            Ok(ctx.rank())
        })
        .unwrap_err();
        match err {
            ClusterError::RankLost { rank: 2, epoch: 1 } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn kill_without_failover_takes_the_abort_path() {
        let plan = FaultPlan::new(13).kill_rank(1, "iteration", 0);
        let cfg = ClusterConfig::new(2).with_fault_plan(plan);
        let err = run_cluster(&cfg, |ctx| {
            ctx.fault_point("iteration", 0)?;
            ctx.barrier()?;
            Ok(())
        })
        .unwrap_err();
        match &err {
            ClusterError::RankKilled { rank: 1, at } => {
                assert!(at.contains("iteration"), "{at}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(err.is_retryable(), "kill without failover restarts");
    }

    #[test]
    fn killed_rank_zero_is_not_silently_lost() {
        // The coordinator's death must go through the restart ladder even
        // with failover on: survivors cannot re-plan without rank 0.
        let plan = FaultPlan::new(14).kill_rank(0, "iteration", 0);
        let cfg = ClusterConfig::new(2).with_fault_plan(plan).with_failover(true);
        let err = run_cluster(&cfg, |ctx| {
            ctx.fault_point("iteration", 0)?;
            ctx.barrier()?;
            Ok(())
        })
        .unwrap_err();
        match err {
            ClusterError::RankKilled { rank: 0, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn failover_run_without_faults_is_unperturbed() {
        // The liveness layer must be inert on a healthy run: same results,
        // no stale drops, no spurious deaths.
        let cfg =
            ClusterConfig::new(4).with_failover(true).with_heartbeat(Duration::from_millis(5));
        let reports = run_cluster(&cfg, |ctx| {
            let all = ctx.allgather(ctx.rank() as u64)?;
            ctx.barrier()?;
            Ok(all.iter().sum::<u64>())
        })
        .unwrap();
        for rep in reports {
            assert_eq!(rep.value, 6);
        }
    }

    #[test]
    fn sender_to_killed_rank_surfaces_rank_lost() {
        // The survivor discovers the death through a closed mailbox before
        // the heartbeat window elapses; the error must still be the typed
        // failover cue, not a protocol error.
        let plan = FaultPlan::new(15).kill_rank(1, "iteration", 0);
        let cfg = ClusterConfig::new(2).with_fault_plan(plan).with_failover(true);
        let err = run_cluster(&cfg, |ctx| {
            ctx.fault_point("iteration", 0)?;
            if ctx.rank() == 0 {
                // Keep sending until the death is observed one way or the
                // other (mailbox close or heartbeat detection).
                for _ in 0..1_000_000 {
                    ctx.send(1, 1u8)?;
                    std::thread::yield_now();
                }
            }
            Ok(())
        })
        .unwrap_err();
        match err {
            ClusterError::RankLost { rank: 1, .. } => {}
            ClusterError::Aborted { .. } => {} // detector won the race
            other => panic!("unexpected {other:?}"),
        }
    }
}
