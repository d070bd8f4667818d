//! Compressed, spillable storage for survivor-support stripes.
//!
//! The divide-and-conquer scheduler holds every completed subset's support
//! list until final assembly. On large networks that survivor set — not the
//! in-flight candidate buffers — dominates resident memory, because each
//! support is kept as a `Vec<usize>` (8 bytes per set bit plus allocator
//! overhead). A [`StripeStore`] keeps each completed stripe as
//! delta/run-length compressed patterns ([`CompressedPattern`]) and, once a
//! resident-byte budget is exceeded, serializes whole stripes to an
//! anonymous spill file. Assembly streams them back one stripe at a time —
//! the store is read (and written) through an `mmap` window on Unix, with a
//! plain seek-and-read fallback elsewhere — so the peak survivor-set cost
//! is one decoded stripe plus the compressed residents, never the full
//! concatenated list.

use crate::types::EfmError;
use efm_bitset::CompressedPattern;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

/// One subset's survivor supports, either resident (compressed) or spilled.
enum Stripe {
    /// Compressed in memory.
    Resident(Vec<CompressedPattern>),
    /// Serialized into the spill file at `[offset, offset + len)`.
    Spilled { offset: u64, len: u64 },
}

/// Compressed survivor-support stripes with a resident-byte budget and a
/// disk spill path. Stripe ids are the scheduler's subset ids.
pub struct StripeStore {
    slots: Vec<Option<Stripe>>,
    /// Bytes held by resident (compressed) stripes.
    resident_bytes: u64,
    /// Budget above which the largest resident stripes spill to disk.
    budget: u64,
    /// Lazily created append-only spill file.
    spill: Option<SpillFile>,
    /// Total bytes ever written to the spill file (monotone counter).
    spill_bytes: u64,
    /// Number of stripes spilled (monotone counter).
    spilled: u64,
}

struct SpillFile {
    file: File,
    path: PathBuf,
    len: u64,
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn io_err(what: &str, e: std::io::Error) -> EfmError {
    EfmError::Checkpoint(format!("stripe spill {what}: {e}"))
}

impl StripeStore {
    /// A store for `slots` stripes that starts spilling once the resident
    /// compressed stripes exceed `budget` bytes (`0` spills everything).
    pub fn new(slots: usize, budget: u64) -> Self {
        StripeStore {
            slots: (0..slots).map(|_| None).collect(),
            resident_bytes: 0,
            budget,
            spill: None,
            spill_bytes: 0,
            spilled: 0,
        }
    }

    /// Number of stripe slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no stripe has been stored.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| s.is_none())
    }

    /// Bytes currently held by resident compressed stripes.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Total bytes ever written to the spill file.
    pub fn spill_bytes(&self) -> u64 {
        self.spill_bytes
    }

    /// Number of stripes spilled to disk.
    pub fn stripes_spilled(&self) -> u64 {
        self.spilled
    }

    /// Compresses and stores stripe `id`, spilling older stripes if the
    /// resident budget is now exceeded. Each support must be a strictly
    /// ascending index list (the enumeration emits them sorted).
    pub fn put(&mut self, id: usize, supports: &[Vec<usize>]) -> Result<(), EfmError> {
        let stripe: Vec<CompressedPattern> =
            supports.iter().map(|s| CompressedPattern::from_indices(s.iter().copied())).collect();
        self.resident_bytes += stripe_bytes(&stripe);
        self.slots[id] = Some(Stripe::Resident(stripe));
        self.enforce_budget()?;
        if efm_obs::enabled() {
            efm_obs::gauge_max("stripe resident bytes", self.resident_bytes);
            efm_obs::gauge_max("spill bytes", self.spill_bytes);
        }
        Ok(())
    }

    /// Removes and decodes stripe `id`; `None` when the slot was never
    /// stored (a resumed or inline subset).
    pub fn take(&mut self, id: usize) -> Result<Option<Vec<Vec<usize>>>, EfmError> {
        match self.slots[id].take() {
            None => Ok(None),
            Some(Stripe::Resident(stripe)) => {
                self.resident_bytes -= stripe_bytes(&stripe);
                Ok(Some(stripe.iter().map(|p| p.iter_ones().collect()).collect()))
            }
            Some(Stripe::Spilled { offset, len }) => {
                let spill = self.spill.as_mut().expect("spilled stripe implies spill file");
                let bytes = spill.read(offset, len)?;
                let stripe = decode_stripe(&bytes)?;
                Ok(Some(stripe.iter().map(|p| p.iter_ones().collect()).collect()))
            }
        }
    }

    /// Spills the largest resident stripes until the budget holds.
    fn enforce_budget(&mut self) -> Result<(), EfmError> {
        while self.resident_bytes > self.budget {
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| match s {
                    Some(Stripe::Resident(st)) => Some((i, stripe_bytes(st))),
                    _ => None,
                })
                .max_by_key(|&(_, b)| b);
            let Some((id, bytes)) = victim else { break };
            let Some(Stripe::Resident(stripe)) = self.slots[id].take() else { unreachable!() };
            let encoded = encode_stripe(&stripe);
            let spill = match self.spill.as_mut() {
                Some(s) => s,
                None => self.spill.insert(SpillFile::create()?),
            };
            let offset = spill.append(&encoded)?;
            self.slots[id] = Some(Stripe::Spilled { offset, len: encoded.len() as u64 });
            self.resident_bytes -= bytes;
            self.spill_bytes += encoded.len() as u64;
            self.spilled += 1;
            efm_obs::counter_add("stripes spilled", 1);
        }
        Ok(())
    }
}

/// Approximate resident cost of a compressed stripe.
fn stripe_bytes(stripe: &[CompressedPattern]) -> u64 {
    stripe.iter().map(|p| p.approx_bytes() as u64).sum::<u64>()
        + std::mem::size_of_val(stripe) as u64
}

/// Stripe wire format: u32 pattern count, then per pattern u32 ones-count,
/// u32 encoded length, encoded bytes.
fn encode_stripe(stripe: &[CompressedPattern]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(stripe.len() as u32).to_le_bytes());
    for p in stripe {
        out.extend_from_slice(&p.count().to_le_bytes());
        out.extend_from_slice(&(p.encoded_len() as u32).to_le_bytes());
        out.extend_from_slice(p.encoded());
    }
    out
}

fn decode_stripe(bytes: &[u8]) -> Result<Vec<CompressedPattern>, EfmError> {
    let bad = || EfmError::Checkpoint("corrupt spilled stripe".to_string());
    let u32_at = |pos: usize| -> Result<u32, EfmError> {
        let end = pos.checked_add(4).filter(|&e| e <= bytes.len()).ok_or_else(bad)?;
        Ok(u32::from_le_bytes(bytes[pos..end].try_into().expect("4-byte slice")))
    };
    let n = u32_at(0)? as usize;
    let mut pos = 4;
    let mut stripe = Vec::with_capacity(n);
    for _ in 0..n {
        let count = u32_at(pos)?;
        let len = u32_at(pos + 4)? as usize;
        let start = pos + 8;
        let end = start.checked_add(len).filter(|&e| e <= bytes.len()).ok_or_else(bad)?;
        let p =
            CompressedPattern::from_encoded(bytes[start..end].to_vec(), count).ok_or_else(bad)?;
        stripe.push(p);
        pos = end;
    }
    Ok(stripe)
}

impl SpillFile {
    fn create() -> Result<Self, EfmError> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("efm-spill-{}-{}.bin", std::process::id(), seq));
        let file = File::options()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| io_err("create", e))?;
        Ok(SpillFile { file, path, len: 0 })
    }

    /// Appends `bytes` at the end; returns the record's offset.
    fn append(&mut self, bytes: &[u8]) -> Result<u64, EfmError> {
        let t0 = std::time::Instant::now();
        let offset = self.len;
        self.file.seek(SeekFrom::End(0)).map_err(|e| io_err("seek", e))?;
        self.file.write_all(bytes).map_err(|e| io_err("write", e))?;
        self.len += bytes.len() as u64;
        efm_obs::hist::record("spill write us", t0.elapsed().as_micros() as u64);
        Ok(offset)
    }

    /// Reads back `[offset, offset + len)` — through a transient `mmap`
    /// window on Unix, falling back to seek-and-read when mapping fails.
    fn read(&mut self, offset: u64, len: u64) -> Result<Vec<u8>, EfmError> {
        let t0 = std::time::Instant::now();
        #[cfg(unix)]
        if let Some(bytes) = mmap::read(&self.file, self.len, offset, len) {
            efm_obs::hist::record("spill read us", t0.elapsed().as_micros() as u64);
            return Ok(bytes);
        }
        self.file.seek(SeekFrom::Start(offset)).map_err(|e| io_err("seek", e))?;
        let mut buf = vec![0u8; len as usize];
        self.file.read_exact(&mut buf).map_err(|e| io_err("read", e))?;
        efm_obs::hist::record("spill read us", t0.elapsed().as_micros() as u64);
        Ok(buf)
    }
}

/// Minimal read-only `mmap` shim over raw libc symbols (std already links
/// libc on Unix, so no extra crate is needed). Any failure makes the caller
/// fall back to buffered reads.
#[cfg(unix)]
mod mmap {
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    /// Maps the whole file, copies `[offset, offset + len)` out, unmaps.
    pub fn read(file: &File, file_len: u64, offset: u64, len: u64) -> Option<Vec<u8>> {
        let end = offset.checked_add(len)?;
        if end > file_len || file_len == 0 || file_len > usize::MAX as u64 {
            return None;
        }
        let map_len = file_len as usize;
        // SAFETY: read-only private mapping of a file we own for the
        // duration of the copy; the pointer is checked against MAP_FAILED
        // and unmapped before return.
        unsafe {
            let ptr =
                mmap(std::ptr::null_mut(), map_len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0);
            if ptr as isize == -1 || ptr.is_null() {
                return None;
            }
            let slice = std::slice::from_raw_parts(ptr as *const u8, map_len);
            let bytes = slice[offset as usize..end as usize].to_vec();
            munmap(ptr, map_len);
            Some(bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<Vec<usize>> {
        (0..n).map(|i| (0..40).filter(|j| (i + j) % 3 == 0).collect()).collect()
    }

    #[test]
    fn resident_round_trip() {
        let mut store = StripeStore::new(4, u64::MAX);
        let sups = sample(7);
        store.put(2, &sups).unwrap();
        assert_eq!(store.stripes_spilled(), 0);
        assert!(store.resident_bytes() > 0);
        assert_eq!(store.take(2).unwrap().unwrap(), sups);
        assert_eq!(store.resident_bytes(), 0);
        assert!(store.take(2).unwrap().is_none());
        assert!(store.take(0).unwrap().is_none());
    }

    #[test]
    fn zero_budget_spills_everything_and_reads_back() {
        let mut store = StripeStore::new(3, 0);
        let a = sample(5);
        let b = vec![vec![0usize, 63, 64], Vec::new(), vec![7]];
        store.put(0, &a).unwrap();
        store.put(2, &b).unwrap();
        assert_eq!(store.stripes_spilled(), 2);
        assert_eq!(store.resident_bytes(), 0);
        assert!(store.spill_bytes() > 0);
        assert_eq!(store.take(2).unwrap().unwrap(), b);
        assert_eq!(store.take(0).unwrap().unwrap(), a);
    }

    #[test]
    fn budget_spills_largest_first() {
        let mut store = StripeStore::new(2, 1);
        let big = sample(50);
        store.put(0, &big).unwrap();
        let small = sample(1);
        store.put(1, &small).unwrap();
        // Both exceed the 1-byte budget and spill; order doesn't matter for
        // correctness, both must read back intact.
        assert!(store.stripes_spilled() >= 1);
        assert_eq!(store.take(0).unwrap().unwrap(), big);
        assert_eq!(store.take(1).unwrap().unwrap(), small);
    }

    #[test]
    fn spill_file_is_removed_on_drop() {
        let mut store = StripeStore::new(1, 0);
        store.put(0, &sample(3)).unwrap();
        let path = store.spill.as_ref().unwrap().path.clone();
        assert!(path.exists());
        drop(store);
        assert!(!path.exists());
    }

    #[test]
    fn corrupt_spill_record_is_a_typed_error() {
        assert!(matches!(decode_stripe(&[9, 0, 0, 0]), Err(EfmError::Checkpoint(_))));
    }

    #[test]
    fn dnc_spill_matches_inline_assembly() {
        let net = efm_metnet::examples::toy_network();
        let dnc = crate::DncConfig::default();
        let part = ["r6r", "r8r"];
        let base = crate::Run {
            opts: crate::EfmOptions::default(),
            partition: part.iter().map(|s| s.to_string()).collect(),
            backend: crate::Backend::Serial,
            dnc: dnc.clone(),
            ..Default::default()
        }
        .enumerate::<efm_numeric::DynInt>(&net)
        .unwrap();
        // Budget 0 forces every completed stripe through compress + spill
        // + stream-back; the assembled EFM set must be identical.
        let spill_opts = crate::EfmOptions { spill_budget: Some(0), ..Default::default() };
        let spilled = crate::Run {
            opts: spill_opts.clone(),
            partition: part.iter().map(|s| s.to_string()).collect(),
            backend: crate::Backend::Serial,
            dnc: dnc.clone(),
            ..Default::default()
        }
        .enumerate::<efm_numeric::DynInt>(&net)
        .unwrap();
        assert_eq!(base.efms, spilled.efms);
        assert!(spilled.stats.spill_bytes > 0, "expected spilled stripe bytes in stats");
        assert_eq!(base.stats.spill_bytes, 0);
    }
}
