//! Simulated memory: device memory, pinned and pageable host memory.
//!
//! Allocations are handle-based (no flat address space to fragment). Each
//! allocation may be **materialized** — backed by real bytes, so copies and
//! message transfers actually move data and integrity is testable end-to-end
//! — or **phantom** — size-only, for at-scale runs (a 4.8 GB Jacobi block
//! per simulated GPU cannot be backed by real memory for 1536 GPUs).

use rucx_compat::idmap::IdMap;

use crate::device::DeviceId;

/// Where an allocation lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// Pageable host memory on `node`.
    Host { node: usize },
    /// Pinned (page-locked) host memory on `node`.
    HostPinned { node: usize },
    /// GPU device memory.
    Device(DeviceId),
}

impl MemKind {
    /// True for either kind of host memory.
    pub fn is_host(self) -> bool {
        matches!(self, MemKind::Host { .. } | MemKind::HostPinned { .. })
    }

    /// True for device memory.
    pub fn is_device(self) -> bool {
        matches!(self, MemKind::Device(_))
    }

    /// Node this memory is physically attached to (requires a topology
    /// lookup for device memory, so the caller provides it).
    pub fn host_node(self) -> Option<usize> {
        match self {
            MemKind::Host { node } | MemKind::HostPinned { node } => Some(node),
            MemKind::Device(_) => None,
        }
    }
}

/// Opaque allocation handle (unique across the simulated cluster, never
/// reused — a dangling `MemId` is always detected).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemId(pub u64);

/// A byte range within an allocation: the simulation's "pointer".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    pub id: MemId,
    pub offset: u64,
    pub len: u64,
}

impl MemRef {
    /// Sub-range of this reference. Panics if out of bounds.
    pub fn slice(self, offset: u64, len: u64) -> MemRef {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len),
            "slice [{offset}, +{len}) out of range of MemRef of len {}",
            self.len
        );
        MemRef {
            id: self.id,
            offset: self.offset + offset,
            len,
        }
    }
}

struct Allocation {
    kind: MemKind,
    size: u64,
    data: Option<Vec<u8>>,
    /// Pre-registered with the NIC/driver at allocation time (pool-backed
    /// allocations that were mapped once, up front). The UCP registration
    /// model treats touches of premapped buffers as cache hits.
    premapped: bool,
}

/// Errors from the memory pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Device out of memory: requested vs remaining bytes.
    DeviceOom { requested: u64, free: u64 },
    /// The handle was never allocated or has been freed.
    BadHandle(MemId),
    /// Access outside the allocation bounds.
    OutOfBounds {
        id: MemId,
        offset: u64,
        len: u64,
        size: u64,
    },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::DeviceOom { requested, free } => {
                write!(f, "device OOM: requested {requested} bytes, {free} free")
            }
            MemError::BadHandle(id) => write!(f, "bad or freed memory handle {id:?}"),
            MemError::OutOfBounds {
                id,
                offset,
                len,
                size,
            } => write!(
                f,
                "access [{offset}, +{len}) out of bounds of {id:?} (size {size})"
            ),
        }
    }
}

impl std::error::Error for MemError {}

/// Cluster-wide memory registry.
pub struct MemPool {
    allocs: IdMap<u64, Allocation>,
    next_id: u64,
    device_capacity: Vec<u64>,
    device_used: Vec<u64>,
    host_used: Vec<u64>,
    /// Live premapped allocations (leak gate: must be 0 at shutdown once
    /// every pool-backed allocation has been returned).
    premapped_live: usize,
}

impl MemPool {
    /// Create a pool for `devices` GPUs (each with `device_capacity` bytes)
    /// and `nodes` host memories (unbounded; accounting only).
    pub fn new(devices: usize, device_capacity: u64, nodes: usize) -> Self {
        MemPool {
            allocs: IdMap::default(),
            next_id: 1,
            device_capacity: vec![device_capacity; devices],
            device_used: vec![0; devices],
            host_used: vec![0; nodes],
            premapped_live: 0,
        }
    }

    fn insert(&mut self, kind: MemKind, size: u64, materialize: bool) -> MemRef {
        let id = self.next_id;
        self.next_id += 1;
        let data = materialize.then(|| vec![0u8; size as usize]);
        self.allocs.insert(
            id,
            Allocation {
                kind,
                size,
                data,
                premapped: false,
            },
        );
        MemRef {
            id: MemId(id),
            offset: 0,
            len: size,
        }
    }

    /// Mark an allocation as pre-registered (mapped once at pool-creation
    /// time). The UCP layer then never charges registration latency for it.
    pub fn set_premapped(&mut self, id: MemId) -> Result<(), MemError> {
        let a = self.allocs.get_mut(&id.0).ok_or(MemError::BadHandle(id))?;
        if !a.premapped {
            a.premapped = true;
            self.premapped_live += 1;
        }
        Ok(())
    }

    /// Whether the allocation was pre-registered at allocation time.
    pub fn is_premapped(&self, id: MemId) -> Result<bool, MemError> {
        self.allocs
            .get(&id.0)
            .map(|a| a.premapped)
            .ok_or(MemError::BadHandle(id))
    }

    /// Live premapped allocations (0 at shutdown = no pool leak).
    pub fn premapped_live(&self) -> usize {
        self.premapped_live
    }

    /// Allocate device memory. `materialize` backs it with real bytes.
    pub fn alloc_device(
        &mut self,
        device: DeviceId,
        size: u64,
        materialize: bool,
    ) -> Result<MemRef, MemError> {
        let d = device.index();
        let free = self.device_capacity[d] - self.device_used[d];
        if size > free {
            return Err(MemError::DeviceOom {
                requested: size,
                free,
            });
        }
        self.device_used[d] += size;
        Ok(self.insert(MemKind::Device(device), size, materialize))
    }

    /// Allocate host memory on `node`; `pinned` selects page-locked memory.
    pub fn alloc_host(
        &mut self,
        node: usize,
        size: u64,
        pinned: bool,
        materialize: bool,
    ) -> MemRef {
        self.host_used[node] += size;
        let kind = if pinned {
            MemKind::HostPinned { node }
        } else {
            MemKind::Host { node }
        };
        self.insert(kind, size, materialize)
    }

    /// Free an allocation. Double-free and unknown handles are errors.
    pub fn free(&mut self, id: MemId) -> Result<(), MemError> {
        let a = self.allocs.remove(&id.0).ok_or(MemError::BadHandle(id))?;
        match a.kind {
            MemKind::Device(d) => self.device_used[d.index()] -= a.size,
            MemKind::Host { node } | MemKind::HostPinned { node } => self.host_used[node] -= a.size,
        }
        if a.premapped {
            self.premapped_live -= 1;
        }
        Ok(())
    }

    /// Memory kind of a live allocation.
    pub fn kind(&self, id: MemId) -> Result<MemKind, MemError> {
        self.allocs
            .get(&id.0)
            .map(|a| a.kind)
            .ok_or(MemError::BadHandle(id))
    }

    /// Total size of a live allocation.
    pub fn size(&self, id: MemId) -> Result<u64, MemError> {
        self.allocs
            .get(&id.0)
            .map(|a| a.size)
            .ok_or(MemError::BadHandle(id))
    }

    /// Whether the allocation is backed by real bytes.
    pub fn is_materialized(&self, id: MemId) -> Result<bool, MemError> {
        self.allocs
            .get(&id.0)
            .map(|a| a.data.is_some())
            .ok_or(MemError::BadHandle(id))
    }

    fn check(&self, r: MemRef) -> Result<&Allocation, MemError> {
        let a = self.allocs.get(&r.id.0).ok_or(MemError::BadHandle(r.id))?;
        if r.offset.checked_add(r.len).is_none_or(|end| end > a.size) {
            return Err(MemError::OutOfBounds {
                id: r.id,
                offset: r.offset,
                len: r.len,
                size: a.size,
            });
        }
        Ok(a)
    }

    /// Write bytes into a materialized allocation (no-op for phantom ones).
    pub fn write(&mut self, r: MemRef, bytes: &[u8]) -> Result<(), MemError> {
        assert_eq!(bytes.len() as u64, r.len, "write length mismatch");
        self.check(r)?;
        let a = self.allocs.get_mut(&r.id.0).unwrap();
        if let Some(data) = &mut a.data {
            data[r.offset as usize..(r.offset + r.len) as usize].copy_from_slice(bytes);
        }
        Ok(())
    }

    /// Read bytes from a materialized allocation (zeros for phantom ones).
    pub fn read(&self, r: MemRef) -> Result<Vec<u8>, MemError> {
        let a = self.check(r)?;
        Ok(match &a.data {
            Some(data) => data[r.offset as usize..(r.offset + r.len) as usize].to_vec(),
            None => vec![0u8; r.len as usize],
        })
    }

    /// Copy `src` to `dst` (equal lengths). Moves real bytes when both sides
    /// are materialized; if only the destination is materialized it is
    /// zero-filled (phantom reads as zeros), and phantom destinations ignore
    /// the data entirely.
    pub fn copy(&mut self, src: MemRef, dst: MemRef) -> Result<(), MemError> {
        assert_eq!(src.len, dst.len, "copy length mismatch");
        self.check(src)?;
        self.check(dst)?;
        if src.id == dst.id {
            let a = self.allocs.get_mut(&src.id.0).unwrap();
            if let Some(data) = &mut a.data {
                data.copy_within(
                    src.offset as usize..(src.offset + src.len) as usize,
                    dst.offset as usize,
                );
            }
            return Ok(());
        }
        let src_bytes = {
            let a = self.allocs.get(&src.id.0).unwrap();
            a.data
                .as_ref()
                .map(|d| d[src.offset as usize..(src.offset + src.len) as usize].to_vec())
        };
        let dst_alloc = self.allocs.get_mut(&dst.id.0).unwrap();
        if let Some(data) = &mut dst_alloc.data {
            match src_bytes {
                Some(sb) => {
                    data[dst.offset as usize..(dst.offset + dst.len) as usize].copy_from_slice(&sb)
                }
                None => data[dst.offset as usize..(dst.offset + dst.len) as usize].fill(0),
            }
        }
        Ok(())
    }

    /// Bytes currently allocated on a device.
    pub fn device_used(&self, d: DeviceId) -> u64 {
        self.device_used[d.index()]
    }

    /// Bytes currently allocated on a node's host memory.
    pub fn host_used(&self, node: usize) -> u64 {
        self.host_used[node]
    }

    /// Number of live allocations.
    pub fn live_allocations(&self) -> usize {
        self.allocs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> MemPool {
        MemPool::new(2, 1 << 30, 1)
    }

    #[test]
    fn device_alloc_accounting_and_oom() {
        let mut p = pool();
        let d = DeviceId(0);
        let a = p.alloc_device(d, 1 << 29, false).unwrap();
        assert_eq!(p.device_used(d), 1 << 29);
        let err = p.alloc_device(d, (1 << 29) + 1, false).unwrap_err();
        assert!(matches!(err, MemError::DeviceOom { .. }));
        p.free(a.id).unwrap();
        assert_eq!(p.device_used(d), 0);
        // Other device unaffected.
        assert_eq!(p.device_used(DeviceId(1)), 0);
    }

    #[test]
    fn double_free_is_error() {
        let mut p = pool();
        let a = p.alloc_host(0, 64, true, true);
        p.free(a.id).unwrap();
        assert_eq!(p.free(a.id), Err(MemError::BadHandle(a.id)));
        assert_eq!(p.kind(a.id), Err(MemError::BadHandle(a.id)));
    }

    #[test]
    fn materialized_write_read_roundtrip() {
        let mut p = pool();
        let a = p.alloc_device(DeviceId(0), 16, true).unwrap();
        p.write(a, &[7u8; 16]).unwrap();
        assert_eq!(p.read(a).unwrap(), vec![7u8; 16]);
        let s = a.slice(4, 8);
        p.write(s, &[9u8; 8]).unwrap();
        let back = p.read(a).unwrap();
        assert_eq!(&back[..4], &[7u8; 4]);
        assert_eq!(&back[4..12], &[9u8; 8]);
        assert_eq!(&back[12..], &[7u8; 4]);
    }

    #[test]
    fn phantom_reads_zero_and_ignores_writes() {
        let mut p = pool();
        let a = p.alloc_host(0, 8, false, false);
        p.write(a, &[1u8; 8]).unwrap();
        assert_eq!(p.read(a).unwrap(), vec![0u8; 8]);
        assert!(!p.is_materialized(a.id).unwrap());
    }

    #[test]
    fn copy_between_allocations() {
        let mut p = pool();
        let a = p.alloc_device(DeviceId(0), 32, true).unwrap();
        let b = p.alloc_device(DeviceId(1), 32, true).unwrap();
        p.write(a, &(0..32).collect::<Vec<u8>>()).unwrap();
        p.copy(a, b).unwrap();
        assert_eq!(p.read(b).unwrap(), (0..32).collect::<Vec<u8>>());
    }

    #[test]
    fn copy_phantom_source_zero_fills_materialized_dst() {
        let mut p = pool();
        let a = p.alloc_host(0, 8, true, false);
        let b = p.alloc_host(0, 8, true, true);
        p.write(b, &[0xAA; 8]).unwrap();
        p.copy(a, b).unwrap();
        assert_eq!(p.read(b).unwrap(), vec![0u8; 8]);
    }

    #[test]
    fn copy_within_same_allocation() {
        let mut p = pool();
        let a = p.alloc_host(0, 16, true, true);
        p.write(a, &(0..16).collect::<Vec<u8>>()).unwrap();
        p.copy(a.slice(0, 8), a.slice(8, 8)).unwrap();
        let back = p.read(a).unwrap();
        assert_eq!(&back[8..], &(0..8).collect::<Vec<u8>>()[..]);
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut p = pool();
        let a = p.alloc_host(0, 8, true, true);
        let bad = MemRef {
            id: a.id,
            offset: 4,
            len: 8,
        };
        assert!(matches!(p.read(bad), Err(MemError::OutOfBounds { .. })));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_past_end_panics() {
        let r = MemRef {
            id: MemId(1),
            offset: 0,
            len: 8,
        };
        let _ = r.slice(4, 8);
    }

    #[test]
    fn premapped_accounting() {
        let mut p = pool();
        let a = p.alloc_host(0, 64, true, false);
        assert!(!p.is_premapped(a.id).unwrap());
        p.set_premapped(a.id).unwrap();
        p.set_premapped(a.id).unwrap(); // idempotent
        assert!(p.is_premapped(a.id).unwrap());
        assert_eq!(p.premapped_live(), 1);
        p.free(a.id).unwrap();
        assert_eq!(p.premapped_live(), 0);
        assert!(p.is_premapped(a.id).is_err());
    }

    #[test]
    fn kind_queries() {
        let mut p = pool();
        let d = p.alloc_device(DeviceId(1), 8, false).unwrap();
        let h = p.alloc_host(0, 8, false, false);
        let hp = p.alloc_host(0, 8, true, false);
        assert_eq!(p.kind(d.id).unwrap(), MemKind::Device(DeviceId(1)));
        assert!(p.kind(d.id).unwrap().is_device());
        assert!(p.kind(h.id).unwrap().is_host());
        assert_eq!(p.kind(hp.id).unwrap(), MemKind::HostPinned { node: 0 });
        assert_eq!(p.kind(h.id).unwrap().host_node(), Some(0));
        assert_eq!(p.kind(d.id).unwrap().host_node(), None);
    }
}
