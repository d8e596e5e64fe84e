//! # rucx-gpu — simulated CUDA-like GPU substrate
//!
//! The paper's software stack sits on CUDA: device memory, async copies,
//! streams, kernels, and CUDA IPC. This crate provides those primitives over
//! the [`rucx_sim`] discrete-event engine, with a calibrated intra-node cost
//! model (NVLink / X-Bus / CPU-GPU links, HBM, host memcpy) and byte-accurate
//! backing memory so that data integrity is testable end-to-end.
//!
//! Key pieces:
//! - [`mem::MemPool`] — handle-based device/host memory with *materialized*
//!   (real bytes) or *phantom* (size-only, for at-scale runs) allocations.
//! - [`subsystem::GpuSubsystem`] — devices, streams, link-port occupancy.
//! - [`ops`] — `copy_async` / `kernel_async` / `stream_sync_trigger`, the
//!   simulation equivalents of `cudaMemcpyAsync`, kernel launch, and
//!   `cudaStreamSynchronize`.

pub mod device;
pub mod mem;
pub mod metrics;
pub mod ops;
pub mod subsystem;

pub use device::{CopyPath, Device, DeviceId, KernelCost};
pub use mem::{MemError, MemId, MemKind, MemPool, MemRef};
pub use ops::{copy_async, kernel_async, resolve_path, stream_sync_trigger};
pub use subsystem::{GpuSubsystem, HasGpu, StreamId};

#[cfg(test)]
mod tests {
    use super::*;
    use rucx_sim::time::us;
    use rucx_sim::{RunOutcome, Simulation};

    fn summit_node() -> GpuSubsystem {
        GpuSubsystem::new(1, 6, 3)
    }

    #[test]
    fn topology_layout() {
        let g = GpuSubsystem::new(2, 6, 3);
        assert_eq!(g.device_count(), 12);
        assert_eq!(g.device(DeviceId(0)).socket, 0);
        assert_eq!(g.device(DeviceId(2)).socket, 0);
        assert_eq!(g.device(DeviceId(3)).socket, 1);
        assert_eq!(g.device(DeviceId(5)).socket, 1);
        assert_eq!(g.device(DeviceId(6)).node, 1);
        assert_eq!(g.device(DeviceId(6)).socket, 0);
    }

    #[test]
    fn path_resolution() {
        let g = summit_node();
        let d0 = MemKind::Device(DeviceId(0));
        let d1 = MemKind::Device(DeviceId(1));
        let d4 = MemKind::Device(DeviceId(4));
        let h = MemKind::Host { node: 0 };
        let hp = MemKind::HostPinned { node: 0 };
        assert_eq!(resolve_path(&g, d0, d0), CopyPath::OnDevice);
        assert_eq!(resolve_path(&g, d0, d1), CopyPath::NvLink);
        assert_eq!(resolve_path(&g, d0, d4), CopyPath::XBus);
        assert_eq!(resolve_path(&g, d0, hp), CopyPath::HostPinnedLink);
        assert_eq!(resolve_path(&g, h, d0), CopyPath::HostPageableLink);
        assert_eq!(resolve_path(&g, h, hp), CopyPath::HostMem);
    }

    #[test]
    #[should_panic(expected = "same node")]
    fn cross_node_copy_rejected() {
        let g = GpuSubsystem::new(2, 6, 3);
        resolve_path(
            &g,
            MemKind::Device(DeviceId(0)),
            MemKind::Device(DeviceId(6)),
        );
    }

    #[test]
    fn copy_moves_data_at_completion_time() {
        let mut sim = Simulation::new(summit_node());
        let (a, b) = {
            let g = sim.world_mut();
            let a = g.pool.alloc_device(DeviceId(0), 1024, true).unwrap();
            let b = g.pool.alloc_device(DeviceId(1), 1024, true).unwrap();
            g.pool.write(a, &[0x5A; 1024]).unwrap();
            (a, b)
        };
        let stream = sim.world_ref_stream();
        sim.spawn("host", 0, move |ctx| {
            let done = ctx.with_world(move |w, s| {
                let t = s.new_trigger();
                copy_async(w, s, a, b, stream, Some(t));
                t
            });
            // Data must not be visible before completion.
            let before = ctx.with_world_ref(|w, _| w.pool.read(b).unwrap());
            assert_eq!(before, vec![0u8; 1024]);
            ctx.wait(done);
            let after = ctx.with_world_ref(|w, _| w.pool.read(b).unwrap());
            assert_eq!(after, vec![0x5A; 1024]);
            // NVLink 1 KiB: DMA_SETUP + ~23ns wire.
            assert!(
                ctx.now() >= us(1.1) && ctx.now() < us(2.0),
                "t={}",
                ctx.now()
            );
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(sim.metrics().get("gpu.copy.nvlink"), 1);
    }

    // Helper so the test above can grab a default stream without fighting
    // the borrow checker inside the world-call closure.
    trait StreamOfZero {
        fn world_ref_stream(&mut self) -> StreamId;
    }
    impl StreamOfZero for Simulation<GpuSubsystem> {
        fn world_ref_stream(&mut self) -> StreamId {
            self.world().default_stream(DeviceId(0))
        }
    }

    #[test]
    fn stream_serializes_operations() {
        let mut sim = Simulation::new(summit_node());
        let (a, b) = {
            let g = sim.world_mut();
            let a = g.pool.alloc_device(DeviceId(0), 1 << 20, false).unwrap();
            let b = g.pool.alloc_device(DeviceId(1), 1 << 20, false).unwrap();
            (a, b)
        };
        sim.spawn("host", 0, move |ctx| {
            let (end1, end2) = ctx.with_world(move |w, s| {
                let stream = w.default_stream(DeviceId(0));
                let e1 = copy_async(w, s, a, b, stream, None);
                let e2 = copy_async(w, s, a, b, stream, None);
                (e1, e2)
            });
            // Second copy starts only after the first finishes.
            assert!(end2 >= 2 * end1 - 1, "end1={end1} end2={end2}");
            let sync = ctx.with_world(move |w, s| stream_sync_trigger(w, s, StreamId(0)));
            ctx.wait(sync);
            assert_eq!(ctx.now(), end2);
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn independent_streams_contend_on_ports() {
        // Two copies with the same source device but different streams must
        // serialize on the egress port.
        let mut sim = Simulation::new(summit_node());
        let (a, b, c, s2) = {
            let g = sim.world_mut();
            let a = g.pool.alloc_device(DeviceId(0), 1 << 20, false).unwrap();
            let b = g.pool.alloc_device(DeviceId(1), 1 << 20, false).unwrap();
            let c = g.pool.alloc_device(DeviceId(2), 1 << 20, false).unwrap();
            let s2 = g.create_stream(DeviceId(0));
            (a, b, c, s2)
        };
        sim.spawn("host", 0, move |ctx| {
            let (e1, e2) = ctx.with_world(move |w, s| {
                let s1 = w.default_stream(DeviceId(0));
                let e1 = copy_async(w, s, a, b, s1, None);
                let e2 = copy_async(w, s, a, c, s2, None);
                (e1, e2)
            });
            assert!(e2 > e1, "egress port must serialize: e1={e1} e2={e2}");
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn kernel_time_and_sync() {
        let mut sim = Simulation::new(summit_node());
        sim.spawn("host", 0, |ctx| {
            let cost = KernelCost {
                fixed: us(2.0),
                bytes: 0,
            };
            let end = ctx.with_world(move |w, s| {
                let stream = w.default_stream(DeviceId(3));
                kernel_async(w, s, stream, cost, None)
            });
            assert_eq!(end, us(2.0));
            let sync = ctx.with_world(move |w, s| stream_sync_trigger(w, s, StreamId(3)));
            ctx.wait(sync);
            assert_eq!(ctx.now(), us(2.0));
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn sync_on_idle_stream_fires_immediately() {
        let mut sim = Simulation::new(summit_node());
        sim.spawn("host", 0, |ctx| {
            let sync = ctx.with_world(|w, s| {
                let stream = w.default_stream(DeviceId(0));
                stream_sync_trigger(w, s, stream)
            });
            ctx.wait(sync);
            assert_eq!(ctx.now(), 0);
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn xbus_copy_slower_than_nvlink() {
        let mut sim = Simulation::new(summit_node());
        let size = 4u64 << 20;
        let (a, b, c) = {
            let g = sim.world_mut();
            let a = g.pool.alloc_device(DeviceId(0), size, false).unwrap();
            let b = g.pool.alloc_device(DeviceId(1), size, false).unwrap();
            let c = g.pool.alloc_device(DeviceId(4), size, false).unwrap();
            (a, b, c)
        };
        sim.spawn("host", 0, move |ctx| {
            let (near, far) = ctx.with_world(move |w, s| {
                let s0 = w.default_stream(DeviceId(0));
                let s1 = w.create_stream(DeviceId(0));
                let near = copy_async(w, s, a, b, s0, None);
                // Use a different stream; egress port still serializes, so
                // compare durations, not absolute ends.
                let t0 = s.now();
                let far_end = copy_async(w, s, a, c, s1, None);
                (near - t0, far_end - near)
            });
            assert!(far > near, "XBus {far} must exceed NVLink {near}");
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }
}
