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
//!
//! One contention rule: every piece of GPU work — a user copy or kernel,
//! and the communication layer's CUDA-IPC fetches, pipeline staging chunks
//! and striped legs — books its stream and link ports through
//! [`GpuSubsystem::book`]. Work starts when the stream and all its ports
//! are free and holds them until it ends; the X-Bus, shared by all of a
//! node's cross-socket flows, is held per flow for its bytes at the
//! aggregate rate. A new shared resource (say, a per-socket staging
//! engine) is one more [`PortRef`] variant, booked where the work that
//! uses it is booked.

pub mod device;
pub mod mem;
pub mod metrics;
pub mod ops;
pub mod subsystem;

pub use device::{CopyPath, Device, DeviceId, KernelCost};
pub use mem::{MemError, MemId, MemKind, MemPool, MemRef};
pub use ops::{copy_async, copy_ports, kernel_async, resolve_path, stream_sync_trigger};
pub use subsystem::{GpuSubsystem, HasGpu, PortRef, StreamId};

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

    /// A 1 MiB copy from device `a` to `b` on `a`'s default stream, then a
    /// CUDA-IPC booking from `c` to `d` on a stream of its own for the
    /// copy's wire time plus 2 µs, both at t = 0: when each ends.
    fn copy_then_ipc(a: u32, b: u32, c: u32, d: u32) -> (u64, u64) {
        Simulation::new(summit_node()).with_parts(|g, s| {
            let x = g.pool.alloc_device(DeviceId(a), 1 << 20, false).unwrap();
            let y = g.pool.alloc_device(DeviceId(b), 1 << 20, false).unwrap();
            let stream = g.create_stream(DeviceId(d));
            let copy = copy_async(g, s, x, y, StreamId(a), None);
            let (src, dst) = (MemKind::Device(DeviceId(c)), MemKind::Device(DeviceId(d)));
            let path = resolve_path(g, src, dst);
            let dur = device::wire_time(path, 1 << 20) + 2_000;
            let ports = copy_ports(g, src, dst, path);
            (copy, g.book(Some(stream), ports, s.now(), dur, 1 << 20))
        })
    }

    #[test]
    fn copies_and_ipc_bookings_contend_by_one_rule() {
        // 1 MiB: NVLink wire 1 100 + 23 831 ns, X-Bus wire 1 100 + 37 449 ns,
        // X-Bus aggregate hold 20 165 ns. Same device pair: the IPC booking
        // starts when the copy frees device 0's egress and 1's ingress.
        assert_eq!(copy_then_ipc(0, 1, 0, 1), (24_931, 24_931 + 26_931));
        // Disjoint cross-socket pairs share only node 0's X-Bus: the second
        // starts once the first's aggregate share has passed, not at its end.
        assert_eq!(copy_then_ipc(0, 4, 1, 5), (38_549, 20_165 + 40_549));
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
