//! The GPU subsystem: devices, streams, link-port occupancy, memory pool.

use rucx_sim::time::Time;

use crate::device::{Device, DeviceId, DEVICE_MEM};
use crate::mem::MemPool;
use crate::ops::PortRef;

/// Identifier of a stream (FIFO work queue) on some device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub u32);

struct StreamState {
    device: DeviceId,
    busy_until: Time,
}

/// World component: all simulated-GPU state for the cluster.
pub struct GpuSubsystem {
    pub pool: MemPool,
    devices: Vec<Device>,
    gpus_per_node: usize,
    streams: Vec<StreamState>,
    egress_busy: Vec<Time>,
    ingress_busy: Vec<Time>,
    xbus_busy: Vec<Time>,
}

impl GpuSubsystem {
    /// Build a cluster of `nodes`, each with `gpus_per_node` devices of
    /// [`DEVICE_MEM`] bytes split evenly into sockets of `gpus_per_socket`
    /// (Summit: 6 and 3).
    ///
    /// Each device gets a *default stream* whose `StreamId` equals the
    /// device id; extra streams come from [`GpuSubsystem::create_stream`].
    pub fn new(nodes: usize, gpus_per_node: usize, gpus_per_socket: usize) -> Self {
        assert!(gpus_per_socket > 0 && gpus_per_node.is_multiple_of(gpus_per_socket));
        let total = nodes * gpus_per_node;
        let mut devices = Vec::with_capacity(total);
        let mut streams = Vec::with_capacity(total);
        for node in 0..nodes {
            for i in 0..gpus_per_node {
                let id = DeviceId((node * gpus_per_node + i) as u32);
                devices.push(Device {
                    id,
                    node,
                    socket: i / gpus_per_socket,
                    mem_capacity: DEVICE_MEM,
                });
                streams.push(StreamState {
                    device: id,
                    busy_until: 0,
                });
            }
        }
        GpuSubsystem {
            pool: MemPool::new(total, DEVICE_MEM, nodes),
            devices,
            gpus_per_node,
            streams,
            egress_busy: vec![0; total],
            ingress_busy: vec![0; total],
            xbus_busy: vec![0; nodes],
        }
    }

    /// Static description of a device.
    pub fn device(&self, d: DeviceId) -> &Device {
        &self.devices[d.index()]
    }

    /// Number of devices in the cluster.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Devices per node this subsystem was built with.
    pub fn gpus_per_node(&self) -> usize {
        self.gpus_per_node
    }

    /// The default stream of a device (created at construction).
    pub fn default_stream(&self, d: DeviceId) -> StreamId {
        StreamId(d.0)
    }

    /// Create an additional stream on `d`.
    pub fn create_stream(&mut self, d: DeviceId) -> StreamId {
        let id = StreamId(self.streams.len() as u32);
        self.streams.push(StreamState {
            device: d,
            busy_until: 0,
        });
        id
    }

    /// Device that owns a stream.
    pub fn stream_device(&self, s: StreamId) -> DeviceId {
        self.streams[s.0 as usize].device
    }

    pub(crate) fn stream_busy(&self, s: StreamId) -> Time {
        self.streams[s.0 as usize].busy_until
    }

    pub(crate) fn set_stream_busy(&mut self, s: StreamId, t: Time) {
        self.streams[s.0 as usize].busy_until = t;
    }

    pub(crate) fn egress_busy(&self, d: DeviceId) -> Time {
        self.egress_busy[d.index()]
    }

    pub(crate) fn ingress_busy(&self, d: DeviceId) -> Time {
        self.ingress_busy[d.index()]
    }

    pub(crate) fn xbus_busy(&self, node: usize) -> Time {
        self.xbus_busy[node]
    }

    pub(crate) fn set_port_busy(&mut self, p: PortRef, t: Time) {
        match p {
            PortRef::Egress(d) => self.egress_busy[d.index()] = t,
            PortRef::Ingress(d) => self.ingress_busy[d.index()] = t,
            PortRef::XBus(n) => self.xbus_busy[n] = t,
        }
    }
}

/// World types that contain a GPU subsystem. Model code is generic over this
/// so that the concrete world can be assembled at a higher layer.
pub trait HasGpu: Sized + 'static {
    fn gpu(&mut self) -> &mut GpuSubsystem;
    fn gpu_ref(&self) -> &GpuSubsystem;
}

impl HasGpu for GpuSubsystem {
    fn gpu(&mut self) -> &mut GpuSubsystem {
        self
    }
    fn gpu_ref(&self) -> &GpuSubsystem {
        self
    }
}
