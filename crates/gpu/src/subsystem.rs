//! The GPU subsystem: devices, streams, link-port occupancy, memory pool,
//! and [`GpuSubsystem::book`], the one rule by which work contends for them.

use rucx_sim::time::{transfer_time, Duration, Time};

use crate::device::{Device, DeviceId, DEVICE_MEM, XBUS_AGGREGATE_GBPS};
use crate::mem::MemPool;

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

    fn port_busy(&mut self, p: PortRef) -> &mut Time {
        match p {
            PortRef::Egress(d) => &mut self.egress_busy[d.index()],
            PortRef::Ingress(d) => &mut self.ingress_busy[d.index()],
            PortRef::XBus(n) => &mut self.xbus_busy[n],
        }
    }

    /// Book `dur` of work that moves `bytes` over `ports`, driven by
    /// `stream` (if any); returns its end. The one contention rule of the
    /// GPU model: the work starts at `ready` or when the stream and every
    /// port are free, whichever is last, and holds them until it ends —
    /// except the X-Bus, a shared aggregate resource that each flow holds
    /// only for `bytes` at the aggregate rate although the flow itself
    /// runs at the (lower) per-flow rate. A new shared resource is one
    /// more [`PortRef`].
    pub fn book(
        &mut self,
        stream: Option<StreamId>,
        ports: impl IntoIterator<Item = PortRef> + Clone,
        ready: Time,
        dur: Duration,
        bytes: u64,
    ) -> Time {
        let mut start = stream.map_or(ready, |s| ready.max(self.stream_busy(s)));
        for p in ports.clone() {
            start = start.max(*self.port_busy(p));
        }
        let end = start + dur;
        if let Some(s) = stream {
            self.streams[s.0 as usize].busy_until = end;
        }
        for p in ports {
            *self.port_busy(p) = match p {
                PortRef::XBus(_) => start + transfer_time(bytes, XBUS_AGGREGATE_GBPS),
                _ => end,
            };
        }
        end
    }
}

/// A link port a booking holds (see [`GpuSubsystem::book`]).
#[derive(Debug, Clone, Copy)]
pub enum PortRef {
    /// A device's outbound side.
    Egress(DeviceId),
    /// A device's inbound side.
    Ingress(DeviceId),
    /// A node's inter-socket bus.
    XBus(usize),
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
