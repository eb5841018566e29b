//! The user-facing device: buffers + kernel launches.

use crate::config::DeviceConfig;
use crate::error::SimError;
use crate::flat::{compile, CompiledKernel};
use crate::launch::{LaunchConfig, LaunchStats};
use crate::machine::{Machine, MachineState};
use crate::memory::GlobalMemory;
use rmt_ir::Kernel;

/// Handle to a device buffer. Valid only for the [`Device`] that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub(crate) usize);

/// A simulated GPU: global memory plus the execution machinery.
///
/// Buffers persist across launches, so multi-kernel algorithms (bitonic
/// sort passes, Floyd–Warshall iterations) run exactly as they would
/// against a real device. See the crate-level docs for an example.
///
/// The device also keeps the machine state between launches — caches,
/// register files, LDS buffers — and hands it to each launch reset to what
/// a new device would give, so a steady-state launch allocates nothing in
/// proportion to the device. [`Device::reset`] returns the whole device
/// to its just-created state while keeping those allocations.
#[derive(Debug)]
pub struct Device {
    config: DeviceConfig,
    memory: GlobalMemory,
    /// Boxed so that a `Device` stays small to move and to hold by
    /// value: the state is a few hundred bytes of headers.
    state: Box<MachineState>,
}

impl Device {
    /// Creates a device with the given configuration.
    pub fn new(config: DeviceConfig) -> Self {
        Device {
            state: Box::new(MachineState::new()),
            config,
            memory: GlobalMemory::new(),
        }
    }

    /// Returns the device to the state `Device::new(config.clone())`
    /// creates: every buffer is dropped, so the next buffers get the
    /// addresses a new device would give, and `config` replaces the
    /// configuration. The memory and machine-state allocations are kept
    /// for the next launches; caches are rebuilt at the next launch only
    /// if `config` changes their geometry.
    pub fn reset(&mut self, config: &DeviceConfig) {
        self.config.clone_from(config);
        self.memory.clear();
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Allocates a zero-initialized buffer of `bytes` bytes.
    pub fn create_buffer(&mut self, bytes: u32) -> BufferId {
        BufferId(self.memory.alloc(bytes))
    }

    /// The buffer's base byte address in the global space (what a kernel's
    /// buffer parameter reads). Useful for fault targeting.
    pub fn buffer_base(&self, buf: BufferId) -> u32 {
        self.memory.base(buf.0).expect("buffer belongs to device")
    }

    /// The buffer's size in bytes.
    pub fn buffer_size(&self, buf: BufferId) -> u32 {
        self.memory.size(buf.0).expect("buffer belongs to device")
    }

    /// Writes raw bytes at the start of a buffer.
    pub fn write_buffer(&mut self, buf: BufferId, bytes: &[u8]) {
        self.memory.write_buffer(buf.0, bytes);
    }

    /// Reads the buffer's full contents.
    pub fn read_buffer(&self, buf: BufferId) -> Vec<u8> {
        self.memory
            .read_buffer(buf.0)
            .expect("buffer belongs to device")
            .to_vec()
    }

    /// Writes a `u32` slice into a buffer.
    pub fn write_u32s(&mut self, buf: BufferId, vals: &[u32]) {
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.write_buffer(buf, &bytes);
    }

    /// Writes an `f32` slice into a buffer.
    pub fn write_f32s(&mut self, buf: BufferId, vals: &[f32]) {
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.write_buffer(buf, &bytes);
    }

    /// Reads a buffer as `u32`s.
    pub fn read_u32s(&self, buf: BufferId) -> Vec<u32> {
        self.read_buffer(buf)
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect()
    }

    /// Reads a buffer as `f32`s.
    pub fn read_f32s(&self, buf: BufferId) -> Vec<f32> {
        self.read_buffer(buf)
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect()
    }

    /// Compiles a kernel for this device (reusable across launches).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidKernel`] if the kernel fails validation.
    pub fn compile(&self, kernel: &Kernel) -> Result<CompiledKernel, SimError> {
        compile(kernel)
    }

    /// Compiles and launches a kernel, blocking until completion.
    ///
    /// # Errors
    ///
    /// Propagates validation, geometry, argument, scheduling, and runtime
    /// errors (see [`SimError`]).
    pub fn launch(&mut self, kernel: &Kernel, cfg: &LaunchConfig) -> Result<LaunchStats, SimError> {
        let compiled = compile(kernel)?;
        self.launch_compiled(&compiled, cfg)
    }

    /// Launches a pre-compiled kernel. The probes set on `cfg` (faults,
    /// trace, profile) ride along; what they recorded comes back in the
    /// [`LaunchStats`].
    ///
    /// # Errors
    ///
    /// Propagates geometry, argument, scheduling, and runtime errors.
    pub fn launch_compiled(
        &mut self,
        kernel: &CompiledKernel,
        cfg: &LaunchConfig,
    ) -> Result<LaunchStats, SimError> {
        Machine::new(&self.config, kernel, &mut self.memory, &mut self.state, cfg)?.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::Arg;
    use rmt_ir::KernelBuilder;

    fn inc_kernel() -> Kernel {
        let mut b = KernelBuilder::new("inc");
        let buf = b.buffer_param("buf");
        let gid = b.global_id(0);
        let a = b.elem_addr(buf, gid);
        let v = b.load_global(a);
        let one = b.const_u32(1);
        let w = b.add_u32(v, one);
        b.store_global(a, w);
        b.finish()
    }

    #[test]
    fn end_to_end_increment() {
        let mut dev = Device::new(DeviceConfig::small_test());
        let buf = dev.create_buffer(128 * 4);
        dev.write_u32s(buf, &(0..128).map(|i| i * 10).collect::<Vec<_>>());
        let stats = dev
            .launch(
                &inc_kernel(),
                &LaunchConfig::new_1d(128, 64).arg(Arg::Buffer(buf)),
            )
            .unwrap();
        assert!(stats.cycles > 0);
        let out = dev.read_u32s(buf);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u32 * 10 + 1);
        }
        assert_eq!(stats.counters.groups_executed, 2);
        assert_eq!(stats.counters.waves_executed, 2);
    }

    #[test]
    fn buffers_roundtrip_floats() {
        let mut dev = Device::new(DeviceConfig::small_test());
        let buf = dev.create_buffer(16);
        dev.write_f32s(buf, &[1.0, -2.5, 3.25, 0.0]);
        assert_eq!(dev.read_f32s(buf), vec![1.0, -2.5, 3.25, 0.0]);
    }

    #[test]
    fn arg_count_mismatch_errors() {
        let mut dev = Device::new(DeviceConfig::small_test());
        let err = dev.launch(&inc_kernel(), &LaunchConfig::new_1d(64, 64));
        assert!(matches!(err, Err(SimError::BadArgs(_))));
    }

    #[test]
    fn geometry_errors() {
        let mut dev = Device::new(DeviceConfig::small_test());
        let buf = dev.create_buffer(64 * 4);
        let err = dev.launch(
            &inc_kernel(),
            &LaunchConfig::new_1d(100, 64).arg(Arg::Buffer(buf)),
        );
        assert!(matches!(err, Err(SimError::BadGeometry(_))));
        let err = dev.launch(
            &inc_kernel(),
            &LaunchConfig::new_1d(512, 512).arg(Arg::Buffer(buf)),
        );
        assert!(matches!(err, Err(SimError::BadGeometry(_))));
    }
}
