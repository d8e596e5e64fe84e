//! Stackful coroutines: the context switch, the first-activation
//! trampoline, and guarded `mmap`ed stacks with a free list.
//!
//! This module holds all of the crate's foreign and architecture-specific
//! code. A simulated process is a suspended *context*: a private stack
//! whose top frame is the register image [`transfer`] saved when the
//! process last gave up the CPU, named by a [`StackPtr`]. Switching from
//! one context to another is one call to [`transfer`] — push the
//! callee-saved registers, store the stack pointer, load the other one, pop,
//! return — on the OS thread that called `Simulation::run_until`; no kernel
//! object is involved. Everything above (who switches to whom, and what
//! the payload means) lives in [`crate::process`] and [`crate::sim`].
//!
//! ## Supported targets
//!
//! Linux on x86_64 (System V ABI; built and tested). Anything else is a
//! `compile_error!` naming the two functions to port: [`transfer`] and
//! `trampoline`, plus the initial frame `Stack::prepare` lays out for them.
//! An AAPCS64 port was written but never assembled, so it is not carried:
//! `git show cb997ad:crates/sim/src/coro.rs` has it.
//!
//! ## What a context may rely on
//!
//! A suspended context may be resumed by a different OS thread than the one
//! it last ran on: a `Simulation` is `Send`, so a caller may move it between
//! `run_until` calls (`run_until_from_alternating_threads_matches_a_single_thread`
//! in `tests/coroutines.rs` pins that). Code running on a coroutine must
//! therefore keep nothing in `thread_local!` storage across a yield, and
//! must not hold an OS mutex guard across one.

use std::collections::BTreeMap;
use std::ffi::c_void;

use rucx_compat::sync::Mutex;

#[cfg(not(target_arch = "x86_64"))]
compile_error!(
    "rucx-sim's coroutines support x86_64 only: port `transfer` and `trampoline` (and the \
     initial frame in `Stack::prepare`) in crates/sim/src/coro.rs; a never-assembled aarch64 \
     draft is in `git show cb997ad:crates/sim/src/coro.rs`"
);

#[cfg(not(target_os = "linux"))]
compile_error!("rucx-sim's stack allocator uses Linux's mmap flag values; add this OS's");

// std links libc on every supported target, so these resolve without a
// registry dependency.
extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn sysconf(name: i32) -> i64;
}

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_FAILED: *mut c_void = !0usize as *mut c_void;
const SC_PAGESIZE: i32 = 30;

/// Idle stacks kept per size class; beyond this a released stack is
/// unmapped. Sized for two back-to-back 1536-rank simulations.
const MAX_FREE_PER_SIZE: usize = 2048;

/// The saved stack pointer of a suspended context. `transfer` stores and
/// loads it as a bare pointer, hence the transparent layout.
#[derive(Clone, Copy)]
#[repr(transparent)]
pub(crate) struct StackPtr(*mut u8);

// SAFETY: the pointer is only ever dereferenced by `transfer`, whose caller
// guarantees the context it names is suspended and exclusively owned; no
// thread affinity is attached to a saved register image.
unsafe impl Send for StackPtr {}

impl StackPtr {
    /// A placeholder for a context that has not been suspended yet.
    pub(crate) const fn null() -> Self {
        StackPtr(std::ptr::null_mut())
    }

    pub(crate) fn is_null(self) -> bool {
        self.0.is_null()
    }
}

/// Entry point of a new context: `arg` is the value given to
/// [`Stack::prepare`], `payload` what the first [`transfer`] into the
/// context carried. It must leave by switching away for good.
pub(crate) type Entry = extern "C" fn(arg: usize, payload: *mut ()) -> !;

/// Switch contexts: save the caller's callee-saved registers, FP control
/// state and stack pointer (the latter into `*save`), adopt `to`, and
/// return `payload` *in the context `to` names*. The call returns in the
/// caller's context when some other context transfers back to `*save`, with
/// that transfer's payload.
///
/// # Safety
///
/// `save` must be valid for a write. `to` must name a suspended context —
/// one produced by [`Stack::prepare`] and not yet started, or saved by an
/// earlier `transfer` and not resumed since — whose stack is still mapped
/// and which no other thread can resume. The payload's meaning is a
/// contract between the two sides.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
pub(crate) unsafe extern "C" fn transfer(
    save: *mut StackPtr,
    to: StackPtr,
    payload: *mut (),
) -> *mut () {
    // System V: rdi = save, rsi = to, rdx = payload. Callee-saved state is
    // rbx, rbp, r12-r15, the MXCSR control bits and the x87 control word.
    // The frame this builds is the one `Stack::prepare` fakes.
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "mov rax, rdx",
        "ret",
    )
}

/// First activation: `transfer`'s `ret` lands here with the payload in
/// `rax` and the entry/arg pair in the registers `Stack::prepare` seeded.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "C" fn trampoline() -> ! {
    std::arch::naked_asm!(
        "mov rdi, r12", // arg
        "mov rsi, rax", // payload
        "call r13",     // entry(arg, payload) -> !
        "ud2",
    )
}

/// A private stack: `usable` writable bytes above one `PROT_NONE` guard
/// page, so an overrun faults instead of scribbling over a neighbour.
pub(crate) struct Stack {
    /// Lowest mapped address (start of the guard page).
    base: *mut u8,
    /// Writable bytes above the guard page; the size-class key.
    usable: usize,
}

// SAFETY: a `Stack` is an exclusively owned anonymous mapping; nothing about
// it is tied to the thread that mapped it.
unsafe impl Send for Stack {}

#[derive(Default)]
struct SizeClass {
    free: Vec<Stack>,
    mapped: u64,
}

/// Idle stacks by usable size. A simulation's processes all share one size
/// (`SimConfig::stack_size`), so a handful of classes exist at most.
static FREE: Mutex<BTreeMap<usize, SizeClass>> = Mutex::new(BTreeMap::new());

/// Stack accounting for one size class (tests, diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackStats {
    /// Stacks of this size ever `mmap`ed by this OS process.
    pub mapped: u64,
    /// Stacks of this size idle on the free list right now.
    pub free: usize,
}

/// Accounting for the size class a `SimConfig::stack_size` of `size` uses.
pub fn stack_stats(size: usize) -> StackStats {
    let free = FREE.lock();
    free.get(&round_to_pages(size))
        .map_or(StackStats { mapped: 0, free: 0 }, |c| StackStats {
            mapped: c.mapped,
            free: c.free.len(),
        })
}

fn page_size() -> usize {
    use std::sync::atomic::{AtomicUsize, Ordering};
    // Relaxed: the value publishes nothing else and every thread computes
    // the same one.
    static PAGE: AtomicUsize = AtomicUsize::new(0);
    match PAGE.load(Ordering::Relaxed) {
        0 => {
            // SAFETY: `sysconf` has no preconditions.
            let p = unsafe { sysconf(SC_PAGESIZE) };
            let p = usize::try_from(p).ok().filter(|p| p.is_power_of_two());
            let p = p.expect("sysconf(_SC_PAGESIZE) failed");
            PAGE.store(p, Ordering::Relaxed);
            p
        }
        p => p,
    }
}

/// Usable bytes for a requested stack size: whole pages, at least one.
fn round_to_pages(size: usize) -> usize {
    let page = page_size();
    size.max(1)
        .checked_next_multiple_of(page)
        .expect("stack size overflows the address space")
}

impl Stack {
    /// A stack with at least `size` usable bytes: recycled from the free
    /// list when one of that size class is idle, freshly mapped otherwise.
    ///
    /// # Panics
    ///
    /// If the kernel refuses the mapping (address space or
    /// `vm.max_map_count` exhausted).
    pub(crate) fn new(size: usize) -> Stack {
        let usable = round_to_pages(size);
        if let Some(stack) = FREE.lock().entry(usable).or_default().free.pop() {
            return stack;
        }
        let guard = page_size();
        let len = usable + guard;
        // SAFETY: a fresh private anonymous mapping at an address of the
        // kernel's choosing aliases nothing.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(
            base != MAP_FAILED,
            "mmap of a {usable}-byte process stack failed: {}",
            std::io::Error::last_os_error()
        );
        // SAFETY: the first page of the mapping just created; revoking
        // access to it is the point.
        let rc = unsafe { mprotect(base, guard, PROT_NONE) };
        assert!(
            rc == 0,
            "mprotect of a stack guard page failed: {}",
            std::io::Error::last_os_error()
        );
        FREE.lock().entry(usable).or_default().mapped += 1;
        Stack {
            base: base.cast(),
            usable,
        }
    }

    /// Lay out the frame [`transfer`] expects at the top of this stack so
    /// that the first switch into the returned pointer calls
    /// `entry(arg, payload)` with the ABI's stack alignment. Any context
    /// previously suspended on this stack is discarded without unwinding.
    pub(crate) fn prepare(&mut self, entry: Entry, arg: usize) -> StackPtr {
        let frame = initial_frame(entry, arg);
        // SAFETY: `base + guard + usable` is one past the end of our own
        // mapping (page-, hence 16-byte aligned), and the frame's few words
        // below it lie in the writable part, which is at least a page and
        // which nothing else references.
        unsafe {
            let top = self.base.add(page_size() + self.usable).cast::<u64>();
            let sp = top.sub(frame.len());
            std::ptr::copy_nonoverlapping(frame.as_ptr(), sp, frame.len());
            StackPtr(sp.cast())
        }
    }
}

/// The register image a first `transfer` pops, lowest address first. Ten
/// words, of which `transfer` consumes eight:
///
/// ```text
/// [0] MXCSR (default 0x1F80) | x87 control word (default 0x037F) << 32
/// [1] r15  [2] r14  [3] r13 = entry  [4] r12 = arg
/// [5] rbx  [6] rbp = 0 (ends frame-pointer walks)
/// [7] return address = trampoline
/// [8] [9] zero
/// ```
///
/// After the `ret`, `rsp = &[8] = top - 16`: 16-byte aligned at the
/// trampoline's `call`, as the ABI requires, and a stray unwinder finds a
/// null return address above `entry`'s frame.
#[cfg(target_arch = "x86_64")]
fn initial_frame(entry: Entry, arg: usize) -> [u64; 10] {
    let mut frame = [0u64; 10];
    frame[0] = 0x1F80 | (0x037F << 32);
    frame[3] = entry as usize as u64;
    frame[4] = arg as u64;
    frame[7] = trampoline as *const () as usize as u64;
    frame
}

impl Drop for Stack {
    /// Park the stack on the free list (it keeps its touched pages, so the
    /// next simulation starts warm), or unmap it once the class is full.
    fn drop(&mut self) {
        let mut free = FREE.lock();
        let class = free.entry(self.usable).or_default();
        if class.free.len() < MAX_FREE_PER_SIZE {
            // The list owns the mapping from here on; `self` is plain data
            // and nothing further happens to it.
            class.free.push(Stack {
                base: self.base,
                usable: self.usable,
            });
            return;
        }
        drop(free);
        // SAFETY: `base` and the length are exactly what `mmap` returned
        // and was asked for, and nobody can reach the mapping after this.
        let rc = unsafe { munmap(self.base.cast(), self.usable + page_size()) };
        debug_assert_eq!(rc, 0, "munmap of a process stack failed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a test coroutine needs to find its way back.
    struct Ctl {
        main: StackPtr,
        own: StackPtr,
    }

    fn start(stack: &mut Stack, entry: Entry, ctl: &mut Ctl) {
        ctl.own = stack.prepare(entry, ctl as *mut Ctl as usize);
    }

    /// Resume the coroutine `ctl` describes with `payload`; returns what
    /// it hands back.
    fn resume(ctl: &mut Ctl, payload: usize) -> usize {
        // SAFETY: `ctl.own` was produced by `prepare` or saved by the
        // coroutine's own `transfer` below, its stack is alive in the
        // calling test, and only this thread knows about it.
        unsafe { transfer(&raw mut ctl.main, ctl.own, payload as *mut ()) as usize }
    }

    /// Hands back each payload plus one, forever.
    extern "C" fn add_one(arg: usize, payload: *mut ()) -> ! {
        let ctl = arg as *mut Ctl;
        let mut x = payload as usize;
        loop {
            // SAFETY: `ctl` outlives the coroutine (it lives in the test
            // frame suspended in `resume`), whose context `main` names.
            x = unsafe { transfer(&raw mut (*ctl).own, (*ctl).main, (x + 1) as *mut ()) as usize };
        }
    }

    #[test]
    fn payload_round_trips_in_both_directions() {
        let mut stack = Stack::new(64 * 1024);
        let mut ctl = Ctl {
            main: StackPtr::null(),
            own: StackPtr::null(),
        };
        start(&mut stack, add_one, &mut ctl);
        // First activation goes through the trampoline, later ones resume
        // inside the coroutine's loop.
        for x in [0usize, 41, usize::MAX - 1, 7] {
            assert_eq!(resume(&mut ctl, x), x + 1);
        }
    }

    /// Reports the address of a 16-byte-aligned local after doing
    /// floating-point work in it.
    extern "C" fn aligned_local(arg: usize, _payload: *mut ()) -> ! {
        #[repr(align(16))]
        struct Lanes([f64; 2]);
        let ctl = arg as *mut Ctl;
        let mut lanes = std::hint::black_box(Lanes([1.5, 2.25]));
        lanes.0[0] = lanes.0[0] * lanes.0[1] + 0.125;
        let at = std::hint::black_box(&lanes) as *const Lanes as usize;
        assert_eq!(lanes.0[0], 3.5);
        loop {
            // SAFETY: as in `add_one`.
            unsafe { transfer(&raw mut (*ctl).own, (*ctl).main, at as *mut ()) };
        }
    }

    #[test]
    fn first_activation_enters_with_abi_stack_alignment() {
        // The compiler places a 16-aligned local relative to the stack
        // pointer the ABI promises at entry; a mis-built initial frame
        // shows up as a misaligned address (or an alignment fault).
        let mut stack = Stack::new(64 * 1024);
        let mut ctl = Ctl {
            main: StackPtr::null(),
            own: StackPtr::null(),
        };
        start(&mut stack, aligned_local, &mut ctl);
        let at = resume(&mut ctl, 0);
        assert_eq!(at % 16, 0, "local at {at:#x}");
        let lo = stack.base as usize + page_size();
        assert!(
            (lo..lo + stack.usable).contains(&at),
            "local is on our stack"
        );
    }

    #[test]
    fn free_list_reuses_by_size_class() {
        // Sizes no other test in this binary uses.
        let (a, b) = (68 * 1024, 76 * 1024);
        let first = Stack::new(a);
        let base = first.base;
        assert_eq!(stack_stats(a), StackStats { mapped: 1, free: 0 });
        drop(first);
        assert_eq!(stack_stats(a), StackStats { mapped: 1, free: 1 });
        // Another size never takes it...
        let other = Stack::new(b);
        assert_eq!(stack_stats(b), StackStats { mapped: 1, free: 0 });
        assert_eq!(stack_stats(a).free, 1);
        // ...the same size (after page rounding) does.
        let again = Stack::new(a - 100);
        assert_eq!(again.base, base);
        assert_eq!(stack_stats(a), StackStats { mapped: 1, free: 0 });
        drop((other, again));
    }
}
