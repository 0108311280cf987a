//! Software prefetch: the one place code hints the memory system.
//!
//! The window scan, the incremental key merge and a walk over a
//! [`KeyArena`](crate::KeyArena) in sorted order all know the addresses
//! they will read a few steps before they read them — the next positions'
//! records, the next bisection level's probes, the next keys' spans — and
//! each would otherwise meet those cache misses one at a time. A prefetch starts the
//! fetch early so several misses are in flight at once. It is a hint: it
//! changes no value and never faults, so a wasted or mistaken one costs a
//! little bandwidth and nothing else.

/// Bytes in a cache line on every target the engine is tuned for.
const LINE: usize = 64;

/// Starts bringing the cache line holding `p` into every cache level. Any
/// address is allowed — dangling, null, past an allocation — and none is
/// read. A no-op on targets other than x86_64.
#[inline(always)]
pub fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 only hints the cache hierarchy: it makes no access
    // a program can observe and raises no fault for any address, valid or
    // not. SSE is part of the x86_64 baseline, so the instruction exists.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Prefetches every cache line `*value` occupies.
#[inline(always)]
pub fn prefetch_lines<T>(value: &T) {
    let start = (value as *const T).cast::<u8>();
    let end = start.wrapping_add(std::mem::size_of::<T>());
    let mut line = start.wrapping_sub(start as usize % LINE);
    while line < end {
        prefetch(line);
        line = line.wrapping_add(LINE);
    }
}
