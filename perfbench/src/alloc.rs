//! Counting global allocator: live bytes, peak live bytes, and the number
//! and volume of allocations since the last [`reset`].
//!
//! The benchmark is single-threaded, so relaxed atomics are exact; they
//! only guard against the allocator being entered from a library thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub struct Counting;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK.fetch_max(live, Relaxed);
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
}

fn on_free(size: usize) {
    LIVE.fetch_sub(size as u64, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged to the system allocator.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged to the system allocator.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this layout.
        unsafe { System.dealloc(ptr, layout) };
        on_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged to the system allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// What one window between [`reset`] and [`sample`] allocated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocSample {
    /// Peak live heap above the live heap at the reset, in bytes.
    pub peak_bytes: u64,
    pub count: u64,
    pub bytes: u64,
}

/// Start a new window: the peak restarts at the current live heap, which
/// is returned as the window's base for [`sample`].
pub fn reset() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    COUNT.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    live
}

/// Read the window opened by the last [`reset`] at `base` live bytes.
pub fn sample(base: u64) -> AllocSample {
    AllocSample {
        peak_bytes: PEAK.load(Relaxed).saturating_sub(base),
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}
