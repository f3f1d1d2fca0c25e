//! A counting global allocator for zero-allocation regression tests.
//!
//! The hot path of every backend — encode into the scratch encoder,
//! frame, read back, decode, verify — is written to reuse buffers in
//! steady state. This module makes that a *testable* property instead
//! of a code-review convention: install [`CountingAlloc`] as the
//! `#[global_allocator]` of a dedicated test binary and wrap the
//! steady-state section in [`count_allocations`]:
//!
//! ```ignore
//! use meba_testkit::alloc_count::{count_allocations, CountingAlloc};
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc::new();
//!
//! // ... warm up the buffers, then:
//! let (allocs, _) = count_allocations(|| hot_loop());
//! assert_eq!(allocs, 0);
//! ```
//!
//! Only the thread that opened the section is counted: the flag is a
//! `const`-initialised thread-local, so an allocation made meanwhile by
//! another thread — libtest's own, or a parallel test's — is never
//! billed to the section. `crates/testkit/tests/zero_alloc.rs` is the
//! canonical user.
//!
//! This is the only module in the crate allowed to use `unsafe`: a
//! `GlobalAlloc` impl cannot be written without it, and both functions
//! only delegate to [`System`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const`-initialised and without a destructor, so reading them
    // never allocates — the allocator itself can consult them.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// A `#[global_allocator]` that delegates to [`System`] and, while a
/// [`count_allocations`] section is active on the allocating thread,
/// counts every allocation (including `realloc` growth and zeroed
/// allocations). Deallocations are free and uncounted.
#[derive(Debug, Default)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// A new counting allocator (const, so it can be a `static`).
    #[must_use]
    pub const fn new() -> Self {
        CountingAlloc
    }
}

fn tick() {
    // `try_with`: a thread being torn down has no locals left, and is
    // not counting.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

#[allow(unsafe_code)]
// SAFETY: every method delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the counter has no effect on the returned
// memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

/// Runs `f` with allocation counting enabled and returns
/// `(allocations_during_f, f's result)`.
///
/// Only allocations made on the calling thread are counted — work `f`
/// hands to another thread is not. Sections are not reentrant — nested
/// calls reset the counter.
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCS.with(Cell::get), out)
}
