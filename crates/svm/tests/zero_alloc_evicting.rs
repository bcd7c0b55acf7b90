//! Proof that SMO iterations which miss the kernel-row cache and evict are
//! allocation-free.
//!
//! A counting global allocator wraps the system allocator. The cache holds
//! about four of the 48 kernel rows, so rows keep missing and evicting;
//! once every slot is in use, a measured segment must perform exactly zero
//! heap allocations — evicted slots are reused in place, and the SMSV of a
//! miss runs on borrowed row views and the reusable workspace.
//!
//! This file must stay the *only* test in its binary: the allocation
//! counter is process-global, and a concurrently running test would
//! pollute it.

use dls_sparse::{AnyMatrix, Format, TripletMatrix};
use dls_svm::{KernelKind, SmoParams, SmoState};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Overlapping 1-D clusters: slow to converge, so the working set keeps
/// moving across many rows.
fn twin_clusters(n: usize) -> (TripletMatrix, Vec<f64>) {
    let mut t = TripletMatrix::new(n, 2);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        let jitter = (i as f64 * 0.77).sin();
        t.push(i, 0, sign * 0.5 + jitter * 0.9);
        t.push(i, 1, (i as f64 * 0.31).cos());
        y.push(sign);
    }
    (t.compact(), y)
}

#[test]
fn evicting_smo_iterations_do_not_allocate() {
    let n = 48;
    let (t, y) = twin_clusters(n);
    for block_size in [1, 32] {
        let params = SmoParams {
            kernel: KernelKind::Gaussian { gamma: 0.7 },
            c: 10.0,
            tolerance: 1e-6, // tight: keeps the solver iterating long enough
            cache_bytes: 4 * n * std::mem::size_of::<f64>(),
            block_size,
            ..Default::default()
        };
        for fmt in [Format::Csr, Format::Den] {
            let x = AnyMatrix::from_triplets(fmt, &t);
            let mut state = SmoState::new(&x, &y, &params).unwrap();

            // Every computed row takes a free slot until all four are in
            // use; from then on each miss evicts.
            while state.smsv_count() < 4 {
                assert!(state.can_continue(&params), "{fmt} b={block_size}: converged early");
                state.run_segment(&x, &params, 1);
            }

            let before = ALLOCS.load(Ordering::Relaxed);
            let rep = state.run_segment(&x, &params, 50);
            let after = ALLOCS.load(Ordering::Relaxed);
            assert_eq!(rep.iterations, 50, "{fmt} b={block_size}: measured segment cut short");
            // Rows are computed, so misses, and hence evictions, happen.
            assert!(rep.smsv_count > 0, "{fmt} b={block_size}: no cache misses");
            assert_eq!(
                after - before,
                0,
                "{fmt} b={block_size}: {} allocations in {} evicting iterations",
                after - before,
                rep.iterations
            );
        }
    }
}
