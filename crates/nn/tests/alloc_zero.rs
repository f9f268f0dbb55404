//! Steady-state training must not touch the heap.
//!
//! A counting global allocator wraps the system one; after a warmup
//! step has sized every scratch buffer, further `_into` train steps
//! must perform zero allocations. Counting is per thread: the test
//! harness runs tests (and reports results) on other threads, whose
//! allocations must not land in a count.

use nn::loss::softmax_cross_entropy_into;
use nn::{Dense, Mlp, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so reading them from
    // inside the allocator never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` with allocation counting enabled on this thread; returns
/// how many alloc/realloc calls it made.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(Cell::get)
}

fn batch(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut t = Tensor::zeros(rows, cols);
    let mut s = seed | 1;
    for v in &mut t.data {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        *v = ((s >> 40) as i32 - (1 << 23)) as f32 / (1 << 22) as f32;
    }
    t
}

#[test]
fn dense_train_step_allocates_nothing_after_warmup() {
    let mut layer = Dense::new(24, 16, 7);
    let x = batch(32, 24, 3);
    let labels: Vec<u16> = (0..32).map(|i| (i % 16) as u16).collect();
    let mut logits = Tensor::default();
    let mut grad = Tensor::default();
    let mut d_x = Tensor::default();

    let step = |layer: &mut Dense, logits: &mut Tensor, grad: &mut Tensor, d_x: &mut Tensor| {
        layer.forward_into(&x, logits);
        let _loss = softmax_cross_entropy_into(logits, &labels, grad);
        layer.backward_into(grad, 0.01, d_x);
    };

    // warmup sizes every scratch buffer (caches, workspace, grads)
    for _ in 0..3 {
        step(&mut layer, &mut logits, &mut grad, &mut d_x);
    }
    let n = count_allocs(|| {
        for _ in 0..5 {
            step(&mut layer, &mut logits, &mut grad, &mut d_x);
        }
    });
    assert_eq!(n, 0, "Dense train step must be allocation-free after warmup, saw {n} allocs");
}

#[test]
fn mlp_train_step_allocates_nothing_after_warmup() {
    let mut mlp = Mlp::new(&[20, 32, 12], 5);
    let x = batch(16, 20, 9);
    let labels: Vec<u16> = (0..16).map(|i| (i % 12) as u16).collect();
    let mut d_input = Tensor::default();

    for _ in 0..3 {
        mlp.train_batch_into(&x, &labels, 0.01, &mut d_input);
    }
    let n = count_allocs(|| {
        for _ in 0..5 {
            mlp.train_batch_into(&x, &labels, 0.01, &mut d_input);
        }
    });
    assert_eq!(n, 0, "Mlp train step must be allocation-free after warmup, saw {n} allocs");
}
