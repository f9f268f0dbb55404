//! Batch prediction must not touch the heap once warm.
//!
//! A counting global allocator wraps the system one; after a first
//! call has sized the caller's scratch and output buffers, further
//! `predict_into` calls must perform zero allocations. Counting is per
//! thread: the test harness runs tests (and reports results) on other
//! threads, whose allocations must not land in a count.

use shallow::forest::{ForestParams, RandomForest};
use shallow::gbdt::{GbdtParams, GradientBoosting, GrowthPolicy};
use shallow::knn::{KnnClassifier, KnnScratch};
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

/// `n` rows of 4 features, 3 classes, with a NaN now and then.
fn dataset(n: usize) -> (Vec<[f32; 4]>, Vec<u16>) {
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 40) as f32 / (1u64 << 24) as f32
    };
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let c = (i % 3) as u16;
        let noise = if i % 23 == 0 { f32::NAN } else { next() };
        x.push([f32::from(c) + next(), noise, f32::from(c) * 0.5 - next(), next()]);
        y.push(c);
    }
    (x, y)
}

#[test]
fn forest_batch_prediction_allocates_nothing_after_warmup() {
    let (x, y) = dataset(300);
    let rows: Vec<&[f32]> = x.iter().map(|r| r.as_slice()).collect();
    let forest =
        RandomForest::fit(&rows, &y, 3, ForestParams { n_trees: 8, ..Default::default() }, 3);
    let mut votes = Vec::new();
    let mut out = Vec::new();
    forest.predict_into(&x, &mut votes, &mut out);
    let want = out.clone();
    // Shorter batches, ragged against the walk's lanes, reuse the same
    // buffers.
    let allocs = count_allocs(|| {
        for n in [300, 1, 17, 34, 0, 299] {
            forest.predict_into(&x[..n], &mut votes, &mut out);
        }
        forest.predict_into(&x, &mut votes, &mut out);
    });
    assert_eq!(allocs, 0, "RandomForest::predict_into allocated {allocs} times");
    assert_eq!(out, want);
}

#[test]
fn gbdt_batch_prediction_allocates_nothing_after_warmup() {
    let (x, y) = dataset(300);
    let rows: Vec<&[f32]> = x.iter().map(|r| r.as_slice()).collect();
    for policy in [GrowthPolicy::DepthWise, GrowthPolicy::LeafWise] {
        let gbdt = GradientBoosting::fit(&rows, &y, 3, GbdtParams { policy, ..Default::default() });
        let mut scores = Vec::new();
        let mut out = Vec::new();
        gbdt.predict_into(&x, &mut scores, &mut out);
        let want = (scores.clone(), out.clone());
        let allocs = count_allocs(|| {
            for n in [300, 1, 17, 34, 0, 299] {
                gbdt.predict_into(&x[..n], &mut scores, &mut out);
            }
            gbdt.predict_into(&x, &mut scores, &mut out);
        });
        assert_eq!(
            allocs, 0,
            "{policy:?}: GradientBoosting::predict_into allocated {allocs} times"
        );
        assert_eq!((scores, out), want, "{policy:?}");
    }
}

#[test]
fn knn_batch_prediction_allocates_nothing_after_warmup() {
    let (x, y) = dataset(300);
    let rows: Vec<&[f32]> = x.iter().map(|r| r.as_slice()).collect();
    let knn = KnnClassifier::fit(&rows, &y, 5);
    let mut scratch = KnnScratch::default();
    let mut out = Vec::new();
    knn.predict_into(&x, &mut scratch, &mut out);
    let want = out.clone();
    assert_eq!(want, knn.predict(&rows), "batch and one-shot predictions agree");
    let allocs = count_allocs(|| {
        for n in [300, 1, 17, 34, 0, 299] {
            knn.predict_into(&x[..n], &mut scratch, &mut out);
        }
        knn.predict_into(&x, &mut scratch, &mut out);
    });
    assert_eq!(allocs, 0, "KnnClassifier::predict_into allocated {allocs} times");
    assert_eq!(out, want);
}
