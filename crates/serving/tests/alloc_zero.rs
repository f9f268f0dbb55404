//! A flood of flows the policy drops must not touch the heap once warm.
//!
//! A counting global allocator wraps the system one. One-packet SYN
//! flows from unique tuples, each dropped when it opens, are driven
//! through `push_routed` and `poll_into` at a steady live count; after
//! a warm-up has sized the table, the index and the retire buffer,
//! further packets must perform zero allocations: a dropped flow stores
//! no packets, and the index and slab reuse what retired flows freed.
//! Counting is per thread: the test harness runs tests (and reports
//! results) on other threads, whose allocations must not land in a
//! count.

use net_packet::builder::FrameBuilder;
use net_packet::ipv4::Ipv4Addr;
use net_packet::tcp::TcpFlags;
use serving::flow::Ingest;
use serving::FlowTable;
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

/// Distinct source tuples in the flood; a tuple comes back only long
/// after its flow went idle, so every packet opens a flow.
const SOURCES: u32 = 8192;
/// Seconds between packets: with the 1 s idle timeout, about 1000
/// flows are live at any time.
const STEP: f64 = 1e-3;
const IDLE: f64 = 1.0;

#[test]
fn dropped_one_packet_flows_allocate_nothing_after_warmup() {
    let server = Ipv4Addr::new(198, 51, 100, 7);
    let frames: Vec<Vec<u8>> = (0..SOURCES)
        .map(|k| {
            let src = Ipv4Addr::new(10, 200, (k >> 8) as u8, k as u8);
            FrameBuilder::tcp_ipv4_default()
                .src(src, 1024 + (k % 7) as u16)
                .dst(server, 443)
                .flags(TcpFlags::SYN)
                .build()
        })
        .collect();
    let mut table = FlowTable::<()>::new_routed(IDLE).unwrap();
    let mut retired = Vec::new();
    let mut seq = 0u64;
    let mut run = |packets: u64, retired_total: &mut u64| {
        for _ in 0..packets {
            let ts = seq as f64 * STEP;
            let frame = &frames[(seq % u64::from(SOURCES)) as usize];
            let ingest = table.push_routed(seq, ts, frame, |_| None);
            assert_eq!(ingest, Ingest::Tracked { opened: true });
            table.poll_into(ts, &mut retired);
            *retired_total += retired.len() as u64;
            seq += 1;
        }
    };
    let mut warm = 0;
    run(3 * u64::from(SOURCES), &mut warm);
    assert!(warm > 0, "the warm-up retires flows");
    let mut steady = 0;
    let allocs = count_allocs(|| run(4 * u64::from(SOURCES), &mut steady));
    assert!(steady >= 4 * u64::from(SOURCES) - 2000, "flows retire as fast as they open");
    assert_eq!(allocs, 0, "steady-state allocations over {steady} dropped flows");
}
