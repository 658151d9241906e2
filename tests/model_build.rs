//! The compiled machine models, pinned. Each shipped description's
//! `content_hash` (and UltraSPARC's at the tables' two cycles of load
//! bias) is compared with the value recorded before Spawn's scopes
//! became shared frames, so any change to a compiled group, binding or
//! group order fails `cargo test` at the root. One UltraSPARC model
//! build is also held to an allocation budget, counted on this test's
//! own thread by a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eel_repro::pipeline::MachineModel;

/// Counts allocations on threads that opted in; forwards everything
/// to the system allocator.
struct Counting;

thread_local! {
    /// `Some(n)` while this thread counts: `n` allocations so far.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_alloc() {
    ALLOCS.with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter is a const-initialised thread-local `Cell` that neither
// allocates nor needs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) `f` makes on the calling thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|c| c.set(Some(0)));
    let out = f();
    let n = ALLOCS.with(|c| c.replace(None)).expect("counting");
    (out, n)
}

/// Each shipped model's name and `content_hash`, in
/// `MachineModel::shipped()` order, recorded before Spawn's scopes
/// became shared frames.
const PINNED: &[(&str, u64)] = &[
    ("hyperSPARC", 0x6730_5720_239a_6a65),
    ("SuperSPARC", 0xa7bd_aeb3_87b8_e228),
    ("UltraSPARC", 0xbf05_16a0_b09a_5a16),
    ("microSPARC", 0xbf84_aabe_61c5_8c50),
    ("VLIW", 0xd5f3_65df_f036_c330),
    ("DeepSPARC", 0x5d07_523b_703d_ed08),
];

/// UltraSPARC's hash at the load bias the tables build with.
const ULTRASPARC_BIAS2: u64 = 0xe416_95e7_7cd6_03a2;

/// One `MachineModel::ultrasparc()` made 24,598 allocations while every
/// closure, sequence and `sem` copied a string-keyed scope; with shared
/// frames it makes about 6,000.
const MAX_ALLOCS: u64 = 8_000;

#[test]
fn shipped_models_keep_their_content_hashes() {
    let shipped = MachineModel::shipped();
    let names: Vec<&str> = shipped.iter().map(MachineModel::name).collect();
    let pinned: Vec<&str> = PINNED.iter().map(|&(name, _)| name).collect();
    assert_eq!(names, pinned, "one pinned hash per shipped machine");
    for (model, &(name, want)) in shipped.iter().zip(PINNED) {
        let got = model.content_hash();
        assert_eq!(got, want, "{name}: {got:#018x} != {want:#018x}");
    }
    let got = MachineModel::ultrasparc()
        .with_load_latency_bias(2)
        .content_hash();
    assert_eq!(
        got, ULTRASPARC_BIAS2,
        "UltraSPARC at load bias 2: {got:#018x} != {ULTRASPARC_BIAS2:#018x}"
    );
}

#[test]
fn one_model_build_allocates_little() {
    let (model, n) = allocations(MachineModel::ultrasparc);
    assert_eq!(model.name(), "UltraSPARC");
    assert!(
        n <= MAX_ALLOCS,
        "one UltraSPARC build made {n} allocations (budget {MAX_ALLOCS})"
    );
}
