//! Memory footprint of the track-paged block store, pinned by a counting
//! allocator instead of a timing test.
//!
//! A blank default-geometry disk must cost its per-track page index
//! (32 KiB), not an empty slot per block (2 MiB); a written block must
//! cost one page for its track, if the track had none, plus its image.
//! The counters are per thread, so the test harness's own threads cannot
//! disturb a measurement.

use bytes::Bytes;
use simdisk::{BlockAddr, DiskGeometry, DiskProfile, SimDisk};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Bytes allocated and not yet freed by this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn account(delta: isize) {
    // `try_with` keeps allocations made while the thread is torn down
    // (after its locals are gone) from panicking inside the allocator.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// bookkeeping touches only a const-initialized thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as isize);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        account(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        account(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes that `f` leaves allocated on this thread, plus its result.
fn retained<R>(f: impl FnOnce() -> R) -> (isize, R) {
    let before = LIVE.with(Cell::get);
    let r = f();
    (LIVE.with(Cell::get) - before, r)
}

/// One track page: a slot per block of the track.
fn page_bytes(g: DiskGeometry) -> isize {
    (g.blocks_per_track as usize * std::mem::size_of::<Option<Bytes>>()) as isize
}

#[test]
fn blank_disk_costs_its_track_index_not_a_dense_table() {
    let g = DiskGeometry::default();
    let (bytes, disk) = retained(|| SimDisk::new(g, DiskProfile::wren()));
    assert!(
        bytes <= 64 * 1024,
        "a blank {}-track disk retains {bytes} B (budget 64 KiB; a dense table \
         is {} B)",
        g.tracks,
        g.capacity_blocks() as usize * std::mem::size_of::<Option<Bytes>>()
    );
    assert_eq!(disk.blocks_in_use(), 0);
}

#[test]
fn a_written_block_costs_one_page_plus_its_image() {
    let g = DiskGeometry::default();
    let data = vec![7u8; g.block_size];
    let (image, probe) = retained(|| Bytes::copy_from_slice(&data));
    drop(probe);
    let mut disk = SimDisk::new(g, DiskProfile::wren());
    let first_track = |t: u32| BlockAddr::new(t * g.blocks_per_track);

    // Clearing blocks of never-written tracks allocates nothing.
    let (bytes, ()) = retained(|| {
        for t in [0, 1, g.tracks - 1] {
            disk.clear_raw(first_track(t));
        }
    });
    assert_eq!(bytes, 0, "clear_raw on an untouched track allocated");

    // The first page also starts the store's list of pages (a few words
    // per entry); from then on, until that list next grows, a write to an
    // untouched track costs exactly one page plus the image.
    let (first, ()) = retained(|| disk.write_raw(first_track(3), &data));
    let list = first - (page_bytes(g) + image);
    assert!(
        (0..=256).contains(&list),
        "first write retained {first} B: {list} B beyond one page and image"
    );
    let (bytes, ()) = retained(|| disk.write_raw(first_track(9), &data));
    assert_eq!(bytes, page_bytes(g) + image, "write to an untouched track");

    // A second block on a paged track costs just its image; overwriting a
    // block swaps images; clearing frees the image but keeps the page.
    let (bytes, ()) =
        retained(|| disk.write_raw(BlockAddr::new(9 * g.blocks_per_track + 1), &data));
    assert_eq!(bytes, image, "write to a paged track");
    let (bytes, ()) = retained(|| disk.write_raw(first_track(9), &data));
    assert_eq!(bytes, 0, "overwrite");
    let (bytes, ()) = retained(|| disk.clear_raw(first_track(9)));
    assert_eq!(bytes, -image, "clear");
    assert_eq!(disk.blocks_in_use(), 2);
}
