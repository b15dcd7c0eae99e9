//! Heap allocations on the avatar path, pinned as counts.
//!
//! A counting global allocator tallies each thread's allocations
//! (reallocations included, since a growing buffer pays one per
//! doubling), so the counts hold while the harness runs tests in
//! parallel. The steady state pinned here: an update is encoded in two
//! allocations, its bytes and the shared storage they are frozen into;
//! reading an update's anchor allocates nothing; stepping motion into
//! warm buffers allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use svr_avatar::codec::{encode_update, make_update, read_anchor};
use svr_avatar::{Embodiment, MotionState, Pose, Vec3};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // Fails only while the thread's locals are being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator, counting every allocation and reallocation.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which meets the `GlobalAlloc` contract. The counter is a
// const-initialised `Cell` without a destructor, so updating it neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller meets `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller meets `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`, and the caller meets `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn profiles() -> [Embodiment; 6] {
    [
        Embodiment::upper_torso_no_face(),
        Embodiment::upper_torso_hands_no_face(),
        Embodiment::upper_torso_simple_face(),
        Embodiment::full_body_cartoon(),
        Embodiment::human_like(),
        Embodiment::photorealistic(),
    ]
}

#[test]
fn encoding_an_update_takes_two_allocations_for_every_embodiment() {
    for e in profiles() {
        let mut m = MotionState::new(3, Vec3::new(1.0, 0.0, 1.0), 0.0);
        m.wander();
        let (pose, vel) = m.step(0.05, &e);
        let update = make_update(1, 2, &e, pose, vel);
        let (wire, n) = allocations(|| encode_update(&update));
        assert_eq!(n, 2, "{}: {} bytes", e.name, wire.len());
    }
}

#[test]
fn reading_an_anchor_allocates_nothing() {
    for e in profiles() {
        let (pose, vel) = MotionState::new(4, Vec3::ZERO, 90.0).step(0.05, &e);
        let wire = encode_update(&make_update(1, 2, &e, pose, vel));
        let (anchor, n) = allocations(|| read_anchor(&wire));
        assert!(anchor.is_ok(), "{}", e.name);
        assert_eq!(n, 0, "{}", e.name);
    }
}

#[test]
fn stepping_motion_into_warm_buffers_allocates_nothing() {
    for e in profiles() {
        let mut m = MotionState::new(5, Vec3::ZERO, 0.0);
        m.wander();
        let mut pose = Pose::default();
        let mut vel = Vec::new();
        m.step_into(0.05, &e, &mut pose, &mut vel);
        let ((), n) = allocations(|| {
            for _ in 0..200 {
                m.step_into(0.05, &e, &mut pose, &mut vel);
            }
        });
        assert_eq!(n, 0, "{}", e.name);
    }
}
