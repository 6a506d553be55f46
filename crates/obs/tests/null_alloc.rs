//! The zero-cost contract: with the default `NullRecorder`, the
//! `record!` macro and `timed` span helper must not allocate — the
//! event is never even constructed. Verified with a counting global
//! allocator.

use asched_obs::{record, timed, Event, MergeRung, Pass, Recorder, Severity, StallKind, NULL};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

// Per-thread counter: the test harness runs the tests below on
// concurrent threads, and one test's allocations (or the harness's own)
// must not land in another test's measurement.
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` so allocations during TLS teardown stay harmless.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(|c| c.get());
    let r = f();
    (ALLOCATIONS.with(|c| c.get()) - before, r)
}

#[test]
fn null_recorder_paths_do_not_allocate() {
    // Warm up whatever the test harness itself lazily allocates.
    let _ = allocations(|| {});

    let (n, _) = allocations(|| {
        for i in 0..1000u64 {
            record!(
                &NULL,
                Event::Issue {
                    cycle: i,
                    pos: i as u32,
                    node: i as u32,
                    unit: 0,
                }
            );
            record!(
                &NULL,
                Event::Stall {
                    cycle: i,
                    head: 3,
                    kind: StallKind::DataWait,
                    cycles: 1,
                }
            );
            record!(
                &NULL,
                Event::MergeDone {
                    rung: MergeRung::Paper,
                    makespan: i,
                    relaxed: 0,
                }
            );
            record!(
                &NULL,
                Event::Diagnostic {
                    severity: Severity::Info,
                    code: "noop",
                    // The format! below would allocate — the macro must
                    // short-circuit before evaluating it.
                    message: &format!("expensive {i}"),
                }
            );
            let v = timed(&NULL, Pass::Merge, || i * 2);
            assert_eq!(v, i * 2);
        }
    });
    assert_eq!(n, 0, "disabled recorder must not allocate");
}

#[test]
fn null_recorder_is_disabled_and_inert() {
    assert!(!NULL.enabled());
    // Direct record/flush calls are harmless no-ops too.
    let (n, _) = allocations(|| {
        NULL.record(&Event::Counter {
            name: "x",
            delta: 1,
        });
        let _ = NULL.flush();
    });
    assert_eq!(n, 0);
}
