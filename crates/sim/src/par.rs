//! Fixed-size worker pool for embarrassingly parallel sweeps.
//!
//! Every sweep point of the evaluation — one `(benchmark, system, scale,
//! fault, sensitivity)` configuration — is an independent, deterministic
//! simulation: each run constructs its own machine, protocol and runtime,
//! and each runtime seeds its own [`crate::Pcg32`] from its config. No
//! state is shared between points, so executing them concurrently cannot
//! change any result. [`par_map`] exploits that: a fixed pool of
//! `std::thread::scope` workers claims indices from a shared counter and
//! writes each result into its input's slot, so the output order is the
//! input order regardless of which worker finished when — the property
//! the byte-identical determinism tests pin down.
//!
//! A worker panic (e.g. the coherence sanitizer rejecting a harvest)
//! propagates out of the scope when the threads join, exactly as it would
//! have on the calling thread. [`try_par_map`] instead reports each
//! failure as `Err("file.rs:line: message")` — the panic site is captured
//! by a process-wide hook (installed once, chaining any previous hook)
//! into a thread-local, because the location is only reachable from
//! inside the hook, never from the `catch_unwind` payload.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};

/// The host's available parallelism (the `--jobs` default), at least 1.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

thread_local! {
    /// `file:line` of the most recent panic on this thread, captured by
    /// the hook below. Taken (not just read) by [`call_caught`] so a
    /// stale location can never be attributed to a later panic.
    static LAST_PANIC_LOCATION: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Installs the location-capturing panic hook, once per process,
/// chaining whatever hook was installed before it (the default printer,
/// or the test harness's capture hook).
fn install_location_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let loc = info
                .location()
                .map(|l| format!("{}:{}", l.file(), l.line()));
            LAST_PANIC_LOCATION.with(|c| *c.borrow_mut() = loc);
            prev(info);
        }));
    });
}

/// A caught worker panic: the original payload (for re-raising with
/// [`std::panic::resume_unwind`]) plus the `file:line` the hook captured.
struct Caught {
    payload: Box<dyn std::any::Any + Send + 'static>,
    location: Option<String>,
}

impl Caught {
    /// The human-readable report: `file.rs:line: message` when the hook
    /// saw the panic, bare message otherwise.
    fn message(&self) -> String {
        let msg = panic_message(self.payload.as_ref());
        match &self.location {
            Some(loc) => format!("{loc}: {msg}"),
            None => msg,
        }
    }
}

/// Runs `f`, converting a panic into a [`Caught`] carrying the payload
/// and the panic site.
fn call_caught<R>(f: impl FnOnce() -> R) -> Result<R, Caught> {
    install_location_hook();
    LAST_PANIC_LOCATION.with(|c| c.borrow_mut().take());
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| Caught {
        payload,
        location: LAST_PANIC_LOCATION.with(|c| c.borrow_mut().take()),
    })
}

/// Applies `f` to every item on a pool of at most `jobs` worker threads,
/// returning the results in input order.
///
/// With `jobs <= 1` (or a single item) the map runs on the calling
/// thread; either way `f` sees `(index, item)` and the result vector is
/// indexed identically, so serial and parallel executions are
/// indistinguishable to the caller.
pub fn par_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    // Worker panics are caught by the pool and re-raised on the calling
    // thread with their original payload (the scope's own propagation
    // would replace a sanitizer diagnostic with "a scoped thread
    // panicked"); the lowest panicking index wins, so the surfaced
    // failure is deterministic.
    let mut out = Vec::with_capacity(items.len());
    for outcome in run_pool(jobs, items, f) {
        match outcome {
            Ok(r) => out.push(r),
            Err(caught) => std::panic::resume_unwind(caught.payload),
        }
    }
    out
}

/// [`par_map`] with per-item failure isolation: a panicking item yields
/// `Err("file.rs:line: message")` in its slot while every other item
/// still completes.
///
/// The sweep drivers use this to finish a grid despite individual bad
/// points, then report the failures (tagged with their sweep key) and
/// exit nonzero — instead of losing the whole sweep to its first panic.
pub fn try_par_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<Result<R, String>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    run_pool(jobs, items, f)
        .into_iter()
        .map(|outcome| outcome.map_err(|c| c.message()))
        .collect()
}

/// The panic payload's human-readable message (`panic!` supplies a
/// `&str` or `String`; anything else gets a fixed fallback — its origin
/// is still pinned by the captured location).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

type Outcome<R> = Result<R, Caught>;

/// The shared pool: applies `f` to every item, capturing each result or
/// panic in input order.
fn run_pool<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<Outcome<R>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let jobs = jobs.max(1).min(n.max(1));
    if jobs <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| call_caught(|| f(i, item)))
            .collect();
    }
    // Tasks and result slots are indexed; the per-slot mutexes are taken
    // once each, far off any hot path (a sweep point runs for ms–s).
    let tasks: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<Outcome<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = tasks[i]
                    .lock()
                    .expect("task mutex never poisoned: held only to take")
                    .take()
                    .expect("each index is claimed exactly once");
                let r = call_caught(|| f(i, item));
                *slots[i]
                    .lock()
                    .expect("slot mutex never poisoned: held only to store") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot mutex unlocked after scope join")
                .expect("every slot filled: workers drained the counter")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let items: Vec<u64> = (0..37).collect();
        let serial = par_map(1, items.clone(), |i, x| (i as u64) * 1000 + x * x);
        for jobs in [2, 3, 8, 64] {
            let parallel = par_map(jobs, items.clone(), |i, x| (i as u64) * 1000 + x * x);
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(par_map(8, Vec::<u8>::new(), |_, x| x), Vec::<u8>::new());
        assert_eq!(par_map(8, vec![7], |i, x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let out = par_map(16, vec![1, 2, 3], |_, x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn available_jobs_is_positive() {
        assert!(available_jobs() >= 1);
    }

    #[test]
    fn try_par_map_isolates_failures() {
        for jobs in [1, 4] {
            let items: Vec<usize> = (0..8).collect();
            let out = try_par_map(jobs, items, |_, x| {
                if x % 3 == 0 {
                    panic!("bad point {x}");
                }
                x * 10
            });
            assert_eq!(out.len(), 8, "jobs={jobs}");
            for (i, r) in out.iter().enumerate() {
                if i % 3 == 0 {
                    let e = r.as_ref().unwrap_err();
                    assert!(e.ends_with(&format!("bad point {i}")), "jobs={jobs}: {e:?}");
                    assert!(e.contains("par.rs:"), "location prefix missing: {e:?}");
                } else {
                    assert_eq!(r.as_ref().unwrap(), &(i * 10));
                }
            }
        }
    }

    #[test]
    fn try_par_map_locates_non_string_payloads() {
        for jobs in [1, 4] {
            let out = try_par_map(jobs, vec![0usize, 1], |_, x| {
                if x == 1 {
                    std::panic::panic_any(0xbad_usize);
                }
                x
            });
            let e = out[1].as_ref().unwrap_err();
            assert!(
                e.ends_with("worker panicked with a non-string payload"),
                "jobs={jobs}: {e:?}"
            );
            assert!(e.contains("par.rs:"), "location prefix missing: {e:?}");
        }
    }

    #[test]
    fn try_par_map_all_ok_matches_par_map() {
        let items: Vec<u64> = (0..20).collect();
        let plain = par_map(4, items.clone(), |i, x| (i as u64) + x);
        let fallible: Vec<u64> = try_par_map(4, items, |i, x| (i as u64) + x)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(plain, fallible);
    }

    #[test]
    #[should_panic(expected = "boom at 5")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..8).collect();
        par_map(4, items, |_, x| {
            if x == 5 {
                panic!("boom at {x}");
            }
            x
        });
    }
}
