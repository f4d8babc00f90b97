//! A minimal deterministic worker pool for independent units.
//!
//! The pipeline fans out over *independent* units with [`map_ordered`]:
//! power modes in characterization, zoning and the dynamic-polarity flow.
//! Results always come back in input order, so the outcome of a run is
//! independent of the worker count: the same contiguous-chunk scheme as
//! [`crate::montecarlo`], built on [`std::thread::scope`]. Zone solves do
//! not go through it. Zones chain through the accumulated background, so
//! they are scheduled over the share-plan tree instead
//! ([`crate::algo`]'s `share` module), where a group is ready once its
//! parent prefix is answered.

/// The process-wide default worker count, resolved from
/// [`std::thread::available_parallelism`] exactly once and cached for the
/// life of the process. A long-lived serve session must not change its
/// `map_ordered` batching (and thus its work partitioning) mid-flight
/// just because the surrounding cgroup was resized between jobs.
pub(crate) fn available_threads() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Maps `f` over `items`, returning results in input order.
///
/// With `threads <= 1` (or fewer than two items) the map runs inline on
/// the calling thread — no pool, no overhead. Otherwise the items are
/// split into at most `threads` contiguous chunks, one scoped worker per
/// chunk. `f` receives the item's index alongside the item. Worker panics
/// propagate to the caller.
pub(crate) fn map_ordered<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if threads <= 1 || items.len() < 2 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let workers = threads.min(items.len());
    let chunk = items.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(ci, slice)| {
                let f = &f;
                scope.spawn(move || {
                    slice
                        .iter()
                        .enumerate()
                        .map(|(i, t)| f(ci * chunk + i, t))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Renders a caught panic payload as text. `panic!` carries a `&str` or
/// `String` in practice; anything else gets a stable placeholder so the
/// containment layer can always produce a typed error.
pub(crate) fn panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 3, 8, 200] {
            let out = map_ordered(&items, threads, |i, &x| {
                assert_eq!(i, x, "index matches item");
                x * 2
            });
            let want: Vec<usize> = items.iter().map(|x| x * 2).collect();
            assert_eq!(out, want, "threads = {threads}");
        }
    }

    #[test]
    fn handles_empty_and_single() {
        let none: Vec<u8> = Vec::new();
        assert!(map_ordered(&none, 4, |_, &x| x).is_empty());
        assert_eq!(map_ordered(&[7u8], 4, |_, &x| x), vec![7]);
    }

    #[test]
    fn results_are_thread_count_independent() {
        let items: Vec<f64> = (0..37).map(|i| f64::from(i) * 1.5).collect();
        let seq = map_ordered(&items, 1, |i, &x| x + i as f64);
        for threads in [2, 4, 16] {
            assert_eq!(map_ordered(&items, threads, |i, &x| x + i as f64), seq);
        }
    }

    #[test]
    fn error_results_stay_in_place() {
        let items: Vec<u32> = (0..10).collect();
        let out = map_ordered(&items, 3, |_, &x| if x == 4 { Err("boom") } else { Ok(x) });
        assert_eq!(out[4], Err("boom"));
        assert_eq!(out.iter().filter(|r| r.is_ok()).count(), 9);
    }

    #[test]
    #[should_panic(expected = "worker panic propagates")]
    fn panics_propagate() {
        let items: Vec<u8> = (0..8).collect();
        let _ = map_ordered(&items, 4, |_, &x| {
            assert!(x < 6, "worker panic propagates");
            x
        });
    }

    #[test]
    fn each_worker_maps_one_contiguous_chunk() {
        let items: Vec<usize> = (0..10).collect();
        for threads in [2, 3, 4, 16] {
            let owners = map_ordered(&items, threads, |_, _| std::thread::current().id());
            let chunks = 1 + owners.windows(2).filter(|w| w[0] != w[1]).count();
            let mut distinct = owners.clone();
            distinct.sort_by_key(|id| format!("{id:?}"));
            distinct.dedup();
            // As many runs as threads: no thread comes back after its run.
            assert_eq!(chunks, distinct.len(), "threads = {threads}");
            let want = items.len().div_ceil(items.len().div_ceil(threads));
            assert_eq!(chunks, want, "threads = {threads}");
            assert!(owners.iter().all(|o| *o != std::thread::current().id()));
        }
        // One thread maps inline on the caller.
        let inline = map_ordered(&items, 1, |_, _| std::thread::current().id());
        assert!(inline.iter().all(|o| *o == std::thread::current().id()));
    }

    #[test]
    fn available_threads_is_positive_and_cached() {
        let first = available_threads();
        assert!(first >= 1);
        assert_eq!(available_threads(), first);
    }

    #[test]
    fn panic_payload_extracts_strings() {
        let e = std::panic::catch_unwind(|| panic!("static message")).expect_err("panics");
        assert_eq!(panic_payload(e.as_ref()), "static message");
        let e = std::panic::catch_unwind(|| panic!("formatted {}", 7)).expect_err("panics");
        assert_eq!(panic_payload(e.as_ref()), "formatted 7");
        let e = std::panic::catch_unwind(|| std::panic::panic_any(42_u32)).expect_err("panics");
        assert_eq!(panic_payload(e.as_ref()), "non-string panic payload");
    }
}
