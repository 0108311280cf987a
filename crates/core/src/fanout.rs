//! One scoped fan-out: run independent work items side by side and get
//! their results back in item order.
//!
//! §4 of the paper runs the sorted-neighborhood method's independent
//! pieces — fragments of one pass, whole passes of a multi-pass run — on
//! processors of their own and combines what they found afterwards. The
//! combine step must see the results in a fixed order for the outcome to
//! be deterministic; [`fan_out`] hands them back in the order the items
//! went in, whichever thread finished first.

use std::thread;

/// Runs `work(i, item)` for every item concurrently and returns the
/// results in item order.
///
/// Item 0 runs on the calling thread; every other item runs on a scoped
/// thread of its own named `name(i)`, so a panic message names the
/// worker and a tracer gives each worker a lane. One item spawns nothing.
///
/// # Panics
///
/// When the OS refuses a thread, or re-raises (as an `expect` naming
/// the failure) when any worker panicked; the worker's own panic message
/// is printed first, under its thread name.
pub fn fan_out<T, R>(
    items: Vec<T>,
    name: impl Fn(usize) -> String,
    work: impl Fn(usize, T) -> R + Sync,
) -> Vec<R>
where
    T: Send,
    R: Send,
{
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
    let work = &work;
    thread::scope(|s| {
        let handles: Vec<_> = items
            .enumerate()
            .map(|(j, item)| {
                let i = j + 1;
                thread::Builder::new()
                    .name(name(i))
                    .spawn_scoped(s, move || work(i, item))
                    .expect("spawn a fan-out worker: the OS refused a thread")
            })
            .collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(work(0, first));
        out.extend(handles.into_iter().map(|h| {
            h.join()
                .expect("a fan-out worker panicked; its message is printed above")
        }));
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn item_zero_waits_on_the_caller_for_every_other_item_and_results_keep_item_order() {
        let caller = thread::current().id();
        let (tx, rx) = mpsc::channel::<usize>();
        let items: Vec<(usize, Option<mpsc::Sender<usize>>)> = (0..5)
            .map(|i| (i * 10, (i > 0).then(|| tx.clone())))
            .collect();
        drop(tx);
        let rx = std::sync::Mutex::new(rx);
        let out = fan_out(
            items,
            |i| format!("worker-{i}"),
            |i, (value, done)| {
                let me = thread::current();
                match done {
                    // Every other item reports in just before it returns.
                    Some(done) => {
                        assert_eq!(me.name(), Some(format!("worker-{i}").as_str()));
                        done.send(i).expect("item 0 is still listening");
                    }
                    // Item 0 returns only after all of them have: it
                    // runs on the caller while they run on their own.
                    None => {
                        assert_eq!(me.id(), caller, "item 0 runs on the calling thread");
                        let rx = rx.lock().expect("only item 0 locks the receiver");
                        let mut seen: Vec<usize> = (1..5)
                            .map(|_| {
                                rx.recv_timeout(Duration::from_secs(30))
                                    .expect("the other items run while item 0 waits")
                            })
                            .collect();
                        seen.sort_unstable();
                        assert_eq!(seen, vec![1, 2, 3, 4]);
                    }
                }
                (i, value + 1)
            },
        );
        assert_eq!(out, vec![(0, 1), (1, 11), (2, 21), (3, 31), (4, 41)]);
    }

    #[test]
    fn no_items_and_one_item_spawn_nothing() {
        let none: Vec<u8> = fan_out(Vec::<u8>::new(), |_| unreachable!(), |_, x| x);
        assert!(none.is_empty());
        let caller = thread::current().id();
        let one = fan_out(
            vec![7],
            |_| unreachable!(),
            |_, x| {
                assert_eq!(thread::current().id(), caller);
                x * 2
            },
        );
        assert_eq!(one, vec![14]);
    }
}
