// Fixture for FL005 (instant_in_dispatch) failing closed. Not compiled
// — lexed by the integration tests under the `crates/serve/src/lib.rs`
// label the rule pins.
//
// The dispatcher loop was renamed away from `fn dispatch`: the rule
// must report the missing loop instead of finding nothing to check.

use std::time::Instant;

fn serve_loop(n: usize) -> usize {
    let mut acc = 0;
    for i in 0..n {
        let t = Instant::now();
        acc += t.elapsed().as_nanos() as usize + i;
    }
    acc
}

// A mention in a comment is not the function: fn dispatch
fn dispatcher_stats() -> usize {
    0
}
