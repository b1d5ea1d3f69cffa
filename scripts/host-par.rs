//! Whether this host runs two threads in parallel right now.
//!
//! Spins two threads for about 50 ms of wall time each and reads each
//! thread's `/proc/thread-self/schedstat` (time on a CPU, time waiting on a
//! run queue, timeslices) when it starts and when it stops. On a host whose
//! two vCPUs both run, the threads wait almost not at all; when both threads
//! share one vCPU, each waits about as long as it runs. Prints one line:
//!
//!   host: parallel|serial (run-queue wait W ms over T ms of thread time)
//!
//! or `host: unknown (...)` where the file cannot be read. `serial` means the
//! summed wait exceeded a tenth of the summed thread time. Exits 0 in every
//! case. Standard library only:
//!
//!   rustc --edition 2021 -O scripts/host-par.rs -o host-par && ./host-par

use std::thread;
use std::time::{Duration, Instant};

/// Wall time each thread spins for.
const SPIN: Duration = Duration::from_millis(50);

/// `(on-CPU ns, run-queue wait ns)` of the calling thread.
fn schedstat() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = text.split_whitespace().map(str::parse::<u64>);
    Some((fields.next()?.ok()?, fields.next()?.ok()?))
}

/// Spins for [`SPIN`] and returns this thread's `(on-CPU, wait, wall)` ns.
fn spin() -> Option<(u64, u64, u64)> {
    let start = schedstat()?;
    let began = Instant::now();
    let mut x = 0u64;
    while began.elapsed() < SPIN {
        for _ in 0..1_000 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
    }
    let wall = began.elapsed().as_nanos() as u64;
    let end = schedstat()?;
    Some((end.0 - start.0, end.1 - start.1, wall))
}

fn main() {
    let threads: Vec<_> = (0..2).map(|_| thread::spawn(spin)).collect();
    let samples: Option<Vec<(u64, u64, u64)>> =
        threads.into_iter().map(|t| t.join().ok().flatten()).collect();
    let Some(samples) = samples else {
        println!("host: unknown (no /proc/thread-self/schedstat)");
        return;
    };
    let wait: u64 = samples.iter().map(|s| s.1).sum();
    let thread_time: u64 = samples.iter().map(|s| s.2).sum();
    let mode = if wait * 10 > thread_time {
        "serial"
    } else {
        "parallel"
    };
    println!(
        "host: {mode} (run-queue wait {:.1} ms over {:.1} ms of thread time)",
        wait as f64 / 1e6,
        thread_time as f64 / 1e6
    );
}
