//! Open-loop accounting. Requests are due on a fixed schedule whether
//! or not earlier replies have come back; each one is timed from when
//! it was due, so a stalled reply is charged to every request queued
//! behind it on the same connection.

use std::time::{Duration, Instant};

/// Time as the generator sees it, as an offset from the start of the
/// window.
pub trait Clock {
    fn now(&self) -> Duration;
    fn sleep_until(&self, t: Duration);
}

/// The wall clock.
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        let now = self.now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// One request's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// When the schedule says it goes out.
    pub due: Duration,
    /// When it went out.
    pub sent: Duration,
    /// When its reply (or failure) came back.
    pub done: Duration,
}

impl Timing {
    /// Latency charged to the request: from its due time to its reply.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// Round trip on the wire: from sending to the reply.
    pub fn rtt(&self) -> Duration {
        self.done.saturating_sub(self.sent)
    }
}

/// Send one connection's share of the schedule, in order: wait for
/// each request's due time (or for the previous reply, whichever is
/// later), then `call` it and block for the reply.
pub fn drive<C: Clock, R>(
    clock: &C,
    dues: &[Duration],
    mut call: impl FnMut(usize) -> R,
) -> Vec<(Timing, R)> {
    let mut out = Vec::with_capacity(dues.len());
    for (i, &due) in dues.iter().enumerate() {
        clock.sleep_until(due);
        let sent = clock.now();
        let r = call(i);
        out.push((Timing { due, sent, done: clock.now() }, r));
    }
    out
}

/// How late the generator itself sent each request: the time past the
/// later of its due time and the previous reply on its connection.
/// Waiting for that reply is the system's backlog, not generator lag.
pub fn generator_lag(timings: &[Timing]) -> Vec<Duration> {
    let mut prev_done = Duration::ZERO;
    timings
        .iter()
        .map(|t| {
            let ready = t.due.max(prev_done);
            prev_done = t.done;
            t.sent.saturating_sub(ready)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to: sleeping jumps to the
    /// wake-up time, and a call advances it by its service time.
    struct Virtual(Cell<Duration>);

    impl Clock for Virtual {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, t: Duration) {
            self.0.set(self.0.get().max(t));
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn a_stalled_reply_is_charged_to_the_requests_behind_it() {
        let clock = Virtual(Cell::new(Duration::ZERO));
        let dues: Vec<Duration> = (0..5).map(|i| i * 10 * MS).collect();
        // Every reply takes 1 ms except the second, which stalls 35 ms.
        let service = [1, 35, 1, 1, 1];
        let out = drive(&clock, &dues, |i| clock.0.set(clock.0.get() + service[i] * MS));
        let timings: Vec<Timing> = out.iter().map(|(t, ())| *t).collect();
        let latency: Vec<u32> = timings.iter().map(|t| t.latency().as_millis() as u32).collect();
        // Due 20 ms, sent at 45 ms when the stall ends, back at 46 ms.
        assert_eq!(latency, [1, 35, 26, 17, 8]);
        // Timing from the send instead would hide the stall's queue.
        let rtt: Vec<u32> = timings.iter().map(|t| t.rtt().as_millis() as u32).collect();
        assert_eq!(rtt, [1, 35, 1, 1, 1]);
        // The generator sent everything as soon as it could.
        assert!(generator_lag(&timings).iter().all(|l| l.is_zero()));
    }

    #[test]
    fn generator_lag_counts_only_the_generators_own_lateness() {
        let t = |due: u32, sent: u32, done: u32| Timing {
            due: due * MS,
            sent: sent * MS,
            done: done * MS,
        };
        // Sent 2 ms late with the connection idle; then queued behind
        // a reply (no lag); then 3 ms past a reply that came back early.
        let timings = [t(0, 2, 3), t(1, 3, 9), t(10, 13, 14)];
        let lag: Vec<u32> = generator_lag(&timings).iter().map(|l| l.as_millis() as u32).collect();
        assert_eq!(lag, [2, 0, 3]);
    }
}
