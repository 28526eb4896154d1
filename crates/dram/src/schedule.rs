//! Bank-level command scheduling.
//!
//! The perf models approximate wall-clock as `serial_time / chains` with an
//! issue cap. This module computes the ground truth that abstraction
//! approximates: given per-sub-array command queues, the makespan of a
//! schedule under the two real constraints —
//!
//! 1. each sub-array executes its own commands serially (its rows/SA are
//!    occupied for the command's full latency), and
//! 2. the shared command bus issues at most one command every `issue_ns`
//!    (DDR command-bus bandwidth).
//!
//! The scheduler is greedy earliest-ready-first, which is optimal for this
//! two-resource model with equal-length commands per queue.
//!
//! Queues are run-length encoded: a [`CommandQueue`] lists
//! `(commands, latency_ns)` runs, so a sub-array's measured traffic (millions
//! of commands at one average latency) is a single run and the scheduler
//! needs O(sub-arrays) memory, not O(commands). The greedy steps a ring of
//! queues kept in `(free time, queue index)` order: the front queue issues
//! next (ties go to the lower index), its command starts at
//! `max(free_at, bus_free)`, then `bus_free = start + issue_ns` and
//! `free_at = start + latency`. Re-queueing is O(1) whenever the queue's new
//! free time sorts last, the bus-bound steady state where the queues take
//! turns; only the other cases pay an ordered insert.
//!
//! **Skip-ahead.** The loop does not step every command: it finds the
//! schedule's period and jumps whole periods at once, exactly. IEEE
//! round-to-nearest is translation-invariant inside one binade: for `x` in
//! `[2^e, 2^(e+1))`, whose grid is `u = 2^(e−52)`, and an addend `y ≥ 0`,
//! `fl(x + y) = x + ρ_u(y)` (`y` rounded to the grid) as long as the exact
//! sum stays below `2^(e+1)` and `y/u` is not exactly half-way between
//! integers (such a tie rounds to even, so its result depends on the parity
//! of `x/u`). So while every value lies in one binade, the next *relative*
//! state — the ring order, each queue's `free_at − bus_free` and its run —
//! does not depend on absolute time. The loop runs Brent cycle detection on
//! that state: it saves the state at power-of-two step counts, starting
//! over whenever a queue drains or changes run, and compares every step
//! against the saved one, leaving at the first mismatch. A match counts
//! only when both states lie in one binade and `issue_ns` and every latency
//! issued since are non-negative (so every value in between lies there
//! too). With Δ the period's bus advance and `c_q` the commands it took
//! from queue `q`, the loop then adds `k·Δ` to `bus_free` and every free
//! time and takes `k·c_q` from each queue's run, for the largest `k` that
//! keeps
//!
//! 1. every queue in its current run (`k·c_q` ≤ the run's commands left),
//! 2. every value in the binade (`hi + k·Δ ≤ 2^(e+1) − u`, `hi` the largest
//!    value now), and
//! 3. the parity of every value, when the issue interval or an issued
//!    latency is a tie in this binade (`Δ/u` even).
//!
//! The makespan is then the largest free time in the ring. `serial_ns`
//! follows the same rule: inside one binade, `n` more additions of a
//! latency add `n` times the increment of the last one (the first addition
//! rounded any tie to even, and every later one repeats), so a run costs
//! O(binades), and only additions that cross a binade are made one at a
//! time. A production schedule (17 queues, 4.7 M commands) takes a few
//! dozen jumps and skips about 99% of its commands.
//!
//! None of this changes a result bit: `makespan_ns`, `serial_ns`,
//! `effective_parallelism` and `commands` equal the per-command greedy's on
//! fully expanded queues. The unit tests pin the schedule against the
//! greedy without the jumps (itself pinned to the per-command greedy) on
//! random queue sets, on drains and run changes mid-period, on a tie, and
//! on the production shapes at full size, and check that the jumps fired.

use std::collections::VecDeque;

/// The fraction field of an `f64`.
const FRACTION: u64 = (1 << 52) - 1;

/// One command queue (a sub-array's serial work), as `(commands,
/// latency_ns)` runs issued in order.
pub type CommandQueue = Vec<(u64, f64)>;

/// Result of scheduling a set of queues.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Total makespan (ns).
    pub makespan_ns: f64,
    /// Sum of all command latencies (the serial time, ns).
    pub serial_ns: f64,
    /// Effective parallelism: `serial / makespan`.
    pub effective_parallelism: f64,
    /// Commands issued.
    pub commands: usize,
}

/// The exponent field of `x` when `x` is positive, finite and normal: its
/// binade. Inside one binade the values are consecutive bit patterns, one
/// grid step apart, so differences of bit patterns count grid steps.
fn binade(x: f64) -> Option<u64> {
    let exp = x.to_bits() >> 52;
    (1..0x7ff).contains(&exp).then_some(exp)
}

/// The bit pattern of the largest value in binade `exp`.
fn binade_top(exp: u64) -> u64 {
    (exp << 52) | FRACTION
}

/// Whether `y ≥ 0` lies exactly half-way between two grid steps of binade
/// `exp`, so that adding it to a value of that binade rounds to even.
fn is_tie(y: f64, exp: u64) -> bool {
    // y = m · 2^(ey − 1075) (a subnormal's exponent field reads as 1), and
    // the grid step is 2^(exp − 1075), so y / u = m / 2^shift.
    let bits = y.to_bits();
    let (ey, m) = match bits >> 52 {
        0 => (1, bits),
        ey => (ey, (bits & FRACTION) | (1 << 52)),
    };
    match exp.checked_sub(ey) {
        Some(shift @ 1..=53) => m & ((1 << shift) - 1) == 1 << (shift - 1),
        _ => false,
    }
}

/// `acc` plus `n` additions of `latency`, bit-identical to making them one
/// at a time.
fn add_repeated(mut acc: f64, latency: f64, mut n: u64) -> f64 {
    while n > 0 {
        let before = acc;
        acc += latency;
        n -= 1;
        if n == 0 {
            break;
        }
        let once = acc;
        acc += latency;
        n -= 1;
        // Two additions inside one binade fix the increment: the first
        // rounded any tie to even, and every later one adds the same grid
        // steps until the sum would leave the binade.
        let Some(exp) = binade(before).filter(|&e| binade(acc) == Some(e) && latency >= 0.0) else {
            continue;
        };
        let step = acc.to_bits() - once.to_bits();
        let k = (binade_top(exp) - acc.to_bits()).checked_div(step).map_or(n, |room| n.min(room));
        acc = f64::from_bits(acc.to_bits() + k * step);
        n -= k;
    }
    acc
}

/// A queue's position: the run it issues from and the commands left in it.
struct RunCursor<'a> {
    runs: &'a [(u64, f64)],
    left: u64,
}

impl<'a> RunCursor<'a> {
    fn new(runs: &'a [(u64, f64)]) -> Self {
        RunCursor { runs, left: runs.first().map_or(0, |&(n, _)| n) }
    }

    /// Moves on to the next run with commands once this one is spent;
    /// `false` once the queue is drained.
    fn next_run(&mut self) -> bool {
        while self.left == 0 {
            let Some(rest) = self.runs.get(1..).filter(|rest| !rest.is_empty()) else {
                return false;
            };
            self.runs = rest;
            self.left = rest[0].0;
        }
        true
    }

    /// The current run's latency.
    fn latency(&self) -> f64 {
        self.runs[0].1
    }
}

/// Inserts queue `q`, free at `free_at`, into the ring in `(free time,
/// index)` order: at the back in O(1) when it sorts last.
fn requeue(ring: &mut VecDeque<(f64, usize)>, free_at: f64, q: usize) {
    let before = |&(f, p): &(f64, usize)| f.total_cmp(&free_at).then(p.cmp(&q)).is_lt();
    if ring.back().is_none_or(before) {
        ring.push_back((free_at, q));
    } else {
        let at = ring.iter().rposition(before).map_or(0, |i| i + 1);
        ring.insert(at, (free_at, q));
    }
}

/// Brent cycle detection on the greedy's relative state: the ring order
/// and each queue's `free_at − bus_free` (no queue changes run between a
/// save and a match, so each keeps its latency).
struct Period {
    /// The saved ring, as `(free_at − bus_free, queue)`.
    ring: Vec<(f64, usize)>,
    /// The saved `bus_free`.
    bus_free: f64,
    /// The saved state's smallest value.
    low: f64,
    /// Each ring queue's commands left in its run at the save, by index.
    left: Vec<u64>,
    /// Steps since the save, which is replaced after `power` steps (0:
    /// after the next step).
    steps: u64,
    power: u64,
}

impl Period {
    fn new(queues: usize) -> Self {
        Period {
            ring: Vec::new(),
            bus_free: 0.0,
            low: 0.0,
            left: vec![0; queues],
            steps: 0,
            power: 0,
        }
    }

    /// Starts over from the next state.
    fn restart(&mut self) {
        self.power = 0;
    }

    fn save(&mut self, ring: &VecDeque<(f64, usize)>, bus_free: f64, cursors: &[RunCursor]) {
        self.ring.clear();
        self.ring.extend(ring.iter().map(|&(f, q)| (f - bus_free, q)));
        for &(_, q) in ring {
            self.left[q] = cursors[q].left;
        }
        self.bus_free = bus_free;
        self.low = ring.front().map_or(bus_free, |&(f, _)| f.min(bus_free));
        self.steps = 0;
        self.power = (2 * self.power).max(1);
    }

    /// Whether the current state is the saved one shifted in time (exact
    /// only inside one binade, which [`Period::jump`] checks).
    fn repeats(&self, ring: &VecDeque<(f64, usize)>, bus_free: f64) -> bool {
        ring.len() == self.ring.len()
            && ring
                .iter()
                .zip(&self.ring)
                .all(|(&(f, q), &(offset, p))| q == p && f - bus_free == offset)
    }

    /// For a state that [`Period::repeats`] the saved one: how many whole
    /// periods the loop may jump, and the period's bus advance in grid
    /// steps.
    fn jump(
        &self,
        ring: &VecDeque<(f64, usize)>,
        bus_free: f64,
        cursors: &[RunCursor],
        issue_ns: f64,
    ) -> Option<(u64, u64)> {
        let hi = ring.back().map_or(bus_free, |&(f, _)| f.max(bus_free));
        let exp = binade(self.low).filter(|&e| binade(hi) == Some(e) && issue_ns >= 0.0)?;
        let delta = bus_free.to_bits() - self.bus_free.to_bits();
        let mut periods = (binade_top(exp) - hi.to_bits()).checked_div(delta).unwrap_or(u64::MAX);
        let mut tie = is_tie(issue_ns, exp);
        for &(_, q) in ring {
            let cursor = &cursors[q];
            // The periods this queue's run has room for; `None` when the
            // period took nothing from it.
            let Some(room) = cursor.left.checked_div(self.left[q] - cursor.left) else {
                continue;
            };
            let latency = cursor.latency();
            if latency.is_nan() || latency < 0.0 {
                return None;
            }
            tie |= is_tie(latency, exp);
            periods = periods.min(room);
        }
        (periods > 0 && !(tie && delta % 2 == 1)).then_some((periods, delta))
    }
}

/// Schedules `queues` under per-sub-array serialization and a shared
/// command bus issuing one command per `issue_ns`.
///
/// # Examples
///
/// ```
/// use pim_dram::schedule::schedule;
///
/// // Two sub-arrays with two 47 ns commands each and a 1 ns bus: the
/// // second sub-array runs 1 ns behind the first and ends at 95 ns.
/// let s = schedule(&[vec![(2, 47.0)], vec![(2, 47.0)]], 1.0);
/// assert_eq!(s.makespan_ns, 95.0);
/// assert!(s.effective_parallelism > 1.9);
/// ```
pub fn schedule(queues: &[CommandQueue], issue_ns: f64) -> Schedule {
    skip_ahead(queues, issue_ns).0
}

/// [`schedule`], and the number of commands its jumps skipped.
fn skip_ahead(queues: &[CommandQueue], issue_ns: f64) -> (Schedule, u64) {
    // `-0.0` is where `Iterator::sum` starts an `f64` sum.
    let serial_ns = queues.iter().flatten().fold(-0.0, |acc, &(n, l)| add_repeated(acc, l, n));
    let commands: usize = queues.iter().flatten().map(|&(n, _)| n as usize).sum();
    let mut cursors: Vec<RunCursor> = queues.iter().map(|q| RunCursor::new(q)).collect();
    // Queues by `(free_at, index)`: the front is the earliest-ready one. A
    // command is ready when its sub-array is free; it starts when both the
    // sub-array and the bus are free.
    let mut ring: VecDeque<(f64, usize)> = (0..queues.len()).map(|q| (0.0, q)).collect();
    let mut bus_free = 0f64;
    let mut makespan = 0f64;
    let mut period = Period::new(queues.len());
    let mut skipped = 0;
    while let Some((free_at, q)) = ring.pop_front() {
        let cursor = &mut cursors[q];
        if cursor.left == 0 {
            period.restart();
            if !cursor.next_run() {
                continue; // drained: the queue leaves the ring
            }
        }
        cursor.left -= 1;
        let start = free_at.max(bus_free);
        bus_free = start + issue_ns;
        let free_at = start + cursor.latency();
        makespan = makespan.max(free_at);
        requeue(&mut ring, free_at, q);

        period.steps += 1;
        if period.steps <= period.power && period.repeats(&ring, bus_free) {
            if let Some((periods, delta)) = period.jump(&ring, bus_free, &cursors, issue_ns) {
                let shift = |x: f64| f64::from_bits(x.to_bits() + periods * delta);
                bus_free = shift(bus_free);
                for (free_at, q) in ring.iter_mut() {
                    *free_at = shift(*free_at);
                    let took = periods * (period.left[*q] - cursors[*q].left);
                    cursors[*q].left -= took;
                    skipped += took;
                }
                makespan = makespan.max(ring.back().map_or(0.0, |&(f, _)| f));
                period.restart();
            }
        }
        if period.steps >= period.power {
            period.save(&ring, bus_free, &cursors);
        }
    }
    let schedule = Schedule {
        makespan_ns: makespan,
        serial_ns,
        effective_parallelism: if makespan > 0.0 { serial_ns / makespan } else { 0.0 },
        commands,
    };
    (schedule, skipped)
}

/// Builds uniform queues: `subarrays` queues of `per_queue` commands of
/// `latency_ns` each (the hashmap stage's shape), one run per queue.
pub fn uniform_queues(subarrays: usize, per_queue: usize, latency_ns: f64) -> Vec<CommandQueue> {
    vec![vec![(per_queue as u64, latency_ns)]; subarrays]
}

/// Builds one queue per sub-array from measured `(commands, busy_ns)`
/// totals — the shape returned by
/// [`crate::controller::Controller::subarray_command_totals`] — modeling
/// each sub-array's traffic as a single run of `commands` equal-length
/// commands; idle sub-arrays get no queue. Feeding the result to
/// [`schedule`] estimates the makespan (and effective parallelism) the
/// recorded traffic would achieve if the sub-arrays ran concurrently under
/// the shared command bus.
pub fn queues_from_totals(totals: &[(u64, f64)]) -> Vec<CommandQueue> {
    totals
        .iter()
        .filter(|&&(commands, _)| commands > 0)
        .map(|&(commands, busy_ns)| vec![(commands, busy_ns / commands as f64)])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingParams;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::iter;

    /// The queue's command latencies, one per command, in issue order.
    fn latencies(queue: &CommandQueue) -> impl Iterator<Item = f64> + '_ {
        queue.iter().flat_map(|&(commands, latency)| iter::repeat_n(latency, commands as usize))
    }

    /// The run-length greedy without the skip-ahead: every command issued
    /// on its own, and `serial_ns` summed one command at a time. The oracle
    /// the skip-ahead must match bit for bit on runs too long to expand for
    /// [`reference`], to which it is itself pinned.
    fn stepping(queues: &[CommandQueue], issue_ns: f64) -> Schedule {
        let serial_ns: f64 = queues.iter().flat_map(latencies).sum();
        let commands: usize = queues.iter().flatten().map(|&(n, _)| n as usize).sum();
        let mut cursors: Vec<RunCursor> = queues.iter().map(|q| RunCursor::new(q)).collect();
        let mut ring: VecDeque<(f64, usize)> = (0..queues.len()).map(|q| (0.0, q)).collect();
        let mut bus_free = 0f64;
        let mut makespan = 0f64;
        while let Some((free_at, q)) = ring.pop_front() {
            let cursor = &mut cursors[q];
            if !cursor.next_run() {
                continue;
            }
            cursor.left -= 1;
            let start = free_at.max(bus_free);
            bus_free = start + issue_ns;
            let free_at = start + cursor.latency();
            makespan = makespan.max(free_at);
            requeue(&mut ring, free_at, q);
        }
        Schedule {
            makespan_ns: makespan,
            serial_ns,
            effective_parallelism: if makespan > 0.0 { serial_ns / makespan } else { 0.0 },
            commands,
        }
    }

    /// The per-command greedy over fully expanded queues: one latency per
    /// command, and a scan of every queue for each command. The oracle the
    /// run-length scheduler must match bit for bit.
    fn reference(queues: &[Vec<f64>], issue_ns: f64) -> Schedule {
        let serial_ns: f64 = queues.iter().flatten().sum();
        let commands: usize = queues.iter().map(Vec::len).sum();
        let mut next = vec![0usize; queues.len()];
        let mut free_at = vec![0f64; queues.len()];
        let mut bus_free = 0f64;
        let mut makespan = 0f64;
        for _ in 0..commands {
            let q = (0..queues.len())
                .filter(|&q| next[q] < queues[q].len())
                .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]))
                .unwrap();
            let start = free_at[q].max(bus_free);
            bus_free = start + issue_ns;
            free_at[q] = start + queues[q][next[q]];
            makespan = makespan.max(free_at[q]);
            next[q] += 1;
        }
        Schedule {
            makespan_ns: makespan,
            serial_ns,
            effective_parallelism: if makespan > 0.0 { serial_ns / makespan } else { 0.0 },
            commands,
        }
    }

    /// Random multi-run queue sets: empty queues, zero-length runs, and
    /// latencies that are either drawn from a few shared values (so free
    /// times tie) or arbitrary.
    fn random_queues(rng: &mut ChaCha8Rng) -> Vec<CommandQueue> {
        const SHARED: [f64; 4] = [2.5, 10.0, 47.0, 47.125];
        (0..rng.gen_range(0..12))
            .map(|_| {
                (0..rng.gen_range(0..5))
                    .map(|_| {
                        let n = if rng.gen_bool(0.2) { 0 } else { rng.gen_range(1..24) };
                        let latency = if rng.gen_bool(0.5) {
                            SHARED[rng.gen_range(0..SHARED.len())]
                        } else {
                            rng.gen_range(0.5..120.0)
                        };
                        (n, latency)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn run_length_schedule_is_bit_identical_to_the_per_command_greedy() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_5C4E);
        for case in 0..3000 {
            let queues = random_queues(&mut rng);
            let issue = rng.gen_range(0.25..8.0);
            assert_matches_reference(&queues, issue, &format!("case {case}: {queues:?}"));
        }
    }

    /// Asserts `schedule` equals the per-command greedy bit for bit.
    fn assert_matches_reference(queues: &[CommandQueue], issue: f64, case: &str) {
        assert_bit_identical(&schedule(queues, issue), &reference(&expand(queues), issue), case);
    }

    fn expand(queues: &[CommandQueue]) -> Vec<Vec<f64>> {
        queues.iter().map(|q| latencies(q).collect()).collect()
    }

    fn assert_bit_identical(got: &Schedule, want: &Schedule, case: &str) {
        assert_eq!(got.commands, want.commands, "{case}");
        for (name, g, w) in [
            ("makespan_ns", got.makespan_ns, want.makespan_ns),
            ("serial_ns", got.serial_ns, want.serial_ns),
            ("effective_parallelism", got.effective_parallelism, want.effective_parallelism),
        ] {
            assert_eq!(g.to_bits(), w.to_bits(), "{case} {name}: {g} vs {w}");
        }
    }

    /// What [`queues_from_totals`] makes of a run's per-sub-array
    /// traffic: `queues` single-run queues of about `commands` commands
    /// whose average latencies scatter around `latency_ns`.
    fn production_queues(
        rng: &mut ChaCha8Rng,
        queues: usize,
        commands: u64,
        latency_ns: f64,
    ) -> Vec<CommandQueue> {
        let totals: Vec<(u64, f64)> = (0..queues)
            .map(|_| {
                let n = rng.gen_range(commands * 49 / 50..=commands * 51 / 50);
                (n, n as f64 * latency_ns * rng.gen_range(0.97..1.03))
            })
            .collect();
        queues_from_totals(&totals)
    }

    // The report's scheduler sees one run per touched sub-array: 17 long
    // queues on a streamed run, 129 shorter ones on a batch run. Issuing
    // every 3 tCK against ~47 ns AAPs keeps about 16.8 sub-arrays busy,
    // so both shapes are bus-bound and the queues take turns (each
    // re-queue goes to the back of the ring). A faster bus makes the same
    // shapes sub-array-bound.

    #[test]
    fn streamed_run_queues_match_the_per_command_greedy() {
        let t = TimingParams::ddr4_2133();
        let (aap, bus) = (t.aap_ns(), 3.0 * t.t_ck_ns);
        let mut rng = ChaCha8Rng::seed_from_u64(0x5C4E_D017);
        let queues = production_queues(&mut rng, 17, 50_000, aap);
        assert!(aap / bus < 17.0);
        assert_matches_reference(&queues, bus, "17 queues, bus-bound");
        assert!(aap / 0.5 > 17.0);
        assert_matches_reference(&queues, 0.5, "17 queues, sub-array-bound");
    }

    #[test]
    fn batch_run_queues_match_the_per_command_greedy() {
        let t = TimingParams::ddr4_2133();
        let mut rng = ChaCha8Rng::seed_from_u64(0x5C4E_D129);
        let queues = production_queues(&mut rng, 129, 2_000, t.aap_ns());
        assert_matches_reference(&queues, 3.0 * t.t_ck_ns, "129 queues, bus-bound");
    }

    #[test]
    fn staggered_drains_and_tied_free_times_match_the_per_command_greedy() {
        // Queues that drain at different times: each holds half the
        // commands of the one before it, cycling.
        let t = TimingParams::ddr4_2133();
        let (aap, bus) = (t.aap_ns(), 3.0 * t.t_ck_ns);
        let totals: Vec<(u64, f64)> =
            (0..17).map(|i| (20_000 >> (i % 6), (20_000 >> (i % 6)) as f64 * aap)).collect();
        assert_matches_reference(&queues_from_totals(&totals), bus, "staggered drains");
        // Latencies that are whole multiples of the issue interval: a
        // queue that issued later with a shorter latency frees up at the
        // same time as an earlier one (ties go to the lower index).
        let tied: Vec<CommandQueue> =
            (0..17).map(|i| vec![(8_000 - 300 * i as u64, 3.0 * (15 + i % 3) as f64)]).collect();
        assert_matches_reference(&tied, 3.0, "tied free times, bus-bound");
        // A free bus: every queue issues at once and frees up at once.
        assert_matches_reference(&uniform_queues(17, 8_000, aap), 0.0, "all free times tied");
    }

    #[test]
    fn stepping_oracle_is_bit_identical_to_the_per_command_greedy() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_0AC1);
        for case in 0..1000 {
            let queues = random_queues(&mut rng);
            let issue = rng.gen_range(0.25..8.0);
            let want = reference(&expand(&queues), issue);
            assert_bit_identical(&stepping(&queues, issue), &want, &format!("case {case}"));
        }
        let t = TimingParams::ddr4_2133();
        let queues = production_queues(&mut rng, 17, 20_000, t.aap_ns());
        let (got, want) =
            (stepping(&queues, 3.0 * t.t_ck_ns), reference(&expand(&queues), 3.0 * t.t_ck_ns));
        assert_bit_identical(&got, &want, "17 queues, bus-bound");
    }

    /// Asserts `schedule` equals the stepping greedy bit for bit, and
    /// returns the commands its jumps skipped.
    fn assert_matches_stepping(queues: &[CommandQueue], issue: f64, case: &str) -> u64 {
        let (got, skipped) = skip_ahead(queues, issue);
        assert_bit_identical(&got, &stepping(queues, issue), case);
        skipped
    }

    /// Random queue sets whose runs are long enough to settle into
    /// periods: up to 17 queues of up to three runs, mostly of 1k–60k
    /// commands (some short or empty), at shared or arbitrary latencies.
    fn random_long_queues(rng: &mut ChaCha8Rng) -> Vec<CommandQueue> {
        const SHARED: [f64; 4] = [2.5, 10.0, 47.0, 47.125];
        (0..rng.gen_range(1..18))
            .map(|_| {
                (0..rng.gen_range(1..4))
                    .map(|_| {
                        let n = match rng.gen_range(0..10) {
                            0 => 0,
                            1 => rng.gen_range(1..50),
                            _ => rng.gen_range(1_000..60_000),
                        };
                        let latency = if rng.gen_bool(0.5) {
                            SHARED[rng.gen_range(0..SHARED.len())]
                        } else {
                            rng.gen_range(0.5..120.0)
                        };
                        (n, latency)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn skip_ahead_matches_the_stepping_greedy_on_long_random_runs() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_10AD);
        let cases = if cfg!(debug_assertions) { 24 } else { 100 };
        let mut jumped = 0;
        for case in 0..cases {
            let queues = random_long_queues(&mut rng);
            // Dyadic intervals add exactly; the others round differently
            // in every binade.
            let issue = if rng.gen_bool(0.5) {
                [0.25, 0.5, 1.0, 2.0, 3.0][rng.gen_range(0..5)]
            } else {
                rng.gen_range(0.25..8.0)
            };
            let case = format!("case {case}: issue {issue:?}, {queues:?}");
            jumped += usize::from(assert_matches_stepping(&queues, issue, &case) > 0);
        }
        assert!(jumped * 4 > cases * 3, "{jumped} of {cases} cases jumped");
    }

    /// The report scheduler's input on the streamed assembly workload
    /// (perfbench asm-stream, seed 5): 16 hash sub-arrays and the auxiliary
    /// one, as `(commands, average latency ns)`.
    const STREAMED_SEED_5: [(u64, f64); 17] = [
        (275_398, 36.24162901328259),
        (312_240, 36.19990376633359),
        (274_970, 36.27106018474743),
        (286_871, 36.248819497265316),
        (287_835, 36.23727581426859),
        (291_439, 36.23854064486908),
        (269_202, 36.23513827163245),
        (274_399, 36.26105631944723),
        (332_859, 36.172644489108),
        (300_930, 36.23334988203237),
        (318_668, 36.184296258174655),
        (271_864, 36.26889888694347),
        (282_289, 36.24180770416134),
        (282_479, 36.23990885340149),
        (332_100, 36.16764617886179),
        (247_672, 36.3191312057883),
        (35_934, 58.120000000000005),
    ];

    #[test]
    fn production_shapes_jump_and_match_the_stepping_greedy() {
        // Full size in release builds; debug builds run 1/40 of each queue.
        let scale = if cfg!(debug_assertions) { 40 } else { 1 };
        let bus = 3.0 * TimingParams::ddr4_2133().t_ck_ns;
        let streamed: Vec<CommandQueue> =
            STREAMED_SEED_5.iter().map(|&(n, latency)| vec![(n / scale, latency)]).collect();
        let commands: u64 = streamed.iter().map(|q| q[0].0).sum();
        let skipped = assert_matches_stepping(&streamed, bus, "17 queues (streamed run)");
        assert!(skipped * 5 > commands * 4, "skipped {skipped} of {commands}");
        // A batch run: 128 hash sub-arrays of 17.8k–29.8k commands at
        // 37.07–37.38 ns, and the auxiliary one's 90k at 58.12 ns.
        let mut rng = ChaCha8Rng::seed_from_u64(0x5C4E_0129);
        let mut batch: Vec<CommandQueue> = (0..128)
            .map(|_| vec![(rng.gen_range(17_800..29_800) / scale, rng.gen_range(37.07..37.38))])
            .collect();
        batch.push(vec![(89_940 / scale, 58.12)]);
        assert!(assert_matches_stepping(&batch, bus, "129 queues (batch run)") > 0);
    }

    #[test]
    fn drains_mid_period_and_run_changes_jump_and_match_the_stepping_greedy() {
        let t = TimingParams::ddr4_2133();
        let (aap, bus) = (t.aap_ns(), 3.0 * t.t_ck_ns);
        // Every queue drains at its own step, part-way through a period of
        // the queues still running.
        let staggered: Vec<CommandQueue> =
            (0..17).map(|i| vec![(20_000 + 997 * i, aap + 0.01 * i as f64)]).collect();
        // Every queue changes run twice (and the bus regime with it), at
        // its own step, past an empty run.
        let multi_run: Vec<CommandQueue> = (0..9)
            .map(|i| {
                vec![
                    (30_000 - 1_000 * i, 36.2),
                    (0, 5.0),
                    (10_000 + 3_000 * i, 58.12),
                    (25_000, 2.5),
                ]
            })
            .collect();
        for (queues, case) in [(staggered, "staggered drains"), (multi_run, "multi-run queues")] {
            assert!(assert_matches_stepping(&queues, bus, case) > 0, "{case}: no jump");
        }
    }

    #[test]
    fn a_tie_latency_jumps_only_by_an_even_number_of_grid_steps() {
        // 47 + 2^-30 ns adds exactly below 2^23 ns and is half a grid step
        // above it, where each addition rounds to even: a jump by an odd
        // number of grid steps would flip the parity of every value, and
        // every later addition would round the other way.
        let tie = 47.0 + 2f64.powi(-30);
        let bus = 3.0 * TimingParams::ddr4_2133().t_ck_ns;
        let single = vec![vec![(183_822, tie)]];
        let makespan = schedule(&single, bus).makespan_ns;
        assert!(makespan > (1 << 23) as f64);
        assert!(is_tie(tie, binade(makespan).unwrap()));
        assert!(assert_matches_stepping(&single, bus, "one queue") > 0);
        let pair = vec![vec![(245_107, tie)], vec![(293_840, tie)]];
        assert!(assert_matches_stepping(&pair, 3.428, "two queues") > 0);
    }

    #[test]
    fn repeated_additions_match_one_at_a_time() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xADD5_0000);
        for case in 0..300 {
            let acc = if rng.gen_bool(0.2) { -0.0 } else { rng.gen_range(0.0..1e7) };
            // Latencies half a grid step off in some binade the sum
            // reaches, and arbitrary ones.
            let latency = match rng.gen_range(0..3) {
                0 => 47.0 + 2f64.powi(-rng.gen_range(25..40)),
                1 => 2f64.powi(-rng.gen_range(20..32)),
                _ => rng.gen_range(0.0..100.0),
            };
            let n = rng.gen_range(0..20_000);
            let want = (0..n).fold(acc, |sum, _| sum + latency);
            let got = add_repeated(acc, latency, n);
            assert_eq!(got.to_bits(), want.to_bits(), "case {case}: {acc:?} + {n} x {latency:?}");
        }
    }

    #[test]
    fn a_trillion_commands_schedule_in_closed_form() {
        // Every partial sum is an integer below 2^53, so each one is exact.
        let (s, skipped) = skip_ahead(&[vec![(1 << 40, 47.0)]], 3.0 * 0.937);
        assert_eq!(s.makespan_ns, 47.0 * (1u64 << 40) as f64);
        assert_eq!(s.serial_ns, s.makespan_ns);
        assert_eq!(s.effective_parallelism, 1.0);
        assert!(skipped > (1 << 40) - 1_000, "skipped {skipped}");
    }

    #[test]
    fn huge_totals_stay_one_run() {
        let queues = queues_from_totals(&[(1 << 40, 47e12)]);
        assert_eq!(queues, vec![vec![(1 << 40, 47e12 / (1u64 << 40) as f64)]]);
    }

    #[test]
    fn single_queue_is_fully_serial() {
        let s = schedule(&uniform_queues(1, 10, 47.0), 1.0);
        assert!((s.makespan_ns - 470.0).abs() < 10.0);
        assert!((s.effective_parallelism - 1.0).abs() < 0.05);
    }

    #[test]
    fn parallelism_scales_until_the_bus_saturates() {
        // AAP ≈ 47 ns, command issue ≈ 2.8 ns (three DDR commands at tCK):
        // at most ~16.8 sub-arrays can be kept busy.
        let t = TimingParams::ddr4_2133();
        let issue = 3.0 * t.t_ck_ns;
        let aap = t.aap_ns();
        let p8 = schedule(&uniform_queues(8, 50, aap), issue).effective_parallelism;
        let p16 = schedule(&uniform_queues(16, 50, aap), issue).effective_parallelism;
        let p64 = schedule(&uniform_queues(64, 50, aap), issue).effective_parallelism;
        assert!((p8 - 8.0).abs() < 0.5, "8 queues: {p8}");
        assert!((p16 - 16.0).abs() < 1.0, "16 queues: {p16}");
        // Beyond the bus limit, adding sub-arrays cannot raise parallelism.
        let cap = aap / issue;
        assert!(p64 < cap + 1.0, "64 queues: {p64} exceeds bus cap {cap}");
        assert!(p64 > cap - 2.0, "64 queues: {p64} far below bus cap {cap}");
    }

    #[test]
    fn bus_cap_justifies_the_perf_model_chain_cap() {
        // The assembly perf model clamps chains at 22 per replica set; the
        // scheduled ground truth for AAP-class commands lands in the same
        // regime (tens, not hundreds).
        let t = TimingParams::ddr4_2133();
        let s = schedule(&uniform_queues(256, 20, t.aap_ns()), 3.0 * t.t_ck_ns);
        assert!(
            s.effective_parallelism > 10.0 && s.effective_parallelism < 25.0,
            "effective parallelism {}",
            s.effective_parallelism
        );
    }

    #[test]
    fn mixed_latencies_schedule_correctly() {
        // One long queue dominates the makespan.
        let mut queues = uniform_queues(4, 2, 10.0);
        queues.push(vec![(5, 100.0)]);
        let s = schedule(&queues, 0.5);
        assert!(s.makespan_ns >= 500.0);
        assert_eq!(s.commands, 4 * 2 + 5);
    }

    #[test]
    fn empty_input() {
        let s = schedule(&[], 1.0);
        assert_eq!(s.makespan_ns, 0.0);
        assert_eq!(s.commands, 0);
    }

    #[test]
    fn totals_build_average_latency_queues() {
        let queues = queues_from_totals(&[(4, 188.0), (0, 0.0), (2, 20.0)]);
        assert_eq!(queues, vec![vec![(4, 47.0)], vec![(2, 10.0)]]);
        // Two independent sub-arrays overlap under a fast bus.
        let s = schedule(&queues, 0.5);
        assert!(s.effective_parallelism > 1.05);
        assert_eq!(s.commands, 6);
    }
}
