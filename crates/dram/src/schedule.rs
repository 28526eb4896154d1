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
//! needs O(sub-arrays) memory, not O(commands). Time stays O(commands): each
//! command is still issued on its own, from a ring of queues kept in
//! `(free time, queue index)` order instead of a scan over every queue.
//! Re-queueing is O(1) whenever the issuing queue's new free time sorts
//! last, which is the bus-bound steady state (the queues take turns); only
//! the other cases pay an ordered insert.
//!
//! The encoding changes no result bit. Every float operation happens in the
//! order it would on fully expanded queues of one latency per command: the
//! earliest-free queue issues next (ties go to the lower index), its command
//! starts at `max(free_at, bus_free)`, then `bus_free = start + issue_ns` and
//! `free_at = start + latency`; `serial_ns` adds each run's latency once per
//! command, in queue order.

use std::collections::VecDeque;
use std::iter;

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

/// The queue's command latencies, one per command, in issue order.
fn latencies(queue: &CommandQueue) -> impl Iterator<Item = f64> + '_ {
    queue.iter().flat_map(|&(commands, latency)| iter::repeat_n(latency, commands as usize))
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

    /// The next command's latency, or `None` once the queue is drained.
    fn next_latency(&mut self) -> Option<f64> {
        while self.left == 0 {
            self.runs = self.runs.get(1..).filter(|rest| !rest.is_empty())?;
            self.left = self.runs[0].0;
        }
        self.left -= 1;
        Some(self.runs[0].1)
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
    let serial_ns: f64 = queues.iter().flat_map(latencies).sum();
    let commands: usize = queues.iter().flatten().map(|&(n, _)| n as usize).sum();
    let mut cursors: Vec<RunCursor> = queues.iter().map(|q| RunCursor::new(q)).collect();
    // Queues by `(free_at, index)`: the front is the earliest-ready one. A
    // command is ready when its sub-array is free; it starts when both the
    // sub-array and the bus are free.
    let mut ring: VecDeque<(f64, usize)> = (0..queues.len()).map(|q| (0.0, q)).collect();
    let mut bus_free = 0f64;
    let mut makespan = 0f64;
    while let Some((free_at, q)) = ring.pop_front() {
        let Some(latency) = cursors[q].next_latency() else {
            continue; // drained: the queue leaves the ring
        };
        let start = free_at.max(bus_free);
        bus_free = start + issue_ns;
        let free_at = start + latency;
        makespan = makespan.max(free_at);
        let before = |&(f, p): &(f64, usize)| f.total_cmp(&free_at).then(p.cmp(&q)).is_lt();
        if ring.back().is_none_or(before) {
            ring.push_back((free_at, q));
        } else {
            let at = ring.iter().rposition(before).map_or(0, |i| i + 1);
            ring.insert(at, (free_at, q));
        }
    }
    Schedule {
        makespan_ns: makespan,
        serial_ns,
        effective_parallelism: if makespan > 0.0 { serial_ns / makespan } else { 0.0 },
        commands,
    }
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
        let got = schedule(queues, issue);
        let expanded: Vec<Vec<f64>> = queues.iter().map(|q| latencies(q).collect()).collect();
        let want = reference(&expanded, issue);
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
