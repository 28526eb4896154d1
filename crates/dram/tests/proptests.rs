//! Property-based tests: the in-memory primitives executed through the full
//! controller path must agree with plain software bitwise logic for
//! arbitrary row contents.

use proptest::prelude::*;

use pim_dram::address::RowAddr;
use pim_dram::bitrow::BitRow;
use pim_dram::controller::Controller;
use pim_dram::geometry::DramGeometry;
use pim_dram::sense_amp::SaMode;
use pim_dram::subarray::Subarray;

fn bits(len: usize) -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), len)
}

fn setup() -> (Controller, pim_dram::SubarrayId) {
    let c = Controller::new(DramGeometry::tiny());
    let id = c.subarray_handle(0, 0, 0, 0).unwrap();
    (c, id)
}

proptest! {
    #[test]
    fn pim_xnor_matches_software(a in bits(64), b in bits(64)) {
        let (mut c, id) = setup();
        let ra = BitRow::from_bits(a);
        let rb = BitRow::from_bits(b);
        c.write_row(id, 1, &ra).unwrap();
        c.write_row(id, 2, &rb).unwrap();
        c.aap_copy(id, 1, c.compute_row(0)).unwrap();
        c.aap_copy(id, 2, c.compute_row(1)).unwrap();
        let out = c.aap2_xnor(id, [c.compute_row(0), c.compute_row(1)], 5).unwrap();
        prop_assert_eq!(out, ra.xnor(&rb));
    }

    #[test]
    fn pim_nor_nand_xor_match_software(a in bits(64), b in bits(64)) {
        for mode in [SaMode::Nor, SaMode::Nand, SaMode::Xor] {
            let (mut c, id) = setup();
            let ra = BitRow::from_bits(a.clone());
            let rb = BitRow::from_bits(b.clone());
            c.write_row(id, 1, &ra).unwrap();
            c.write_row(id, 2, &rb).unwrap();
            c.aap_copy(id, 1, c.compute_row(0)).unwrap();
            c.aap_copy(id, 2, c.compute_row(1)).unwrap();
            let out = c.aap2(id, mode, [c.compute_row(0), c.compute_row(1)], 5).unwrap();
            let expect = match mode {
                SaMode::Nor => ra.or(&rb).not(),
                SaMode::Nand => ra.and(&rb).not(),
                SaMode::Xor => ra.xor(&rb),
                _ => unreachable!(),
            };
            prop_assert_eq!(out, expect);
        }
    }

    #[test]
    fn pim_tra_matches_majority(a in bits(64), b in bits(64), d in bits(64)) {
        let (mut c, id) = setup();
        let (ra, rb, rd) = (BitRow::from_bits(a), BitRow::from_bits(b), BitRow::from_bits(d));
        c.write_row(id, 1, &ra).unwrap();
        c.write_row(id, 2, &rb).unwrap();
        c.write_row(id, 3, &rd).unwrap();
        for (row, x) in [(1usize, 0usize), (2, 1), (3, 2)] {
            c.aap_copy(id, row, c.compute_row(x)).unwrap();
        }
        let out = c
            .aap3_carry(id, [c.compute_row(0), c.compute_row(1), c.compute_row(2)], 9)
            .unwrap();
        prop_assert_eq!(out, BitRow::maj3(&ra, &rb, &rd));
    }

    #[test]
    fn full_adder_slice_is_exact(a in bits(64), b in bits(64), cin in bits(64)) {
        // sum = a ^ b ^ cin with cin latched; carry = MAJ(a, b, cin).
        let (mut c, id) = setup();
        let (ra, rb, rc) = (BitRow::from_bits(a), BitRow::from_bits(b), BitRow::from_bits(cin));
        c.write_row(id, 1, &ra).unwrap();
        c.write_row(id, 2, &rb).unwrap();
        c.write_row(id, 3, &rc).unwrap();
        // Latch cin by TRA(cin, cin-copy …) — hardware latches via the carry
        // path, so emulate the controller's sequencing: TRA over
        // (cin, zeros, cin) majors to cin and latches it.
        let zeros = BitRow::zeros(ra.len());
        c.write_row(id, 4, &zeros).unwrap();
        c.aap_copy(id, 3, c.compute_row(0)).unwrap();
        c.aap_copy(id, 4, c.compute_row(1)).unwrap();
        c.aap_copy(id, 3, c.compute_row(2)).unwrap();
        let latched = c
            .aap3_carry(id, [c.compute_row(0), c.compute_row(1), c.compute_row(2)], 10)
            .unwrap();
        prop_assert_eq!(&latched, &rc); // MAJ(cin, 0, cin) = cin
        // Sum cycle.
        c.aap_copy(id, 1, c.compute_row(0)).unwrap();
        c.aap_copy(id, 2, c.compute_row(1)).unwrap();
        let sum = c.aap2_sum(id, [c.compute_row(0), c.compute_row(1)], 11).unwrap();
        prop_assert_eq!(sum, ra.xor(&rb).xor(&rc));
        // Carry cycle.
        c.aap_copy(id, 1, c.compute_row(0)).unwrap();
        c.aap_copy(id, 2, c.compute_row(1)).unwrap();
        c.aap_copy(id, 3, c.compute_row(2)).unwrap();
        let carry = c
            .aap3_carry(id, [c.compute_row(0), c.compute_row(1), c.compute_row(2)], 12)
            .unwrap();
        prop_assert_eq!(carry, BitRow::maj3(&ra, &rb, &rc));
    }

    #[test]
    fn bitrow_u64_roundtrip(v in any::<u64>(), len in 1usize..=64) {
        let masked = if len == 64 { v } else { v & ((1u64 << len) - 1) };
        prop_assert_eq!(BitRow::from_u64(v, len).to_u64(), masked);
    }

    #[test]
    fn bitrow_splice_extract_roundtrip(payload in bits(16), offset in 0usize..48) {
        let mut row = BitRow::zeros(64);
        let p = BitRow::from_bits(payload);
        row.splice(offset, &p);
        prop_assert_eq!(row.extract(offset, 16), p);
    }

    #[test]
    fn xnor_is_involutive_complement(a in bits(64), b in bits(64)) {
        let (ra, rb) = (BitRow::from_bits(a), BitRow::from_bits(b));
        // xnor(a, b) == not(xor(a, b)) and xnor(a, a) == ones.
        prop_assert_eq!(ra.xnor(&rb), ra.xor(&rb).not());
        prop_assert!(ra.xnor(&ra).all_ones());
    }

    #[test]
    fn schedule_lower_bounds_hold(
        queues in proptest::collection::vec(proptest::collection::vec(1.0f64..100.0, 1..8), 1..12),
        issue in 0.5f64..5.0,
    ) {
        // Each generated latency is a run of one command.
        let runs: Vec<_> = queues.iter().map(|q| q.iter().map(|&l| (1, l)).collect()).collect();
        let s = pim_dram::schedule::schedule(&runs, issue);
        // Makespan can never beat (1) the longest single queue, (2) the
        // serial time divided by the queue count, (3) the bus issue time.
        let longest: f64 = queues.iter().map(|q| q.iter().sum::<f64>()).fold(0.0, f64::max);
        prop_assert!(s.makespan_ns + 1e-9 >= longest);
        prop_assert!(s.makespan_ns + 1e-9 >= s.serial_ns / queues.len() as f64);
        prop_assert!(s.makespan_ns + 1e-9 >= s.commands as f64 * issue - issue);
        // And it is no worse than fully serial execution.
        prop_assert!(s.makespan_ns <= s.serial_ns + s.commands as f64 * issue + 1e-9);
    }

    #[test]
    fn copy_preserves_content(a in bits(64), src in 0usize..16, dst in 16usize..24) {
        let (mut c, id) = setup();
        let ra = BitRow::from_bits(a);
        c.write_row(id, src, &ra).unwrap();
        c.aap_copy(id, src, dst).unwrap();
        prop_assert_eq!(c.peek_row(id, dst).unwrap(), ra);
    }

    // ── Ledger merge algebra — what parallel dispatch relies on ────────

    #[test]
    fn ledger_merge_is_commutative(a in charges(), b in charges()) {
        let costs = paper_costs();
        let (la, lb) = (ledger_of(&a, &costs), ledger_of(&b, &costs));
        let mut ab = la;
        ab.merge(&lb);
        let mut ba = lb;
        ba.merge(&la);
        prop_assert_eq!(ab, ba);
        // The derived f64 stats views are bitwise identical too.
        prop_assert_eq!(ab.to_stats(), ba.to_stats());
    }

    #[test]
    fn ledger_merge_is_associative(a in charges(), b in charges(), c in charges()) {
        let costs = paper_costs();
        let (la, lb, lc) = (ledger_of(&a, &costs), ledger_of(&b, &costs), ledger_of(&c, &costs));
        let mut assoc_left = la;           // (a ⊕ b) ⊕ c
        assoc_left.merge(&lb);
        assoc_left.merge(&lc);
        let mut bc = lb;                   // a ⊕ (b ⊕ c)
        bc.merge(&lc);
        let mut assoc_right = la;
        assoc_right.merge(&bc);
        prop_assert_eq!(assoc_left, assoc_right);
        prop_assert_eq!(assoc_left.to_stats(), assoc_right.to_stats());
    }

    #[test]
    fn ledger_since_inverts_merge(a in charges(), b in charges()) {
        let costs = paper_costs();
        let (la, lb) = (ledger_of(&a, &costs), ledger_of(&b, &costs));
        let mut merged = la;
        merged.merge(&lb);
        prop_assert_eq!(merged.since(&la), lb);
        prop_assert_eq!(merged.since(&lb), la);
        prop_assert!(merged.since(&merged).is_empty());
    }

    // ── In-place kernels and scratch-row activations (PR 3 hot path) ───

    #[test]
    fn in_place_bitrow_kernels_match_allocating(a in bits(96), b in bits(96), d in bits(96)) {
        // 96 bits spans a word boundary with a masked tail — the case the
        // word-at-a-time kernels must get right.
        let (ra, rb, rd) = (BitRow::from_bits(a), BitRow::from_bits(b), BitRow::from_bits(d));
        let mut out = BitRow::ones(96); // stale content must be fully overwritten
        out.nor_into(&ra, &rb);
        prop_assert_eq!(&out, &ra.or(&rb).not());
        out.nand_into(&ra, &rb);
        prop_assert_eq!(&out, &ra.and(&rb).not());
        out.xor_into(&ra, &rb);
        prop_assert_eq!(&out, &ra.xor(&rb));
        out.xnor_into(&ra, &rb);
        prop_assert_eq!(&out, &ra.xnor(&rb));
        out.xor3_into(&ra, &rb, &rd);
        prop_assert_eq!(&out, &ra.xor(&rb).xor(&rd));
        out.maj3_into(&ra, &rb, &rd);
        prop_assert_eq!(&out, &BitRow::maj3(&ra, &rb, &rd));
    }

    #[test]
    fn scratch_row_apply_leaves_identical_subarray_state(
        a in bits(DramGeometry::tiny().cols),
        b in bits(DramGeometry::tiny().cols),
        d in bits(DramGeometry::tiny().cols),
        mode_ix in 0usize..5,
    ) {
        // The allocating op2/op3_carry and their scratch-row _apply forms
        // must leave every row, and the SA latch, bit-for-bit identical.
        let g = DramGeometry::tiny();
        let mode =
            [SaMode::Nor, SaMode::Nand, SaMode::Xor, SaMode::Xnor, SaMode::CarrySum][mode_ix];
        let mut alloc = Subarray::new(g);
        let mut apply = Subarray::new(g);
        for s in [&mut alloc, &mut apply] {
            s.write(RowAddr(1), &BitRow::from_bits(a.clone())).unwrap();
            s.write(RowAddr(2), &BitRow::from_bits(b.clone())).unwrap();
            s.write(RowAddr(3), &BitRow::from_bits(d.clone())).unwrap();
            for (row, x) in [(1usize, 0usize), (2, 1), (3, 2)] {
                s.copy(RowAddr(row), RowAddr(g.compute_row(x))).unwrap();
            }
        }
        let x: Vec<RowAddr> = (0..3).map(|i| RowAddr(g.compute_row(i))).collect();

        let sensed = alloc.op2(mode, [x[0], x[1]], RowAddr(5)).unwrap();
        apply.op2_apply(mode, [x[0], x[1]], RowAddr(5)).unwrap();
        prop_assert_eq!(&apply.read(RowAddr(5)).unwrap(), &sensed);

        // Re-stage the (identically destroyed) operands and run the TRA.
        for s in [&mut alloc, &mut apply] {
            for (row, x) in [(1usize, 0usize), (2, 1), (3, 2)] {
                s.copy(RowAddr(row), RowAddr(g.compute_row(x))).unwrap();
            }
        }
        let carried = alloc.op3_carry([x[0], x[1], x[2]], RowAddr(6)).unwrap();
        apply.op3_carry_apply([x[0], x[1], x[2]], RowAddr(6)).unwrap();
        prop_assert_eq!(&apply.read(RowAddr(6)).unwrap(), &carried);

        for r in 0..g.rows {
            prop_assert_eq!(
                alloc.read(RowAddr(r)).unwrap(),
                apply.read(RowAddr(r)).unwrap(),
                "row {} diverged", r
            );
        }
        prop_assert_eq!(alloc.latch(), apply.latch());
    }

    #[test]
    fn stats_merge_is_order_independent(a in charges(), b in charges()) {
        // The f64 CommandStats::merge the pipeline uses for stage deltas
        // commutes exactly when both operands derive from integer ledgers.
        let costs = paper_costs();
        let (sa, sb) = (ledger_of(&a, &costs).to_stats(), ledger_of(&b, &costs).to_stats());
        let mut ab = sa;
        ab.merge(&sb);
        let mut ba = sb;
        ba.merge(&sa);
        prop_assert_eq!(ab.total_commands(), ba.total_commands());
        prop_assert_eq!(ab.serial_ns.to_bits(), ba.serial_ns.to_bits());
        prop_assert_eq!(ab.energy_nj.to_bits(), ba.energy_nj.to_bits());
    }
}

use pim_dram::ledger::{CommandCosts, EnergyLedger, COMMAND_CLASSES};

/// Per-class command counts, as a fixed-width vector indexed like
/// [`COMMAND_CLASSES`].
fn charges() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..10_000, COMMAND_CLASSES.len())
}

fn paper_costs() -> CommandCosts {
    CommandCosts::new(
        &pim_dram::timing::TimingParams::ddr4_2133(),
        &pim_dram::energy::EnergyParams::ddr4_45nm(),
        256,
    )
}

fn ledger_of(counts: &[u64], costs: &CommandCosts) -> EnergyLedger {
    let mut ledger = EnergyLedger::default();
    for (&class, &count) in COMMAND_CLASSES.iter().zip(counts) {
        ledger.charge_many(class, costs, count);
    }
    ledger
}
