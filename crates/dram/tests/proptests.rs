//! Property-based tests: the in-memory primitives executed on a sub-array
//! context checked out of the controller must agree with plain software bitwise logic for
//! arbitrary row contents, and the word-slab sub-array must agree with a
//! per-row model built from `BitRow`'s allocating ops on arbitrary command
//! sequences.

use proptest::prelude::*;

use pim_dram::address::RowAddr;
use pim_dram::bitrow::BitRow;
use pim_dram::context::SubarrayContext;
use pim_dram::controller::Controller;
use pim_dram::geometry::DramGeometry;
use pim_dram::profile::ActivationModel;
use pim_dram::sense_amp::SaMode;
use pim_dram::subarray::Subarray;

fn bits(len: usize) -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), len)
}

fn setup() -> SubarrayContext {
    let mut c = Controller::new(DramGeometry::tiny());
    let id = c.subarray_handle(0, 0, 0, 0).unwrap();
    c.detach_context(id).unwrap()
}

proptest! {
    #[test]
    fn pim_xnor_matches_software(a in bits(64), b in bits(64)) {
        let mut c = setup();
        let ra = BitRow::from_bits(a);
        let rb = BitRow::from_bits(b);
        c.write_row(1, &ra).unwrap();
        c.write_row(2, &rb).unwrap();
        c.aap_copy(1, c.compute_row(0)).unwrap();
        c.aap_copy(2, c.compute_row(1)).unwrap();
        let out = c.aap2_xnor([c.compute_row(0), c.compute_row(1)], 5).unwrap();
        prop_assert_eq!(out, ra.xnor(&rb));
    }

    #[test]
    fn pim_nor_nand_xor_match_software(a in bits(64), b in bits(64)) {
        for mode in [SaMode::Nor, SaMode::Nand, SaMode::Xor] {
            let mut c = setup();
            let ra = BitRow::from_bits(a.clone());
            let rb = BitRow::from_bits(b.clone());
            c.write_row(1, &ra).unwrap();
            c.write_row(2, &rb).unwrap();
            c.aap_copy(1, c.compute_row(0)).unwrap();
            c.aap_copy(2, c.compute_row(1)).unwrap();
            let out = c.aap2(mode, [c.compute_row(0), c.compute_row(1)], 5).unwrap();
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
        let mut c = setup();
        let (ra, rb, rd) = (BitRow::from_bits(a), BitRow::from_bits(b), BitRow::from_bits(d));
        c.write_row(1, &ra).unwrap();
        c.write_row(2, &rb).unwrap();
        c.write_row(3, &rd).unwrap();
        for (row, x) in [(1usize, 0usize), (2, 1), (3, 2)] {
            c.aap_copy(row, c.compute_row(x)).unwrap();
        }
        let out = c
            .aap3_carry([c.compute_row(0), c.compute_row(1), c.compute_row(2)], 9)
            .unwrap();
        prop_assert_eq!(out, BitRow::maj3(&ra, &rb, &rd));
    }

    #[test]
    fn full_adder_slice_is_exact(a in bits(64), b in bits(64), cin in bits(64)) {
        // sum = a ^ b ^ cin with cin latched; carry = MAJ(a, b, cin).
        let mut c = setup();
        let (ra, rb, rc) = (BitRow::from_bits(a), BitRow::from_bits(b), BitRow::from_bits(cin));
        c.write_row(1, &ra).unwrap();
        c.write_row(2, &rb).unwrap();
        c.write_row(3, &rc).unwrap();
        // Latch cin by TRA(cin, cin-copy …) — hardware latches via the carry
        // path, so emulate the controller's sequencing: TRA over
        // (cin, zeros, cin) majors to cin and latches it.
        let zeros = BitRow::zeros(ra.len());
        c.write_row(4, &zeros).unwrap();
        c.aap_copy(3, c.compute_row(0)).unwrap();
        c.aap_copy(4, c.compute_row(1)).unwrap();
        c.aap_copy(3, c.compute_row(2)).unwrap();
        let latched = c
            .aap3_carry([c.compute_row(0), c.compute_row(1), c.compute_row(2)], 10)
            .unwrap();
        prop_assert_eq!(&latched, &rc); // MAJ(cin, 0, cin) = cin
        // Sum cycle.
        c.aap_copy(1, c.compute_row(0)).unwrap();
        c.aap_copy(2, c.compute_row(1)).unwrap();
        let sum = c.aap2_sum([c.compute_row(0), c.compute_row(1)], 11).unwrap();
        prop_assert_eq!(sum, ra.xor(&rb).xor(&rc));
        // Carry cycle.
        c.aap_copy(1, c.compute_row(0)).unwrap();
        c.aap_copy(2, c.compute_row(1)).unwrap();
        c.aap_copy(3, c.compute_row(2)).unwrap();
        let carry = c
            .aap3_carry([c.compute_row(0), c.compute_row(1), c.compute_row(2)], 12)
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
        let mut c = setup();
        let ra = BitRow::from_bits(a);
        c.write_row(src, &ra).unwrap();
        c.aap_copy(src, dst).unwrap();
        prop_assert_eq!(c.peek_row(dst).unwrap(), ra);
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

// ── The word slab against a per-row reference model ───────────────────

/// Every sense-amp mode, legal for a two-row activation or not.
const MODES: [SaMode; 7] = [
    SaMode::Memory,
    SaMode::Nor,
    SaMode::Nand,
    SaMode::Xor,
    SaMode::Xnor,
    SaMode::Carry,
    SaMode::CarrySum,
];

/// One command of a generated sequence; rows index [`row_choices`].
#[derive(Debug, Clone, Copy)]
enum Cmd {
    Write { row: usize, fill: u64 },
    Field { row: usize, offset: usize, len: usize, value: u64 },
    Copy { src: usize, dst: usize },
    Op2 { mode: SaMode, srcs: [usize; 2], dst: usize },
    Op3 { srcs: [usize; 3], dst: usize },
    ResetLatch,
}

/// The rows a command may name: four data rows, four compute rows and
/// one past the sub-array. Data-row sources are illegal under
/// destructive activation, repeated sources always are.
fn row_choices(g: &DramGeometry) -> [usize; 9] {
    [0, 1, 2, 3, g.compute_row(0), g.compute_row(1), g.compute_row(2), g.compute_row(3), g.rows]
}

/// Decodes one generated word into a command.
fn decode(w: u64) -> Cmd {
    let field = |shift: u32, n: u64| ((w >> shift) % n) as usize;
    match w % 6 {
        0 => Cmd::Write { row: field(3, 9), fill: w >> 8 },
        1 => Cmd::Field {
            row: field(3, 9),
            offset: field(8, 264),
            len: field(17, 66),
            value: w.rotate_left(29),
        },
        2 => Cmd::Copy { src: field(3, 9), dst: field(8, 9) },
        3 => Cmd::Op2 {
            mode: MODES[field(3, 7)],
            srcs: [field(8, 9), field(13, 9)],
            dst: field(18, 9),
        },
        4 => Cmd::Op3 { srcs: [field(3, 9), field(8, 9), field(13, 9)], dst: field(18, 9) },
        _ => Cmd::ResetLatch,
    }
}

/// A row's content from a generated word: all zeros, all ones, or a
/// pseudo-random pattern (so complemented modes meet the masked tail).
fn fill_row(cols: usize, fill: u64) -> BitRow {
    match fill % 4 {
        0 => BitRow::zeros(cols),
        1 => BitRow::ones(cols),
        _ => BitRow::from_fn(cols, |i| {
            let x = fill ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 63 == 1
        }),
    }
}

/// The per-row model: one `BitRow` per row, the SA latch, and the
/// activation rules, with every sense mode built from `BitRow`'s
/// allocating ops. A rejected command returns `None` and changes nothing.
struct RowModel {
    g: DramGeometry,
    rows: Vec<BitRow>,
    latch: BitRow,
    destructive: bool,
}

impl RowModel {
    fn new(g: DramGeometry, destructive: bool) -> Self {
        RowModel {
            g,
            rows: vec![BitRow::zeros(g.cols); g.rows],
            latch: BitRow::zeros(g.cols),
            destructive,
        }
    }

    /// Whether `srcs` is a legal multi-row activation set.
    fn activates(&self, srcs: &[usize]) -> bool {
        let distinct = srcs.iter().enumerate().all(|(i, s)| !srcs[..i].contains(s));
        distinct
            && srcs
                .iter()
                .all(|&s| s < self.g.rows && (!self.destructive || self.g.is_compute_row(s)))
    }

    fn op2(&mut self, mode: SaMode, srcs: [usize; 2], dst: usize) -> Option<BitRow> {
        if !self.activates(&srcs) || dst >= self.g.rows {
            return None;
        }
        let (a, b) = (&self.rows[srcs[0]], &self.rows[srcs[1]]);
        let out = match mode {
            SaMode::Nor => a.or(b).not(),
            SaMode::Nand => a.and(b).not(),
            SaMode::Xor => a.xor(b),
            SaMode::Xnor => a.xnor(b),
            SaMode::CarrySum => a.xor(b).xor(&self.latch),
            SaMode::Memory | SaMode::Carry => return None,
        };
        self.drive(&srcs, dst, &out);
        Some(out)
    }

    fn op3(&mut self, srcs: [usize; 3], dst: usize) -> Option<BitRow> {
        if !self.activates(&srcs) || dst >= self.g.rows {
            return None;
        }
        let out = BitRow::maj3(&self.rows[srcs[0]], &self.rows[srcs[1]], &self.rows[srcs[2]]);
        self.latch = out.clone();
        self.drive(&srcs, dst, &out);
        Some(out)
    }

    fn drive(&mut self, srcs: &[usize], dst: usize, out: &BitRow) {
        if self.destructive {
            for &s in srcs {
                self.rows[s] = out.clone();
            }
        }
        self.rows[dst] = out.clone();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn slab_subarray_matches_the_per_row_model(
        width in 0usize..3,
        destructive in any::<bool>(),
        words in proptest::collection::vec(any::<u64>(), 1..48),
    ) {
        // 64 columns fill their one word; 200 leave a masked 8-bit tail
        // word; 256 fill four words.
        let cols = [64, 200, 256][width];
        let g = DramGeometry { cols, ..DramGeometry::tiny() };
        let activation = if destructive {
            ActivationModel::DestructiveCharge
        } else {
            ActivationModel::NondestructiveSense
        };
        let mut slab = Subarray::with_activation(g, activation);
        let mut model = RowModel::new(g, destructive);
        let rows = row_choices(&g);
        for (step, cmd) in words.into_iter().map(decode).enumerate() {
            match cmd {
                Cmd::Write { row, fill } => {
                    let data = fill_row(cols, fill);
                    let ok = slab.write(RowAddr(rows[row]), &data).is_ok();
                    prop_assert_eq!(ok, rows[row] < g.rows, "step {}: {:?}", step, cmd);
                    if ok {
                        model.rows[rows[row]] = data;
                    }
                }
                Cmd::Field { row, offset, len, value } => {
                    let r = rows[row];
                    let fits = r < g.rows && len <= 64 && offset + len <= cols;
                    let written = slab.write_field(RowAddr(r), offset, len, value).is_ok();
                    prop_assert_eq!(written, fits, "step {}: {:?}", step, cmd);
                    if fits {
                        model.rows[r].splice(offset, &BitRow::from_u64(value, len));
                        let read = slab.read_field(RowAddr(r), offset, len).unwrap();
                        prop_assert_eq!(read, model.rows[r].extract(offset, len).to_u64());
                    }
                }
                Cmd::Copy { src, dst } => {
                    let (s, d) = (rows[src], rows[dst]);
                    let ok = slab.copy(RowAddr(s), RowAddr(d)).is_ok();
                    prop_assert_eq!(ok, s < g.rows && d < g.rows, "step {}: {:?}", step, cmd);
                    if ok {
                        model.rows[d] = model.rows[s].clone();
                    }
                }
                Cmd::Op2 { mode, srcs, dst } => {
                    let srcs = srcs.map(|i| rows[i]);
                    let expect = model.op2(mode, srcs, rows[dst]);
                    let sensed = slab
                        .op2(mode, srcs.map(RowAddr), RowAddr(rows[dst]))
                        .map(|()| (slab.sensed(), slab.sensed_all_ones()));
                    let expect = expect.map(|row| {
                        let all_ones = row.all_ones();
                        (row, all_ones)
                    });
                    prop_assert_eq!(sensed.ok(), expect, "step {}: {:?}", step, cmd);
                }
                Cmd::Op3 { srcs, dst } => {
                    let srcs = srcs.map(|i| rows[i]);
                    let expect = model.op3(srcs, rows[dst]);
                    let sensed = slab
                        .op3_carry(srcs.map(RowAddr), RowAddr(rows[dst]))
                        .map(|()| slab.sensed());
                    prop_assert_eq!(sensed.ok(), expect, "step {}: {:?}", step, cmd);
                }
                Cmd::ResetLatch => {
                    slab.reset_latch();
                    model.latch = BitRow::zeros(cols);
                }
            }
            for (r, row) in model.rows.iter().enumerate() {
                prop_assert_eq!(&slab.read(RowAddr(r)).unwrap(), row, "step {} row {}", step, r);
            }
            prop_assert_eq!(slab.latch(), &model.latch, "step {}: latch", step);
        }
    }
}
