//! Watch the hardware work: trace the exact AAP command sequence of one
//! `PIM_XNOR` comparison and one full-adder step.
//!
//! ```sh
//! cargo run --example command_trace
//! ```

use pim_assembler_suite::assembler::ir::{BackendKind, OptLevel};
use pim_assembler_suite::assembler::layout::SubarrayLayout;
use pim_assembler_suite::assembler::mapping::KmerMapper;
use pim_assembler_suite::assembler::pim_add::PimAdder;
use pim_assembler_suite::assembler::pim_xnor::PimComparator;
use pim_assembler_suite::dram::bitrow::BitRow;
use pim_assembler_suite::dram::controller::Controller;
use pim_assembler_suite::dram::geometry::DramGeometry;
use pim_assembler_suite::dram::RowAddr;
use pim_assembler_suite::genome::Kmer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = DramGeometry::paper_assembly();
    let mut ctrl = Controller::new(g);
    let id = ctrl.subarray_handle(0, 0, 0, 0)?;
    let layout = SubarrayLayout::new(&g);
    let mapper = KmerMapper::new(&g, 1, 8);

    // ── A PIM_XNOR comparison, traced ────────────────────────────────
    let stored: Kmer = "CGTGCGTGCTTACGGA".parse()?;
    let query: Kmer = "CGTGCGTGCTTACGGA".parse()?;
    ctrl.write_row(id, layout.kmer_row(0)?, &mapper.row_image(&stored, g.cols))?;
    ctrl.enable_trace(16);
    let comparator =
        PimComparator::new(g.cols, BackendKind::PimAssembler, RowAddr(0), OptLevel::O0);
    comparator.stage_query(&mut ctrl, id, layout.temp_row(0), &mapper.row_image(&query, g.cols))?;
    let matched = comparator.compare(
        &mut ctrl,
        id,
        layout.temp_row(0),
        layout.kmer_row(0)?,
        layout.temp_row(1),
    )?;
    println!("PIM_XNOR command trace (query == stored: {matched}):");
    print!("{}", ctrl.take_trace().expect("trace enabled"));

    // ── A full-adder step, traced ────────────────────────────────────
    let cols = g.cols;
    ctrl.write_row(id, 10, &BitRow::from_fn(cols, |i| i % 2 == 0))?;
    ctrl.write_row(id, 11, &BitRow::from_fn(cols, |i| i % 3 == 0))?;
    ctrl.write_row(id, 12, &BitRow::from_fn(cols, |i| i % 5 == 0))?;
    ctrl.write_row(id, 13, &BitRow::zeros(cols))?;
    ctrl.enable_trace(16);
    PimAdder::full_add(
        &mut ctrl,
        id,
        BackendKind::PimAssembler,
        OptLevel::O0,
        RowAddr(10),
        RowAddr(11),
        RowAddr(12),
        RowAddr(13),
        RowAddr(20),
        RowAddr(21),
    )?;
    println!("\nPIM_Add full-adder command trace (latch carry, sum cycle, carry cycle):");
    print!("{}", ctrl.take_trace().expect("trace enabled"));

    println!("\ntotal commands issued this session: {}", ctrl.stats().total_commands());
    Ok(())
}
