//! Runs every experiment and prints the abstract-claim summary.
//!
//! This is the one-shot regeneration entry point for `EXPERIMENTS.md`.

use pim_bench::{print_claims, scaled_pim_run, seed_from_args, Claim};
use pim_circuits::area::AreaModel;
use pim_circuits::transient::TransientSim;
use pim_circuits::variation::{MonteCarlo, PAPER_TABLE1};
use pim_dram::CommandClass;
use pim_platforms::assembly_model::{AssemblyCostModel, GpuAssemblyModel, PimAssemblyModel};
use pim_platforms::memwall::{mbr_percent, rur_percent};
use pim_platforms::throughput::ThroughputReport;
use pim_platforms::workload::AssemblyWorkload;

fn main() {
    let seed = seed_from_args();
    println!("PIM-Assembler reproduction — all experiments (seed {seed})");
    println!("================================================================\n");

    // Fig. 3a.
    let sim = TransientSim::nominal_45nm();
    let all_settle = sim.xnor_scenarios().iter().all(|w| w.settled(1e-3));
    let correct = sim.xnor_scenarios().iter().all(|w| {
        let equal = w.label.ends_with("00") || w.label.ends_with("11");
        (w.final_cell_voltage() > 0.9) == equal
    });
    println!("[Fig. 3a] transient XNOR2: all scenarios settle = {all_settle}, cell follows XNOR = {correct}");

    // Fig. 3b.
    let tp = ThroughputReport::paper_sweep();
    println!(
        "[Fig. 3b] P-A XNOR throughput {:.0} Gb/s; speedups: CPU {:.1}x, Ambit {:.2}x, D1 {:.2}x, D3 {:.2}x",
        tp.mean_xnor("P-A").unwrap() / 1e9,
        tp.mean_speedup("P-A", "CPU").unwrap(),
        tp.mean_xnor("P-A").unwrap() / tp.mean_xnor("Ambit").unwrap(),
        tp.mean_xnor("P-A").unwrap() / tp.mean_xnor("D1").unwrap(),
        tp.mean_xnor("P-A").unwrap() / tp.mean_xnor("D3").unwrap(),
    );

    // Table I.
    let mc = MonteCarlo::new(10_000, seed).table1();
    print!("[Table I] (±%, TRA meas/paper, 2-row meas/paper):");
    for (row, &(pct, pt, p2)) in mc.rows.iter().zip(PAPER_TABLE1.iter()) {
        print!(
            " ±{pct:.0}%: {:.2}/{pt:.2}, {:.2}/{p2:.2};",
            row.tra_error_pct, row.two_row_error_pct
        );
    }
    println!();

    // Area.
    let area = AreaModel::paper();
    println!(
        "[Area] {} row-equivalents per sub-array -> {:.2}% chip area (paper ~5%)",
        area.addon_row_equivalents(),
        area.overhead_percent()
    );

    // Fig. 9 / 10 / 11 aggregates.
    let ks = [16usize, 22, 26, 32];
    let mut gpu_t = 0.0;
    let mut pa_t = 0.0;
    let mut gpu_p = 0.0;
    let mut pa_p = 0.0;
    for &k in &ks {
        let w = AssemblyWorkload::chr14(k);
        let g = GpuAssemblyModel::gtx_1080ti().estimate(&w);
        let p = PimAssemblyModel::pim_assembler(2).estimate(&w);
        gpu_t += g.total_s();
        pa_t += p.total_s();
        gpu_p += g.power_w;
        pa_p += p.power_w;
    }
    println!(
        "[Fig. 9] GPU/P-A exec time {:.1}x (paper ~5x); power {:.1}x (paper ~7.5x); P-A avg {:.1} W (paper 38.4 W)",
        gpu_t / pa_t,
        gpu_p / pa_p,
        pa_p / ks.len() as f64
    );

    let w16 = AssemblyWorkload::chr14(16);
    let edp = |pd: usize| {
        let b = PimAssemblyModel::pim_assembler(pd).estimate(&w16);
        b.energy_j() * b.total_s()
    };
    let best_pd = [1usize, 2, 4, 8].into_iter().min_by(|&a, &b| edp(a).total_cmp(&edp(b))).unwrap();
    println!("[Fig. 10] energy-delay optimum at Pd = {best_pd} (paper: Pd ≈ 2)");

    let pa16 = PimAssemblyModel::pim_assembler(2).estimate(&w16);
    let gpu32 = GpuAssemblyModel::gtx_1080ti().estimate(&AssemblyWorkload::chr14(32));
    println!(
        "[Fig. 11] P-A MBR {:.1}% / RUR {:.1}% at k=16 (paper ~9% / ~65%); GPU MBR {:.1}% at k=32 (paper 70%)",
        mbr_percent(&pa16),
        rur_percent(&pa16),
        mbr_percent(&gpu32)
    );

    // Functional cross-check.
    let run = scaled_pim_run(16, 15_000, 12.0, seed);
    println!(
        "\n[functional] scaled pipeline: {} contigs, {} edges, {} AAP2 comparisons executed bit-accurately",
        run.assembly.contigs.len(),
        run.assembly.graph_edges,
        run.report.commands.count(CommandClass::Aap2)
    );

    let claims = vec![
        Claim::new("XNOR throughput vs CPU", 8.4, tp.mean_speedup("P-A", "CPU").unwrap(), "x"),
        Claim::new(
            "XNOR throughput vs best PIM (Ambit)",
            2.3,
            tp.mean_xnor("P-A").unwrap() / tp.mean_xnor("Ambit").unwrap(),
            "x",
        ),
        Claim::new("assembly exec time vs GPU", 5.0, gpu_t / pa_t, "x"),
        Claim::new("assembly power vs GPU", 7.5, gpu_p / pa_p, "x"),
        Claim::new("chip area overhead", 5.0, area.overhead_percent(), "%"),
    ];
    print_claims("abstract claims", &claims);
}
