//! # rsp-bench — regenerators for every table and figure of the paper
//!
//! Each `table*`/`figure*` function reproduces one exhibit of the paper
//! from the library's models and prints our measurement next to the
//! published value. One dispatching binary wraps them (`cargo run -p
//! rsp-bench --bin exhibit -- table2`; `exhibit -- all` prints
//! everything, the source of `EXPERIMENTS.md`'s measured columns).
//!
//! The crate also owns the tracked benchmark **registry**
//! ([`registry`]): every tracked benchmark is one declarative
//! [`registry::BenchDef`] (id, workload, space, engines, anchors,
//! report labels) paired with a per-kind measurement adapter
//! ([`adapters`]); the `headline` binary is the one generic runner —
//! `--list` the definitions, `--run <id-glob>` a subset (printing each
//! row's anchors and phase table), and `--check`/`--check-all` the CI
//! benchmark-regression gate ([`gate`]): every committed report is
//! re-run once and fails when any field differs at all — a result
//! anchor (feasible counts, pruning and refill counters, the selected
//! base geometry), an event count of the work a row did, or the set of
//! rows (full rules in `crates/bench/METHODOLOGY.md`). Nothing tracked
//! is a timing; `perfbench/` measures time, in absolute numbers.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adapters;
pub mod gate;
pub mod registry;

use rsp_arch::{presets, OpKind, RspArchitecture};
use rsp_core::{estimate_stalls, rearrange, run_flow, AppProfile, FlowConfig, KernelPerf};
use rsp_kernel::{suite, Kernel, MappingStyle};
use rsp_mapper::{map, ConfigContext, MapOptions};
use rsp_synth::{paper, AreaModel, ComponentLibrary, DelayModel};
use std::fmt::Write as _;

/// Maps a kernel onto the paper's 8×8 base architecture.
///
/// # Panics
///
/// Panics if mapping fails (cannot happen for the built-in suite).
pub fn context_for(kernel: &Kernel) -> ConfigContext {
    map(presets::base_8x8().base(), kernel, &MapOptions::default())
        .expect("suite kernels map onto the 8x8 base")
}

/// Exact performance rows (ours) for one kernel across the nine
/// architectures of Tables 4/5.
///
/// # Panics
///
/// Panics if rearrangement fails (cannot happen for the built-in suite).
pub fn perf_rows(kernel: &Kernel) -> Vec<KernelPerf> {
    let ctx = context_for(kernel);
    let delay = DelayModel::new();
    presets::table_architectures()
        .iter()
        .map(|arch| {
            rsp_core::evaluate_perf(&ctx, arch, &delay, &Default::default())
                .expect("suite kernels rearrange on table architectures")
        })
        .collect()
}

/// Table 1 — synthesis result of a PE: our component library (and the
/// width-parametric estimator at 16 bit) against the paper.
pub fn table1() -> String {
    let lib = ComponentLibrary::table1();
    let est = ComponentLibrary::for_width(16);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table 1: synthesis result of a PE (16-bit, Virtex-II slices)"
    );
    let _ = writeln!(
        s,
        "{:<18} {:>8} {:>8} {:>10} {:>10} {:>12}",
        "component", "slices", "ratio%", "delay(ns)", "ratio%", "estimator"
    );
    for row in &paper::TABLE1 {
        let (slices, delay, est_a) = match row.component {
            "PE" => (
                lib.pe_area(rsp_arch::FuKind::ALL),
                DelayModel::new()
                    .pe_internal_path(&rsp_arch::PeDesign::full(), &rsp_arch::SharingPlan::none()),
                est.pe_area(rsp_arch::FuKind::ALL),
            ),
            name => {
                let fu = match name {
                    "Multiplexer" => rsp_arch::FuKind::Mux,
                    "ALU" => rsp_arch::FuKind::Alu,
                    "Array multiplier" => rsp_arch::FuKind::Multiplier,
                    "Shift logic" => rsp_arch::FuKind::Shifter,
                    other => unreachable!("unknown component {other}"),
                };
                (
                    lib.spec(fu).area_slices,
                    lib.spec(fu).delay_ns,
                    est.spec(fu).area_slices,
                )
            }
        };
        let _ = writeln!(
            s,
            "{:<18} {:>8.0} {:>8.2} {:>10.1} {:>10.2} {:>12.1}",
            row.component,
            slices,
            100.0 * slices / 910.0,
            delay,
            100.0 * delay / 25.6,
            est_a,
        );
    }
    let _ = writeln!(
        s,
        "(paper values identical by construction: the library is Table 1)"
    );
    s
}

/// Table 2 — synthesis result of the nine architectures: ours vs paper.
pub fn table2() -> String {
    let area = AreaModel::new();
    let delay = DelayModel::new();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table 2: synthesis result of the nine architectures (8x8)"
    );
    let _ = writeln!(
        s,
        "{:<6} {:>10} {:>10} {:>7} {:>8} {:>8} {:>7} | {:>9} {:>9}",
        "arch", "slices", "paper", "err%", "clk(ns)", "paper", "err%", "areaR%", "delayR%"
    );
    for (arch, p) in presets::table_architectures().iter().zip(&paper::TABLE2) {
        let a = area.report(arch);
        let d = delay.report(arch);
        let _ = writeln!(
            s,
            "{:<6} {:>10.0} {:>10.0} {:>6.1}% {:>8.2} {:>8.2} {:>6.1}% | {:>8.1}% {:>8.1}%",
            arch.name(),
            a.synthesized_slices,
            p.array_slices,
            100.0 * (a.synthesized_slices - p.array_slices) / p.array_slices,
            d.clock_ns,
            p.array_delay_ns,
            100.0 * (d.clock_ns - p.array_delay_ns) / p.array_delay_ns,
            a.reduction_pct(),
            d.reduction_pct(),
        );
    }
    let _ = writeln!(
        s,
        "headline: paper area -42.8% (RS#1), delay -34.69% (RSP#1 vs 25.6ns PE)"
    );
    s
}

/// Table 3 — kernels in the experiments: operation sets and peak
/// multiplications per cycle, ours vs paper.
pub fn table3() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 3: kernels in the experiments");
    let _ = writeln!(
        s,
        "{:<14} {:<28} {:>8} {:>8} {:>10} {:>6}",
        "kernel", "operation set (ours)", "MultNo", "paper", "style", "iters"
    );
    for (k, p) in suite::all().iter().zip(&paper::TABLE3) {
        let ctx = context_for(k);
        let ops: Vec<String> = k.op_set().iter().map(|o| o.to_string()).collect();
        let style = match k.style() {
            MappingStyle::Lockstep => "lockstep",
            MappingStyle::Dataflow => "dataflow",
        };
        let _ = writeln!(
            s,
            "{:<14} {:<28} {:>8} {:>8} {:>10} {:>6}",
            k.name(),
            ops.join(", "),
            ctx.mult_profile().max_per_cycle,
            p.max_mults_per_cycle,
            style,
            k.iterations(),
        );
    }
    s
}

fn perf_table(title: &str, kernels: &[Kernel], paper_rows: &[paper::KernelPerf]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    for (k, pk) in kernels.iter().zip(paper_rows) {
        let _ = writeln!(s, "\n  {} ({} iterations)", k.name(), k.iterations());
        let _ = writeln!(
            s,
            "  {:<6} {:>7} {:>9} {:>8} {:>6} | {:>7} {:>9} {:>8} {:>6}",
            "arch", "cycles", "ET(ns)", "DR%", "stall", "paper", "ET(ns)", "DR%", "stall"
        );
        let base_paper_et = pk.cells[0].et_ns;
        for (row, cell) in perf_rows(k).iter().zip(&pk.cells) {
            let paper_dr = 100.0 * (1.0 - cell.et_ns / base_paper_et);
            let paper_stall = if cell.stalls == paper::STALLS_NOT_APPLICABLE {
                "-".to_string()
            } else {
                cell.stalls.to_string()
            };
            let _ = writeln!(
                s,
                "  {:<6} {:>7} {:>9.1} {:>7.1}% {:>6} | {:>7} {:>9.1} {:>7.1}% {:>6}",
                row.arch,
                row.cycles,
                row.et_ns,
                row.dr_pct,
                row.rs_stalls,
                cell.cycles,
                cell.et_ns,
                paper_dr,
                paper_stall,
            );
        }
    }
    s
}

/// Table 4 — Livermore kernels across the nine architectures.
pub fn table4() -> String {
    perf_table(
        "Table 4: performance of the Livermore kernels (ours | paper)",
        &suite::livermore(),
        &paper::TABLE4,
    )
}

/// Table 5 — DSP kernels across the nine architectures.
pub fn table5() -> String {
    perf_table(
        "Table 5: performance of 2D-FDCT, SAD, MVM, FFT (ours | paper)",
        &suite::dsp(),
        &paper::TABLE5,
    )
}

/// Figure 1 — the 4×4 illustration array and its bus structure.
pub fn figure1() -> String {
    let arch = presets::fig1_4x4();
    let mut s = String::new();
    let _ = writeln!(s, "Figure 1: 4x4 reconfigurable array");
    let _ = writeln!(s, "  geometry: {}", arch.geometry());
    let _ = writeln!(s, "  buses:    {}", arch.base().buses());
    let _ = writeln!(
        s,
        "  config cache: {} contexts per PE (loop pipelining, not SIMD)",
        arch.base().config_cache_depth()
    );
    for row in 0..4 {
        let pes: Vec<String> = (0..4).map(|c| format!("PE[{row},{c}]")).collect();
        let _ = writeln!(s, "  {}  <= 2 read / 1 write bus", pes.join(" "));
    }
    s
}

/// Figure 2 — loop-pipelined schedule of the order-4 matrix multiplication
/// on the 4×4 base array.
pub fn figure2() -> String {
    let kernel = suite::matmul(4);
    let ctx = map(presets::fig1_4x4().base(), &kernel, &MapOptions::default())
        .expect("matmul(4) maps on the 4x4 array");
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 2: loop pipelining of a matrix multiplication of order 4"
    );
    let _ = writeln!(
        s,
        "(one lane per column; all 4 PEs of a column run the same op; Ld fetches both operands)"
    );
    s.push_str(&ctx.render_schedule(ctx.cycles(), |i| i.op.mnemonic().to_string()));
    let profile = ctx.mult_profile();
    let _ = writeln!(
        s,
        "peak: {} simultaneous multiplications = {} per row x 4 rows -> 8 multipliers for stall-free sharing (Fig. 3)",
        profile.max_per_cycle, profile.max_per_row_cycle
    );
    s
}

/// Figure 3/4 — multiplier sharing topology and bus-switch connections.
pub fn figure3() -> String {
    let arch = presets::shared_multiplier("Fig3", 4, 4, 2, 0, 1);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 3: 8 multipliers shared among 16 PEs (two per row)"
    );
    for res in arch.shared_resources() {
        let reach: Vec<String> = arch
            .geometry()
            .iter()
            .filter(|pe| res.reaches(*pe))
            .map(|pe| pe.to_string())
            .collect();
        let _ = writeln!(s, "  {res} <- {}", reach.join(", "));
    }
    let _ = writeln!(
        s,
        "Figure 4: each PE's bus switch routes 2x16-bit operands out and a 32-bit product back;"
    );
    let _ = writeln!(
        s,
        "  switch fan-in = shr + shc = {} alternatives, selected by the configuration cache",
        arch.plan().switch_fan_in()
    );
    s
}

/// Figure 5 — critical-path comparison between a general and a pipelined
/// PE.
pub fn figure5() -> String {
    let delay = DelayModel::new();
    let base = presets::base_8x8();
    let rp = presets::rp_only(2);
    let b = delay.report(&base);
    let p = delay.report(&rp);
    let mut s = String::new();
    let _ = writeln!(s, "Figure 5: general vs pipelined PE critical path");
    let _ = writeln!(
        s,
        "  general PE : mux 1.3 + multiplier 19.7 (+2.1 result) + shift 2.5 = {:.1} ns -> {:.1} ns clock",
        b.pe_path_ns, b.clock_ns
    );
    let _ = writeln!(
        s,
        "  pipelined  : register splits the multiplier; ALU path dominates: {:.1} ns -> {:.1} ns clock",
        p.pe_path_ns, p.clock_ns
    );
    let _ = writeln!(
        s,
        "  multiplication becomes a two-cycle operation; one-cycle ops finish early (loop pipelining tolerates mixed latency)"
    );
    s
}

/// Figure 6 — the matrix multiplication rearranged for a 2-stage pipelined
/// shared multiplier (one per row): four multipliers replace eight.
pub fn figure6() -> String {
    let kernel = suite::matmul(4);
    let ctx = map(presets::fig1_4x4().base(), &kernel, &MapOptions::default())
        .expect("matmul(4) maps on the 4x4 array");
    let arch = presets::shared_multiplier("RSP-4x4", 4, 4, 1, 0, 2);
    let r = rearrange(&ctx, &arch, &Default::default()).expect("rearrangement succeeds");

    // Stage-aware rendering: a multiplication shows 1* at its issue cycle
    // and 2* in the following cycle (as printed in the paper's Fig. 6).
    let total = r.cycles.iter().map(|&c| c + 2).max().unwrap_or(0) as usize;
    let mut grid: Vec<Vec<String>> = vec![vec![String::new(); total]; 4];
    for inst in ctx.instances() {
        if inst.pe.row != 0 {
            continue; // lockstep: row 0 represents its column
        }
        let t = r.cycles[inst.id.index()] as usize;
        let col = inst.pe.col;
        if inst.op == OpKind::Mult {
            grid[col][t].push_str("1*");
            grid[col][t + 1].push_str("2*");
        } else {
            grid[col][t].push_str(inst.op.mnemonic());
        }
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 6: matrix multiplication with the multiplier pipelined (2 stages)"
    );
    let _ = writeln!(s, "  {} shared multipliers (one per row) suffice:", 4);
    let _ = write!(s, "{:>10} |", "cycle");
    for t in 1..=total {
        let _ = write!(s, " {t:>4} |");
    }
    s.push('\n');
    for (c, lane) in grid.iter().enumerate() {
        let _ = write!(s, "{:>10} |", format!("col#{}", c + 1));
        for cell in lane {
            let _ = write!(s, " {cell:>4} |");
        }
        s.push('\n');
    }
    let _ = writeln!(
        s,
        "RS stalls: {}, RP overhead: {} (total {} vs base {})",
        r.rs_stalls, r.rp_overhead, r.total_cycles, r.base_cycles
    );
    let _ = writeln!(
        s,
        "steady state is stall-free: the stretched initiation interval (4) makes every column\nissue its multiplication in a distinct cycle, so one 2-stage multiplier per row holds two\nmultiplications in flight (the paper's Fig. 6 window); the residual stalls above come from\nthe C-scaling tail of eq. (1) colliding with the last column's body, which the paper's\nfigure does not show"
    );
    let _ = writeln!(
        s,
        "paper: Fig. 2 needs 8 multipliers; with 2-stage pipelining 4 suffice because two\nmultiplications share one multiplier in different stages"
    );
    s
}

/// Figure 7 — the design space exploration flow, executed end to end on a
/// demonstration domain (H.263-like: FDCT + SAD + MVM).
pub fn figure7() -> String {
    let apps = vec![
        AppProfile::new(
            "H.263 encoder",
            vec![(suite::fdct(), 99), (suite::sad(), 396), (suite::mvm(), 50)],
        ),
        AppProfile::new("FFT filterbank", vec![(suite::fft_mult_loop(), 128)]),
    ];
    let report = run_flow(&apps, &FlowConfig::default()).expect("flow runs");
    let mut s = String::new();
    let _ = writeln!(s, "Figure 7: design space exploration flow (executed)");
    let _ = writeln!(s, "  [profiling] critical loops by weight:");
    for c in &report.critical_loops {
        let _ = writeln!(
            s,
            "    {:<14} weight {:.1}%",
            c.kernel.name(),
            100.0 * c.weight
        );
    }
    let _ = writeln!(
        s,
        "  [base architecture] {} ({} PEs, cache {})",
        report.base.geometry(),
        report.base.geometry().pe_count(),
        report.base.config_cache_depth()
    );
    let _ = writeln!(s, "  [pipeline mapping] initial contexts:");
    for (c, ctx) in report.critical_loops.iter().zip(&report.contexts) {
        let _ = writeln!(
            s,
            "    {:<14} {} cycles ({} instances)",
            c.kernel.name(),
            ctx.total_cycles(),
            ctx.instances().len()
        );
    }
    let _ = writeln!(
        s,
        "  [RSP exploration] {} feasible, Pareto frontier:",
        report.exploration.feasible.len()
    );
    for p in report.exploration.pareto_points() {
        let _ = writeln!(
            s,
            "    {:<22} area {:>8.0} slices, est. weighted ET {:>9.1} ns",
            p.arch.name(),
            p.area_slices,
            p.est_et_ns
        );
    }
    let _ = writeln!(s, "  [RSP mapping] chosen: {}", report.chosen.name());
    for p in &report.perf {
        let _ = writeln!(
            s,
            "    {:<14} {} cycles, {:>8.1} ns, DR {:>6.1}%, stalls {}",
            p.kernel, p.cycles, p.et_ns, p.dr_pct, p.rs_stalls
        );
    }
    let _ = writeln!(
        s,
        "  area {:.0} vs base {:.0} slices ({:.1}% smaller), weighted ET {:.1} vs {:.1} ns",
        report.area_slices,
        report.base_area_slices,
        100.0 * (1.0 - report.area_slices / report.base_area_slices),
        report.weighted_et_ns(),
        report.weighted_base_et_ns()
    );
    s
}

/// Figure 8 — the four RS/RSP sharing configurations.
pub fn figure8() -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 8: four designs of RS/RSP architectures (8x8 array)"
    );
    for k in 1..=4 {
        let rs = presets::rs(k);
        let g = rs.plan().groups()[0];
        let _ = writeln!(
            s,
            "  #{k}: shr={} shc={} -> {} multipliers, switch fan-in {} (RS combinational, RSP 2-stage)",
            g.per_row(),
            g.per_col(),
            rs.shared_resources().len(),
            rs.plan().switch_fan_in(),
        );
    }
    s
}

/// Headline summary — the abstract's three claims, ours vs paper.
pub fn headline() -> String {
    let area = AreaModel::new();
    let delay = DelayModel::new();
    let best_area = (1..=4)
        .map(|k| area.report(&presets::rs(k)).reduction_pct())
        .fold(f64::MIN, f64::max);
    let best_delay = (1..=4)
        .map(|k| delay.report(&presets::rsp(k)).reduction_pct())
        .fold(f64::MIN, f64::max);
    let best_perf = perf_rows(&suite::sad())
        .iter()
        .map(|p| p.dr_pct)
        .fold(f64::MIN, f64::max);
    let mut s = String::new();
    let _ = writeln!(s, "Headline claims (ours vs paper):");
    let _ = writeln!(
        s,
        "  max area reduction   : {best_area:>6.1}%  vs {:>6.1}% (RS#1)",
        paper::HEADLINE_AREA_REDUCTION_PCT
    );
    let _ = writeln!(
        s,
        "  max delay reduction  : {best_delay:>6.1}%  vs {:>6.1}% (RSP#1; paper quotes vs the 25.6ns PE)",
        paper::HEADLINE_DELAY_REDUCTION_PCT
    );
    let _ = writeln!(
        s,
        "  max perf improvement : {best_perf:>6.1}%  vs {:>6.1}% (SAD on RSP#1)",
        paper::HEADLINE_PERF_IMPROVEMENT_PCT
    );
    s
}

/// Every exhibit in paper order (the `all` binary).
pub fn all_exhibits() -> String {
    [
        table1(),
        table2(),
        table3(),
        table4(),
        table5(),
        figure1(),
        figure2(),
        figure3(),
        figure5(),
        figure6(),
        figure7(),
        figure8(),
        headline(),
    ]
    .join("\n")
}

/// Estimation-vs-exact comparison across the suite (exhibits the
/// slack-aware admissible estimator — estimate ≤ exact, column-wise;
/// used by the `estimator` binary and ablations).
pub fn estimator_report() -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Estimator (admissible DSE bound) vs exact rearrangement:"
    );
    let _ = writeln!(
        s,
        "{:<14} {:<7} {:>10} {:>8}",
        "kernel", "arch", "estimate", "exact"
    );
    for k in suite::all() {
        let ctx = context_for(&k);
        for arch in presets::table_architectures() {
            let est = estimate_stalls(&ctx, &arch);
            let exact = rearrange(&ctx, &arch, &Default::default()).expect("rearranges");
            let _ = writeln!(
                s,
                "{:<14} {:<7} {:>10} {:>8}",
                k.name(),
                arch.name(),
                est.total_cycles,
                exact.total_cycles
            );
        }
    }
    s
}

/// All nine table architectures (re-export convenience for benches).
pub fn table_architectures() -> Vec<RspArchitecture> {
    presets::table_architectures()
}

/// Extension exhibit: energy per kernel across representative
/// architectures (the paper's §6 future-work conjecture, quantified by
/// `rsp-synth`'s activity-based model).
pub fn power() -> String {
    use rsp_core::{evaluate_energy, rearrange as re};
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Energy model (extension; synthetic coefficients, see rsp_synth::power):"
    );
    let _ = writeln!(
        s,
        "{:<14} {:<6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "kernel", "arch", "dyn(pJ)", "xfer(pJ)", "cfg(pJ)", "leak(pJ)", "total(pJ)", "vs base"
    );
    for k in suite::all() {
        let ctx = context_for(&k);
        let mut base_total = 0.0;
        for arch in [
            presets::base_8x8(),
            presets::rs1(),
            presets::rs2(),
            presets::rsp1(),
            presets::rsp2(),
        ] {
            let r = re(&ctx, &arch, &Default::default()).expect("rearranges");
            let e = evaluate_energy(&ctx, &arch, &r);
            if arch.is_base() {
                base_total = e.total_pj();
            }
            let _ = writeln!(
                s,
                "{:<14} {:<6} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>7.1}%",
                k.name(),
                arch.name(),
                e.dynamic_pj,
                e.transfer_pj,
                e.config_pj,
                e.static_pj,
                e.total_pj(),
                100.0 * (1.0 - e.total_pj() / base_total),
            );
        }
    }
    s
}

/// Extension exhibit: ablation sweeps over the template parameters the
/// paper's design space exposes (pipeline depth, array size, bus count,
/// RS/RP/RSP decomposition, mapping style).
pub fn ablation() -> String {
    use rsp_core::rearrange as re;
    let area = AreaModel::new();
    let delay = DelayModel::new();
    let mut s = String::new();

    // --- pipeline depth sweep (shr=2, shc=0) ----------------------------
    let _ = writeln!(s, "Ablation 1: pipeline depth at shr=2 (kernel: 2D-FDCT)");
    let _ = writeln!(
        s,
        "{:>7} {:>10} {:>9} {:>8} {:>8} {:>8} {:>10}",
        "stages", "slices", "clk(ns)", "cycles", "rp", "stalls", "ET(ns)"
    );
    let fdct = suite::fdct();
    let ctx = context_for(&fdct);
    for stages in 1..=4u8 {
        let arch = presets::shared_multiplier(format!("st{stages}"), 8, 8, 2, 0, stages);
        let a = area.report(&arch);
        let d = delay.report(&arch);
        let r = re(&ctx, &arch, &Default::default()).expect("rearranges");
        let _ = writeln!(
            s,
            "{:>7} {:>10.0} {:>9.2} {:>8} {:>8} {:>8} {:>10.1}",
            stages,
            a.synthesized_slices,
            d.clock_ns,
            r.total_cycles,
            r.rp_overhead,
            r.rs_stalls,
            r.total_cycles as f64 * d.clock_ns
        );
    }
    let _ = writeln!(
        s,
        "-> stage 2 captures nearly all the clock gain; deeper pipelines add latency for little"
    );

    // --- array size sweep ------------------------------------------------
    let _ = writeln!(
        s,
        "\nAblation 2: array size at RSP(shr=2, st=2) (kernel: SAD)"
    );
    let _ = writeln!(
        s,
        "{:>7} {:>10} {:>10} {:>9} {:>8} {:>10}",
        "array", "slices", "base", "areaR%", "cycles", "ET(ns)"
    );
    for n in [4usize, 8, 12, 16] {
        let arch = presets::shared_multiplier(format!("{n}x{n}"), n, n, 2, 0, 2);
        let sad = suite::sad();
        let Ok(ctx) = map(arch.base(), &sad, &MapOptions::default()) else {
            continue;
        };
        let a = area.report(&arch);
        let d = delay.report(&arch);
        let r = re(&ctx, &arch, &Default::default()).expect("rearranges");
        let _ = writeln!(
            s,
            "{:>7} {:>10.0} {:>10.0} {:>8.1}% {:>8} {:>10.1}",
            format!("{n}x{n}"),
            a.synthesized_slices,
            a.base_synthesized_slices,
            a.reduction_pct(),
            r.total_cycles,
            r.total_cycles as f64 * d.clock_ns
        );
    }
    let _ = writeln!(
        s,
        "-> the area saving ratio is geometry-independent; bigger arrays finish SAD faster"
    );

    // --- RS vs RP vs RSP decomposition ----------------------------------
    let _ = writeln!(s, "\nAblation 3: RS-only vs RP-only vs RSP at config #2");
    let _ = writeln!(
        s,
        "{:<10} {:>10} {:>9} {:>22}",
        "variant", "slices", "clk(ns)", "SAD ET(ns) / FDCT ET(ns)"
    );
    let sad = suite::sad();
    let sad_ctx = context_for(&sad);
    for (name, arch) in [
        ("base", presets::base_8x8()),
        ("RS-only", presets::rs2()),
        ("RP-only", presets::rp_only(2)),
        ("RSP", presets::rsp2()),
    ] {
        let a = area.report(&arch);
        let d = delay.report(&arch);
        let rs = re(&sad_ctx, &arch, &Default::default()).expect("rearranges");
        let rf = re(&ctx, &arch, &Default::default()).expect("rearranges");
        let _ = writeln!(
            s,
            "{:<10} {:>10.0} {:>9.2} {:>10.1} / {:>9.1}",
            name,
            a.synthesized_slices,
            d.clock_ns,
            rs.total_cycles as f64 * d.clock_ns,
            rf.total_cycles as f64 * d.clock_ns,
        );
    }
    let _ = writeln!(
        s,
        "-> RP alone wins time but grows area; RS alone wins area but loses time; RSP wins both"
    );

    // --- read-bus sensitivity --------------------------------------------
    let _ = writeln!(
        s,
        "\nAblation 4: read buses per row (kernel: 2D-FDCT, base arch)"
    );
    let _ = writeln!(s, "{:>6} {:>6} {:>8}", "buses", "II", "cycles");
    for buses in 1..=4usize {
        let base = rsp_arch::BaseArchitecture::new(
            rsp_arch::ArrayGeometry::new(8, 8),
            rsp_arch::PeDesign::full(),
            rsp_arch::BusSpec::new(buses, 1),
            512,
        );
        match map(&base, &fdct, &MapOptions::default()) {
            Ok(c) => {
                let _ = writeln!(
                    s,
                    "{:>6} {:>6} {:>8}",
                    buses,
                    c.initiation_interval(),
                    c.total_cycles()
                );
            }
            Err(e) => {
                let _ = writeln!(s, "{buses:>6}      infeasible: {e}");
            }
        }
    }
    let _ = writeln!(
        s,
        "-> memory bandwidth, not PE count, limits the dense kernels (ref. [7]'s motivation)"
    );

    // --- mapping style ----------------------------------------------------
    let _ = writeln!(
        s,
        "\nAblation 5: lockstep vs dataflow mapping (base cycles)"
    );
    let _ = writeln!(s, "{:<14} {:>9} {:>9}", "kernel", "lockstep", "dataflow");
    for k in [suite::hydro(), suite::iccg(), suite::fft_mult_loop()] {
        let mut row = vec![k.name().to_string()];
        for style in [MappingStyle::Lockstep, MappingStyle::Dataflow] {
            let c = map(
                presets::base_8x8().base(),
                &k,
                &MapOptions {
                    style: Some(style),
                    ..MapOptions::default()
                },
            );
            row.push(match c {
                Ok(c) => c.total_cycles().to_string(),
                Err(_) => "-".to_string(),
            });
        }
        let _ = writeln!(s, "{:<14} {:>9} {:>9}", row[0], row[1], row[2]);
    }
    let _ = writeln!(
        s,
        "-> small bodies fit either style; the suite's defaults follow the paper's stall classes"
    );
    s
}

/// Extension exhibit: functional-resource utilization — quantifies the
/// paper's §2 motivation ("critical functional resources may have low
/// utilization while occupying large area") and §5.3's "shared resources
/// of RSP architectures are more utilized".
pub fn utilization() -> String {
    use rsp_arch::FuKind;
    use rsp_core::{rearrange as re, utilization_of};
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Multiplier utilization (busy unit-cycles / unit-cycles):"
    );
    let _ = writeln!(
        s,
        "{:<14} {:>10} {:>10} {:>10} {:>10}",
        "kernel", "Base(64u)", "RS#1(8u)", "RS#2(16u)", "RSP#2(16u)"
    );
    for k in suite::all() {
        if k.total_mults() == 0 {
            continue;
        }
        let ctx = context_for(&k);
        let mut cells = Vec::new();
        for arch in [
            presets::base_8x8(),
            presets::rs1(),
            presets::rs2(),
            presets::rsp2(),
        ] {
            let r = re(&ctx, &arch, &Default::default()).expect("rearranges");
            let u = utilization_of(&ctx, &arch, &r)
                .of(FuKind::Multiplier)
                .expect("kernel multiplies");
            cells.push(format!("{:>9.1}%", 100.0 * u.utilization));
        }
        let _ = writeln!(
            s,
            "{:<14} {} {} {} {}",
            k.name(),
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
    }
    let _ = writeln!(
        s,
        "-> 64 private multipliers sit mostly idle; 8-16 shared ones do the same work\n   at several times the duty cycle, pipelining filling both stages (§2, §5.3)"
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_exhibit_renders() {
        for (name, text) in [
            ("table1", table1()),
            ("table2", table2()),
            ("table3", table3()),
            ("table4", table4()),
            ("table5", table5()),
            ("figure1", figure1()),
            ("figure2", figure2()),
            ("figure3", figure3()),
            ("figure5", figure5()),
            ("figure6", figure6()),
            ("figure8", figure8()),
            ("headline", headline()),
        ] {
            assert!(text.lines().count() >= 3, "{name} too short:\n{text}");
        }
    }

    #[test]
    fn figure2_shows_fig2_phases() {
        let f = figure2();
        assert!(f.contains("col#1"));
        assert!(f.contains("col#4"));
        assert!(f.contains("8 multipliers"));
    }

    #[test]
    fn figure6_shows_pipeline_stages() {
        let f = figure6();
        assert!(f.contains("1*"));
        assert!(f.contains("2*"));
        assert!(f.contains("steady state is stall-free"));
    }

    #[test]
    fn utilization_renders() {
        let u = utilization();
        assert!(u.contains("Multiplier utilization"));
        assert!(u.lines().count() > 8);
    }

    #[test]
    fn power_and_ablation_render() {
        let p = power();
        assert!(p.contains("total(pJ)"));
        assert!(p.lines().count() > 40);
        let a = ablation();
        for section in [
            "Ablation 1",
            "Ablation 2",
            "Ablation 3",
            "Ablation 4",
            "Ablation 5",
        ] {
            assert!(a.contains(section), "missing {section}");
        }
    }

    #[test]
    fn table2_mentions_every_architecture() {
        let t = table2();
        for name in ["Base", "RS#1", "RS#4", "RSP#1", "RSP#4"] {
            assert!(t.contains(name), "missing {name}");
        }
    }
}
