//! Figure 6 — H-Memento vs the window-MST Baseline: hierarchical
//! heavy-hitter update speed on sliding windows, 1D (H=5) and 2D (H=25),
//! on the backbone trace (the paper notes the other traces behave alike).
//!
//! Both algorithms run behind the generic [`measure_update_mpps`] driver —
//! the harness neither knows nor cares which algorithm it drives. Output:
//! CSV of million packets per second per (dimension, counters, algorithm,
//! τ). The Baseline has no τ (it always performs H Full updates).
//!
//! ```text
//! cargo run -p memento-bench --release --bin fig06_hhh_speed [--full]
//! ```

use memento_baselines::WindowMst;
use memento_bench::{csv_header, csv_row, make_trace, measure_update_mpps, scaled, COUNTER_SWEEP};
use memento_core::traits::HhhAlgorithm;
use memento_core::HMemento;
use memento_hierarchy::{Hierarchy, SrcDstHierarchy, SrcHierarchy};
use memento_traces::TracePreset;

fn report<Hi: Hierarchy>(
    dim: &str,
    counters_label: &str,
    tau: f64,
    alg: &mut dyn HhhAlgorithm<Hi>,
    items: &[Hi::Item],
) {
    let mpps = measure_update_mpps(alg, items);
    csv_row(&[
        dim.to_string(),
        counters_label.to_string(),
        alg.name().to_string(),
        format!("{tau:.6}"),
        format!("{mpps:.2}"),
    ]);
}

fn run_dim<Hi: Hierarchy + 'static>(
    hier: Hi,
    packets: usize,
    window: usize,
    to_item: impl Fn(&memento_traces::Packet) -> Hi::Item,
) where
    Hi::Prefix: std::hash::Hash,
{
    let items: Vec<Hi::Item> = make_trace(&TracePreset::backbone(), packets, 17)
        .iter()
        .map(&to_item)
        .collect();
    let h = hier.h();
    let dim = if hier.dimensions() == 1 { "1d" } else { "2d" };
    for &counters_per_level in &COUNTER_SWEEP {
        let label = format!("{counters_per_level}H");
        // H-Memento across the tau sweep, floored at H * 2^-10 as in the paper.
        for i in 0..=10 {
            let tau = (2f64.powi(-i)).max(h as f64 * 2f64.powi(-10)).min(1.0);
            let mut hm = HMemento::new(hier.clone(), h * counters_per_level, window, tau, 0.01, 3);
            report(dim, &label, tau, &mut hm, &items);
        }
        // The Baseline (window MST): H full WCSS updates per packet.
        let mut baseline = WindowMst::new(hier.clone(), counters_per_level, window);
        report(dim, &label, 1.0, &mut baseline, &items);
    }
}

fn main() {
    let packets = scaled(150_000, 4_000_000);
    let window = scaled(60_000, 1_000_000);
    eprintln!(
        "# Figure 6: H-Memento vs Baseline (window MST), backbone trace, N={packets}, W={window}"
    );
    csv_header(&["dimension", "counters", "algorithm", "tau", "mpps"]);
    run_dim(SrcHierarchy, packets, window, |p| p.src);
    run_dim(SrcDstHierarchy, packets, window, |p| p.src_dst());
}
