//! Figure 7 — H-Memento (sliding window) vs RHHH (interval) update speed on
//! the backbone trace, 1D (H=5) and 2D (H=25).
//!
//! Both algorithms run behind the generic [`measure_update_mpps`] driver.
//! Output: CSV of million packets per second per (dimension, algorithm, τ).
//!
//! ```text
//! cargo run -p memento-bench --release --bin fig07_vs_rhhh [--full]
//! ```

use memento_baselines::Rhhh;
use memento_bench::{csv_header, csv_row, make_trace, measure_update_mpps, scaled};
use memento_core::traits::HhhAlgorithm;
use memento_core::HMemento;
use memento_hierarchy::{Hierarchy, SrcDstHierarchy, SrcHierarchy};
use memento_traces::TracePreset;

fn run_dim<Hi: Hierarchy + 'static>(
    hier: Hi,
    packets: usize,
    window: usize,
    counters_per_level: usize,
    to_item: impl Fn(&memento_traces::Packet) -> Hi::Item,
) where
    Hi::Prefix: std::hash::Hash,
{
    let items: Vec<Hi::Item> = make_trace(&TracePreset::backbone(), packets, 19)
        .iter()
        .map(&to_item)
        .collect();
    let h = hier.h();
    let dim = if hier.dimensions() == 1 { "1d" } else { "2d" };
    for i in 0..=10 {
        let tau = 2f64.powi(-i);
        let mut hm = HMemento::new(hier.clone(), h * counters_per_level, window, tau, 0.01, 3);
        let mut rhhh = Rhhh::new(hier.clone(), counters_per_level, tau, 0.01, 3);
        let contenders: [&mut dyn HhhAlgorithm<Hi>; 2] = [&mut hm, &mut rhhh];
        for alg in contenders {
            let mpps = measure_update_mpps(alg, &items);
            csv_row(&[
                dim.to_string(),
                alg.name().to_string(),
                format!("{tau:.6}"),
                format!("{mpps:.2}"),
            ]);
        }
    }
}

fn main() {
    let packets = scaled(200_000, 8_000_000);
    let window = scaled(80_000, 1_000_000);
    let counters_per_level = 512;
    eprintln!("# Figure 7: H-Memento vs RHHH, backbone trace, N={packets}, W={window}");
    csv_header(&["dimension", "algorithm", "tau", "mpps"]);
    run_dim(SrcHierarchy, packets, window, counters_per_level, |p| p.src);
    run_dim(SrcDstHierarchy, packets, window, counters_per_level, |p| {
        p.src_dst()
    });
}
