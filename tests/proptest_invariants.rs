//! Cross-crate property-based tests on the paper's core invariants.

use std::collections::HashMap;

use memento::hierarchy::prefix::BYTE_PREFIX_LENGTHS;
use memento::hierarchy::{exact_hhh, Hierarchy};
use memento::lb::{AclAction, AclTable};
use memento::sketches::ExactWindow;
use memento::traits::Ingest;
use memento::WindowQuery;
use memento::{HMemento, Memento, Prefix1D, SrcHierarchy, Wcss};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// WCSS (τ = 1): the estimate never undershoots the exact window count
    /// and overshoots by at most 4W/k, for arbitrary streams and windows.
    #[test]
    fn wcss_error_bound_holds(
        stream in prop::collection::vec(0u64..40, 200..3000),
        window in 64usize..512,
        counters in 16usize..128,
    ) {
        let mut wcss = Wcss::new(counters, window);
        let mut exact = ExactWindow::new(window);
        for &x in &stream {
            wcss.update(x);
            exact.add(x);
        }
        let bound = 4.0 * window as f64 / counters as f64;
        for flow in 0u64..40 {
            let est = wcss.estimate(&flow);
            let real = exact.query(&flow) as f64;
            prop_assert!(est + 1e-9 >= real, "undershoot: flow {} est {} real {}", flow, est, real);
            prop_assert!(est - real <= bound + 1.0,
                "overshoot beyond bound: flow {} est {} real {} bound {}", flow, est, real, bound);
        }
    }

    /// Memento's bounds are consistent for any τ: lower ≤ upper, and the
    /// upper bound never falls below the exact count (one-sided error).
    #[test]
    fn memento_bounds_are_ordered_and_one_sided(
        stream in prop::collection::vec(0u64..20, 200..2000),
        window in 64usize..256,
        tau_inv in 1u32..8,
    ) {
        let tau = 1.0 / tau_inv as f64;
        let mut memento = Memento::new(32, window, tau, 7);
        let mut exact = ExactWindow::new(window);
        for &x in &stream {
            memento.update(x);
            exact.add(x);
        }
        for flow in 0u64..20 {
            let lo = memento.lower_bound(&flow);
            let hi = memento.estimate(&flow);
            prop_assert!(lo <= hi + 1e-9, "bounds inverted for {}", flow);
            if tau_inv == 1 {
                prop_assert!(hi + 1e-9 >= exact.query(&flow) as f64,
                    "tau=1 upper bound below exact for {}", flow);
            }
        }
    }

    /// H-Memento's coverage property (Definition 4.2): for every prefix left
    /// out of the output set P, its *true* conditioned frequency with respect
    /// to P stays below the threshold — up to the sampling slack the
    /// algorithm itself budgets for (the guarantee is probabilistic with
    /// confidence 1−δ; the extra slack makes the check deterministic in
    /// practice).
    #[test]
    fn h_memento_coverage_property(
        raw in prop::collection::vec((0u8..4, 0u8..4, 0u8..8), 400..1500),
        theta_pct in 10u32..30,
    ) {
        use memento::hierarchy::{conditioned_frequency_exact, prefix_frequencies};
        let hier = SrcHierarchy;
        let items: Vec<u32> = raw
            .iter()
            .map(|&(b, c, d)| u32::from_be_bytes([10, b * 16, c, d]))
            .collect();
        let window = items.len();
        let theta = theta_pct as f64 / 100.0;
        let mut hm = HMemento::new(hier, 4 * window.max(64), window, 1.0, 0.01, 3);
        for &it in &items {
            hm.update(it);
        }
        let output = hm.output(theta);
        let threshold = theta * window as f64;
        let allowance = threshold + 2.0 * hm.sampling_slack();
        for q in prefix_frequencies(&hier, items.iter().copied()).keys() {
            if !output.contains(q) {
                let c = conditioned_frequency_exact(&hier, &items, q, &output) as f64;
                prop_assert!(
                    c < allowance,
                    "coverage violated: {:?} has conditioned frequency {} vs threshold {} (+slack {})",
                    q, c, threshold, allowance - threshold
                );
            }
        }
        // And the output is never empty when a single source dominates.
        let exact = exact_hhh(&hier, &items, threshold);
        if !exact.is_empty() {
            prop_assert!(!output.is_empty(), "exact HHHs exist but output is empty");
        }
    }

    /// `update_batch` is *exactly* equivalent to repeated `update` on the
    /// deterministic paths (WCSS = Memento with τ = 1, and the exact window
    /// counter), for arbitrary streams and arbitrary batch splits.
    #[test]
    fn update_batch_equals_repeated_update_on_deterministic_paths(
        stream in prop::collection::vec(0u64..30, 50..1500),
        window in 32usize..256,
        counters in 8usize..64,
        chunk in 1usize..97,
    ) {
        // WCSS driven per-packet vs. in arbitrary chunks.
        let mut one_by_one = Wcss::new(counters, window);
        let mut batched = Wcss::new(counters, window);
        for &x in &stream {
            Ingest::update(&mut one_by_one, x);
        }
        for part in stream.chunks(chunk) {
            batched.update_batch(part);
        }
        prop_assert_eq!(
            WindowQuery::processed(&one_by_one),
            WindowQuery::processed(&batched)
        );
        for flow in 0u64..30 {
            prop_assert_eq!(
                one_by_one.estimate(&flow).to_bits(),
                batched.estimate(&flow).to_bits(),
                "WCSS batch/per-packet estimates diverge for flow {}", flow
            );
        }

        // Exact window: the provided (default) batch path.
        let mut exact_one: ExactWindow<u64> = ExactWindow::new(window);
        let mut exact_batch: ExactWindow<u64> = ExactWindow::new(window);
        for &x in &stream {
            Ingest::update(&mut exact_one, x);
        }
        for part in stream.chunks(chunk) {
            exact_batch.update_batch(part);
        }
        for flow in 0u64..30 {
            prop_assert_eq!(exact_one.query(&flow), exact_batch.query(&flow));
        }
    }

    /// The geometric-skip batch path preserves Memento's expected Full-update
    /// rate τ within statistical tolerance, independent of how the stream is
    /// split into batches, and slides the window identically (processed
    /// counts always match; frame/block positions are exercised by the
    /// deterministic test above).
    #[test]
    fn memento_batch_path_preserves_full_update_rate(
        tau_exp in 1u32..7,
        chunk in 1usize..613,
        seed in 0u64..1000,
    ) {
        let tau = 2f64.powi(-(tau_exp as i32));
        let n = 60_000usize;
        let keys: Vec<u64> = (0..n as u64).map(|i| i % 97).collect();
        let mut memento: Memento<u64> = Memento::new(64, 8_000, tau, seed);
        for part in keys.chunks(chunk) {
            memento.update_batch(part);
        }
        prop_assert_eq!(Memento::processed(&memento), n as u64);
        let expected = tau * n as f64;
        // Binomial std is sqrt(n·τ·(1−τ)); allow 5 sigma plus slack for the
        // discretized geometric draws.
        let tolerance = 5.0 * (n as f64 * tau * (1.0 - tau)).sqrt() + 0.02 * expected + 3.0;
        let got = memento.full_updates() as f64;
        prop_assert!(
            (got - expected).abs() <= tolerance,
            "full updates {} too far from expected {} (tau {}, chunk {}, tol {})",
            got, expected, tau, chunk, tolerance
        );
    }

    /// The HHH set never contains two prefixes where the deeper one fully
    /// explains the shallower one's conditioned frequency (structural sanity
    /// of the conditioned-frequency computation on exact oracles).
    #[test]
    fn exact_hhh_set_is_minimal_per_level(
        raw in prop::collection::vec((0u8..3, 0u8..3), 200..800),
        theta_pct in 15u32..40,
    ) {
        let hier = SrcHierarchy;
        let items: Vec<u32> = raw
            .iter()
            .map(|&(b, d)| u32::from_be_bytes([20, b, 0, d]))
            .collect();
        let theta = theta_pct as f64 / 100.0;
        let threshold = theta * items.len() as f64;
        let hhh = exact_hhh(&hier, &items, threshold);
        // Exact per-prefix frequencies.
        let mut freq: HashMap<_, u64> = HashMap::new();
        for &it in &items {
            for i in 0..hier.h() {
                *freq.entry(hier.prefix_at(it, i)).or_insert(0) += 1;
            }
        }
        for p in &hhh {
            // Every reported prefix carries at least the threshold worth of
            // traffic in total (its conditioned frequency is a lower bound of
            // its plain frequency).
            prop_assert!(
                freq[p] as f64 >= threshold,
                "reported prefix {:?} has total frequency {} below threshold {}",
                p, freq[p], threshold
            );
        }
    }
}

/// The ACL action a test draw stands for: the two blocking actions and two
/// rate limits that differ only in budget.
fn acl_action(kind: u8) -> AclAction {
    match kind {
        0 => AclAction::Deny,
        1 => AclAction::Tarpit,
        budget => AclAction::RateLimit {
            max_per_window: u64::from(budget),
            window: 100,
        },
    }
}

proptest! {
    // Each case is a few hundred table operations, so this block affords
    // many more cases than the sketch properties above.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The ACL's longest-prefix match equals a brute-force scan of a plain
    /// map of the same rules, after any sequence of inserts, replacements
    /// and removals. Rule addresses are drawn with every byte in 0..3, so
    /// prefixes at all five lengths (/0 included) overlap often. Queried
    /// sources lie inside installed prefixes or anywhere in the address
    /// space; `len`, `is_empty`, `contains` and `rules()` agree with the
    /// model after every step.
    #[test]
    fn acl_longest_prefix_match_equals_brute_force(
        ops in prop::collection::vec(
            (0u8..3, 0usize..5, (0u8..3, 0u8..3, 0u8..3, 0u8..3), 0u8..4),
            1..80,
        ),
        probes in prop::collection::vec((0u32..u32::MAX, 0usize..1024), 16..64),
    ) {
        let mut acl = AclTable::new();
        let mut model: HashMap<Prefix1D, AclAction> = HashMap::new();
        for &(op, depth, (a, b, c, d), kind) in &ops {
            let addr = u32::from_be_bytes([a, b, c, d]);
            let prefix = Prefix1D::new(addr, BYTE_PREFIX_LENGTHS[depth]);
            if op == 0 {
                prop_assert_eq!(acl.remove(&prefix), model.remove(&prefix).is_some());
            } else {
                // An insert, or a replacement when the prefix holds a rule.
                acl.insert(prefix, acl_action(kind));
                model.insert(prefix, acl_action(kind));
            }
            prop_assert_eq!(acl.len(), model.len());
            prop_assert_eq!(acl.is_empty(), model.is_empty());
            prop_assert_eq!(acl.contains(&prefix), model.contains_key(&prefix));
        }
        let rules: HashMap<Prefix1D, AclAction> = acl.rules().collect();
        prop_assert_eq!(acl.rules().count(), rules.len(), "rules() repeats a prefix");
        prop_assert_eq!(&rules, &model);

        let mut installed: Vec<Prefix1D> = model.keys().copied().collect();
        installed.sort();
        for &(bits, pick) in &probes {
            let mut sources = vec![bits];
            if !installed.is_empty() {
                let p = installed[pick % installed.len()];
                sources.push(p.addr() | (bits & !Prefix1D::mask(p.len())));
            }
            for src in sources {
                let expected = model
                    .iter()
                    .filter(|(p, _)| p.contains_addr(src))
                    .max_by_key(|(p, _)| p.len())
                    .map(|(&p, &action)| (p, action));
                let got = acl.matching_rule(src);
                prop_assert_eq!(
                    got, expected,
                    "source {:#010x}: table {:?}, model {:?}", src, got, expected
                );
            }
        }
    }
}
