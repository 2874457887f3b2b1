//! Property-based tests of the SA acceptance rule.

use coolnet_opt::sa::Acceptor;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Acceptance of improvements is unconditional at any temperature.
    #[test]
    fn acceptor_takes_improvements(t0 in 1e-9f64..1e6, seed in 0u64..100) {
        let mut a = Acceptor::new(t0, 0.9, seed);
        for k in 0..20 {
            prop_assert!(a.accept(10.0 + k as f64, 5.0));
        }
    }
}
