//! Property-based tests of the core vocabulary types.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use dtf_core::dist::{BoundedPareto, Exponential, Jitter, LogNormal, Normal, Sample};
use dtf_core::ids::{NodeId, TaskKey, ThreadId, WorkerId};
use dtf_core::rngx::RunRng;
use dtf_core::stats::Histogram;
use dtf_core::table::Value;
use dtf_core::time::{Dur, Time};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every distribution produces finite samples for any seed, and the
    /// bounded ones respect their bounds.
    #[test]
    fn distributions_always_finite(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert!(Normal::new(3.0, 2.0).sample(&mut rng).is_finite());
            prop_assert!(LogNormal::new(0.0, 1.5).sample(&mut rng) > 0.0);
            prop_assert!(Exponential::new(0.5).sample(&mut rng) >= 0.0);
            let p = BoundedPareto::new(1.0, 50.0, 1.1).sample(&mut rng);
            prop_assert!((1.0..=50.0).contains(&p));
            let j = Jitter::new(0.4, 3.0).factor(&mut rng);
            prop_assert!((1.0 / 3.0..=3.0).contains(&j));
        }
    }

    /// Time arithmetic: conversions roundtrip to nanosecond precision and
    /// subtraction saturates instead of wrapping.
    #[test]
    fn time_arithmetic_consistent(a_ns in 0u64..u64::MAX / 4, b_ns in 0u64..u64::MAX / 4) {
        let (a, b) = (Time(a_ns), Time(b_ns));
        let d = a - b;
        if a_ns >= b_ns {
            prop_assert_eq!(d.0, a_ns - b_ns);
            prop_assert_eq!(b + d, a);
        } else {
            prop_assert_eq!(d, Dur::ZERO);
        }
        prop_assert_eq!(a.since(b), a - b);
    }

    /// Dur::scale by factors in [0, 4] never panics and is monotone.
    #[test]
    fn dur_scale_monotone(ns in 0u64..(1u64 << 50), f1 in 0.0f64..4.0, f2 in 0.0f64..4.0) {
        let d = Dur(ns);
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        prop_assert!(d.scale(lo) <= d.scale(hi));
    }

    /// TaskKey display/group/serde are stable and injective enough: equal
    /// keys give equal strings, different index gives different strings.
    #[test]
    fn task_key_identities(prefix in "[a-z_]{1,20}", token in any::<u32>(), index in any::<u32>()) {
        let k = TaskKey::new(prefix.clone(), token, index);
        let json = serde_json::to_string(&k).unwrap();
        prop_assert_eq!(serde_json::from_str(&json).unwrap(), serde_json::to_value(k).unwrap());
        let other = TaskKey::new(prefix, token, index.wrapping_add(1));
        prop_assert_ne!(other.to_string(), k.to_string());
        prop_assert_eq!(other.group(), k.group(), "group ignores the index");
    }

    /// Synthetic thread ids are injective over realistic cluster shapes.
    #[test]
    fn thread_ids_injective(n1 in 0u32..64, s1 in 0u32..4, t1 in 0u32..16,
                            n2 in 0u32..64, s2 in 0u32..4, t2 in 0u32..16) {
        let a = ThreadId::synth(WorkerId::new(NodeId(n1), s1), t1);
        let b = ThreadId::synth(WorkerId::new(NodeId(n2), s2), t2);
        prop_assert_eq!(a == b, (n1, s1, t1) == (n2, s2, t2));
    }

    /// RunRng streams: same label -> same stream; the stream is a pure
    /// function of (seed, run, label).
    #[test]
    fn run_rng_streams_pure(seed in any::<u64>(), run in any::<u32>()) {
        use rand::Rng;
        let rr = dtf_core::rngx::RunRng::new(seed, dtf_core::ids::RunId(run));
        let a: u64 = rr.stream("component").gen();
        let b: u64 = RunRng::new(seed, dtf_core::ids::RunId(run)).stream("component").gen();
        prop_assert_eq!(a, b);
    }

    /// Histogram totals equal the number of pushes for any inputs.
    #[test]
    fn histogram_conserves_counts(values in proptest::collection::vec(-1e6f64..1e6, 0..200)) {
        let mut h = Histogram::new(0.0, 100.0, 7);
        for &v in &values {
            h.push(v);
        }
        prop_assert_eq!(h.total(), values.len() as u64);
    }

    /// Value total ordering is antisymmetric and reflexive over a mixed pool.
    #[test]
    fn value_ordering_sane(a in value_strategy(), b in value_strategy()) {
        use std::cmp::Ordering;
        let ab = a.key().cmp_sort(&b.key());
        let ba = b.key().cmp_sort(&a.key());
        prop_assert_eq!(ab, ba.reverse());
        prop_assert_eq!(a.key().cmp_sort(&a.key()), Ordering::Equal);
    }
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::I64),
        any::<u64>().prop_map(Value::U64),
        (-1e12f64..1e12).prop_map(Value::F64),
        "[a-z0-9]{0,12}".prop_map(Value::Str),
    ]
}
