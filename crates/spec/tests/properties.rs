//! Property-based tests (proptest) for the sequential object specifications:
//! on every reachable state, `apply_deterministic` is *total* (every
//! generated invocation is enabled) and *deterministic* (exactly one
//! transition, and re-applying it gives the identical outcome) for Register,
//! FetchIncrement, CompareAndSwap, TestAndSet, Queue and MaxRegister.
//!
//! And for [`Invocation`]: however its method name is carried, `Eq`, `Ord`
//! and `Hash` see exactly what deriving them on `(Arc<str>, Arc<[Value]>)`
//! sees — kernel interning, Zobrist folds and checkpoint bytes are keyed on
//! them.
//!
//! And for every type: `for_each_transition` visits exactly what
//! `transitions()` lists, in its order, and the same again when asked again
//! — the kernel's and the monitor's node counts follow that order.

use evlin_spec::trivial::{BlindRegister, StickyGate};
use evlin_spec::{
    CompareAndSwap, Consensus, Counter, FetchIncrement, Invocation, MaxRegister, ObjectType, Queue,
    Register, TestAndSet, Value, VOCABULARY,
};
use proptest::prelude::*;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Walks `ty` from its initial state, deriving each step's invocation from
/// one code of `codes` via `invocation_for`, and checks at every step that
/// the transition relation has exactly one outcome, that
/// `apply_deterministic` accepts it, and that reapplication is reproducible.
fn check_total_deterministic_walk(
    ty: &dyn ObjectType,
    codes: &[usize],
    invocation_for: impl Fn(usize) -> Invocation,
) {
    let initial_states = ty.initial_states();
    prop_assert_eq!(
        initial_states.len(),
        1,
        "paper types have one initial state"
    );
    let mut state = initial_states[0].clone();
    for &code in codes {
        let invocation = invocation_for(code);
        let transitions = ty.transitions(&state, &invocation);
        prop_assert_eq!(
            transitions.len(),
            1,
            "{} must have exactly one outcome for {:?} in state {:?}",
            ty.name(),
            invocation,
            state
        );
        let (response, next) = ty
            .apply_deterministic(&state, &invocation)
            .unwrap_or_else(|e| panic!("{} not total on {invocation:?}: {e:?}", ty.name()));
        // Determinism also means reproducibility: the same (state,
        // invocation) pair yields the same (response, next state) again.
        let (response2, next2) = ty.apply_deterministic(&state, &invocation).unwrap();
        prop_assert_eq!(&response, &response2);
        prop_assert_eq!(&next, &next2);
        prop_assert_eq!(&transitions[0].response, &response);
        prop_assert_eq!(&transitions[0].next_state, &next);
        state = next;
    }
}

/// A small signed value derived from an unbounded code, so that walks revisit
/// states (making the determinism check meaningful) while still exercising
/// negative and positive arguments.
fn small_int(code: usize) -> i64 {
    (code % 9) as i64 - 4
}

/// An invocation with both fields reference-counted and everything derived:
/// the definition whose `Eq`/`Ord`/`Hash` the real one must reproduce, and
/// the `Arc`-named counterpart of a vocabulary invocation.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct DerivedInvocation {
    method: Arc<str>,
    args: Arc<[Value]>,
}

/// Records the bytes a `Hash` impl feeds its hasher.
#[derive(Default)]
struct RecordingHasher(Vec<u8>);

impl Hasher for RecordingHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    fn finish(&self) -> u64 {
        0
    }
}

fn hashed_bytes(value: &impl Hash) -> Vec<u8> {
    let mut hasher = RecordingHasher::default();
    value.hash(&mut hasher);
    hasher.0
}

/// A method name and an argument list drawn from `codes`: vocabulary names,
/// near misses of them (prefixes, extensions, the empty name) and arbitrary
/// other names, with zero to three small arguments.
fn invocation_parts(codes: &[usize]) -> (String, Vec<Value>) {
    let code = codes[0];
    let known = VOCABULARY[code % VOCABULARY.len()];
    let method = match code % 5 {
        0 | 1 => known.to_owned(),
        2 => known[..known.len() - code % 2].to_owned() + ["", "s", "_"][code % 3],
        3 => String::new(),
        _ => format!("m{}", code / 5),
    };
    let value = |code: usize| match code % 6 {
        0 => Value::Unit,
        1 => Value::Bottom,
        2 => Value::Bool(code % 4 < 2),
        3 => Value::from(small_int(code)),
        4 => Value::sym(format!("s{}", code % 7)),
        _ => Value::pair(Value::from(small_int(code)), Value::list([Value::Unit])),
    };
    let args = codes[1..]
        .iter()
        .take(code % 4)
        .map(|&c| value(c))
        .collect();
    (method, args)
}

fn both_forms(method: &str, args: &[Value]) -> (Invocation, DerivedInvocation) {
    (
        Invocation::new(method, args.to_vec()),
        DerivedInvocation {
            method: Arc::from(method),
            args: Arc::from(args),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn invocation_eq_ord_and_hash_are_the_derived_ones(
        left in prop::collection::vec(0usize..1000, 4..5),
        right in prop::collection::vec(0usize..1000, 4..5),
    ) {
        let (left_method, left_args) = invocation_parts(&left);
        let (right_method, right_args) = invocation_parts(&right);
        let (a, derived_a) = both_forms(&left_method, &left_args);
        let (b, derived_b) = both_forms(&right_method, &right_args);
        prop_assert_eq!(a == b, derived_a == derived_b);
        prop_assert_eq!(a.cmp(&b), derived_a.cmp(&derived_b));
        prop_assert_eq!(a.partial_cmp(&b), derived_a.partial_cmp(&derived_b));
        prop_assert_eq!(hashed_bytes(&a), hashed_bytes(&derived_a));
        prop_assert_eq!(
            hashed_bytes(&a),
            hashed_bytes(&(left_method.as_str(), left_args.as_slice()))
        );
        // Same content from another spelling and another constructor.
        let again = match left_args.as_slice() {
            [] => Invocation::nullary(left_method.clone()),
            [x] => Invocation::unary(left_method.clone(), x.clone()),
            [x, y] => Invocation::binary(left_method.clone(), x.clone(), y.clone()),
            _ => Invocation::new(left_method.clone(), left_args.clone()),
        };
        prop_assert_eq!(&again, &a);
        prop_assert_eq!(again.cmp(&a), std::cmp::Ordering::Equal);
        prop_assert_eq!(hashed_bytes(&again), hashed_bytes(&a));
        prop_assert_eq!(format!("{a:?}"), format!("{derived_a:?}").replacen("Derived", "", 1));
    }

    #[test]
    fn register_is_total_and_deterministic(codes in prop::collection::vec(0usize..1000, 1..60)) {
        let ty = Register::new(Value::from(0i64));
        check_total_deterministic_walk(&ty, &codes, |code| {
            if code % 2 == 0 {
                Register::read()
            } else {
                Register::write(Value::from(small_int(code)))
            }
        });
    }

    #[test]
    fn fetch_increment_is_total_and_deterministic(codes in prop::collection::vec(0usize..1000, 1..60)) {
        let ty = FetchIncrement::new();
        check_total_deterministic_walk(&ty, &codes, |_| FetchIncrement::fetch_inc());
    }

    #[test]
    fn compare_and_swap_is_total_and_deterministic(codes in prop::collection::vec(0usize..1000, 1..60)) {
        let ty = CompareAndSwap::new(Value::from(0i64));
        check_total_deterministic_walk(&ty, &codes, |code| match code % 4 {
            0 => CompareAndSwap::read(),
            1 => CompareAndSwap::write(Value::from(small_int(code))),
            // Both hitting and missing cas: expected values from the same
            // small domain the writes draw from.
            _ => CompareAndSwap::cas(
                Value::from(small_int(code / 4)),
                Value::from(small_int(code / 16)),
            ),
        });
    }

    #[test]
    fn test_and_set_is_total_and_deterministic(codes in prop::collection::vec(0usize..1000, 1..60)) {
        let ty = TestAndSet::new();
        check_total_deterministic_walk(&ty, &codes, |_| TestAndSet::test_and_set());
    }

    #[test]
    fn queue_is_total_and_deterministic(codes in prop::collection::vec(0usize..1000, 1..60)) {
        let ty = Queue::new();
        check_total_deterministic_walk(&ty, &codes, |code| {
            // Bias towards dequeue so walks regularly hit the empty queue
            // (dequeue of the empty queue must be enabled and return ⊥).
            if code % 3 == 0 {
                Queue::enqueue(Value::from(small_int(code)))
            } else {
                Queue::dequeue()
            }
        });
    }

    #[test]
    fn max_register_is_total_and_deterministic(codes in prop::collection::vec(0usize..1000, 1..60)) {
        let ty = MaxRegister::new();
        check_total_deterministic_walk(&ty, &codes, |code| {
            if code % 2 == 0 {
                MaxRegister::read_max()
            } else {
                MaxRegister::write_max(small_int(code))
            }
        });
    }

    /// `is_deterministic` (the bounded decision procedure) agrees with the
    /// walk-level property on all six types.
    #[test]
    fn is_deterministic_agrees(_dummy in 0usize..2) {
        prop_assert!(Register::new(Value::from(0i64)).is_deterministic());
        prop_assert!(FetchIncrement::new().is_deterministic());
        prop_assert!(CompareAndSwap::new(Value::from(0i64)).is_deterministic());
        prop_assert!(TestAndSet::new().is_deterministic());
        prop_assert!(Queue::new().is_deterministic());
        prop_assert!(MaxRegister::new().is_deterministic());
    }
}

/// The `(response, next state)` pairs `ty` visits for `invocation` in
/// `state`, in the order visited.
fn visited(ty: &dyn ObjectType, state: &Value, invocation: &Invocation) -> Vec<(Value, Value)> {
    let mut pairs = Vec::new();
    ty.for_each_transition(state, invocation, &mut |response, next| {
        pairs.push((response, next));
    });
    pairs
}

/// Every type of the crate, over its sampled invocations, from up to 64
/// states reachable from each initial state and from two values that are no
/// state of most types: the visitor's calls are the `transitions()` list,
/// order included, and repeat exactly.
#[test]
fn the_visitor_visits_the_transitions_in_their_order() {
    let types: [Box<dyn ObjectType>; 10] = [
        Box::new(Register::new(Value::from(0i64))),
        Box::new(FetchIncrement::new()),
        Box::new(CompareAndSwap::new(Value::from(0i64))),
        Box::new(TestAndSet::new()),
        Box::new(Queue::new()),
        Box::new(MaxRegister::new()),
        Box::new(Counter::new()),
        Box::new(Consensus::new()),
        Box::new(StickyGate::new()),
        Box::new(BlindRegister::new()),
    ];
    let (mut pairs, mut empty) = (0, 0);
    for ty in &types {
        let mut states = vec![Value::Unit, Value::sym("stranger")];
        for initial in ty.initial_states() {
            states.extend(ty.reachable_states(&initial, 64));
        }
        for state in &states {
            for invocation in ty.sample_invocations() {
                let listed = ty.transitions(state, &invocation);
                let listed: Vec<_> = listed
                    .into_iter()
                    .map(|t| (t.response, t.next_state))
                    .collect();
                let once = visited(&**ty, state, &invocation);
                assert_eq!(once, listed, "{} {invocation:?} in {state:?}", ty.name());
                assert_eq!(visited(&**ty, state, &invocation), once);
                pairs += once.len();
                empty += usize::from(once.is_empty());
            }
        }
    }
    // Enabled and disabled invocations were both asked.
    assert!(pairs > 100 && empty > 0, "{pairs} pairs, {empty} disabled");
}

/// Every vocabulary name, with and without arguments: the statically named
/// invocation is indistinguishable from its `Arc`-named counterpart, and the
/// vocabulary is exactly what the eight types' own constructors spell.
#[test]
fn vocabulary_invocations_match_their_arc_named_counterparts() {
    let arg_lists: [&[Value]; 3] = [&[], &[Value::Int(7)], &[Value::Bottom, Value::Bool(true)]];
    for known in VOCABULARY {
        for args in arg_lists {
            let (fixed, shared) = both_forms(known, args);
            assert_eq!(fixed.method(), &*shared.method);
            assert_eq!(fixed.args(), &*shared.args);
            assert_eq!(hashed_bytes(&fixed), hashed_bytes(&shared));
            assert_eq!(hashed_bytes(&fixed), hashed_bytes(&(known, args)));
            for other in VOCABULARY {
                let (other_fixed, other_shared) = both_forms(other, args);
                assert_eq!(fixed == other_fixed, shared == other_shared);
                assert_eq!(fixed.cmp(&other_fixed), shared.cmp(&other_shared));
            }
        }
    }
    let spelled: std::collections::BTreeSet<String> = [
        Register::read(),
        Register::write(Value::Unit),
        CompareAndSwap::read(),
        CompareAndSwap::write(Value::Unit),
        CompareAndSwap::cas(Value::Unit, Value::Unit),
        evlin_spec::Consensus::propose(Value::Unit),
        evlin_spec::Counter::inc(),
        evlin_spec::Counter::add(1),
        evlin_spec::Counter::read(),
        FetchIncrement::fetch_inc(),
        MaxRegister::write_max(1),
        MaxRegister::read_max(),
        Queue::enqueue(Value::Unit),
        Queue::dequeue(),
        TestAndSet::test_and_set(),
    ]
    .iter()
    .map(|invocation| invocation.method().to_owned())
    .collect();
    let vocabulary: std::collections::BTreeSet<String> =
        VOCABULARY.iter().map(|name| name.to_string()).collect();
    assert_eq!(spelled, vocabulary);
}

/// Semantic spot-checks that the walks above cannot see (they only check
/// shape, not values): each type's signature behaviour on a tiny script.
#[test]
fn signature_behaviours() {
    let fi = FetchIncrement::new();
    let s0 = fi.initial_states()[0].clone();
    let (r0, s1) = fi
        .apply_deterministic(&s0, &FetchIncrement::fetch_inc())
        .unwrap();
    let (r1, _) = fi
        .apply_deterministic(&s1, &FetchIncrement::fetch_inc())
        .unwrap();
    assert_eq!((r0, r1), (Value::from(0i64), Value::from(1i64)));

    let ts = TestAndSet::new();
    let s0 = ts.initial_states()[0].clone();
    let (first, s1) = ts
        .apply_deterministic(&s0, &TestAndSet::test_and_set())
        .unwrap();
    let (second, _) = ts
        .apply_deterministic(&s1, &TestAndSet::test_and_set())
        .unwrap();
    assert_eq!((first, second), (Value::from(0i64), Value::from(1i64)));

    let q = Queue::new();
    let s0 = q.initial_states()[0].clone();
    let (empty, _) = q.apply_deterministic(&s0, &Queue::dequeue()).unwrap();
    assert_eq!(empty, Value::Bottom);

    let mr = MaxRegister::new();
    let s0 = mr.initial_states()[0].clone();
    let (_, s1) = mr
        .apply_deterministic(&s0, &MaxRegister::write_max(5))
        .unwrap();
    let (_, s2) = mr
        .apply_deterministic(&s1, &MaxRegister::write_max(3))
        .unwrap();
    let (top, _) = mr
        .apply_deterministic(&s2, &MaxRegister::read_max())
        .unwrap();
    assert_eq!(top, Value::from(5i64));
}
