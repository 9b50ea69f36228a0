//! Benchmark-owned input generation.
//!
//! Everything the event-path workloads feed the program is drawn here from
//! `--seed` with a private splitmix64, in plain types: the program's own
//! generators and the `rand` shim are deliberately not used, so a later
//! change to either cannot move the inputs.  `layers.rs` turns these plans
//! into the program's event types.

/// Steele, Lea & Flood's splitmix64.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`) by multiply-shift; the bias of at most
    /// `n / 2^64` is irrelevant at the sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// A fetch&increment stream: which counter object each producer's k-th
/// operation hits.  Responses are not part of the input — they are the
/// monitored application's output (a shared atomic per object), so the
/// recorded history is linearizable by construction.
#[derive(Debug, Clone)]
pub struct CounterPlan {
    pub objects: usize,
    pub per_producer: Vec<Vec<u32>>,
    /// Negative control: `(producer, op index)` whose response is reported
    /// wrong, which must turn the verdict into a violation.
    pub perturb: Option<(usize, usize)>,
}

impl CounterPlan {
    pub fn ops(&self) -> usize {
        self.per_producer.iter().map(Vec::len).sum()
    }
}

pub fn counter_plan(seed: u64, producers: usize, objects: usize, ops: usize) -> CounterPlan {
    let mut rng = SplitMix64::new(seed);
    let per_producer = (0..producers)
        .map(|_| {
            (0..ops / producers)
                .map(|_| rng.below(objects as u64) as u32)
                .collect()
        })
        .collect();
    CounterPlan {
        objects,
        per_producer,
        perturb: None,
    }
}

/// `plan` with one seeded response marked wrong.
pub fn perturbed(mut plan: CounterPlan, seed: u64) -> CounterPlan {
    let mut rng = SplitMix64::new(seed ^ 0x6e65_6761_7469_7665);
    let producer = rng.below(plan.per_producer.len() as u64) as usize;
    let op = rng.below(plan.per_producer[producer].len() as u64) as usize;
    plan.perturb = Some((producer, op));
    plan
}

/// Objects of the dense workload: registers first, then counters.
pub const DENSE_REGISTERS: u8 = 2;
pub const DENSE_COUNTERS: u8 = 2;
/// Register values are drawn from `0..DENSE_DOMAIN`.
pub const DENSE_DOMAIN: i64 = 4;
/// Operations overlapping in every round (one per process).
pub const DENSE_WIDTH: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenseCall {
    Read,
    Write(i64),
    Inc,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenseValue {
    Unit,
    Int(i64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenseBody {
    Invoke(DenseCall),
    Respond(DenseValue),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenseEvent {
    pub process: u8,
    pub object: u8,
    pub body: DenseBody,
}

/// `rounds` rounds of [`DENSE_WIDTH`] mutually concurrent operations over two
/// registers and two counters: every process invokes, then every process
/// responds, so each round is one quiescent segment whose operations may
/// linearize in any order.  Responses follow a seeded linearization applied to
/// a sequential model kept here, which makes the stream linearizable by
/// construction while leaving the checker a real search per segment.
///
/// With `perturb`, the first read at or after that round answers a value no
/// linearization can produce (the negative control).
pub fn dense_rounds(seed: u64, rounds: usize, perturb: Option<usize>) -> Vec<DenseEvent> {
    let mut rng = SplitMix64::new(seed);
    let objects = DENSE_REGISTERS + DENSE_COUNTERS;
    let mut state = vec![0i64; objects as usize];
    let mut events = Vec::with_capacity(rounds * DENSE_WIDTH * 2);
    let mut perturb_pending = false;
    for round in 0..rounds {
        perturb_pending |= perturb == Some(round);
        let mut calls = [(0u8, DenseCall::Read); DENSE_WIDTH];
        for (process, slot) in calls.iter_mut().enumerate() {
            let object = rng.below(u64::from(objects)) as u8;
            let call = match (object < DENSE_REGISTERS, rng.below(2) == 0) {
                (_, true) => DenseCall::Read,
                (true, false) => DenseCall::Write(rng.below(DENSE_DOMAIN as u64) as i64),
                (false, false) => DenseCall::Inc,
            };
            *slot = (object, call);
            events.push(DenseEvent {
                process: process as u8,
                object,
                body: DenseBody::Invoke(call),
            });
        }
        // The seeded linearization order of this round (Fisher–Yates).
        let mut order: [usize; DENSE_WIDTH] = std::array::from_fn(|i| i);
        for i in (1..DENSE_WIDTH).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut values = [DenseValue::Unit; DENSE_WIDTH];
        for &process in &order {
            let (object, call) = calls[process];
            let cell = &mut state[object as usize];
            values[process] = match call {
                DenseCall::Read if perturb_pending => {
                    perturb_pending = false;
                    DenseValue::Int(-7)
                }
                DenseCall::Read => DenseValue::Int(*cell),
                DenseCall::Write(v) => {
                    *cell = v;
                    DenseValue::Unit
                }
                DenseCall::Inc => {
                    *cell += 1;
                    DenseValue::Unit
                }
            };
        }
        // Responses return in an order independent of the linearization.
        for i in (1..DENSE_WIDTH).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for &process in &order {
            events.push(DenseEvent {
                process: process as u8,
                object: calls[process].0,
                body: DenseBody::Respond(values[process]),
            });
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_vectors() {
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
        let mut rng = SplitMix64::new(1_234_567);
        assert_eq!(rng.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(rng.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn below_stays_in_range_and_is_seed_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..1000 {
            let x = a.below(7);
            assert!(x < 7);
            assert_eq!(x, b.below(7));
        }
    }

    #[test]
    fn counter_plan_is_a_function_of_the_seed() {
        let a = counter_plan(9, 2, 64, 1000);
        assert_eq!(a.ops(), 1000);
        assert_eq!(a.per_producer, counter_plan(9, 2, 64, 1000).per_producer);
        assert_ne!(a.per_producer, counter_plan(10, 2, 64, 1000).per_producer);
        assert!(a.per_producer.iter().flatten().all(|&o| o < 64));
        let p = perturbed(a, 9);
        let (producer, op) = p.perturb.expect("perturbation chosen");
        assert!(op < p.per_producer[producer].len());
    }

    #[test]
    fn dense_rounds_are_well_formed_and_perturbable() {
        let events = dense_rounds(3, 50, None);
        assert_eq!(events.len(), 50 * DENSE_WIDTH * 2);
        for round in events.chunks(DENSE_WIDTH * 2) {
            let (invokes, responses) = round.split_at(DENSE_WIDTH);
            assert!(invokes
                .iter()
                .all(|e| matches!(e.body, DenseBody::Invoke(_))));
            for r in responses {
                assert!(matches!(r.body, DenseBody::Respond(_)));
                assert!(invokes
                    .iter()
                    .any(|i| i.process == r.process && i.object == r.object));
            }
        }
        let bad = dense_rounds(3, 50, Some(10));
        let differing = events.iter().zip(&bad).filter(|(a, b)| a != b).count();
        assert_eq!(differing, 1);
    }
}
