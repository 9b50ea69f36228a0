//! E3 — locality (Lemmas 7–8, Proposition 9) and its failure with unboundedly
//! many objects.
//!
//! The paper's counterexample uses registers `R1, R2, …`: process `p` writes
//! 1 to `R_i`, process `q` then reads 0 from `R_i`.  Each projection `H|R_i`
//! stabilizes after its own constant number of events, but the global
//! stabilization index must cover the last stale read, so it grows linearly
//! with the number of registers — with infinitely many registers no single
//! `t` exists.  The experiment sweeps the number of registers and tabulates
//! per-object versus composed global stabilization.

use crate::Table;
use evlin_checker::locality;
use evlin_history::{HistoryBuilder, ObjectUniverse, ProcessId};
use evlin_spec::{Register, Value};

/// Builds the truncated counterexample over `k` registers and its universe.
pub fn counterexample(k: usize) -> (ObjectUniverse, evlin_history::History) {
    let mut universe = ObjectUniverse::new();
    let registers: Vec<_> = (0..k)
        .map(|_| universe.add_object(Register::new(Value::from(0i64))))
        .collect();
    let mut b = HistoryBuilder::new();
    for &reg in &registers {
        b = b
            .complete(
                ProcessId(0),
                reg,
                Register::write(Value::from(1i64)),
                Value::Unit,
            )
            .complete(ProcessId(1), reg, Register::read(), Value::from(0i64));
    }
    (universe, b.build())
}

/// Runs experiment E3 and returns its tables.
pub fn run(quick: bool) -> Vec<Table> {
    let max_k = if quick { 5 } else { 12 };
    let mut table = Table::new(
        "E3 — locality: per-object vs composed stabilization on the infinite-register counterexample",
        &[
            "registers",
            "history events",
            "max per-object t_o",
            "all projections weakly consistent",
            "composed global t",
            "global t / events",
        ],
    );
    for k in 1..=max_k {
        let (universe, history) = counterexample(k);
        let reports = locality::per_object_reports(&history, &universe);
        let max_per_object = reports
            .iter()
            .map(|r| r.min_stabilization.unwrap_or(usize::MAX))
            .max()
            .unwrap_or(0);
        let composed = locality::compose_stabilization(&reports).unwrap_or(usize::MAX);
        let all_wc = reports.iter().all(|r| r.weakly_consistent);
        table.push_row([
            k.to_string(),
            history.len().to_string(),
            max_per_object.to_string(),
            all_wc.to_string(),
            composed.to_string(),
            format!("{:.2}", composed as f64 / history.len() as f64),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_object_stabilization_is_constant_but_global_grows() {
        let tables = run(true);
        let rows = &tables[0].rows;
        assert!(rows.len() >= 3);
        // Per-object t_o is bounded by a constant (4 events per register)…
        for row in rows {
            let per_object: usize = row[2].parse().unwrap();
            assert!(per_object <= 4);
            assert_eq!(row[3], "true");
        }
        // …while the composed global index strictly grows with the number of
        // registers.
        let composed: Vec<usize> = rows.iter().map(|r| r[4].parse().unwrap()).collect();
        for w in composed.windows(2) {
            assert!(w[1] > w[0], "global stabilization must grow: {composed:?}");
        }
    }
}
