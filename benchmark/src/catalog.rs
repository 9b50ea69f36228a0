//! The benchmark's vocabulary: workloads and metrics, by name.
//!
//! `BENCHMARK.json` at the repository root declares the same names (a unit
//! test keeps the two in step); later issues refer to them.

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "svc_wide",
        why: "In-process sharded service, 1024 objects: wire encode/decode, routing, per-shard rings and projection passes do most of the work.",
    },
    WorkloadSpec {
        name: "svc_durable",
        why: "Same frames over loopback TCP with fsynced journals and session acks: the write side of durability carries the cost.",
    },
    WorkloadSpec {
        name: "svc_recover",
        why: "A fresh bind over finished journals: the read side of durability, so faster appends bought with slower replay show.",
    },
    WorkloadSpec {
        name: "pipe_hot",
        why: "One hot counter through recorder, rings, merge and ingest with a fast-path check: no wire, no journal, no kernel search.",
    },
    WorkloadSpec {
        name: "check_dense",
        why: "Rounds of 4 concurrent register and counter operations fed inline: the kernel and per-segment setup do all the work, transport none.",
    },
    WorkloadSpec {
        name: "explore_deep",
        why: "Deep CAS fetch&increment tree, in-memory store, 2-element symmetry group: step, shape, fingerprint and store probe dominate.",
    },
    WorkloadSpec {
        name: "explore_spill",
        why: "The same tree over the spill-to-disk store: run writes and Bloom/fence probes, so a gain for one backend that costs the other shows.",
    },
    WorkloadSpec {
        name: "explore_sym",
        why: "Six symmetric local-copy processes: 720 renamings per state make canonicalization the whole cost and the store almost none.",
    },
];

/// Reported by every workload with `--trace 0`; each has a regression bound
/// in `BENCHMARK.json`.
pub const END_TO_END: &[MetricSpec] = &[
    MetricSpec {
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    MetricSpec {
        name: "rep_wall_ms",
        unit: "ms",
        better: "lower",
    },
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better }
}

/// Reported by every workload with `--trace 1`; a layer that is not on a
/// workload's path reads 0.  No bounds.
pub const PER_LAYER: &[MetricSpec] = &[
    // The issue's workload-specific end-to-end figures, derived from the
    // untraced repetitions of the traced run.
    layer("e2e.reps", "count", "higher"),
    layer("e2e.raw_wall_ms", "ms", "lower"),
    layer("e2e.raw_cpu_ms", "ms", "lower"),
    layer("e2e.machine_slowness", "ratio", "lower"),
    layer("e2e.peak_rss_mb", "MiB", "lower"),
    layer("e2e.checked_ops_per_s", "1/s", "higher"),
    layer("e2e.cpu_ns_per_op", "ns", "lower"),
    layer("e2e.verdict_lag_ms", "ms", "lower"),
    layer("e2e.recovery_s", "s", "lower"),
    layer("e2e.explore_s", "s", "lower"),
    layer("recorder.ns_per_event", "ns", "lower"),
    layer("recorder.dropped_malformed", "count", "lower"),
    layer("channel.ns_per_event", "ns", "lower"),
    layer("channel.frames", "count", "lower"),
    layer("channel.partial_frames", "count", "lower"),
    layer("channel.misordered_frames", "count", "lower"),
    layer("channel.fingerprint_mismatches", "count", "lower"),
    layer("wire.encode_ns_per_event", "ns", "lower"),
    layer("wire.decode_ns_per_event", "ns", "lower"),
    layer("wire.fingerprint_ns_per_event", "ns", "lower"),
    layer("wire.bytes_per_event", "B", "lower"),
    layer("transport.duplex_ns_per_frame", "ns", "lower"),
    layer("transport.tcp_ns_per_frame", "ns", "lower"),
    layer("transport.tcp_bytes", "B", "lower"),
    layer("journal.append_us_per_frame", "us", "lower"),
    layer("journal.recover_ns_per_event", "ns", "lower"),
    layer("journal.bytes_per_event", "B", "lower"),
    layer("session.frame_period_us", "us", "lower"),
    layer("session.acks", "count", "lower"),
    layer("session.retransmitted_frames", "count", "lower"),
    layer("session.overloads", "count", "lower"),
    layer("session.duplicate_frames", "count", "lower"),
    layer("session.reconnects", "count", "lower"),
    layer("supervisor.replayed_frames", "count", "lower"),
    layer("supervisor.replay_chain_mismatches", "count", "lower"),
    layer("replica.frames", "count", "lower"),
    layer("replica.frame_gaps", "count", "lower"),
    layer("replica.corrupt_frames", "count", "lower"),
    layer("replica.rejected_events", "count", "lower"),
    layer("replica.verdict_rounds", "count", "higher"),
    layer("replica.verdicts_dropped", "count", "lower"),
    layer("replica.shard_skew", "ratio", "lower"),
    layer("monitor.route_ns_per_event", "ns", "lower"),
    layer("monitor.ingest_ns_per_event", "ns", "lower"),
    layer("monitor.check_ns_per_event", "ns", "lower"),
    layer("monitor.segments", "count", "lower"),
    layer("monitor.fast_path_checks", "count", "higher"),
    layer("monitor.peak_window_events", "count", "lower"),
    layer("monitor.kernel_nodes", "count", "lower"),
    layer("monitor.memo_hits", "count", "higher"),
    layer("kernel.ns_per_op", "ns", "lower"),
    layer("kernel.nodes_per_op", "count", "lower"),
    layer("engine.states_per_s", "1/s", "higher"),
    layer("engine.visited", "count", "lower"),
    layer("engine.terminals", "count", "lower"),
    layer("engine.pruned", "count", "higher"),
    layer("engine.pruned_frac", "ratio", "higher"),
    layer("config.step_ns", "ns", "lower"),
    layer("config.shape_ns", "ns", "lower"),
    layer("config.fingerprint_ns", "ns", "lower"),
    layer("config.canonical_ns", "ns", "lower"),
    layer("config.enabled_per_state", "count", "lower"),
    layer("store.insert_ns_per_key", "ns", "lower"),
    layer("store.fresh_frac", "ratio", "higher"),
    layer("store.resident_bytes", "B", "lower"),
    layer("store.spilled_bytes", "B", "lower"),
    layer("store.filter_bytes", "B", "lower"),
    layer("store.runs", "count", "lower"),
    layer("residual.cpu_ns_per_event", "ns", "lower"),
    layer("residual.ns_per_state", "ns", "lower"),
    layer("trace.overhead_frac", "ratio", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn declared(manifest: &Json, key: &str) -> Vec<(String, String, String)> {
        manifest
            .get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has `{key}`"))
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (text("name"), text("unit"), text("better"))
            })
            .collect()
    }

    fn catalogued(specs: &[MetricSpec]) -> Vec<(String, String, String)> {
        specs
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_this_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        assert_eq!(declared(&manifest, "end_to_end"), catalogued(END_TO_END));
        assert_eq!(declared(&manifest, "per_layer"), catalogued(PER_LAYER));
        let workloads: Vec<(String, String)> = manifest
            .get("workloads")
            .and_then(Json::as_array)
            .expect("BENCHMARK.json has `workloads`")
            .iter()
            .map(|w| {
                let text = |k: &str| w.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (text("name"), text("why"))
            })
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.into(), w.why.into()))
            .collect();
        assert_eq!(workloads, expected);
        assert!(manifest
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .all(|m| m
                .get("bound")
                .and_then(Json::as_f64)
                .is_some_and(|b| b > 0.0 && b <= 0.25)));
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut names = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok(m.name, "_.-", 64), "{}", m.name);
            assert!(ok(m.unit, "_/%.-", 16), "{}", m.unit);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(names.insert(m.name), "duplicate {}", m.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in WORKLOADS {
            assert!(ok(w.name, "_.-", 64) && w.why.len() <= 200 && !w.why.contains('\n'));
            assert!(names.insert(w.name), "duplicate {}", w.name);
        }
    }
}
