//! The benchmark's declared metrics: the same names, units and directions
//! `BENCHMARK.json` lists (a unit test holds the two together), plus the
//! rules a name must satisfy.

/// The repo's `BENCHMARK.json`, as checked in next to this package.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
    }
}

/// End-to-end metrics with the share of the parent's median each may
/// worsen by before a change counts as a regression. The host-time bounds
/// are the most a benchmark may declare: ten-seed quartile spreads on the
/// reference host reach a third of it in an ordinary hour and most of it in
/// a bad one (README.md, "How steady it is").
pub const END_TO_END: [(MetricSpec, f64); 3] = [
    (hi("sim_minstr_per_s", "Minstr/s"), 0.25),
    (lo("peak_rss_mb", "MB"), 0.10),
    (lo("setup_s", "s"), 0.25),
];

/// Per-layer metrics, grouped by layer (= crate). Host time unless the
/// unit is `count` or `ratio`: those are simulated quantities, repeat
/// exactly for a seed, and `compare` holds them to that.
pub const PER_LAYER: [MetricSpec; 62] = [
    lo("kernel.delay_queue.near_ns_per_op", "ns"),
    lo("kernel.delay_queue.far_ns_per_op", "ns"),
    lo("kernel.horizon_tree.set_min_ns.p4", "ns"),
    lo("kernel.horizon_tree.set_min_ns.p32", "ns"),
    lo("kernel.event_horizon.fold_ns.p4", "ns"),
    lo("kernel.event_horizon.fold_ns.p32", "ns"),
    lo("fingerprint.absorb_ns_per_record", "ns"),
    lo("fingerprint.emit_ns", "ns"),
    lo("fingerprint.crc16_ns_per_u64", "ns"),
    lo("mem.load_hit_ns", "ns"),
    lo("mem.load_miss_ns", "ns"),
    lo("mem.phantom_load_ns", "ns"),
    lo("mem.drain_store_ns", "ns"),
    lo("mem.sync_access_ns", "ns"),
    lo("mem.arbiter_service_ns", "ns"),
    lo("mem.poke_ns_per_word", "ns"),
    hi("mem.l1_hits", "count"),
    lo("mem.l1_misses", "count"),
    lo("mem.l2_misses", "count"),
    lo("mem.phantom_requests", "count"),
    lo("mem.xbar_port_waits", "count"),
    lo("mem.bank_queue_stalls", "count"),
    hi("mem.l1_hit_rate", "ratio"),
    lo("cpu.tick_ns.alu_loop", "ns"),
    lo("cpu.tick_ns.load_store_loop", "ns"),
    lo("cpu.tick_ns.stalled", "ns"),
    hi("cpu.retired_total", "count"),
    lo("cpu.rollbacks", "count"),
    hi("cpu.intervals", "count"),
    lo("cpu.serializing_stall_cycles", "count"),
    lo("core.system_new_ms", "ms"),
    lo("core.run_warmup.ns_per_cycle", "ns"),
    lo("core.run_window.ns_per_cycle.nonredundant", "ns"),
    lo("core.run_window.ns_per_cycle.strict", "ns"),
    lo("core.run_window.ns_per_cycle.reunion", "ns"),
    lo("core.window_stats_us", "us"),
    lo("core.check_bus.grant_ns", "ns"),
    hi("core.skipped_cycle_share", "ratio"),
    lo("core.recoveries", "count"),
    lo("core.input_incoherence", "count"),
    lo("core.sync_requests", "count"),
    lo("core.check_bus.messages", "count"),
    lo("core.check_bus.wait_cycles", "count"),
    lo("isa.asm.parse_us_per_kline", "us"),
    lo("isa.functional.ns_per_step", "ns"),
    lo("workloads.program_gen_ms", "ms"),
    lo("workloads.initial_memory_ms", "ms"),
    lo("workloads.cached_program_ns", "ns"),
    lo("sim.grid_build_us", "us"),
    lo("sim.record_emit_us", "us"),
    lo("sim.slowest_unit_ms", "ms"),
    lo("sim.to_json_ns_per_byte.small", "ns"),
    lo("sim.to_json_ns_per_byte.large", "ns"),
    lo("sim.parse_json_ns_per_byte.small", "ns"),
    lo("sim.parse_json_ns_per_byte.large", "ns"),
    lo("sim.manifest_append_us_per_cell", "us"),
    lo("sim.merge_ms", "ms"),
    lo("sim.runner.overhead_pct", "%"),
    hi("sim.runner.t2_speedup", "x"),
    lo("obs.on_overhead_pct", "%"),
    lo("obs.histogram_record_ns", "ns"),
    lo("trace.overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grids::WORKLOADS;
    use reunion_sim::{parse_json, JsonValue};
    use std::collections::BTreeSet;

    /// Most end-to-end and per-layer metrics a benchmark may declare.
    const MAX_END_TO_END: usize = 16;
    const MAX_PER_LAYER: usize = 128;

    fn better_str(better: Better) -> &'static str {
        match better {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// Whether `name` may name a metric or workload: starts with a letter or
    /// digit, then letters, digits, `_`, `.` and `-`, 64 characters at most.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    /// Whether `unit` may label a metric: 1 to 16 of letters, digits, `_`,
    /// `/`, `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        (1..=16).contains(&unit.len()) && unit.chars().all(ok)
    }

    #[test]
    fn name_and_unit_rules() {
        for good in [
            "sim_minstr_per_s",
            "core.run_window.ns_per_cycle.strict",
            "a-b",
            "4k",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-dash",
            "has space",
            "slash/y",
            "pct%",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for good in ["ms", "1/s", "%", "Minstr/s", "count"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "M instr", "seventeen_chars__"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn declared_metrics_and_workloads_are_valid_and_unique() {
        assert!(END_TO_END.len() <= MAX_END_TO_END);
        assert!(PER_LAYER.len() <= MAX_PER_LAYER);
        let mut seen = BTreeSet::new();
        let all = END_TO_END.iter().map(|(m, _)| m).chain(PER_LAYER.iter());
        for m in all {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        for w in WORKLOADS {
            assert!(valid_name(w));
            assert!(seen.insert(w), "{w} collides with a metric");
        }
        for (m, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
    }

    fn entries<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
        match doc.get(key) {
            Some(JsonValue::Array(items)) => items,
            other => panic!("BENCHMARK.json {key}: {other:?}"),
        }
    }

    fn field<'a>(v: &'a JsonValue, key: &str) -> &'a str {
        v.get(key)
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("missing {key}"))
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let doc = parse_json(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads: Vec<_> = entries(&doc, "workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for w in entries(&doc, "workloads") {
            let why = field(w, "why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }

        let e2e = entries(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (json, (spec, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(json, "name"), spec.name);
            assert_eq!(field(json, "unit"), spec.unit, "{}", spec.name);
            assert_eq!(
                field(json, "better"),
                better_str(spec.better),
                "{}",
                spec.name
            );
            assert_eq!(json.get("bound").and_then(JsonValue::as_f64), Some(bound));
        }
        let layers = entries(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (json, spec) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(json, "name"), spec.name);
            assert_eq!(field(json, "unit"), spec.unit, "{}", spec.name);
            assert_eq!(
                field(json, "better"),
                better_str(spec.better),
                "{}",
                spec.name
            );
        }
    }
}
