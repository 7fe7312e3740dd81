//! Metric assembly and the result line.
//!
//! End-to-end metrics come from the untraced wire run; per-layer metrics
//! from the traced replay. A per-layer metric a workload does not
//! exercise reads 0 (e.g. `voi.rank_us` on the batch workload, which
//! never ranks).

use crate::driver::DeviceOutcome;
use crate::inproc::group_rows;
use crate::phase::WirePhase;
use crate::stats::{mean, median, percentile};
use crate::trace::{durations_us, self_times};
use crate::traced::Traced;
use crate::workload::{Fleet, Workload, BATCH_ROWS};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `value`, or 0 where the workload produced no sample.
fn or_zero(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

/// Outcomes of the finished devices, with their seeded faults.
fn finished<'a>(fleet: &'a Fleet, phase: &'a WirePhase) -> Vec<(&'a DeviceOutcome, &'a str)> {
    phase
        .devices
        .iter()
        .filter_map(|run| {
            let outcome = run.outcome.as_ref()?;
            Some((outcome, fleet.devices[run.device].fault.as_str()))
        })
        .collect()
}

/// Per completed batch row: (measurements in its datalog, isolated?).
fn batch_rows(fleet: &Fleet, phase: &WirePhase) -> Vec<(usize, bool)> {
    phase
        .batches
        .iter()
        .filter(|run| run.digest.is_some())
        .flat_map(|run| {
            run.tops.iter().enumerate().map(move |(r, top)| {
                let device = &fleet.devices[fleet.device(run.request * BATCH_ROWS + r)];
                (
                    fleet.measured(&device.datalog),
                    top.as_deref() == Some(device.fault.as_str()),
                )
            })
        })
        .collect()
}

/// The end-to-end metrics of one untraced run.
pub fn end_to_end(
    workload: Workload,
    fleet: &Fleet,
    phase: &WirePhase,
    setup_s: f64,
    server_rss_mb: f64,
) -> Vec<Metric> {
    let latencies = phase.latencies_us();
    let elapsed = phase.elapsed_s.max(f64::MIN_POSITIVE);
    let (devices, measurements, accuracy) = if workload.adaptive() {
        let done = finished(fleet, phase);
        let measurements: Vec<f64> = done.iter().map(|(o, _)| o.measurements as f64).collect();
        let isolated: Vec<f64> = done
            .iter()
            .map(|(o, fault)| f64::from(u8::from(o.top.as_deref() == Some(*fault))))
            .collect();
        (done.len(), mean(&measurements), mean(&isolated))
    } else {
        let rows = batch_rows(fleet, phase);
        let measurements: Vec<f64> = rows.iter().map(|&(m, _)| m as f64).collect();
        let isolated: Vec<f64> = rows.iter().map(|&(_, i)| f64::from(u8::from(i))).collect();
        (rows.len(), mean(&measurements), mean(&isolated))
    };
    vec![
        metric("round_p50_ms", percentile(&latencies, 5000) / 1e3, "ms"),
        metric("round_p99_ms", percentile(&latencies, 9900) / 1e3, "ms"),
        metric("devices_per_s", devices as f64 / elapsed, "1/s"),
        metric("measurements_per_device", measurements, "count"),
        metric("isolation_accuracy", accuracy, "ratio"),
        metric("setup_s", setup_s, "s"),
        metric("server_rss_mb", server_rss_mb, "MB"),
    ]
}

/// Metrics taken as the median over a run's windows (each window is its
/// own server process); the rest are pooled over all windows.
const WINDOW_MEDIANS: [&str; 3] = ["round_p50_ms", "devices_per_s", "server_rss_mb"];

/// The tail percentile, taken as the median over windows when every
/// window's sample supports it. A pooled p99 is decided by the worst
/// window: one window whose server shared its cores with a neighbour
/// puts a tenth of the pooled sample in the tail.
const WINDOW_TAIL: &str = "round_p99_ms";

/// Replaces the pooled value of each [`WINDOW_MEDIANS`] metric — and of
/// [`WINDOW_TAIL`] when `tail_per_window` — by its median over `windows`.
pub fn combine_windows(
    windows: &[Vec<Metric>],
    pooled: Vec<Metric>,
    tail_per_window: bool,
) -> Vec<Metric> {
    pooled
        .into_iter()
        .map(|m| {
            let per_window =
                WINDOW_MEDIANS.contains(&m.name) || (tail_per_window && m.name == WINDOW_TAIL);
            if !per_window {
                return m;
            }
            let values: Vec<f64> = windows
                .iter()
                .filter_map(|w| w.iter().find(|x| x.name == m.name).map(|x| x.value))
                .collect();
            Metric {
                value: median(&values),
                ..m
            }
        })
        .collect()
}

/// Workload properties an optimisation may depend on, measured on the
/// wire run (printed, not part of the result line).
pub fn properties(workload: Workload, fleet: &Fleet, phase: &WirePhase) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let request_bytes: Vec<f64> = phase
        .samples
        .iter()
        .map(|s| s.request_bytes as f64)
        .collect();
    let reply_bytes: Vec<f64> = phase.samples.iter().map(|s| s.reply_bytes as f64).collect();
    out.push(("request_bytes_mean".to_string(), mean(&request_bytes)));
    out.push(("reply_bytes_mean".to_string(), mean(&reply_bytes)));
    if workload.adaptive() {
        let done = finished(fleet, phase);
        let rounds: Vec<f64> = done.iter().map(|(o, _)| o.rounds as f64).collect();
        let descents: Vec<f64> = done
            .iter()
            .map(|(o, _)| f64::from(u8::from(o.descended)))
            .collect();
        let candidates: Vec<f64> = phase
            .devices
            .iter()
            .flat_map(|d| d.ranked.iter().map(|&n| n as f64))
            .collect();
        out.push(("rounds_per_device".to_string(), mean(&rounds)));
        out.push(("descents_per_device".to_string(), mean(&descents)));
        out.push(("candidates_per_decision".to_string(), mean(&candidates)));
        out.push((
            "decisions_with_50plus_candidates_share".to_string(),
            mean(
                &candidates
                    .iter()
                    .map(|&n| f64::from(u8::from(n >= 50.0)))
                    .collect::<Vec<_>>(),
            ),
        ));
    } else {
        let (mut rows, mut distinct) = (0usize, 0usize);
        for run in &phase.batches {
            let batch = fleet.batch_rows(run.request);
            rows += batch.len();
            distinct += group_rows(&batch).0.len();
        }
        out.push((
            "batch_distinct_row_share".to_string(),
            distinct as f64 / rows.max(1) as f64,
        ));
    }
    out
}

/// Inputs of the per-layer metrics that come from outside the replay.
#[derive(Debug, Clone, Copy)]
pub struct LayerInputs {
    /// Wire `round_p50_ms` of the same run, in µs.
    pub wire_p50_us: f64,
    /// `/v1/stats` `queue_full_rejections` delta over the wire run.
    pub queue_full_rejections: u64,
    /// `/v1/stats` `worker_compiles` delta over the wire run.
    pub worker_compiles: u64,
    /// Median lazy block compile on a fresh hierarchy, ms (0 when the
    /// workload has no hierarchy).
    pub first_visit_ms: f64,
}

/// Share of the composed rounds' time not covered by a layer span.
pub fn unaccounted_share(traced: &Traced) -> f64 {
    let spans = traced.traced.tracer.spans();
    let selfs = self_times(spans);
    let (mut own, mut total) = (0u64, 0u64);
    for (span, own_ns) in spans.iter().zip(selfs) {
        if span.name == "request" {
            own += own_ns;
            total += span.ns();
        }
    }
    own as f64 / total.max(1) as f64
}

/// The per-layer metrics of one traced run.
pub fn per_layer(traced: &Traced, inputs: LayerInputs) -> Vec<Metric> {
    let spans = traced.traced.tracer.spans();
    let span_median = |name: &str| or_zero(median(&durations_us(spans, name)));
    let derived = |name: &str| traced.derived.get(name).map_or(&[][..], Vec::as_slice);
    let derived_median = |name: &str| or_zero(median(derived(name)));
    let derived_mean = |name: &str| mean(derived(name));
    let untraced_us = median(&traced.untraced.request_us);
    let traced_us = median(&traced.traced.request_us);
    let fanout = {
        let sequential = median(derived("batch.sequential_us"));
        let net_round = inputs.wire_p50_us - median(derived("batch.wire_layers_us"));
        or_zero(sequential / net_round)
    };
    let mean_bytes = |bytes: &[usize]| mean(&bytes.iter().map(|&b| b as f64).collect::<Vec<_>>());
    vec![
        metric("voi.rank_us", span_median("voi.rank"), "us"),
        metric(
            "voi.candidates_per_decision",
            derived_mean("voi.candidates_per_decision"),
            "count",
        ),
        metric(
            "voi.hypotheticals_per_decision",
            derived_mean("voi.hypotheticals_per_decision"),
            "count",
        ),
        metric("bbn.propagate_us", span_median("bbn.propagate"), "us"),
        metric(
            "deduction.self_us",
            derived_median("deduction.self_us"),
            "us",
        ),
        metric(
            "deduction.suspects_per_round",
            derived_mean("deduction.suspects_per_round"),
            "count",
        ),
        metric(
            "batch.row_diagnose_us",
            span_median("batch.row_diagnose"),
            "us",
        ),
        metric(
            "batch.distinct_row_share",
            traced.distinct_rows as f64 / traced.rows.max(1) as f64,
            "ratio",
        ),
        metric("batch.fanout_efficiency", fanout, "ratio"),
        metric("http.parse_us", span_median("http.parse"), "us"),
        metric("http.write_us", span_median("http.write"), "us"),
        metric("codec.decode_us", span_median("codec.decode"), "us"),
        metric("codec.encode_us", span_median("codec.encode"), "us"),
        metric(
            "codec.request_bytes",
            mean_bytes(&traced.traced.request_bytes),
            "bytes",
        ),
        metric(
            "codec.reply_bytes",
            mean_bytes(&traced.traced.reply_bytes),
            "bytes",
        ),
        metric("store.open_us", span_median("store.open"), "us"),
        metric("store.checkout_us", span_median("store.checkout"), "us"),
        metric("store.checkin_us", span_median("store.checkin"), "us"),
        metric("store.close_us", span_median("store.close"), "us"),
        metric("session.open_us", span_median("session.open"), "us"),
        metric(
            "session.absorb_us",
            derived_median("session.absorb_us"),
            "us",
        ),
        metric(
            "session.report_self_us",
            derived_median("session.report_self_us"),
            "us",
        ),
        metric(
            "session.round_self_us",
            derived_median("session.round_self_us"),
            "us",
        ),
        metric(
            "hierarchy.root_round_us",
            span_median("hierarchy.root_round"),
            "us",
        ),
        metric(
            "hierarchy.block_round_us",
            span_median("hierarchy.block_round"),
            "us",
        ),
        metric(
            "hierarchy.self_us",
            derived_median("hierarchy.self_us"),
            "us",
        ),
        metric(
            "hierarchy.descents_per_device",
            traced.descents as f64 / traced.closed.max(1) as f64,
            "count",
        ),
        metric("hierarchy.first_visit_ms", inputs.first_visit_ms, "ms"),
        metric("fleet.record_us", span_median("fleet.record"), "us"),
        metric("fleet.records", traced.traced.records as f64, "count"),
        metric(
            "net.wire_overhead_us",
            or_zero(inputs.wire_p50_us - untraced_us),
            "us",
        ),
        metric(
            "net.queue_full_rejections",
            inputs.queue_full_rejections as f64,
            "count",
        ),
        metric(
            "server.worker_compiles",
            inputs.worker_compiles as f64,
            "count",
        ),
        metric(
            "trace.unaccounted_share",
            unaccounted_share(traced),
            "ratio",
        ),
        metric("trace.overhead_us", or_zero(traced_us - untraced_us), "us"),
    ]
}

/// The result object: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_is_one_json_object() {
        let line = result_line(
            true,
            10,
            0,
            &[
                metric("round_p50_ms", 0.5, "ms"),
                metric("setup_s", f64::NAN, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\
             \"round_p50_ms\":{\"value\":0.5,\"unit\":\"ms\"},\
             \"setup_s\":{\"value\":0,\"unit\":\"s\"}}}"
        );
        let parsed = serde_json::parse_value_str(&line).expect("valid JSON");
        assert!(matches!(parsed, serde::Value::Obj(_)));
    }

    #[test]
    fn the_tail_is_a_window_median_only_when_every_window_supports_it() {
        let window = |p99: f64| {
            vec![
                metric("round_p99_ms", p99, "ms"),
                metric("isolation_accuracy", p99, "ratio"),
            ]
        };
        let windows = [window(1.0), window(1.2), window(9.0)];
        let pooled = window(5.0);
        let value = |metrics: &[Metric], name: &str| {
            metrics.iter().find(|m| m.name == name).map(|m| m.value)
        };
        let combined = combine_windows(&windows, pooled.clone(), true);
        assert_eq!(value(&combined, "round_p99_ms"), Some(1.2));
        assert_eq!(value(&combined, "isolation_accuracy"), Some(5.0));
        let combined = combine_windows(&windows, pooled, false);
        assert_eq!(value(&combined, "round_p99_ms"), Some(5.0));
    }
}
