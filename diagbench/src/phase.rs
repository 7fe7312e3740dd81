//! The timed wire phase, the oracle check and the traced replay.

use crate::driver::{run_batch, run_device, BatchRun, DeviceRun, Failure, Sample, Wire};
use crate::inproc::InProc;
use crate::traced::Traced;
use crate::workload::{Fleet, Models, Workload};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Everything the closed-loop clients produced.
#[derive(Debug, Default)]
pub struct WirePhase {
    /// Adaptive device runs, client by client.
    pub devices: Vec<DeviceRun>,
    /// Batch requests, client by client.
    pub batches: Vec<BatchRun>,
    /// One sample per request that got a reply.
    pub samples: Vec<Sample>,
    /// Requests lost to connection failures (no reply, no sample).
    pub transport_failures: u64,
    /// Wall time from the first request to the last reply, s.
    pub elapsed_s: f64,
}

impl WirePhase {
    /// Requests sent.
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64 + self.transport_failures
    }

    /// Requests answered with a non-2xx status.
    pub fn status_failures(&self) -> u64 {
        self.failures()
            .filter(|f| matches!(f, Failure::Status(_)))
            .count() as u64
    }

    /// Requests whose reply broke the protocol (undecodable, no verdict).
    pub fn protocol_failures(&self) -> u64 {
        self.failures()
            .filter(|f| matches!(f, Failure::Protocol(_)))
            .count() as u64
    }

    /// Every failed request, devices first.
    pub fn failures(&self) -> impl Iterator<Item = &Failure> {
        self.devices
            .iter()
            .filter_map(|d| d.failure.as_ref())
            .chain(self.batches.iter().filter_map(|b| b.failure.as_ref()))
    }

    /// Concatenates phases (clients, or windows of one run).
    pub fn merge(parts: impl IntoIterator<Item = WirePhase>) -> WirePhase {
        let mut merged = WirePhase::default();
        for part in parts {
            merged.devices.extend(part.devices);
            merged.batches.extend(part.batches);
            merged.samples.extend(part.samples);
            merged.transport_failures += part.transport_failures;
            merged.elapsed_s += part.elapsed_s;
        }
        merged
    }

    /// Client latencies, µs, ascending.
    pub fn latencies_us(&self) -> Vec<f64> {
        crate::stats::sorted(self.samples.iter().map(|s| s.micros).collect())
    }
}

/// One closed-loop client: its own keep-alive connection, zero think
/// time, fleet positions `first + client`, then every `clients`-th.
fn drive_client(
    addr: &str,
    workload: Workload,
    fleet: &Fleet,
    first: usize,
    (client, clients): (usize, usize),
    deadline: Instant,
) -> WirePhase {
    let mut phase = WirePhase::default();
    let mut wire: Option<Wire> = None;
    let mut position = first + client;
    while Instant::now() < deadline {
        let transport = match wire.as_mut() {
            Some(transport) => transport,
            None => match Wire::connect(addr, workload.binary()) {
                Ok(transport) => wire.insert(transport),
                Err(_) => {
                    phase.transport_failures += 1;
                    break;
                }
            },
        };
        let failure = if workload.adaptive() {
            let run = run_device(
                transport,
                workload,
                fleet,
                fleet.device(position),
                Some(deadline),
            );
            let failure = run.failure.clone();
            phase.devices.push(run);
            failure
        } else {
            let run = run_batch(transport, workload, fleet, position % fleet.batch_period());
            let failure = run.failure.clone();
            phase.batches.push(run);
            failure
        };
        if let Some(Failure::Transport(_)) = failure {
            // The connection is gone: count the request, reconnect.
            phase.transport_failures += 1;
            if let Some(dead) = wire.take() {
                phase.samples.extend(dead.samples);
            }
        }
        position += clients;
    }
    if let Some(transport) = wire {
        phase.samples.extend(transport.samples);
    }
    phase
}

/// Runs `clients` closed-loop clients against `addr` for `duration`,
/// starting at fleet position `first`.
pub fn drive(
    addr: &str,
    workload: Workload,
    fleet: &Fleet,
    first: usize,
    duration: Duration,
    clients: usize,
) -> WirePhase {
    let start = Instant::now();
    let deadline = start + duration;
    let parts: Vec<WirePhase> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    drive_client(addr, workload, fleet, first, (client, clients), deadline)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    WirePhase {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..WirePhase::merge(parts)
    }
}

/// What the in-process oracle found.
#[derive(Debug, Default, Clone, Copy)]
pub struct OracleCheck {
    /// Distinct devices (or batch requests) replayed in-process.
    pub replayed: usize,
    /// Wire requests whose reply bytes (or device verdict) differ from
    /// the replay's.
    pub mismatched: u64,
}

/// Requests of `wire` that disagree with `expected`: differing digests,
/// requests the replay never sent, and — for a finished wire device —
/// requests the wire run skipped.
fn count_mismatches(wire: &[u64], expected: &[u64], finished: bool) -> u64 {
    let differing = wire.iter().zip(expected).filter(|(a, b)| a != b).count();
    let extra = wire.len().saturating_sub(expected.len());
    let missing = if finished {
        expected.len().saturating_sub(wire.len())
    } else {
        0
    };
    (differing + extra + missing) as u64
}

fn compare_device(wire: &DeviceRun, expected: &DeviceRun) -> u64 {
    let mut mismatched = count_mismatches(&wire.digests, &expected.digests, wire.outcome.is_some());
    if wire.outcome.is_some() && wire.outcome != expected.outcome {
        mismatched += 1;
    }
    mismatched
}

/// Replays every distinct device (or batch request) of the wire phase
/// through untraced in-process stacks on `threads` threads and compares
/// reply digests request by request.
pub fn oracle(
    workload: Workload,
    models: &Models,
    fleet: &Fleet,
    phase: &WirePhase,
    threads: usize,
) -> OracleCheck {
    let mut keys: Vec<usize> = if workload.adaptive() {
        phase.devices.iter().map(|d| d.device).collect()
    } else {
        phase.batches.iter().map(|b| b.request).collect()
    };
    keys.sort_unstable();
    keys.dedup();
    let chunk = keys.len().div_ceil(threads.max(1)).max(1);
    let expected: HashMap<usize, (DeviceRun, BatchRun)> = std::thread::scope(|scope| {
        let handles: Vec<_> = keys
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut stack = InProc::new(workload, models.clone(), false);
                    part.iter()
                        .map(|&key| {
                            let replay = if workload.adaptive() {
                                (
                                    run_device(&mut stack, workload, fleet, key, None),
                                    BatchRun::default(),
                                )
                            } else {
                                (
                                    DeviceRun::default(),
                                    run_batch(&mut stack, workload, fleet, key),
                                )
                            };
                            (key, replay)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle threads do not panic"))
            .collect()
    });
    let mut mismatched = 0;
    for run in &phase.devices {
        mismatched += compare_device(run, &expected[&run.device].0);
    }
    for run in &phase.batches {
        let replay = &expected[&run.request].1;
        if run.digest.is_some() && run.digest != replay.digest {
            mismatched += 1;
        }
    }
    OracleCheck {
        replayed: keys.len(),
        mismatched,
    }
}

/// Replays the wire phase's devices (or batch requests), in order,
/// through the traced transport until `budget` runs out. Returns the
/// transport and the oracle comparison of what it replayed.
pub fn traced_replay<'f>(
    workload: Workload,
    models: &Models,
    fleet: &'f Fleet,
    phase: &WirePhase,
    budget: Duration,
) -> (Traced<'f>, OracleCheck) {
    let mut traced = Traced::new(workload, models.clone(), fleet);
    let deadline = Instant::now() + budget;
    let mut check = OracleCheck::default();
    if workload.adaptive() {
        for run in &phase.devices {
            if Instant::now() >= deadline {
                break;
            }
            let replay = run_device(&mut traced, workload, fleet, run.device, None);
            check.replayed += 1;
            check.mismatched += compare_device(run, &replay);
        }
    } else {
        for run in &phase.batches {
            if Instant::now() >= deadline {
                break;
            }
            let replay = run_batch(&mut traced, workload, fleet, run.request);
            check.replayed += 1;
            if run.digest.is_some() && run.digest != replay.digest {
                check.mismatched += 1;
            }
        }
    }
    (traced, check)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatches_count_differing_extra_and_missing_requests() {
        assert_eq!(count_mismatches(&[1, 2, 3], &[1, 2, 3], true), 0);
        assert_eq!(count_mismatches(&[1, 9, 3], &[1, 2, 3], true), 1);
        assert_eq!(
            count_mismatches(&[1, 2], &[1, 2, 3], false),
            0,
            "cut by the deadline"
        );
        assert_eq!(
            count_mismatches(&[1, 2], &[1, 2, 3], true),
            1,
            "finished early"
        );
        assert_eq!(count_mismatches(&[1, 2, 3, 4], &[1, 2, 3], true), 1);
    }
}
