//! End-to-end pipeline benchmarks: device simulation → datalog → case →
//! diagnosis, the paper's complete operational loop.

use abbd_ate::{test_device, NoiseModel};
use abbd_blocks::{sample_defective_devices, Device};
use abbd_designs::regulator::{self, cases::case_studies};
use abbd_dlog2bbn::generate_cases;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_pipeline_stages(c: &mut Criterion) {
    let rig = regulator::rig();
    let mut rng = StdRng::seed_from_u64(3);
    let devices = sample_defective_devices(&rig.circuit, &rig.universe, 1, 0, &mut rng);
    let device = devices.into_iter().next().expect("one device");

    let mut group = c.benchmark_group("pipeline_stages");
    group.bench_function("test_one_device_full_program", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| {
            test_device(
                &rig.circuit,
                &rig.program,
                black_box(&device),
                &NoiseModel::production(),
                &mut rng,
            )
            .unwrap()
        })
    });

    let mut rng2 = StdRng::seed_from_u64(4);
    let log = test_device(
        &rig.circuit,
        &rig.program,
        &device,
        &NoiseModel::production(),
        &mut rng2,
    )
    .unwrap();
    let logs = vec![log];
    group.bench_function("generate_cases_one_log", |b| {
        b.iter(|| generate_cases(rig.model.spec(), &rig.mapping, black_box(&logs)).unwrap())
    });

    let fitted = regulator::fit(30, 2010, regulator::default_algorithm()).expect("pipeline runs");
    let observation = case_studies()[0].observation();
    group.bench_function("diagnose_one_observation", |b| {
        b.iter(|| fitted.engine.diagnose(black_box(&observation)).unwrap())
    });
    group.bench_function("diagnose_one_observation_reused_workspace", |b| {
        let compiled = &fitted.engine;
        let mut ws = compiled.make_workspace();
        b.iter(|| {
            let observation = black_box(&observation);
            let evidence = compiled.evidence_from(observation).unwrap();
            compiled
                .diagnose_with_policy_in(&mut ws, observation, &evidence, compiled.policy())
                .unwrap()
        })
    });
    group.bench_function("golden_device_simulation", |b| {
        let golden = Device::golden(&rig.circuit);
        let mut rng = StdRng::seed_from_u64(9);
        b.iter(|| {
            test_device(
                &rig.circuit,
                &rig.program,
                black_box(&golden),
                &NoiseModel::none(),
                &mut rng,
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_full_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_fit");
    group.sample_size(10);
    group.bench_function("fit_30_devices", |b| {
        b.iter(|| regulator::fit(30, black_box(2010), regulator::default_algorithm()).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline_stages, bench_full_fit);
criterion_main!(benches);
