//! Driving `run_master` / `run_slave` over a hand-built network: the
//! lower-level API a real deployment would use, plus a kill-switch chaos
//! drill (a node yanked from outside at an arbitrary moment, not via a
//! pre-planned fault).

use easyhps_dp::sequence::{random_sequence, Alphabet};
use easyhps_dp::{DpProblem, EditDistance};
use easyhps_net::Network;
use easyhps_runtime::{run_master, run_slave, Deployment};
use std::time::Duration;

fn model_for(p: &EditDistance) -> easyhps_core::DagDataDrivenModel {
    easyhps_core::DagDataDrivenModel::builder(p.pattern())
        .process_partition_size(easyhps_core::GridDims::square(8))
        .thread_partition_size(easyhps_core::GridDims::square(4))
        .build()
}

#[test]
fn manual_network_run_matches_sequential() {
    let a = random_sequence(Alphabet::Dna, 30, 90);
    let b = random_sequence(Alphabet::Dna, 30, 91);
    let problem = EditDistance::new(a, b);
    let reference = problem.solve_sequential();
    let model = model_for(&problem);
    let config = Deployment::local(2, 2);

    let mut eps = Network::new(3);
    let master_ep = eps.remove(0);
    let out = std::thread::scope(|s| {
        for ep in eps {
            let (p, m, c) = (&problem, &model, &config);
            s.spawn(move || {
                let _ = run_slave(ep, p, m, c);
            });
        }
        run_master(master_ep, &problem, &model, &config, None, None, None).unwrap()
    });
    assert_eq!(out.matrix, reference);
    assert!(out.checkpoint.is_none());
}

#[test]
fn external_kill_switch_mid_run_is_survived() {
    let a = random_sequence(Alphabet::Dna, 40, 92);
    let b = random_sequence(Alphabet::Dna, 40, 93);
    let problem = EditDistance::new(a, b);
    let reference = problem.solve_sequential();
    let model = model_for(&problem);
    let mut config = Deployment::local(3, 1);
    config.task_timeout = Duration::from_millis(250);

    let mut eps = Network::new(4);
    let master_ep = eps.remove(0);
    // Grab a kill handle for slave rank 2 before handing the endpoint off.
    let kill = eps[1].kill_handle();

    let out = std::thread::scope(|s| {
        for ep in eps {
            let (p, m, c) = (&problem, &model, &config);
            s.spawn(move || {
                let _ = run_slave(ep, p, m, c);
            });
        }
        // An operator (or chaos monkey) pulls the plug shortly after start.
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            kill.kill();
        });
        run_master(master_ep, &problem, &model, &config, None, None, None).unwrap()
    });
    assert_eq!(
        out.matrix, reference,
        "result exact despite the yanked node"
    );
    // Depending on timing the node may die before or after taking work;
    // either way nobody waits forever and the matrix is right.
    assert!(out.stats.dead_slaves <= 1);
}
