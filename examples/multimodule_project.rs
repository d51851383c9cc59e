//! Multi-module autotuning (thesis contribution 3): tune a SPEC-like
//! program made of five source modules, letting the adaptive allocator
//! decide which module each runtime measurement should be spent on.
//!
//! ```sh
//! cargo run --release --example multimodule_project
//! ```

use citroen::core::{run_citroen_session, Allocation, CitroenConfig, SessionEnv, Task, TaskConfig};
use citroen::passes::Registry;
use citroen::sim::Platform;

fn main() {
    let bench = citroen::suite::speclike::spec_imgproc();
    let module_names: Vec<String> = bench.modules.iter().map(|m| m.name.clone()).collect();
    let mut task = Task::new(
        bench,
        Registry::full(),
        Platform::tx2(),
        TaskConfig { seq_len: 16, ..Default::default() },
    );

    println!("project modules : {module_names:?}");
    println!(
        "hot modules     : {:?} (perf-style profile of the -O3 build)",
        task.hot_modules.iter().map(|&i| &module_names[i]).collect::<Vec<_>>()
    );
    // Give the allocator a real decision even if profiling found one very hot
    // module.
    if task.hot_modules.len() < 2 {
        let extra = (0..module_names.len()).find(|i| !task.hot_modules.contains(i)).unwrap();
        task.hot_modules.push(extra);
    }

    for policy in [Allocation::Adaptive, Allocation::RoundRobin] {
        let mut t = Task::new(
            citroen::suite::speclike::spec_imgproc(),
            Registry::full(),
            Platform::tx2(),
            TaskConfig { seq_len: 16, ..Default::default() },
        );
        t.hot_modules = task.hot_modules.clone();
        let cfg = CitroenConfig { allocation: Some(policy), ..Default::default() };
        let res = run_citroen_session(&mut t, 25, &cfg, &SessionEnv::default());
        println!("\npolicy {policy:?}:");
        println!("  best runtime : {:.3} ms ({:.3}x over -O3)",
            res.trace.best() * 1e3, t.speedup(res.trace.best()));
        let mut counts = vec![0usize; module_names.len()];
        for &m in res.allocation_log.iter().filter(|&&m| m != usize::MAX) {
            counts[t.hot_modules[m]] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            if *c > 0 {
                println!("  {:<12} got {c} measurements", module_names[i]);
            }
        }
    }
}
