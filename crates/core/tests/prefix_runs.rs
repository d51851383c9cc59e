//! Prefix resumption is exact: a sorted run of genomes compiled by
//! `TaskBase::compile_run`, each resumed from the deepest prefix state an
//! earlier genome of the run reached, gives every genome the statistics,
//! fingerprint and module `PassManager::compile` gives it from the source —
//! bit for bit, however the run is cut, and however warm the program base's
//! no-op memo is.

use citroen_core::{run_citroen, CitroenConfig, Task, TaskConfig};
use citroen_ir::module::Module;
use citroen_passes::{PassId, PassManager, Registry, Stats};
use citroen_rt::rng::{Rng, SeedableRng, StdRng};
use citroen_sim::Platform;

type Compiled = (Stats, u64, Module);

/// Genomes shaped like a DES sweep's: a few random roots per module, point
/// mutants of them (which share the prefix before the first mutated
/// position), truncations (a genome that is a prefix of another), one-pass
/// extensions, and the empty genome; sorted and unique.
fn sweep(task: &Task, modules: &[usize], len: usize, seed: u64) -> Vec<(usize, Vec<PassId>)> {
    let n = task.registry.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let pass = |rng: &mut StdRng| PassId(rng.gen_range(0..n) as u16);
    let mut jobs = Vec::new();
    for &m in modules {
        jobs.push((m, Vec::new()));
        for _ in 0..3 {
            let root: Vec<PassId> = (0..len).map(|_| pass(&mut rng)).collect();
            for _ in 0..6 {
                let mut g = root.clone();
                for _ in 0..rng.gen_range(1..=2) {
                    let at = rng.gen_range(0..len);
                    g[at] = pass(&mut rng);
                }
                jobs.push((m, g));
            }
            let cut = rng.gen_range(1..len);
            jobs.push((m, root[..cut].to_vec()));
            let mut longer = root.clone();
            longer.push(pass(&mut rng));
            jobs.push((m, longer));
            jobs.push((m, root));
        }
    }
    jobs.sort();
    jobs.dedup();
    jobs
}

/// The run's results, the pass runs resumption skipped and the pass runs
/// the no-op memo skipped.
fn run(task: &Task, jobs: &[(usize, Vec<PassId>)]) -> (Vec<Compiled>, usize, usize) {
    let refs: Vec<(usize, &[PassId])> = jobs.iter().map(|(m, g)| (*m, &g[..])).collect();
    task.compile_run(&refs)
}

fn assert_same(got: &[Compiled], want: &[Compiled], what: &str) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.0, w.0, "{what}: job {i}: statistics differ");
        assert_eq!(g.1, w.1, "{what}: job {i}: fingerprints differ");
        // Debug text compares every field, as `==` does, but NaN immediates alike.
        assert!(
            g.2 == w.2 || format!("{:?}", g.2) == format!("{:?}", w.2),
            "{what}: job {i}: modules differ"
        );
    }
}

#[test]
fn resumed_runs_equal_straight_compiles_bit_for_bit() {
    let task = Task::new(
        citroen_suite::speclike::spec_imgproc(),
        Registry::full(),
        Platform::tx2(),
        TaskConfig {
            seq_len: 12,
            ..Default::default()
        },
    );
    let modules: Vec<usize> = (0..task.benchmark().modules.len()).take(2).collect();
    let jobs = sweep(&task, &modules, task.seq_len(), 0x5EED);
    let pm = PassManager::new(&task.registry);
    let want: Vec<Compiled> = jobs
        .iter()
        .map(|(m, g)| {
            let res = pm.compile(&task.benchmark().modules[*m], g);
            (res.stats, res.fingerprint, res.module)
        })
        .collect();

    let (got, reused, _) = run(&task, &jobs);
    assert_same(&got, &want, "one run");
    // Each job skips exactly its longest common prefix with the job before
    // it, and none across a change of module.
    let lcp: usize = jobs
        .windows(2)
        .filter(|w| w[0].0 == w[1].0)
        .map(|w| {
            w[0].1
                .iter()
                .zip(&w[1].1)
                .take_while(|(a, b)| a == b)
                .count()
        })
        .sum();
    assert_eq!(reused, lcp);
    assert!(
        reused > jobs.len(),
        "the sweep shares prefixes: {reused} pass runs reused"
    );

    // A sweep is cut into one run per worker; any cut gives the same results.
    for cut in [1, jobs.len() / 3, jobs.len() / 2, jobs.len() - 1] {
        let (mut a, ..) = run(&task, &jobs[..cut]);
        let (b, ..) = run(&task, &jobs[cut..]);
        a.extend(b);
        assert_same(&a, &want, &format!("cut at {cut}"));
    }
}

#[test]
fn a_warm_no_op_memo_skips_runs_and_changes_nothing() {
    let task = Task::new(
        citroen_suite::speclike::spec_imgproc(),
        Registry::full(),
        Platform::tx2(),
        TaskConfig {
            seq_len: 12,
            ..Default::default()
        },
    );
    let modules: Vec<usize> = (0..task.benchmark().modules.len()).take(2).collect();
    let pm = PassManager::new(&task.registry);
    let (mut nominal, mut reused, mut skipped) = (0, 0, Vec::new());
    // The same sweep cold and then warm, then a sweep of other genomes
    // over the states the first two left in the memo.
    for seed in [0xC01D, 0xC01D, 0x0DD] {
        let jobs = sweep(&task, &modules, task.seq_len(), seed);
        let want: Vec<Compiled> = jobs
            .iter()
            .map(|(m, g)| {
                let res = pm.compile(&task.benchmark().modules[*m], g);
                (res.stats, res.fingerprint, res.module)
            })
            .collect();
        let (got, r, s) = run(&task, &jobs);
        assert_same(&got, &want, &format!("sweep {seed:#x}, {s} pass runs skipped"));
        nominal += jobs.iter().map(|(_, g)| g.len()).sum::<usize>();
        reused += r;
        skipped.push(s);
    }
    assert!(
        skipped[1] > skipped[0] && skipped[2] > 0,
        "the warm memo answers more: {skipped:?}"
    );
    // Every pass run left after resumption asked the memo once: a hit
    // skipped it, a miss ran it.
    let memo = task.noop_stats();
    assert_eq!(memo.hits as usize, skipped.iter().sum::<usize>());
    assert_eq!((memo.hits + memo.misses) as usize, nominal - reused);
    assert!(memo.len > 0 && memo.len as usize <= citroen_passes::NOOP_MEMO_CAP);
}

#[test]
fn a_tuning_session_resumes_its_sweeps_and_keeps_the_nominal_work() {
    let mut task = Task::new(
        citroen_suite::kernels::telecom_gsm(),
        Registry::full(),
        Platform::tx2(),
        TaskConfig {
            seq_len: 16,
            seed: 3,
            ..Default::default()
        },
    );
    let cfg = CitroenConfig {
        candidates: 16,
        init_random: 4,
        seed: 3,
        ..Default::default()
    };
    run_citroen(&mut task, 8, &cfg);
    // Every compile still counts its whole sequence; the reused and
    // skipped runs are shares of that nominal work, not deductions from it.
    assert!(
        task.compilations > 16,
        "the session ran model-guided sweeps"
    );
    assert!(task.passes_executed >= 16 * task.compilations);
    assert!(
        task.passes_reused > 0 && task.passes_reused < task.passes_executed,
        "{} of {} pass runs reused",
        task.passes_reused,
        task.passes_executed
    );
    assert!(
        task.passes_skipped > 0
            && task.passes_reused + task.passes_skipped < task.passes_executed,
        "{} of {} pass runs skipped",
        task.passes_skipped,
        task.passes_executed
    );
    assert_eq!(task.noop_stats().hits as usize, task.passes_skipped, "the session owns its base");
}
