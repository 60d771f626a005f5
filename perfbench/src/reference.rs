//! The reference classifier both classifying workloads set up: trained
//! on a scaled `small_grid()` testbed sweep, the set-up `fig7` pays.

use csig_core::{train_from_results, train_sweep_with, SignatureClassifier};
use csig_dtree::TreeParams;
use csig_exec::Executor;
use csig_netsim::rng::derive_seed;
use csig_testbed::{small_grid, Profile, Sweep, TestResult};
use std::time::Instant;

/// Labeling threshold of the reference model (as in `fig7`).
const THRESHOLD: f64 = 0.7;
/// Sweep repetitions per grid point and scenario: 18 scenarios.
const SWEEP_REPS: u32 = 1;
/// Seed stream of the reference sweep within a workload seed.
const SWEEP_STREAM: u64 = 0x5EED_0001;

/// A trained reference model and the sweep it came from.
pub struct Reference {
    /// The classifier.
    pub model: SignatureClassifier,
    /// The sweep's results, kept to time the model fit on its own.
    results: Vec<TestResult>,
}

impl Reference {
    /// Run the sweep on a single worker and train on it, calling `tick`
    /// after each sweep scenario.
    ///
    /// # Panics
    /// Panics if a sweep scenario fails or the labeled sweep holds a
    /// single class: either leaves the workload nothing to measure.
    pub fn train(seed: u64, tick: &mut dyn FnMut()) -> Self {
        let sweep = Sweep {
            grid: small_grid(),
            reps: SWEEP_REPS,
            profile: Profile::Scaled,
            seed: derive_seed(seed, SWEEP_STREAM),
        };
        let (results, model) = train_sweep_with(
            &sweep,
            THRESHOLD,
            TreeParams::default(),
            &Executor::sequential(),
            |_| tick(),
        );
        match model {
            Some(model) => Reference { model, results },
            None => panic!("reference sweep (seed {seed:#x}) produced no trainable dataset"),
        }
    }

    /// The model as JSON (every set-up must reproduce it) and the time
    /// of the model fit alone, ms, refitting on the kept sweep results.
    pub fn inspect(&self) -> Result<(String, f64), String> {
        let start = Instant::now();
        let refit = train_from_results(&self.results, THRESHOLD, TreeParams::default());
        let train_ms = start.elapsed().as_secs_f64() * 1e3;
        let json = self.model.to_json();
        match refit {
            Some(m) if m.to_json() == json => Ok((json, train_ms)),
            _ => Err("refitting the reference model did not reproduce it".into()),
        }
    }
}
