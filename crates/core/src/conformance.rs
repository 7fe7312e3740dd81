//! Conformance replay: one implementation of "does this compiled model
//! still produce the answers we pinned?" shared by the golden-trace test
//! suite and the server-side refit gate.
//!
//! Two layers live here:
//!
//! - [`replay`] / [`verify`]: run a pinned observation through a
//!   [`CompiledModel`] and compare the isolated top candidate against the
//!   expected one. The fleet-learning gate ([`crate::fleet`]) replays its
//!   reference corpus through every refit candidate before promotion.
//! - [`GoldenCorpus`]: byte-for-byte comparison (or regeneration) of
//!   rendered trace files against a directory of golden JSON, extracted
//!   from `tests/golden_traces.rs` so every corpus consumer reports
//!   mismatches identically.

use crate::diagnosis::Observation;
use crate::error::Result;
use crate::session::{CompiledModel, SessionRequest};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One pinned scenario: an observation and the top candidate the model is
/// expected to isolate from it (when `expected_top` is `None` the case
/// only checks that the replay runs, not what it concludes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayCase {
    /// Scenario label used in mismatch reports (e.g. `"d1"`).
    pub name: String,
    /// The evidence to absorb in one shot.
    pub observation: Observation,
    /// The fault the model must rank first, if pinned.
    pub expected_top: Option<String>,
}

/// What one [`replay`] concluded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayOutcome {
    /// The scenario label, copied from the case.
    pub name: String,
    /// The top-ranked fault candidate under the replayed model.
    pub top_candidate: Option<String>,
    /// Log-likelihood of the case's evidence under the replayed model.
    pub log_likelihood: f64,
    /// Posterior fault mass per latent block after absorbing the evidence.
    pub fault_mass: Vec<(String, f64)>,
}

/// A reference case whose replay disagreed with its pinned expectation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayMismatch {
    /// The scenario label.
    pub name: String,
    /// What the corpus pinned.
    pub expected: Option<String>,
    /// What the candidate model concluded instead.
    pub got: Option<String>,
}

/// Replays one reference case through a compiled model: absorbs the
/// case's observation in a single session round and reports the resulting
/// isolation.
///
/// # Errors
///
/// Propagates session errors (malformed observations, impossible
/// evidence) from the underlying serve round.
pub fn replay(compiled: &Arc<CompiledModel>, case: &ReplayCase) -> Result<ReplayOutcome> {
    let report = compiled.serve(&SessionRequest::new(case.observation.clone()))?;
    Ok(ReplayOutcome {
        name: case.name.clone(),
        top_candidate: report.top_candidate,
        log_likelihood: report.log_likelihood,
        fault_mass: report.fault_mass,
    })
}

/// Replays every case and collects the ones whose pinned `expected_top`
/// the model no longer reproduces.
///
/// # Errors
///
/// Fails on the first case whose replay itself errors; a case that merely
/// *concludes differently* is returned as a mismatch, not an error.
pub fn verify(compiled: &Arc<CompiledModel>, cases: &[ReplayCase]) -> Result<Vec<ReplayMismatch>> {
    let mut mismatches = Vec::new();
    for case in cases {
        let outcome = replay(compiled, case)?;
        if let Some(expected) = &case.expected_top {
            if outcome.top_candidate.as_deref() != Some(expected.as_str()) {
                mismatches.push(ReplayMismatch {
                    name: case.name.clone(),
                    expected: case.expected_top.clone(),
                    got: outcome.top_candidate,
                });
            }
        }
    }
    Ok(mismatches)
}

/// Builds self-pinned reference cases: each observation is replayed
/// through `compiled` and the *incumbent's own* top candidate becomes the
/// expectation. A refit candidate gated on these cases must agree with
/// the model it replaces on every pinned scenario — a corruption
/// detector, not a quality bar.
///
/// # Errors
///
/// Propagates replay errors (e.g. an observation naming unknown
/// variables).
pub fn self_references<I>(compiled: &Arc<CompiledModel>, scenarios: I) -> Result<Vec<ReplayCase>>
where
    I: IntoIterator<Item = (String, Observation)>,
{
    let mut cases = Vec::new();
    for (name, observation) in scenarios {
        let mut case = ReplayCase {
            name,
            observation,
            expected_top: None,
        };
        let outcome = replay(compiled, &case)?;
        case.expected_top = outcome.top_candidate;
        cases.push(case);
    }
    Ok(cases)
}

/// A directory of golden files with byte-for-byte conformance semantics.
///
/// Construction reads the `ABBD_REGEN_GOLDEN` environment variable once:
/// when set to `1`, [`GoldenCorpus::conform`] rewrites files instead of
/// comparing them, which is how an intentional behavioural change is
/// blessed.
#[derive(Debug, Clone)]
pub struct GoldenCorpus {
    dir: PathBuf,
    regen: bool,
}

impl GoldenCorpus {
    /// Opens a corpus rooted at `dir`, honouring `ABBD_REGEN_GOLDEN=1`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        GoldenCorpus {
            dir: dir.into(),
            regen: std::env::var("ABBD_REGEN_GOLDEN").is_ok_and(|v| v == "1"),
        }
    }

    /// `true` when conform calls rewrite the corpus instead of diffing.
    pub fn regenerating(&self) -> bool {
        self.regen
    }

    /// The corpus root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Absolute path of one corpus entry.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Compares (or regenerates) one golden file, returning a description
    /// of the mismatch if any: the first diverging line for a content
    /// change, or an unreadable-file note for a missing entry.
    pub fn conform(&self, name: &str, rendered: &str) -> Option<String> {
        let path = self.path(name);
        if self.regen {
            std::fs::create_dir_all(&self.dir).expect("golden dir is creatable");
            std::fs::write(&path, rendered).expect("golden file is writable");
            return None;
        }
        match std::fs::read_to_string(&path) {
            Err(e) => Some(format!("{name}: unreadable ({e}); regenerate the corpus")),
            Ok(stored) if stored == rendered => None,
            Ok(stored) => {
                let diverges = stored
                    .lines()
                    .zip(rendered.lines())
                    .position(|(a, b)| a != b)
                    .map_or_else(
                        || "lengths differ".to_string(),
                        |line| format!("first divergence at line {}", line + 1),
                    );
                Some(format!("{name}: trace diverged ({diverges})"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    fn toy() -> Arc<CompiledModel> {
        fixtures::toy_compiled_model()
    }

    fn toy_observation(compiled: &Arc<CompiledModel>) -> Observation {
        let mut obs = Observation::new();
        for name in compiled.observable_names() {
            obs.set(name, 0);
        }
        obs
    }

    #[test]
    fn replay_reports_an_isolation() {
        let compiled = toy();
        let case = ReplayCase {
            name: "toy".into(),
            observation: toy_observation(&compiled),
            expected_top: None,
        };
        let outcome = replay(&compiled, &case).unwrap();
        assert_eq!(outcome.name, "toy");
        assert!(outcome.log_likelihood.is_finite());
        assert!(!outcome.fault_mass.is_empty());
    }

    #[test]
    fn self_references_pin_the_incumbent_and_verify_clean() {
        let compiled = toy();
        let refs =
            self_references(&compiled, [("toy".to_string(), toy_observation(&compiled))]).unwrap();
        assert_eq!(refs.len(), 1);
        // The incumbent trivially conforms to its own pins.
        assert!(verify(&compiled, &refs).unwrap().is_empty());
        // A wrong pin is reported as a mismatch, not an error.
        let mut wrong = refs;
        wrong[0].expected_top = Some("no-such-block".into());
        let mismatches = verify(&compiled, &wrong).unwrap();
        assert_eq!(mismatches.len(), 1);
        assert_eq!(mismatches[0].expected.as_deref(), Some("no-such-block"));
    }

    #[test]
    fn golden_corpus_diffs_and_reports_first_divergence() {
        let dir =
            std::env::temp_dir().join(format!("abbd-conformance-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = GoldenCorpus::new(&dir);
        if corpus.regenerating() {
            // Under ABBD_REGEN_GOLDEN=1 conform always rewrites; the diff
            // semantics below are meaningless, so skip.
            return;
        }
        std::fs::write(corpus.path("t.json"), "a\nb\n").unwrap();
        assert!(corpus.conform("t.json", "a\nb\n").is_none());
        let m = corpus.conform("t.json", "a\nc\n").unwrap();
        assert!(m.contains("line 2"), "got: {m}");
        assert!(corpus.conform("missing.json", "x").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
