//! Run-level telemetry plumbing: output directory resolution, JSONL
//! stream naming, and machine-readable run manifests.
//!
//! The event *model* lives in [`nucache_common::telemetry`]; this module
//! is the simulation-side glue that turns it into files on disk:
//!
//! * [`set_default_telemetry_dir`] / [`default_telemetry_dir`] — a
//!   process-wide destination directory, installed by `--telemetry DIR`
//!   flags (or the `NUCACHE_TELEMETRY` environment variable). When unset,
//!   telemetry is off and simulations skip event construction entirely;
//! * [`TelemetrySpec`] — per-run knobs (destination, LLC snapshot
//!   cadence);
//! * [`stream_path`] — the canonical `NNN_mix__scheme.jsonl` naming for
//!   one simulation's event stream;
//! * [`Manifest`] / [`write_manifest`] — the `manifest.json` that makes
//!   every emitted CSV reproducible: configuration, git revision,
//!   wall-clock time, the streams written, and — when the run did not go
//!   cleanly — a `failures` section ([`FailureRecord`]) plus degradation
//!   `notes`, so partial results are explicitly labelled as partial;
//! * [`note_failure`] / [`note_degradation`] — process-wide registries
//!   the runner and driver report into as failures happen; experiment
//!   drivers drain them ([`take_failures`], [`take_degradations`]) into
//!   the manifest they write.
//!
//! Streams are written one file per (mix, scheme) job, so parallel
//! runners never contend on a writer and stream contents are
//! bit-identical at any `--jobs` value.

use crate::config::SimConfig;
use nucache_common::json::JsonValue;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Default accesses between periodic LLC counter snapshots — matches the
/// default NUcache selection epoch, so `llc_epoch` and `selection_epoch`
/// events interleave at comparable cadence.
pub const DEFAULT_SNAPSHOT_INTERVAL: u64 = 100_000;

fn dir_override() -> &'static Mutex<Option<PathBuf>> {
    static DIR: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    DIR.get_or_init(|| Mutex::new(None))
}

/// Installs a process-wide telemetry output directory (the `--telemetry`
/// flag calls this); `None` clears the override.
#[expect(
    clippy::expect_used,
    reason = "a poisoned telemetry lock means a writer panicked; fail loudly"
)]
pub fn set_default_telemetry_dir(dir: Option<&Path>) {
    *dir_override().lock().expect("telemetry dir lock poisoned") = dir.map(Path::to_path_buf);
}

/// The active telemetry directory: the [`set_default_telemetry_dir`]
/// override when installed, else `NUCACHE_TELEMETRY` when set and
/// non-empty, else `None` (telemetry off).
#[expect(
    clippy::expect_used,
    reason = "a poisoned telemetry lock means a writer panicked; fail loudly"
)]
pub fn default_telemetry_dir() -> Option<PathBuf> {
    if let Some(dir) = dir_override().lock().expect("telemetry dir lock poisoned").clone() {
        return Some(dir);
    }
    std::env::var_os("NUCACHE_TELEMETRY").filter(|v| !v.is_empty()).map(PathBuf::from)
}

fn config_slot() -> &'static Mutex<Option<SimConfig>> {
    static SLOT: OnceLock<Mutex<Option<SimConfig>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Records the system configuration of a telemetered run for the
/// manifest. The first configuration noted since the last
/// [`take_manifest_config`] wins, so configuration sweeps record their
/// base point. [`Runner`](crate::Runner) and
/// [`Evaluator`](crate::Evaluator) call this automatically whenever
/// telemetry is active.
#[expect(
    clippy::expect_used,
    reason = "a poisoned telemetry lock means a writer panicked; fail loudly"
)]
pub fn note_manifest_config(config: &SimConfig) {
    let mut slot = config_slot().lock().expect("manifest config lock poisoned");
    if slot.is_none() {
        *slot = Some(*config);
    }
}

/// Removes and returns the noted manifest configuration, resetting the
/// slot for the next experiment.
#[expect(
    clippy::expect_used,
    reason = "a poisoned telemetry lock means a writer panicked; fail loudly"
)]
pub fn take_manifest_config() -> Option<SimConfig> {
    config_slot().lock().expect("manifest config lock poisoned").take()
}

/// One failed pipeline unit — a simulation job that kept panicking, or
/// an experiment step that aborted — recorded for the run manifest's
/// `failures` section instead of being lost with the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureRecord {
    /// Where the failure happened: an experiment step id (`fig5`) or the
    /// literal `"job"` for a runner-level simulation job.
    pub stage: String,
    /// The failed job, as `mix/scheme`, when the failure was job-level.
    pub job: Option<String>,
    /// Submission index of the failed job within its runner, when
    /// job-level.
    pub index: Option<u64>,
    /// How many times the unit was attempted before being given up on.
    pub attempts: u64,
    /// The panic or error message.
    pub message: String,
}

impl FailureRecord {
    /// Serializes to the object stored in the manifest's `failures`
    /// array.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("stage", self.stage.as_str().into()),
            ("job", self.job.as_deref().map_or(JsonValue::Null, JsonValue::from)),
            ("index", self.index.map_or(JsonValue::Null, JsonValue::from)),
            ("attempts", self.attempts.into()),
            ("message", self.message.as_str().into()),
        ])
    }
}

fn failure_slot() -> &'static Mutex<Vec<FailureRecord>> {
    static SLOT: OnceLock<Mutex<Vec<FailureRecord>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(Vec::new()))
}

/// Records a failed job or step in the process-wide registry that
/// [`take_failures`] drains into the run manifest. Callers that recover
/// from failures still note them — a manifest describing partial
/// results must say what is missing and why.
pub fn note_failure(record: FailureRecord) {
    failure_slot().lock().unwrap_or_else(PoisonError::into_inner).push(record);
}

/// Removes and returns every failure noted since the last call, sorted
/// by (stage, index) so the manifest listing is deterministic even
/// though workers note failures in completion order.
pub fn take_failures() -> Vec<FailureRecord> {
    let mut failures =
        std::mem::take(&mut *failure_slot().lock().unwrap_or_else(PoisonError::into_inner));
    failures.sort_by(|a, b| (&a.stage, a.index).cmp(&(&b.stage, b.index)));
    failures
}

fn degradation_slot() -> &'static Mutex<Vec<String>> {
    static SLOT: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(Vec::new()))
}

/// Records a graceful degradation (a telemetry stream lost to an I/O
/// error, a job flagged as stuck, …) for the manifest's `notes` section.
/// The first note also warns on stderr; later ones are manifest-only so
/// a batch with many degraded streams does not bury real output.
pub fn note_degradation(note: impl Into<String>) {
    let note = note.into();
    static WARNED: std::sync::Once = std::sync::Once::new();
    WARNED.call_once(|| {
        eprintln!("[degraded] {note} (further degradations recorded in the run manifest only)");
    });
    degradation_slot().lock().unwrap_or_else(PoisonError::into_inner).push(note);
}

/// Removes and returns every degradation note since the last call,
/// sorted for a deterministic manifest listing.
pub fn take_degradations() -> Vec<String> {
    let mut notes =
        std::mem::take(&mut *degradation_slot().lock().unwrap_or_else(PoisonError::into_inner));
    notes.sort();
    notes
}

/// Where and how densely one run records telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySpec {
    /// Directory JSONL streams are written into.
    pub dir: PathBuf,
    /// Total issued accesses between periodic LLC counter snapshots.
    pub snapshot_interval: u64,
}

impl TelemetrySpec {
    /// Creates a spec writing to `dir` at the default snapshot cadence.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TelemetrySpec { dir: dir.into(), snapshot_interval: DEFAULT_SNAPSHOT_INTERVAL }
    }

    /// A spec for the process-wide default directory, if one is active.
    pub fn from_default_dir() -> Option<Self> {
        default_telemetry_dir().map(TelemetrySpec::new)
    }
}

/// The JSONL stream path for job number `index` simulating `mix` under
/// `scheme`: `dir/NNN_mix__scheme.jsonl`.
///
/// The index keeps streams unique when one mix runs under identically
/// named schemes (e.g. epoch-length sweeps where every column is
/// `nucache-d8`), and sorts streams in submission order.
pub fn stream_path(dir: &Path, index: usize, mix: &str, scheme: &str) -> PathBuf {
    let sanitize = |s: &str| -> String {
        s.chars()
            .map(|c| if c.is_alphanumeric() || c == '-' || c == '_' { c } else { '-' })
            .collect()
    };
    dir.join(format!("{:03}_{}__{}.jsonl", index, sanitize(mix), sanitize(scheme)))
}

/// Best-effort current git revision, read directly from `.git` (no
/// subprocess, works offline): resolves `HEAD` through one level of
/// `ref:` indirection, falling back to `packed-refs`.
pub fn git_revision() -> Option<String> {
    let root = find_git_dir()?;
    let head = std::fs::read_to_string(root.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return (!head.is_empty()).then(|| head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(root.join(refname)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(root.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with('^'))
        .find_map(|l| l.strip_suffix(refname).map(|rev| rev.trim().to_string()))
}

/// Walks up from the current directory looking for a `.git` directory.
fn find_git_dir() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let candidate = dir.join(".git");
        if candidate.is_dir() {
            return Some(candidate);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Everything needed to reproduce one telemetered run, serialized as
/// `manifest.json` next to the JSONL streams.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// The experiment or driver that produced the streams (e.g.
    /// `fig5_dual_core`).
    pub experiment: String,
    /// Command-line arguments the driver was invoked with.
    pub argv: Vec<String>,
    /// Git revision of the tree, when resolvable.
    pub git_revision: Option<String>,
    /// Wall-clock seconds the run took.
    pub wall_seconds: f64,
    /// Worker threads used.
    pub jobs: u64,
    /// Whether quick mode (shortened runs) was active.
    pub quick: bool,
    /// The system configuration of the primary runs (experiments that
    /// sweep configurations record their base point).
    pub config: Option<SimConfig>,
    /// JSONL streams written, relative to the manifest's directory.
    pub streams: Vec<String>,
    /// Jobs and steps that failed; empty for a clean run. A non-empty
    /// list means every other number in this directory is a *partial*
    /// result.
    pub failures: Vec<FailureRecord>,
    /// Graceful degradations that did not fail anything (lost telemetry
    /// streams, stuck-job watchdog flags, …).
    pub notes: Vec<String>,
}

impl Manifest {
    /// Serializes to the `manifest.json` object.
    pub fn to_json(&self) -> JsonValue {
        let config = self.config.as_ref().map_or(JsonValue::Null, |c| {
            JsonValue::obj(vec![
                ("num_cores", c.num_cores.into()),
                ("llc_bytes", c.llc.size_bytes().into()),
                ("llc_associativity", c.llc.associativity().into()),
                ("llc_block_bytes", u64::from(c.llc.block_bytes()).into()),
                ("l1_bytes", c.l1.size_bytes().into()),
                ("l2_bytes", c.l2.size_bytes().into()),
                ("warmup_accesses", c.warmup_accesses.into()),
                ("measure_accesses", c.measure_accesses.into()),
                ("seed", c.seed.into()),
            ])
        });
        JsonValue::obj(vec![
            ("experiment", self.experiment.as_str().into()),
            ("argv", JsonValue::Arr(self.argv.iter().map(|a| a.as_str().into()).collect())),
            ("git_revision", self.git_revision.as_deref().map_or(JsonValue::Null, JsonValue::from)),
            ("wall_seconds", self.wall_seconds.into()),
            ("jobs", self.jobs.into()),
            ("quick", self.quick.into()),
            ("config", config),
            ("streams", JsonValue::Arr(self.streams.iter().map(|s| s.as_str().into()).collect())),
            (
                "failures",
                JsonValue::Arr(self.failures.iter().map(FailureRecord::to_json).collect()),
            ),
            ("notes", JsonValue::Arr(self.notes.iter().map(|n| n.as_str().into()).collect())),
        ])
    }
}

/// Writes `manifest.json` into `dir`, filling `streams` with the JSONL
/// files currently present there (sorted, so the listing is stable).
///
/// # Errors
///
/// Returns an error when the directory cannot be created or the file
/// cannot be written.
pub fn write_manifest(dir: &Path, manifest: &Manifest) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let mut manifest = manifest.clone();
    if manifest.streams.is_empty() {
        let mut streams: Vec<String> = std::fs::read_dir(dir)?
            .filter_map(Result::ok)
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.ends_with(".jsonl"))
            .collect();
        streams.sort();
        manifest.streams = streams;
    }
    let path = dir.join("manifest.json");
    std::fs::write(&path, manifest.to_json().to_string_pretty())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nucache_common::json;

    #[test]
    fn stream_paths_are_sanitized_and_ordered() {
        let d = Path::new("/tmp/t");
        let p = stream_path(d, 7, "mix2_01", "nucache-d8");
        assert_eq!(p, d.join("007_mix2_01__nucache-d8.jsonl"));
        let weird = stream_path(d, 0, "a/b c", "x:y");
        assert_eq!(weird, d.join("000_a-b-c__x-y.jsonl"));
    }

    #[test]
    fn default_dir_env_and_override() {
        // Override wins and is clearable. (Env-var behaviour is covered
        // implicitly: with no override and no env var, the default is
        // None in the test environment unless the harness sets it.)
        set_default_telemetry_dir(Some(Path::new("/tmp/override")));
        assert_eq!(default_telemetry_dir(), Some(PathBuf::from("/tmp/override")));
        set_default_telemetry_dir(None);
    }

    #[test]
    fn git_revision_resolves_in_this_repo() {
        // The workspace is a git repository; the revision must resolve
        // to a 40-hex-digit commit id.
        let rev = git_revision().expect("repo has a revision");
        assert_eq!(rev.len(), 40, "unexpected revision '{rev}'");
        assert!(rev.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn manifest_round_trips_and_lists_streams() {
        let dir = std::env::temp_dir().join(format!("nucache-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("001_m__s.jsonl"), "{}\n").unwrap();
        std::fs::write(dir.join("000_m__s.jsonl"), "{}\n").unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let manifest = Manifest {
            experiment: "unit_test".into(),
            argv: vec!["--telemetry".into(), dir.display().to_string()],
            git_revision: git_revision(),
            wall_seconds: 1.5,
            jobs: 4,
            quick: true,
            config: Some(SimConfig::demo()),
            streams: Vec::new(),
            failures: vec![FailureRecord {
                stage: "fig5".into(),
                job: Some("mix2_01/nucache-d8".into()),
                index: Some(3),
                attempts: 2,
                message: "injected fault: worker-panic at index 3".into(),
            }],
            notes: vec!["telemetry stream lost".into()],
        };
        let path = write_manifest(&dir, &manifest).unwrap();
        let parsed = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(parsed.get("experiment").unwrap().as_str(), Some("unit_test"));
        assert_eq!(parsed.get("jobs").unwrap().as_u64(), Some(4));
        assert_eq!(parsed.get("quick").unwrap().as_bool(), Some(true));
        let streams = parsed.get("streams").unwrap().as_arr().unwrap();
        assert_eq!(streams.len(), 2, "only jsonl files listed");
        assert_eq!(streams[0].as_str(), Some("000_m__s.jsonl"), "sorted");
        let config = parsed.get("config").unwrap();
        assert!(config.get("llc_bytes").unwrap().as_u64().unwrap() > 0);
        assert!(parsed.get("git_revision").unwrap().as_str().is_some());
        let failures = parsed.get("failures").unwrap().as_arr().unwrap();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].get("stage").unwrap().as_str(), Some("fig5"));
        assert_eq!(failures[0].get("index").unwrap().as_u64(), Some(3));
        assert_eq!(failures[0].get("attempts").unwrap().as_u64(), Some(2));
        assert!(failures[0].get("message").unwrap().as_str().unwrap().contains("injected fault"));
        let notes = parsed.get("notes").unwrap().as_arr().unwrap();
        assert_eq!(notes.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failure_registry_drains_sorted() {
        // The registry is process-wide; drain whatever other tests left
        // behind first so this test observes only its own records.
        let _ = take_failures();
        note_failure(FailureRecord {
            stage: "job".into(),
            job: Some("b/lru".into()),
            index: Some(7),
            attempts: 1,
            message: "boom".into(),
        });
        note_failure(FailureRecord {
            stage: "job".into(),
            job: Some("a/lru".into()),
            index: Some(2),
            attempts: 1,
            message: "boom".into(),
        });
        // Other tests in this binary may note failures concurrently, so
        // assert only on the records this test created: both present,
        // in (stage, index) order.
        let ours: Vec<FailureRecord> =
            take_failures().into_iter().filter(|f| f.message == "boom").collect();
        assert_eq!(ours.len(), 2);
        assert_eq!(ours[0].index, Some(2), "sorted by index within a stage");
        assert_eq!(ours[1].index, Some(7));
    }
}
