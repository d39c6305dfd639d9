//! `--trace`/`--profile` plumbing for the `figures` binary.
//!
//! Tracing flags do three things: enable the collector up front, and at
//! exit drain the span buffer into (a) on-disk artefacts — `trace.jsonl`,
//! `manifest.json`, `profile.folded` — and (b) a per-phase self-time
//! table on stderr. This module holds that plumbing so the binary stays
//! flag parsing + two calls.
//!
//! Everything here writes to `stderr` or to files; `stdout` is reserved
//! for figure data and must stay byte-identical whether or not tracing
//! is on.

use std::error::Error;
use std::path::Path;

use nvpg_obs::{MetricsSnapshot, SpanEvent};

/// What the tracing flags asked for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsOptions {
    /// `--trace`: write `trace.jsonl` + `manifest.json` into the trace
    /// directory.
    pub trace: bool,
    /// `--profile`: print the self-time table to stderr and write
    /// `profile.folded` into the trace directory.
    pub profile: bool,
}

impl ObsOptions {
    /// `true` when any collection was requested.
    pub fn active(&self) -> bool {
        self.trace || self.profile
    }

    /// Enables the global collector when any flag asked for it. Call
    /// once, right after argument parsing.
    pub fn install(&self) {
        if self.active() {
            nvpg_obs::enable();
        }
    }
}

/// Drains the collector and writes the requested artefacts for `tool`.
///
/// With `trace`: `DIR/trace.jsonl` (spans + final metric values, one
/// JSON object per line) and `DIR/manifest.json` (tool, args, git rev,
/// host). With `profile`: the self-time table on stderr and
/// `DIR/profile.folded` (collapsed stacks, one `a;b;c µs` per line).
/// No-op when neither flag is set.
///
/// # Errors
///
/// Propagates filesystem errors creating or writing the trace directory.
pub fn finish(
    opts: &ObsOptions,
    dir: &Path,
    tool: &str,
    version: &str,
) -> Result<(), Box<dyn Error>> {
    if !opts.active() {
        return Ok(());
    }
    nvpg_obs::disable();
    let events: Vec<SpanEvent> = nvpg_obs::drain_events();
    let metrics: MetricsSnapshot = nvpg_obs::metrics::snapshot();
    std::fs::create_dir_all(dir)?;
    if opts.trace {
        let jsonl = nvpg_obs::to_jsonl(&events, &metrics);
        let path = dir.join("trace.jsonl");
        std::fs::write(&path, jsonl)?;
        eprintln!("  wrote {} ({} span(s))", path.display(), events.len());
        let manifest = nvpg_obs::RunManifest::collect(tool, version);
        let path = dir.join("manifest.json");
        std::fs::write(&path, manifest.to_json())?;
        eprintln!("  wrote {}", path.display());
    }
    if opts.profile {
        let rows = nvpg_obs::self_time_table(&events);
        eprint!("{}", nvpg_obs::render_self_time_table(&rows));
        let path = dir.join("profile.folded");
        std::fs::write(&path, nvpg_obs::collapsed_stacks(&events))?;
        eprintln!("  wrote {}", path.display());
    }
    Ok(())
}
