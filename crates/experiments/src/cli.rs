//! Minimal argument handling shared by the figure binaries.

use failmpi_backend::BackendKind;

use crate::harness::{set_default_backend, set_default_expect_freeze, set_default_lint_mode, LintMode};

/// Options common to every figure binary.
#[derive(Clone, Debug, Default)]
pub struct Options {
    /// Run the seconds-scale smoke configuration instead of paper scale.
    pub smoke: bool,
    /// Override the per-point run count.
    pub runs: Option<usize>,
    /// Override the worker-thread count.
    pub threads: Option<usize>,
    /// Write the figure data as JSON to this path.
    pub json: Option<String>,
    /// Write per-run metric snapshots (plus their aggregate) as JSON to
    /// this path (see [`crate::metrics`]).
    pub metrics: Option<String>,
    /// Scenario lint gate (`--lint off|warn|strict`); installed as the
    /// process-wide default by [`Options::install_defaults`] so every spec
    /// the binary builds picks it up.
    pub lint: Option<LintMode>,
    /// Run the first experiment with causal tracing on and write its
    /// happens-before trace as `failmpi-trace` JSON to this path (see
    /// [`crate::tracesink`]).
    pub trace_out: Option<String>,
    /// Profile every run and write the merged deterministic
    /// [`failmpi_obs::RunProfile`] JSON to this path (see
    /// [`crate::profsink`]; inspect with `failmpi-prof`).
    pub profile: Option<String>,
    /// Declare that the sweep hunts freezes: with `--lint strict`, run
    /// scenarios the model checker statically classifies as freezing
    /// instead of refusing them. Installed as the process-wide default by
    /// [`Options::install_defaults`].
    pub expect_freeze: bool,
    /// Protocol backend under test (`--backend vcl|ulfm|replica`);
    /// installed as the process-wide default by
    /// [`Options::install_defaults`] so every spec the binary builds picks
    /// it up.
    pub backend: Option<BackendKind>,
}

impl Options {
    /// Parses `args` (without the program name). Returns `Err(usage)` on
    /// unknown flags. Pure: the process-wide defaults change only through
    /// [`Options::install_defaults`].
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Options, String> {
        let mut o = Options::default();
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--smoke" => o.smoke = true,
                "--runs" => {
                    o.runs = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .ok_or("--runs needs a number")?,
                    )
                }
                "--threads" => {
                    o.threads = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .ok_or("--threads needs a number")?,
                    )
                }
                "--json" => o.json = Some(args.next().ok_or("--json needs a path")?),
                "--metrics" => {
                    o.metrics = Some(args.next().ok_or("--metrics needs a path")?)
                }
                "--trace-out" => {
                    o.trace_out = Some(args.next().ok_or("--trace-out needs a path")?)
                }
                "--profile" => {
                    o.profile = Some(args.next().ok_or("--profile needs a path")?)
                }
                "--lint" => {
                    let mode = args
                        .next()
                        .as_deref()
                        .and_then(LintMode::parse)
                        .ok_or("--lint needs off|warn|strict")?;
                    o.lint = Some(mode);
                }
                "--expect-freeze" => o.expect_freeze = true,
                "--backend" => {
                    let kind: BackendKind = args
                        .next()
                        .ok_or("--backend needs vcl|ulfm|replica")?
                        .parse()
                        .map_err(|_| "--backend needs vcl|ulfm|replica")?;
                    o.backend = Some(kind);
                }
                "--help" | "-h" => {
                    return Err("usage: [--smoke] [--runs N] [--threads N] [--json PATH] \
                                [--metrics PATH] [--trace-out PATH] [--profile PATH] \
                                [--lint off|warn|strict] [--expect-freeze] \
                                [--backend vcl|ulfm|replica]"
                        .to_string())
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(o)
    }

    /// Installs `--lint`, `--expect-freeze` and `--backend` as the
    /// process-wide defaults new specs pick up. Call once, before building
    /// any spec.
    pub fn install_defaults(&self) {
        if let Some(mode) = self.lint {
            set_default_lint_mode(mode);
        }
        if self.expect_freeze {
            set_default_expect_freeze(true);
        }
        if let Some(kind) = self.backend {
            set_default_backend(kind);
        }
    }

    /// Writes `data` as JSON if `--json` was given.
    pub fn maybe_write_json<T: serde::Serialize>(&self, data: &T) -> std::io::Result<()> {
        if let Some(path) = &self.json {
            let json = serde_json::to_string_pretty(data).expect("serializable");
            std::fs::write(path, json)?;
        }
        Ok(())
    }

    /// Installs the process-wide metrics sink if `--metrics` was given.
    /// Call before running any experiment.
    pub fn install_metrics_sink(&self) {
        if self.metrics.is_some() {
            crate::metrics::install_sink();
        }
    }

    /// Writes the collected run metrics if `--metrics` was given. Call
    /// after the last experiment finished.
    pub fn maybe_write_metrics(&self) -> std::io::Result<()> {
        if let Some(path) = &self.metrics {
            let n = crate::metrics::write_sink(path)?;
            eprintln!("metrics: wrote {n} run snapshots to {path}");
        }
        Ok(())
    }

    /// Arms the process-wide run-profile sink if `--profile` was given.
    /// Call before running any experiment.
    pub fn install_profile_sink(&self) {
        if self.profile.is_some() {
            crate::profsink::install_sink();
        }
    }

    /// Writes the merged run profile if `--profile` was given. Call after
    /// the last experiment finished.
    pub fn maybe_write_profile(&self) -> std::io::Result<()> {
        if let Some(path) = &self.profile {
            if crate::profsink::write_sink(path)? {
                eprintln!("profile: wrote merged run profile to {path} (inspect with failmpi-prof)");
            } else {
                eprintln!("profile: no run executed, {path} not written");
            }
        }
        Ok(())
    }

    /// Arms the process-wide causal-trace sink if `--trace-out` was given.
    /// Call before running any experiment.
    pub fn install_trace_sink(&self) {
        if self.trace_out.is_some() {
            crate::tracesink::install_sink();
        }
    }

    /// Writes the captured causal trace if `--trace-out` was given. Call
    /// after the last experiment finished.
    pub fn maybe_write_trace(&self) -> std::io::Result<()> {
        if let Some(path) = &self.trace_out {
            if crate::tracesink::write_sink(path)? {
                eprintln!("trace: wrote causal trace to {path} (inspect with failmpi-trace)");
            } else {
                eprintln!("trace: no run executed, {path} not written");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_flags() {
        let o = parse(&[
            "--smoke", "--runs", "3", "--threads", "2", "--json", "x.json", "--metrics",
            "m.json", "--trace-out", "t.json", "--profile", "p.json",
        ])
        .unwrap();
        assert!(o.smoke);
        assert_eq!(o.runs, Some(3));
        assert_eq!(o.threads, Some(2));
        assert_eq!(o.json.as_deref(), Some("x.json"));
        assert_eq!(o.metrics.as_deref(), Some("m.json"));
        assert_eq!(o.trace_out.as_deref(), Some("t.json"));
        assert_eq!(o.profile.as_deref(), Some("p.json"));
    }

    #[test]
    fn rejects_unknown() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--runs"]).is_err());
        assert!(parse(&["--runs", "abc"]).is_err());
        assert!(parse(&["--metrics"]).is_err());
        assert!(parse(&["--trace-out"]).is_err());
        assert!(parse(&["--profile"]).is_err());
    }

    #[test]
    fn empty_is_default() {
        let o = parse(&[]).unwrap();
        assert!(!o.smoke);
        assert_eq!(o.runs, None);
        assert_eq!(o.lint, None);
    }

    #[test]
    fn lint_flag_parses() {
        let o = parse(&["--lint", "strict"]).unwrap();
        assert_eq!(o.lint, Some(LintMode::Strict));
        assert!(parse(&["--lint", "bogus"]).is_err());
        assert!(parse(&["--lint"]).is_err());
    }

    #[test]
    fn backend_flag_parses() {
        assert_eq!(parse(&[]).unwrap().backend, None);
        let o = parse(&["--backend", "ulfm"]).unwrap();
        assert_eq!(o.backend, Some(BackendKind::Ulfm));
        assert!(parse(&["--backend", "bogus"]).is_err());
        assert!(parse(&["--backend"]).is_err());
    }

    #[test]
    fn expect_freeze_flag_parses() {
        assert!(!parse(&[]).unwrap().expect_freeze);
        assert!(parse(&["--expect-freeze"]).unwrap().expect_freeze);
    }
}
