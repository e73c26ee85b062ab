//! Minimal command-line parsing shared by all experiment binaries.
//!
//! Each binary accepts:
//!
//! * `--frames N` — number of frame pairs to evaluate (default varies per
//!   experiment; larger = smoother curves, linear runtime).
//! * `--seed S` — master random seed (default 2024).
//! * `--threads N` — worker-thread budget (default: `BBA_THREADS` env, else
//!   all cores). Results are bit-identical at every setting.
//! * `--bev N` — BV image side length in pixels, power of two (default:
//!   the experiment's engine config; smaller = faster smoke runs).
//! * `--help` — prints usage and exits.

/// Parsed common options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// Number of frame pairs to evaluate.
    pub frames: usize,
    /// Master seed.
    pub seed: u64,
    /// Optional path to dump raw per-pair records as JSON (for plotting).
    pub json: Option<std::path::PathBuf>,
    /// Worker-thread budget override (`None` = `BBA_THREADS` env / cores).
    pub threads: Option<usize>,
    /// BV image side length override in pixels (`None` = engine default).
    pub bev: Option<usize>,
}

impl Options {
    /// The effective thread budget: the `--threads` override when given,
    /// otherwise the process-wide default (`BBA_THREADS` env, else cores).
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(bba_par::default_threads)
    }
}

/// Parses `std::env::args`, with per-experiment defaults.
///
/// Exits the process with usage text on `--help` or malformed input.
pub fn parse(default_frames: usize, description: &str) -> Options {
    parse_from(std::env::args().skip(1), default_frames, description).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(if msg.starts_with("usage") { 0 } else { 2 });
    })
}

/// The master seed of a run without `--seed`.
pub const DEFAULT_SEED: u64 = 2024;

/// Testable core of [`parse`].
pub fn parse_from(
    args: impl IntoIterator<Item = String>,
    default_frames: usize,
    description: &str,
) -> Result<Options, String> {
    let usage = format!(
        "usage: {description}\n  --frames N   frame pairs to evaluate (default {default_frames})\n  --seed S     master random seed (default 2024)\n  --threads N  worker-thread budget (default: BBA_THREADS env, else cores)\n  --bev N      BV image side length in pixels, power of two\n  --json PATH  dump raw per-pair records as JSON"
    );
    let mut opts = Options {
        frames: default_frames,
        seed: DEFAULT_SEED,
        json: None,
        threads: None,
        bev: None,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--frames" => {
                let v = it.next().ok_or_else(|| "--frames needs a value".to_string())?;
                opts.frames = v.parse().map_err(|_| format!("invalid --frames value: {v}"))?;
            }
            "--seed" => {
                let v = it.next().ok_or_else(|| "--seed needs a value".to_string())?;
                opts.seed = v.parse().map_err(|_| format!("invalid --seed value: {v}"))?;
            }
            "--threads" => {
                let v = it.next().ok_or_else(|| "--threads needs a value".to_string())?;
                opts.threads =
                    Some(v.parse().map_err(|_| format!("invalid --threads value: {v}"))?);
            }
            "--bev" => {
                let v = it.next().ok_or_else(|| "--bev needs a value".to_string())?;
                opts.bev = Some(v.parse().map_err(|_| format!("invalid --bev value: {v}"))?);
            }
            "--json" => {
                let v = it.next().ok_or_else(|| "--json needs a path".to_string())?;
                opts.json = Some(std::path::PathBuf::from(v));
            }
            "--help" | "-h" => return Err(usage),
            other => return Err(format!("unknown argument: {other}\n{usage}")),
        }
    }
    if opts.frames == 0 {
        return Err("--frames must be positive".into());
    }
    if opts.threads == Some(0) {
        return Err("--threads must be positive".into());
    }
    if let Some(n) = opts.bev {
        if !n.is_power_of_two() {
            return Err(format!("--bev must be a power of two, got {n}"));
        }
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_apply() {
        let o = parse_from(argv(""), 100, "test").unwrap();
        assert_eq!(o, Options { frames: 100, seed: 2024, json: None, threads: None, bev: None });
        assert!(o.threads() >= 1);
    }

    #[test]
    fn overrides_parse() {
        let o = parse_from(argv("--frames 7 --seed 42"), 100, "test").unwrap();
        assert_eq!(o.frames, 7);
        assert_eq!(o.seed, 42);
        let o = parse_from(argv("--json out.json"), 100, "test").unwrap();
        assert_eq!(o.json, Some(std::path::PathBuf::from("out.json")));
        let o = parse_from(argv("--threads 4 --bev 128"), 100, "test").unwrap();
        assert_eq!(o.threads, Some(4));
        assert_eq!(o.threads(), 4);
        assert_eq!(o.bev, Some(128));
    }

    #[test]
    fn help_returns_usage() {
        let e = parse_from(argv("--help"), 100, "test").unwrap_err();
        assert!(e.starts_with("usage"));
        assert!(e.contains("--threads"));
        assert!(e.contains("--bev"));
    }

    #[test]
    fn rejects_unknown_and_invalid() {
        assert!(parse_from(argv("--bogus"), 100, "t").is_err());
        assert!(parse_from(argv("--frames abc"), 100, "t").is_err());
        assert!(parse_from(argv("--frames 0"), 100, "t").is_err());
        assert!(parse_from(argv("--frames"), 100, "t").is_err());
        assert!(parse_from(argv("--threads 0"), 100, "t").is_err());
        assert!(parse_from(argv("--threads x"), 100, "t").is_err());
        assert!(parse_from(argv("--bev 100"), 100, "t").is_err());
        assert!(parse_from(argv("--bev"), 100, "t").is_err());
    }
}
