//! A minimal `--key value` argument parser for the experiment binaries
//! (keeps the workspace free of CLI dependencies), plus [`FigArgs`], the
//! shared flag vocabulary of the paper-figure binaries.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Parsed command-line options: `--key value`, `--key=value`, and bare
/// `--flag` (a key with no value).
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parse from an iterator of tokens (typically `std::env::args().skip(1)`).
    ///
    /// A token `--k` followed by a token that does not start with `--` is a
    /// key/value pair; otherwise `--k` is a flag. `--k=v` is always a pair.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Self {
        let mut out = Args::default();
        let toks: Vec<String> = tokens.into_iter().collect();
        let mut idx = 0;
        while idx < toks.len() {
            let t = &toks[idx];
            if let Some(stripped) = t.strip_prefix("--") {
                if let Some((k, v)) = stripped.split_once('=') {
                    out.values.insert(k.to_string(), v.to_string());
                } else if idx + 1 < toks.len() && !toks[idx + 1].starts_with("--") {
                    out.values
                        .insert(stripped.to_string(), toks[idx + 1].clone());
                    idx += 1;
                } else {
                    out.flags.push(stripped.to_string());
                }
            }
            idx += 1;
        }
        out
    }

    /// Parse the process's own arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Raw string value for `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// `usize` value or `default`.
    ///
    /// # Panics
    /// Panics with a clear message when the value does not parse.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get(key)
            .map(|v| v.parse().unwrap_or_else(|_| panic!("--{key} expects an integer, got {v:?}")))
            .unwrap_or(default)
    }

    /// `f64` value or `default`.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.get(key)
            .map(|v| v.parse().unwrap_or_else(|_| panic!("--{key} expects a number, got {v:?}")))
            .unwrap_or(default)
    }

    /// `u64` value or `default`.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.get(key)
            .map(|v| v.parse().unwrap_or_else(|_| panic!("--{key} expects an integer, got {v:?}")))
            .unwrap_or(default)
    }

    /// String value or `default`.
    pub fn get_str<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// True if `--key` appeared as a bare flag (or with any value).
    pub fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key) || self.values.contains_key(key)
    }

    /// Comma-separated list of `usize` (e.g. `--threads 2,4,8`) or default.
    pub fn get_usize_list(&self, key: &str, default: &[usize]) -> Vec<usize> {
        match self.get(key) {
            None => default.to_vec(),
            Some(v) => v
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("--{key} expects integers, got {s:?}"))
                })
                .collect(),
        }
    }
}

/// The flag vocabulary shared by the paper-figure binaries (fig2–fig6):
/// `--size N`, `--quick`, `--csv DIR`, `--native`, `--checkpoint FILE`,
/// `--image N`, `--tile N`, `--threads LIST`, plus the fault-injection
/// keys read by `FaultRates::from_args`. Each binary previously
/// hand-parsed these; this builder is the single definition of their
/// names and defaults.
#[derive(Debug, Clone, Default)]
pub struct FigArgs {
    args: Args,
}

impl FigArgs {
    /// Wrap already-parsed arguments.
    pub fn new(args: Args) -> Self {
        Self { args }
    }

    /// Parse the process's own arguments.
    pub fn from_env() -> Self {
        Self::new(Args::from_env())
    }

    /// The underlying parser, for binary-specific keys (fault flags,
    /// `--ortho`, `--native-threads`, …).
    pub fn raw(&self) -> &Args {
        &self.args
    }

    /// `--size N` — volume edge (default 64).
    pub fn size(&self) -> usize {
        self.args.get_usize("size", 64)
    }

    /// `--quick` — smoke mode: truncated rows/viewpoints and a two-point
    /// thread grid.
    pub fn quick(&self) -> bool {
        self.args.has("quick")
    }

    /// `--csv DIR` — emit per-table CSV files into `DIR`.
    pub fn csv(&self) -> Option<PathBuf> {
        self.args.get("csv").map(PathBuf::from)
    }

    /// `--native` — also run the native wall-clock rows on this host.
    pub fn native(&self) -> bool {
        self.args.has("native")
    }

    /// `--checkpoint FILE` — journal path for resumable sweeps.
    pub fn checkpoint(&self) -> Option<PathBuf> {
        self.args.get("checkpoint").map(PathBuf::from)
    }

    /// The thread-count grid: `quick_pair` under `--quick`, else
    /// `--threads LIST` (defaulting to the platform's concurrency grid).
    pub fn thread_grid(&self, quick_pair: [usize; 2], default: &[usize]) -> Vec<usize> {
        if self.quick() {
            quick_pair.to_vec()
        } else {
            self.args.get_usize_list("threads", default)
        }
    }

    /// `--image N` — framebuffer edge in pixels (default: one ray per
    /// voxel face, i.e. [`FigArgs::size`]).
    pub fn image(&self) -> usize {
        self.args.get_usize("image", self.size())
    }

    /// `--tile N` — tile edge; the default `image/16` preserves the
    /// paper's 256-tile decomposition (32² tiles on a 512² framebuffer).
    pub fn tile(&self, image: usize) -> usize {
        self.args.get_usize("tile", (image / 16).max(4))
    }

    /// `--deadline-ms N` — wall-clock budget for the fault demo's
    /// brownout pipeline. Absent or `0` means no budget: the pipeline then
    /// only downgrades via its circuit breaker.
    pub fn deadline_ms(&self) -> Option<u64> {
        match self.args.get_u64("deadline-ms", 0) {
            0 => None,
            ms => Some(ms),
        }
    }

    /// `--nan-rate R` — fraction of input voxels to overwrite with NaN
    /// before the experiment (exercising the NaN-safe kernels end to
    /// end); 0 (the default) leaves the input untouched.
    pub fn nan_rate(&self) -> f64 {
        self.args.get_f64("nan-rate", 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    fn fig(s: &str) -> FigArgs {
        FigArgs::new(parse(s))
    }

    #[test]
    fn fig_args_defaults() {
        let f = fig("");
        assert_eq!(f.size(), 64);
        assert!(!f.quick());
        assert!(f.csv().is_none());
        assert!(f.checkpoint().is_none());
        assert_eq!(f.image(), 64);
        assert_eq!(f.tile(f.image()), 4);
        assert_eq!(f.thread_grid([2, 24], &[2, 4, 8]), vec![2, 4, 8]);
    }

    #[test]
    fn fig_args_quick_selects_the_two_point_grid() {
        let f = fig("--quick --threads 3,5");
        // --quick wins over an explicit list: smoke mode is a fixed shape.
        assert_eq!(f.thread_grid([59, 236], &[1]), vec![59, 236]);
    }

    #[test]
    fn fig_args_explicit_values() {
        let f = fig("--size 128 --image 256 --tile 32 --csv out --checkpoint ck.bin --native");
        assert_eq!(f.size(), 128);
        assert_eq!(f.image(), 256);
        assert_eq!(f.tile(f.image()), 32);
        assert_eq!(f.csv().unwrap(), PathBuf::from("out"));
        assert_eq!(f.checkpoint().unwrap(), PathBuf::from("ck.bin"));
        assert!(f.native());
        assert_eq!(f.thread_grid([2, 24], &[2]), vec![2]);
    }

    #[test]
    fn fig_args_deadline_and_nan_rate() {
        let f = fig("");
        assert_eq!(f.deadline_ms(), None);
        assert_eq!(f.nan_rate(), 0.0);
        let f = fig("--deadline-ms 0 --nan-rate 0.25");
        assert_eq!(f.deadline_ms(), None); // 0 = unset
        assert!((f.nan_rate() - 0.25).abs() < 1e-12);
        let f = fig("--deadline-ms 400");
        assert_eq!(f.deadline_ms(), Some(400));
    }

    #[test]
    fn key_value_pairs() {
        let a = parse("--size 128 --seed=42 --layout z-order");
        assert_eq!(a.get_usize("size", 0), 128);
        assert_eq!(a.get_u64("seed", 0), 42);
        assert_eq!(a.get_str("layout", ""), "z-order");
    }

    #[test]
    fn flags_and_defaults() {
        let a = parse("--verbose --size 16");
        assert!(a.has("verbose"));
        assert!(!a.has("quiet"));
        assert_eq!(a.get_usize("missing", 7), 7);
    }

    #[test]
    fn flag_followed_by_flag() {
        let a = parse("--csv --markdown");
        assert!(a.has("csv") && a.has("markdown"));
    }

    #[test]
    fn float_values() {
        let a = parse("--sigma 2.5");
        assert!((a.get_f64("sigma", 0.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn lists() {
        let a = parse("--threads 2,4, 8");
        // Note: "8" is a separate token, so only "2,4," belongs to the key;
        // trailing empty entries would fail parse — use no spaces in lists.
        let a2 = parse("--threads 2,4,8");
        assert_eq!(a2.get_usize_list("threads", &[]), vec![2, 4, 8]);
        assert_eq!(a.get_usize_list("missing", &[1, 2]), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "expects an integer")]
    fn bad_integer_panics() {
        parse("--size banana").get_usize("size", 0);
    }
}
