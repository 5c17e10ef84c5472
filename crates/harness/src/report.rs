//! Results-directory output: every experiment binary writes its artefacts
//! (ASCII rendering + CSV) under `results/` at the workspace root. Also the
//! binaries' shared command-line flag parser.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Resolve the results directory (created on demand). Honors
/// `DSM_RESULTS_DIR`; defaults to `./results`.
pub fn results_dir() -> io::Result<PathBuf> {
    let dir = std::env::var_os("DSM_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Write a text artefact into the results directory; returns its path.
pub fn write_text(name: &str, content: &str) -> io::Result<PathBuf> {
    let path = results_dir()?.join(name);
    fs::write(&path, content)?;
    Ok(path)
}

/// Write a JSON artefact into the results directory; returns its path.
/// Every binary routes its `.json` outputs through here so serialization
/// (compact, insertion-ordered, shortest-round-trip floats) is decided in
/// exactly one place and output stays byte-stable across runs.
pub fn write_json(name: &str, value: &crate::json::Json) -> io::Result<PathBuf> {
    write_text(name, &value.to_string())
}

/// Write a CSV artefact into the results directory; returns its path.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> io::Result<PathBuf> {
    let path = results_dir()?.join(name);
    let mut buf = Vec::new();
    dsm_analysis::plot::write_csv(&mut buf, headers, rows)?;
    fs::write(&path, buf)?;
    Ok(path)
}

/// Echo a written path for the user.
pub fn announce(path: &Path) {
    println!("wrote {}", path.display());
}

/// Exit with status 2 and `usage` when an argument starting with `-` names
/// no flag that `usage` lists (`-j` counts as `--jobs`). Every binary calls
/// this first, so a mistyped flag is an error rather than a run with
/// defaults.
pub fn known_flags_or_exit(usage: &str) {
    let known: Vec<&str> = usage
        .split_whitespace()
        .map(|w| w.trim_matches(|c| c == '[' || c == ']'))
        .filter(|w| w.starts_with("--"))
        .collect();
    for a in std::env::args().skip(1) {
        let flag = if a == "-j" { "--jobs" } else { a.as_str() };
        if flag.starts_with('-') && !known.contains(&flag) {
            usage_exit(&format!("unknown flag {a}"), usage);
        }
    }
}

/// The command-line value after `flag` parsed as `T`, or `default` when the
/// flag is absent. A missing or unparsable value prints the error and
/// `usage` to stderr and exits with status 2.
pub fn flag_or_exit<T: std::str::FromStr>(flag: &str, default: T, usage: &str) -> T
where
    T::Err: std::fmt::Display,
{
    opt_flag_or_exit(flag, usage).unwrap_or(default)
}

/// [`flag_or_exit`] for a flag without a default: `None` when the flag is
/// absent.
pub fn opt_flag_or_exit<T: std::str::FromStr>(flag: &str, usage: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == flag)?;
    let parsed = match args.get(i + 1) {
        Some(v) => v.parse().map_err(|e: T::Err| format!("{flag} {v}: {e}")),
        None => Err(format!("{flag} needs a value")),
    };
    Some(parsed.unwrap_or_else(|e| usage_exit(&e, usage)))
}

/// The first positional argument parsed as `T`, or `default` when there is
/// none. Arguments starting with `-` are flags; the one after each flag in
/// `value_flags` is that flag's value, not a positional. An unparsable
/// value prints the error and `usage` and exits with status 2.
pub fn positional_or_exit<T: std::str::FromStr>(
    value_flags: &[&str],
    default: T,
    usage: &str,
) -> T
where
    T::Err: std::fmt::Display,
{
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if value_flags.contains(&a.as_str()) {
            args.next();
        } else if !a.starts_with('-') {
            return a.parse().unwrap_or_else(|e| usage_exit(&format!("{a}: {e}"), usage));
        }
    }
    default
}

/// `n_procs` when it is a power of two, else a usage error (exit status 2):
/// the default hypercube fabric, like every layout the topology sweep
/// compares, needs one.
pub fn power_of_two_or_exit(n_procs: usize, usage: &str) -> usize {
    if !n_procs.is_power_of_two() {
        usage_exit(&format!("{n_procs} processors: the machine needs a power of two"), usage);
    }
    n_procs
}

/// Print `error` and `usage` to stderr and exit with status 2.
pub fn usage_exit(error: &str, usage: &str) -> ! {
    eprintln!("error: {error}\nusage: {usage}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_into_configured_dir() {
        let tmp = std::env::temp_dir().join(format!("dsm-results-test-{}", std::process::id()));
        std::env::set_var("DSM_RESULTS_DIR", &tmp);
        let p = write_text("hello.txt", "hi").unwrap();
        assert_eq!(fs::read_to_string(&p).unwrap(), "hi");
        let p = write_csv("t.csv", &["a", "b"], &[vec!["1".into(), "2".into()]]).unwrap();
        let s = fs::read_to_string(&p).unwrap();
        assert_eq!(s, "a,b\n1,2\n");
        std::env::remove_var("DSM_RESULTS_DIR");
        let _ = fs::remove_dir_all(tmp);
    }
}
