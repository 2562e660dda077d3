//! Plain-text table rendering for benchmark reports.
//!
//! Every harness binary prints the same fixed-width tables the paper shows,
//! plus a JSON line per row (machine-readable, for EXPERIMENTS.md and CI
//! diffing).

/// A simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with `headers`.
    #[must_use]
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics when the column count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format a float with `d` decimals.
#[must_use]
pub fn f(x: f64, d: usize) -> String {
    format!("{x:.d$}")
}

/// Format a percentage with sign, e.g. `-10.35%`.
#[must_use]
pub fn pct(x: f64, d: usize) -> String {
    format!("{x:+.d$}%")
}

/// The values of a bin's `--flag value` options, each a `u64` that falls
/// back to its default when the flag is absent: `args([("--n", 1000),
/// ("--seed", 140)])` returns `[n, seed]`.
///
/// Exits with status 2, naming the flag, on a flag the bin does not take,
/// a flag without a value, or a value that is not a `u64`.
#[must_use]
pub fn args<const N: usize>(flags: [(&str, u64); N]) -> [u64; N] {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    parse_args(&argv, flags).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

fn parse_args<const N: usize>(
    argv: &[String],
    flags: [(&str, u64); N],
) -> Result<[u64; N], String> {
    let mut values = flags.map(|(_, default)| default);
    let mut argv = argv.iter();
    while let Some(flag) = argv.next() {
        let i = flags
            .iter()
            .position(|(name, _)| name == flag)
            .ok_or_else(|| format!("unknown flag {flag:?}"))?;
        let value = argv.next().map_or("", String::as_str);
        values[i] = value
            .parse()
            .map_err(|_| format!("{flag} takes a non-negative integer, not {value:?}"))?;
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["Strategy", "Time (s)", "F1"]);
        t.row(vec!["Static Prompt".into(), "3.10".into(), "0.70".into()]);
        t.row(vec!["Auto".into(), "2.12".into(), "0.81".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Strategy"));
        assert!(lines[1].starts_with("---"));
        // All rows equal width per column: "Static Prompt" sets column 0.
        assert!(lines[3].starts_with("Auto         "));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_is_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(pct(-10.349, 2), "-10.35%");
        assert_eq!(pct(21.166, 2), "+21.17%");
    }

    #[test]
    fn args_take_defaults_values_and_reject_the_rest() {
        let argv = |list: &[&str]| list.iter().map(|a| (*a).to_string()).collect::<Vec<_>>();
        let flags = [("--n", 1000), ("--seed", 140)];
        assert_eq!(parse_args(&argv(&[]), flags), Ok([1000, 140]));
        assert_eq!(
            parse_args(&argv(&["--seed", "7", "--n", "50"]), flags),
            Ok([50, 7])
        );
        let err = |list: &[&str]| parse_args(&argv(list), flags).unwrap_err();
        assert!(err(&["--n", "abc"]).contains("--n"));
        assert!(err(&["--n", "-3"]).contains("--n"));
        assert!(err(&["--sede", "7"]).contains("--sede"));
        assert!(err(&["--seed"]).contains("--seed"));
        assert!(err(&["7"]).contains("\"7\""));
    }
}
