//! Formatting helpers for the `repro` binary's tables.

/// Format a parameter count as "1.4B" / "32.0T".
pub fn fmt_params(p: u64) -> String {
    let p = p as f64;
    if p >= 1e12 {
        format!("{:.1}T", p / 1e12)
    } else if p >= 1e9 {
        format!("{:.1}B", p / 1e9)
    } else if p >= 1e6 {
        format!("{:.0}M", p / 1e6)
    } else {
        format!("{p:.0}")
    }
}

/// Format bytes as TB with 2 decimals (decimal TB, as the paper uses).
pub fn fmt_tb(bytes: f64) -> String {
    format!("{:.2}", bytes / 1e12)
}

/// Print a titled section header.
pub fn section(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Print one row of `|`-separated cells with padding.
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join(" |"));
}

/// Convenience: turn `&str` cells into a row.
pub fn hrow(cells: &[&str]) {
    row(&cells.iter().map(|s| s.to_string()).collect::<Vec<_>>());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_formatting() {
        assert_eq!(fmt_params(1_400_000_000), "1.4B");
        assert_eq!(fmt_params(32_000_000_000_000), "32.0T");
        assert_eq!(fmt_params(500_000_000), "500M");
        assert_eq!(fmt_params(123), "123");
    }

    #[test]
    fn tb_formatting() {
        assert_eq!(fmt_tb(1.83e12), "1.83");
    }
}
