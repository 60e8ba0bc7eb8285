//! # h2p-bench
//!
//! The experiment harness regenerating every table and figure of the
//! Hetero²Pipe paper. Each `fig*`/`tab*`/`app_*` binary prints the rows
//! or series of one paper artifact; run them with
//!
//! ```text
//! cargo run --release -p h2p-bench --bin fig07_overall
//! ```
//!
//! See `EXPERIMENTS.md` at the workspace root for the full index and the
//! paper-vs-measured comparison. This library holds the shared plumbing:
//! aligned-table printing, simple statistics and linear regression used by
//! several experiments.

/// Prints an aligned plain-text table with a title.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Mean of a sample (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median of a sample (0 for empty input).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Population standard deviation (0 for fewer than two samples).
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Least-squares linear fit `y = slope·x + intercept`, plus Pearson r².
/// Returns `(slope, intercept, r2)`; degenerate inputs yield zeros.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return (0.0, 0.0, 0.0);
    }
    let (xs, ys) = (&xs[..n], &ys[..n]);
    let mx = mean(xs);
    let my = mean(ys);
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let syy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    if sxx <= 0.0 || syy <= 0.0 {
        return (0.0, my, 0.0);
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r2 = (sxy * sxy) / (sxx * syy);
    (slope, intercept, r2)
}

/// Parses `--key value` style arguments with a default.
pub fn arg_usize(key: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basics() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
        assert!(stddev(&[2.0, 2.0, 2.0]) < 1e-12);
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        let (s, i, r2) = linear_fit(&xs, &ys);
        assert!((s - 3.0).abs() < 1e-9);
        assert!((i - 1.0).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_handles_degenerate_input() {
        assert_eq!(linear_fit(&[1.0], &[2.0]), (0.0, 0.0, 0.0));
        let (s, _, r2) = linear_fit(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]);
        assert_eq!(s, 0.0);
        assert_eq!(r2, 0.0);
    }
}
