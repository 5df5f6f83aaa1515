//! Output checks: is what the program computed still right? A timing
//! from a run that fails one of these is not reported as a result.

use std::path::{Path, PathBuf};

/// The seed the golden loss files were recorded with. Any other seed
/// runs the structural checks only — a second seed is what a later
/// claim must also hold on.
pub const DEFAULT_SEED: u64 = 1;

/// Allowed distance from the golden loss `g`: `5e-4 · max(1, |g|)`.
/// Bit-identity is reported, not required: a change that reorders a
/// reduction moves the last bits without being wrong.
const GOLDEN_TOLERANCE: f32 = 5e-4;

/// How many trailing losses the "did it learn" check averages (fewer
/// when the run is shorter).
const TREND_WINDOW: usize = 10;

pub fn golden_path(root: &Path, workload: &str) -> PathBuf {
    root.join("golden").join(format!("{workload}.losses"))
}

/// Every loss finite, and the mean of the last losses below the loss of
/// the untrained model at step 0: the run trained rather than merely
/// ran. (Against the *first ten* losses the check would depend on how
/// many steps the machine fits into the run: the wide model's loss on
/// 16 tokens a step falls fast for five steps and then wanders, so a
/// 15-step run on a slow box would fail where a 60-step run passes.
/// A diverging or never-updated model fails either form.)
pub fn check_losses(losses: &[f32]) -> Vec<String> {
    let mut problems = Vec::new();
    if let Some(i) = losses.iter().position(|l| !l.is_finite()) {
        problems.push(format!("loss at step {i} is not finite: {}", losses[i]));
    }
    if losses.len() < 2 {
        problems.push(format!(
            "only {} steps ran: too few to check the loss trend",
            losses.len()
        ));
        return problems;
    }
    let k = TREND_WINDOW.min(losses.len() - 1);
    let tail = &losses[losses.len() - k..];
    let last = tail.iter().sum::<f32>() / k as f32;
    // Not `last >= losses[0]`: a NaN mean must fail too.
    let fell = last < losses[0];
    if !fell {
        problems.push(format!(
            "loss did not fall: step 0 = {}, mean of last {k} = {last}",
            losses[0]
        ));
    }
    problems
}

/// One loss per line: the f32's bits in hex, then its decimal value for
/// the human reader (the bits are what is compared).
pub fn render_golden(losses: &[f32]) -> String {
    losses
        .iter()
        .map(|l| format!("{:08x} {l}\n", l.to_bits()))
        .collect()
}

pub fn parse_golden(text: &str) -> Result<Vec<f32>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, line)| {
            let hex = line.split_whitespace().next().unwrap_or("");
            u32::from_str_radix(hex, 16)
                .map(f32::from_bits)
                .map_err(|e| format!("golden line {}: {e}", i + 1))
        })
        .collect()
}

/// Compare against the golden prefix both runs share. Returns the
/// problems found and whether every compared loss was bit-identical.
pub fn check_golden(losses: &[f32], golden: &[f32]) -> (Vec<String>, bool) {
    let n = losses.len().min(golden.len());
    let mut identical = n > 0;
    for i in 0..n {
        let (l, g) = (losses[i], golden[i]);
        identical &= l.to_bits() == g.to_bits();
        let tol = GOLDEN_TOLERANCE * g.abs().max(1.0);
        let close = (l - g).abs() <= tol;
        if !close {
            return (
                vec![format!(
                    "loss at step {i} is {l}, golden {g} (tolerance {tol})"
                )],
                false,
            );
        }
    }
    if n == 0 {
        return (vec!["golden file holds no losses".into()], false);
    }
    (Vec::new(), identical)
}

/// Two loss sequences that must agree bit for bit on their common prefix.
pub fn check_bitwise(what: &str, a: &[f32], b: &[f32]) -> Vec<String> {
    let n = a.len().min(b.len());
    if n == 0 {
        return vec![format!("{what}: nothing to compare")];
    }
    match (0..n).find(|&i| a[i].to_bits() != b[i].to_bits()) {
        Some(i) => vec![format!("{what}: step {i} differs: {} vs {}", a[i], b[i])],
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn falling_finite_losses_pass_and_flat_or_nan_fail() {
        let falling: Vec<f32> = (0..30).map(|i| 5.0 - i as f32 * 0.1).collect();
        assert!(check_losses(&falling).is_empty());
        assert!(!check_losses(&[3.0; 30]).is_empty());
        let mut nan = falling.clone();
        nan[12] = f32::NAN;
        assert!(check_losses(&nan).iter().any(|p| p.contains("not finite")));
        assert!(!check_losses(&[1.0]).is_empty());
        // Short runs shrink the window instead of failing outright.
        assert!(check_losses(&[3.0, 2.0, 1.0, 0.5]).is_empty());
        // Diverged: ends above where the untrained model started.
        assert!(!check_losses(&[3.0, 2.0, 4.0, 5.0]).is_empty());
    }

    #[test]
    fn golden_round_trips_bits_and_catches_corruption() {
        let losses = [7.625f32, 0.1, 1e-7, 3.4e38];
        let text = render_golden(&losses);
        let back = parse_golden(&text).expect("parses");
        assert_eq!(
            back.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            losses.map(f32::to_bits)
        );
        assert_eq!(check_golden(&losses, &back), (vec![], true));
        // Within tolerance but not identical: passes, reported as such.
        let near = [7.625f32 + 1e-4, 0.1, 1e-7, 3.4e38];
        assert_eq!(check_golden(&near, &back), (vec![], false));
        // A corrupted golden value fails.
        let mut bad = back.clone();
        bad[1] = 0.2;
        assert!(!check_golden(&losses, &bad).0.is_empty());
        assert!(parse_golden("zz 1.0\n").is_err());
        assert!(!check_golden(&losses, &[]).0.is_empty());
        // A longer run is compared on the prefix the golden covers.
        assert_eq!(
            check_golden(&[7.625, 0.1, 1e-7, 3.4e38, 9.0], &back),
            (vec![], true)
        );
    }

    #[test]
    fn bitwise_check_names_the_first_difference() {
        assert!(check_bitwise("x", &[1.0, 2.0], &[1.0, 2.0, 3.0]).is_empty());
        assert!(check_bitwise("x", &[1.0, 2.0], &[1.0, 2.5])[0].contains("step 1"));
        assert!(!check_bitwise("x", &[], &[1.0]).is_empty());
    }

    #[test]
    fn committed_goldens_cover_every_workload_and_sim_equals_file() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let read = |w: &str| {
            let text = std::fs::read_to_string(golden_path(root, w)).expect("golden file exists");
            parse_golden(&text).expect("golden parses")
        };
        for w in &crate::workloads::WORKLOADS {
            assert!(read(w.name).len() >= 50, "{} golden is too short", w.name);
        }
        // The device's speed and kind must not change the numerics.
        assert!(
            check_bitwise("sim vs file", &read("inf_nvme_sim"), &read("inf_nvme_file")).is_empty()
        );
    }
}
