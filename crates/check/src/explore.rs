//! Schedule exploration: seeded randomness, replayable decision traces,
//! and the bounded-DFS backtracking driver.

/// SplitMix64 — tiny, seedable, deterministic.
pub(crate) struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Pick uniformly in `0..n` (n ≥ 1).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Derive the per-iteration seed from a base seed.
pub(crate) fn iter_seed(base: u64, iteration: u64) -> u64 {
    let mut rng = SplitMix64(base ^ iteration.wrapping_mul(0xa076_1d64_78bd_642f));
    rng.next()
}

/// One recorded scheduler decision: `chosen` out of `options`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Decision {
    pub options: u32,
    pub chosen: u32,
}

/// Decision source for one schedule: an optional replay script followed
/// by seeded randomness. Every decision (including condvar-waiter picks)
/// flows through here, so a recorded trace replays an entire schedule.
pub(crate) struct Chooser {
    script: Vec<u32>,
    pos: usize,
    /// Beyond the script: random (sampling mode) or always-first
    /// (deterministic DFS default policy).
    rng: Option<SplitMix64>,
    pub record: Vec<Decision>,
}

impl Chooser {
    pub fn random(seed: u64) -> Self {
        Chooser { script: Vec::new(), pos: 0, rng: Some(SplitMix64(seed)), record: Vec::new() }
    }

    /// Follow `script`, then fall back to the deterministic first-choice
    /// policy (DFS and trace replay).
    pub fn scripted(script: Vec<u32>) -> Self {
        Chooser { script, pos: 0, rng: None, record: Vec::new() }
    }

    /// Choose an index in `0..n`. `n == 1` is still recorded so DFS
    /// depth counting stays aligned across replays with different
    /// enabled sets (a trace is self-describing).
    pub(crate) fn choose(&mut self, n: usize) -> usize {
        debug_assert!(n >= 1);
        let c = if n == 1 {
            0
        } else if self.pos < self.script.len() {
            (self.script[self.pos] as usize).min(n - 1)
        } else {
            match &mut self.rng {
                Some(rng) => rng.below(n),
                None => 0,
            }
        };
        self.pos += 1;
        self.record.push(Decision { options: n as u32, chosen: c as u32 });
        c
    }

}

/// FNV-1a hash of a decision trace — the distinct-schedule fingerprint.
pub(crate) fn fingerprint_record(record: &[Decision]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in record {
        for v in [d.options, d.chosen] {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1_0000_01b3);
            }
        }
    }
    h
}

/// Encode a decision trace as the compact `ZI_CHECK_TRACE` string.
pub(crate) fn encode_trace(record: &[Decision]) -> String {
    let mut out = String::new();
    for (i, d) in record.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&d.chosen.to_string());
    }
    if out.is_empty() {
        out.push('-');
    }
    out
}

/// Decode a `ZI_CHECK_TRACE` string back into a replay script.
pub(crate) fn decode_trace(s: &str) -> Vec<u32> {
    if s == "-" {
        return Vec::new();
    }
    s.split(',').filter_map(|t| t.trim().parse().ok()).collect()
}

/// Given the decision record of the schedule just run, produce the
/// script for the next DFS schedule, or `None` when the bounded space is
/// exhausted: backtrack to the deepest decision with an unexplored
/// alternative and advance it.
pub(crate) fn dfs_next(record: &[Decision]) -> Option<Vec<u32>> {
    let mut depth = record.len();
    while depth > 0 {
        let d = record[depth - 1];
        if d.chosen + 1 < d.options {
            let mut script: Vec<u32> = record[..depth - 1].iter().map(|d| d.chosen).collect();
            script.push(d.chosen + 1);
            return Some(script);
        }
        depth -= 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let (mut a, mut b) = (SplitMix64(42), SplitMix64(42));
        for _ in 0..32 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn trace_round_trip() {
        let rec = vec![
            Decision { options: 3, chosen: 2 },
            Decision { options: 1, chosen: 0 },
            Decision { options: 2, chosen: 1 },
        ];
        assert_eq!(decode_trace(&encode_trace(&rec)), vec![2, 0, 1]);
        assert_eq!(decode_trace("-"), Vec::<u32>::new());
    }

    #[test]
    fn dfs_enumerates_a_tiny_tree() {
        // Tree: depth-2, binary at each level → 4 leaves.
        let mut script = Vec::new();
        let mut seen = Vec::new();
        loop {
            // Simulate a run that makes two binary decisions per script.
            let mut ch = Chooser::scripted(script.clone());
            let a = ch.choose(2);
            let b = ch.choose(2);
            seen.push((a, b));
            match dfs_next(&ch.record) {
                Some(s) => script = s,
                None => break,
            }
        }
        assert_eq!(seen, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }
}
