//! The evaluation history (the set `H` of §5.1) and the simulated-
//! annealing starting-point rule.
//!
//! FlexTensor keeps every evaluated point with its performance value `E`
//! and, at each exploration step, chooses starting points from `H` with
//! probability `∝ exp(-γ · (E* - E_p) / E*)` — points close to the current
//! best are chosen often, but worse points keep a temperature-controlled
//! chance, which is what lets the search escape local optima.

use flextensor_schedule::config::{NodeConfig, REDUCE_PARTS, SPATIAL_PARTS};
use rand::Rng;

use crate::pool::hash_words;

/// Free-entry marker in [`History`]'s probe table.
const EMPTY: u32 = u32::MAX;

/// One probe-table entry: 32 bits of the key's hash (compared before any
/// key word is touched) and the slot holding the key (`EMPTY` = free).
#[derive(Debug, Clone, Copy)]
struct Probe {
    tag: u32,
    slot: u32,
}

/// The SA weight of a point with value `e` against the best value
/// `e_star`. Start selection sums and scans exactly these values, so the
/// expression must not be rearranged.
fn weight(gamma: f64, e_star: f64, e: f64) -> f64 {
    (-gamma * (e_star - e) / e_star.max(f64::MIN_POSITIVE)).exp()
}

/// The set `H`: every evaluated point and its performance value.
///
/// One `History` holds configs of one op. The first record fixes the axis
/// counts; recording a config of another shape (a different
/// [`NodeConfig::encode`] length or split arity) panics instead of being
/// mis-decoded later.
///
/// **Storage.** Each point is a *slot*, numbered in first-record order.
/// Its encoding words are stored once, back to back in a flat `i64` arena
/// with one fixed stride, and found through an open-addressing probe
/// table; `es` holds each slot's `E`. A chosen start is decoded back into
/// a [`NodeConfig`] only when it is selected, so recording and probing a
/// point allocate nothing per entry.
///
/// **Start selection.** `order` lists the slots in encoding order — the
/// order a `BTreeMap<Vec<i64>, _>` keyed by the encoding iterates in —
/// and `w` caches each listed slot's weight for one `(E*, γ)` pair. A
/// select merges the slots recorded since the previous select into
/// `order` (sorted among themselves, then placed by binary search over
/// `digests`, a compact order-preserving prefix of each key) and
/// evaluates `exp` only for them. It re-weighs all of `H` only when `E*`
/// or `γ` changed or a merged point was re-recorded with a different `E`.
/// The sum then runs over `w` left to right in key order, and each draw
/// lands where the original `t -= w` scan in key order would stop:
/// floating-point addition is not associative, so that order decides
/// which point a draw picks, and changing it would change every seeded
/// search. The running sums double as a search index: a draw binary
/// searches them and falls back to the scan itself only when `t` lies
/// so close to a partial sum that rounding could move the stop (see
/// `certified_pick`).
///
/// Performance values are throughputs (`1 / seconds`), so higher is
/// better; infeasible points are recorded with `E = 0` to prevent
/// re-evaluation.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// Spatial and reduce axis counts of the op, from the first record.
    spatial: usize,
    reduce: usize,
    /// Encoding length of every slot (0 until the first record).
    stride: usize,
    /// Encoding words of every slot, `stride` per slot.
    keys: Vec<i64>,
    /// Performance value `E` of every slot.
    es: Vec<f64>,
    /// Power-of-two open-addressing index over the slots (empty until the
    /// first record), at most half full.
    table: Vec<Probe>,
    best: Option<(NodeConfig, f64)>,
    /// Slots `0..order.len()` in encoding order; later slots are merged in
    /// by the next select.
    order: Vec<u32>,
    /// `digests[i]` is [`History::digest`] of slot `order[i]`, computed
    /// for `digests_shared`.
    digests: Vec<u128>,
    digests_shared: usize,
    /// Number of leading key words every slot in `order` shares.
    shared: usize,
    /// `w[i]` is the weight of slot `order[i]`, valid for `w_for`.
    w: Vec<f64>,
    /// `(E*.to_bits(), γ.to_bits())` the weights in `w` were computed for.
    w_for: Option<(u64, u64)>,
    /// A slot in `order` was re-recorded with a different `E`.
    w_stale: bool,
    /// `sums[i]` is the left-to-right float sum `w[0] + … + w[i]`, rebuilt
    /// by every select; its last entry is the draw range's `total`.
    sums: Vec<f64>,
    /// Number of weight evaluations, for the amortisation tests.
    #[cfg(test)]
    weight_evals: usize,
}

impl History {
    /// An empty history.
    pub fn new() -> History {
        History::default()
    }

    /// Whether a point has already been evaluated.
    pub fn contains(&self, cfg: &NodeConfig) -> bool {
        self.lookup(cfg).is_some()
    }

    /// Records a point with its performance value `E` (0 = infeasible).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is not shaped like the configs already recorded
    /// (see the type-level docs: one `History` holds configs of one op).
    pub fn record(&mut self, cfg: NodeConfig, e: f64) {
        self.check_shape(&cfg);
        if (self.es.len() + 1) * 2 > self.table.len() {
            self.grow();
        }
        let start = self.keys.len();
        cfg.encode_into(&mut self.keys);
        let hash = hash_words(self.keys[start..].iter().copied());
        match self.find(hash, |k| k == &self.keys[start..]) {
            Ok(slot) => {
                self.keys.truncate(start);
                if self.es[slot].to_bits() != e.to_bits() && slot < self.order.len() {
                    self.w_stale = true;
                }
                self.es[slot] = e;
            }
            Err(i) => {
                self.table[i] = Probe {
                    tag: hash as u32,
                    slot: self.es.len() as u32,
                };
                self.es.push(e);
            }
        }
        if self.best.as_ref().is_none_or(|(_, b)| e > *b) && e > 0.0 {
            self.best = Some((cfg, e));
        }
    }

    /// Performance value of a previously recorded point.
    pub fn value(&self, cfg: &NodeConfig) -> Option<f64> {
        self.lookup(cfg).map(|slot| self.es[slot])
    }

    /// The best feasible point seen, with its performance value.
    pub fn best(&self) -> Option<(&NodeConfig, f64)> {
        self.best.as_ref().map(|(c, e)| (c, *e))
    }

    /// Number of evaluated points.
    pub fn len(&self) -> usize {
        self.es.len()
    }

    /// Whether no point has been evaluated yet.
    pub fn is_empty(&self) -> bool {
        self.es.is_empty()
    }

    /// Chooses `n` starting points (with replacement, deduplicated) using
    /// the simulated-annealing rule with temperature parameter `gamma`.
    ///
    /// Returns fewer than `n` points when `H` holds fewer distinct
    /// feasible candidates.
    pub fn select_starts(&mut self, n: usize, gamma: f64, rng: &mut impl Rng) -> Vec<NodeConfig> {
        self.select_starts_with_energy(n, gamma, rng)
            .into_iter()
            .map(|(c, _)| c)
            .collect()
    }

    /// [`History::select_starts`], but each chosen point is paired with
    /// its performance value `E` at selection time. The search drivers use
    /// this to log SA moves (start energy vs reached energy) without a
    /// second history lookup; the RNG draw sequence is identical to
    /// `select_starts`.
    pub fn select_starts_with_energy(
        &mut self,
        n: usize,
        gamma: f64,
        rng: &mut impl Rng,
    ) -> Vec<(NodeConfig, f64)> {
        let Some(e_star) = self.best.as_ref().map(|(_, e)| *e) else {
            return Vec::new();
        };
        self.refresh_weights(e_star, gamma);
        self.sums.resize(self.w.len(), 0.0);
        let mut total = 0.0;
        for (sum, &w) in self.sums.iter_mut().zip(&self.w) {
            total += w;
            *sum = total;
        }
        let mut picked: Vec<u32> = Vec::new();
        for _ in 0..n {
            let t = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
            let chosen = self
                .certified_pick(t, total)
                .unwrap_or_else(|| self.scan_pick(t));
            let slot = self.order[chosen];
            if !picked.contains(&slot) {
                picked.push(slot);
            }
        }
        picked
            .into_iter()
            .map(|slot| {
                let slot = slot as usize;
                let cfg = NodeConfig::from_encoding(self.spatial, self.reduce, self.key(slot));
                (cfg, self.es[slot])
            })
            .collect()
    }

    /// The draw rule itself: walk `w` in key order and stop at
    /// the first `i` with `t < w[i]`, else `t -= w[i]`; fall back to the
    /// last index.
    fn scan_pick(&self, t: f64) -> usize {
        let mut t = t;
        for (i, &w) in self.w.iter().enumerate() {
            if t < w {
                return i;
            }
            t -= w;
        }
        self.w.len() - 1
    }

    /// The index [`History::scan_pick`] returns for `t`, found by binary
    /// search over `sums` when the float error cannot change it, else
    /// `None`.
    ///
    /// Before its stop, the scan's `t_i` is `t` minus `w[0..i]` with one
    /// rounding per subtraction, each of at most `u·t` (`u = 2^-53`; the
    /// weights are ≥ 0, so `0 ≤ t_i ≤ t`). Stopping at `i` (`t_i < w[i]`)
    /// is therefore `t < S(i+1)` up to `i·u·t`, where `S(k)` is the exact
    /// sum of the first `k` weights; and `sums[i]` is `S(i+1)` up to
    /// `(i+1)·u·total`. Each error stays below `err / 2` with a 4× margin,
    /// which also covers the rounding of `t ± err`; the `MIN_POSITIVE`
    /// term covers subnormal results. So the scan passes every `i` with
    /// `sums[i] ≤ t - err` and stops at the first `i` with
    /// `sums[i] > t + err`; when those are the same index, that index is
    /// the scan's answer. Otherwise `t` lies within `err` of a partial sum
    /// — at most ~`16·|H|²·ε` of draws, ~4·10⁻⁵ at `|H| = 10⁵` — and the
    /// caller runs the scan itself.
    fn certified_pick(&self, t: f64, total: f64) -> Option<usize> {
        if !(t.is_finite() && total.is_finite()) {
            return None;
        }
        let n = self.sums.len() as f64;
        let err = 4.0 * (n + 2.0) * (f64::EPSILON * (t + total) + f64::MIN_POSITIVE);
        let passed = self.sums.partition_point(|&s| s <= t - err);
        let stop = self.sums.partition_point(|&s| s <= t + err);
        (passed == stop && stop < self.sums.len()).then_some(stop)
    }

    /// The encoding words of `slot`.
    fn key(&self, slot: usize) -> &[i64] {
        &self.keys[slot * self.stride..(slot + 1) * self.stride]
    }

    /// Probe-table position of a key hash.
    fn home(&self, hash: u64) -> usize {
        (hash.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & (self.table.len() - 1)
    }

    /// Finds the slot whose key satisfies `is_key` (`Ok(slot)`) or the
    /// free table position where it would go (`Err(position)`). Requires
    /// a non-empty table.
    fn find(&self, hash: u64, is_key: impl Fn(&[i64]) -> bool) -> Result<usize, usize> {
        let mask = self.table.len() - 1;
        let mut i = self.home(hash);
        loop {
            let p = self.table[i];
            if p.slot == EMPTY {
                return Err(i);
            }
            if p.tag == hash as u32 && is_key(self.key(p.slot as usize)) {
                return Ok(p.slot as usize);
            }
            i = (i + 1) & mask;
        }
    }

    /// The slot of a recorded point, hashing and comparing its encoding
    /// as a word stream (no key is materialised).
    fn lookup(&self, cfg: &NodeConfig) -> Option<usize> {
        if self.table.is_empty() {
            return None;
        }
        let hash = hash_words(cfg.encode_iter());
        self.find(hash, |k| k.iter().copied().eq(cfg.encode_iter()))
            .ok()
    }

    /// Doubles the probe table (64 entries at first) and re-seats every
    /// slot; key words stay where they are.
    fn grow(&mut self) {
        let len = (self.table.len() * 2).max(64);
        self.table = vec![
            Probe {
                tag: 0,
                slot: EMPTY
            };
            len
        ];
        for slot in 0..self.es.len() {
            let hash = hash_words(self.key(slot).iter().copied());
            let mut i = self.home(hash);
            while self.table[i].slot != EMPTY {
                i = (i + 1) & (len - 1);
            }
            self.table[i] = Probe {
                tag: hash as u32,
                slot: slot as u32,
            };
        }
    }

    /// Fixes the op shape on the first record and rejects any later
    /// config that does not match it.
    fn check_shape(&mut self, cfg: &NodeConfig) {
        let spatial = cfg.spatial_splits.len();
        let reduce = cfg.reduce_splits.len();
        let well_formed = cfg.reorder.len() == spatial
            && cfg.spatial_splits.iter().all(|f| f.len() == SPATIAL_PARTS)
            && cfg.reduce_splits.iter().all(|f| f.len() == REDUCE_PARTS);
        if self.stride == 0 && well_formed {
            self.spatial = spatial;
            self.reduce = reduce;
            self.stride = NodeConfig::encoded_len(spatial, reduce);
        }
        if !well_formed || (spatial, reduce) != (self.spatial, self.reduce) {
            panic!(
                "History holds configs of one op: expected {} spatial and {} reduce axes \
                 split {SPATIAL_PARTS}/{REDUCE_PARTS} ways (encoding length {}), got {spatial} \
                 spatial and {reduce} reduce axes encoding to {} words",
                self.spatial,
                self.reduce,
                self.stride,
                cfg.encode_iter().count()
            );
        }
    }

    /// An order-preserving 16-byte digest of `slot`'s key: the first 16
    /// words after the prefix all of `H` shares, one byte each (`w + 1`
    /// for `0 ≤ w ≤ 253`). A word outside that range clamps to byte 0 or
    /// 255 and ends the digest, so two keys that clamp alike can never be
    /// told apart — reordered — by later words. Hence `key(a) < key(b)`
    /// implies `digest(a) ≤ digest(b)`: `order` is sorted by digest too,
    /// and a binary search over `digests` finds an insertion point to
    /// within a run of equal digests before any key word is read.
    fn digest(&self, slot: usize) -> u128 {
        let mut d = 0u128;
        for (i, &w) in self.key(slot)[self.shared..].iter().take(16).enumerate() {
            let byte = (w.clamp(-1, 254) + 1) as u128;
            d |= byte << (8 * (15 - i));
            if !(1..=254).contains(&byte) {
                break;
            }
        }
        d
    }

    /// Brings `order`, `digests` and `w` up to date for `(e_star, gamma)`:
    /// merges the slots recorded since the last call into `order`, then
    /// evaluates only their weights — or every weight, when the cached
    /// ones belong to another `(E*, γ)` or an ordered point's `E` changed.
    fn refresh_weights(&mut self, e_star: f64, gamma: f64) {
        let params = (e_star.to_bits(), gamma.to_bits());
        let reweigh = self.w_stale || self.w_for != Some(params);
        let old = self.order.len();
        if old == 0 {
            self.shared = self.stride;
        }
        for s in old..self.es.len() {
            let (first, key) = (self.key(0), self.key(s));
            self.shared = (0..self.shared)
                .find(|&i| first[i] != key[i])
                .unwrap_or(self.shared);
        }
        if self.digests_shared != self.shared {
            self.digests = self
                .order
                .iter()
                .map(|&o| self.digest(o as usize))
                .collect();
            self.digests_shared = self.shared;
        }
        let mut fresh: Vec<(u128, u32)> = (old..self.es.len())
            .map(|s| (self.digest(s), s as u32))
            .collect();
        fresh.sort_unstable_by(|a, b| {
            (a.0.cmp(&b.0)).then_with(|| self.key(a.1 as usize).cmp(self.key(b.1 as usize)))
        });
        // Insertion point of each fresh slot in the current `order`: the
        // run of equal digests, then the key within it. Keys are distinct
        // and `fresh` is sorted, so the points ascend.
        let mut at = Vec::with_capacity(fresh.len());
        let mut lo = 0;
        for &(d, s) in &fresh {
            let key = self.key(s as usize);
            let run = lo + self.digests[lo..].partition_point(|&x| x < d);
            let end = run + self.digests[run..].partition_point(|&x| x == d);
            lo = run + self.order[run..end].partition_point(|&o| self.key(o as usize) < key);
            at.push(lo);
        }
        self.order.resize(old + fresh.len(), 0);
        self.digests.resize(old + fresh.len(), 0);
        self.w.resize(old + fresh.len(), 0.0);
        // Shift each run between insertion points right by the number of
        // fresh slots before it, back to front, so every entry moves once.
        let mut end = old;
        for (j, (&(d, s), &p)) in fresh.iter().zip(&at).enumerate().rev() {
            self.order.copy_within(p..end, p + j + 1);
            self.order[p + j] = s;
            self.digests.copy_within(p..end, p + j + 1);
            self.digests[p + j] = d;
            if !reweigh {
                self.w.copy_within(p..end, p + j + 1);
                self.w[p + j] = weight(gamma, e_star, self.es[s as usize]);
            }
            end = p;
        }
        if reweigh {
            for (w, &s) in self.w.iter_mut().zip(&self.order) {
                *w = weight(gamma, e_star, self.es[s as usize]);
            }
        }
        #[cfg(test)]
        {
            self.weight_evals += if reweigh {
                self.order.len()
            } else {
                fresh.len()
            };
        }
        self.w_for = Some(params);
        self.w_stale = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Space;
    use flextensor_ir::graph::Graph;
    use flextensor_ir::ops;
    use flextensor_ir::yolo::yolo_layer;
    use flextensor_schedule::config::TargetKind;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::collections::BTreeMap;

    fn cfg_with_unroll(u: bool, cache: bool) -> NodeConfig {
        let g = ops::gemm(8, 8, 8);
        let mut c = NodeConfig::naive(g.root_op());
        c.unroll = u;
        c.cache_shared = cache;
        c
    }

    #[test]
    fn best_tracks_maximum_feasible() {
        let mut h = History::new();
        h.record(cfg_with_unroll(false, false), 10.0);
        h.record(cfg_with_unroll(true, false), 30.0);
        h.record(cfg_with_unroll(false, true), 0.0); // infeasible
        let (best, e) = h.best().unwrap();
        assert_eq!(e, 30.0);
        assert!(best.unroll);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn contains_and_value() {
        let mut h = History::new();
        let c = cfg_with_unroll(true, true);
        assert!(!h.contains(&c));
        h.record(c.clone(), 5.0);
        assert!(h.contains(&c));
        assert_eq!(h.value(&c), Some(5.0));
        assert!(!h.contains(&cfg_with_unroll(false, true)));
        h.record(c.clone(), 7.0);
        assert_eq!((h.len(), h.value(&c)), (1, Some(7.0)));
    }

    #[test]
    fn sa_prefers_good_points() {
        let mut h = History::new();
        let good = cfg_with_unroll(true, false);
        let bad = cfg_with_unroll(false, false);
        h.record(good.clone(), 100.0);
        h.record(bad.clone(), 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        let mut good_count = 0;
        for _ in 0..200 {
            let s = h.select_starts(1, 4.0, &mut rng);
            if s.first() == Some(&good) {
                good_count += 1;
            }
        }
        assert!(good_count > 150, "good chosen {good_count}/200");
    }

    #[test]
    fn high_temperature_explores_bad_points_sometimes() {
        let mut h = History::new();
        let good = cfg_with_unroll(true, false);
        let bad = cfg_with_unroll(false, false);
        h.record(good, 100.0);
        h.record(bad.clone(), 10.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut bad_count = 0;
        for _ in 0..300 {
            // gamma = 0: uniform selection.
            let s = h.select_starts(1, 0.0, &mut rng);
            if s.first() == Some(&bad) {
                bad_count += 1;
            }
        }
        assert!(
            (90..=210).contains(&bad_count),
            "expected ~150, got {bad_count}"
        );
    }

    #[test]
    fn empty_history_selects_nothing() {
        let mut h = History::new();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(h.select_starts(4, 1.0, &mut rng).is_empty());
    }

    #[test]
    fn select_with_energy_matches_plain_select() {
        let mut h = History::new();
        h.record(cfg_with_unroll(true, false), 10.0);
        h.record(cfg_with_unroll(false, false), 4.0);
        h.record(cfg_with_unroll(false, true), 0.0);
        let plain = h.select_starts(6, 2.0, &mut StdRng::seed_from_u64(7));
        let with_e = h.select_starts_with_energy(6, 2.0, &mut StdRng::seed_from_u64(7));
        assert_eq!(
            plain,
            with_e.iter().map(|(c, _)| c.clone()).collect::<Vec<_>>()
        );
        for (c, e) in &with_e {
            assert_eq!(h.value(c), Some(*e));
        }
    }

    #[test]
    fn select_dedups() {
        let mut h = History::new();
        h.record(cfg_with_unroll(true, false), 10.0);
        let mut rng = StdRng::seed_from_u64(3);
        let s = h.select_starts(5, 1.0, &mut rng);
        assert_eq!(s.len(), 1);
    }

    /// The original `H`: a `BTreeMap` from encoding to point, with the
    /// selection rule computed from scratch on every call (`exp` per
    /// entry, a linear scan per draw). The oracle the cached selection is
    /// differentially tested against.
    #[derive(Default)]
    struct ScanHistory {
        entries: BTreeMap<Vec<i64>, (NodeConfig, f64)>,
        best: Option<(NodeConfig, f64)>,
    }

    impl ScanHistory {
        fn record(&mut self, cfg: NodeConfig, e: f64) {
            if self.best.as_ref().is_none_or(|(_, b)| e > *b) && e > 0.0 {
                self.best = Some((cfg.clone(), e));
            }
            self.entries.insert(cfg.encode(), (cfg, e));
        }

        fn select_starts_with_energy(
            &self,
            n: usize,
            gamma: f64,
            rng: &mut impl Rng,
        ) -> Vec<(NodeConfig, f64)> {
            let Some((_, e_star)) = self.best.as_ref().map(|(c, e)| (c, *e)) else {
                return Vec::new();
            };
            let candidates: Vec<(&NodeConfig, f64, f64)> = self
                .entries
                .values()
                .map(|(c, e)| {
                    let w = (-gamma * (e_star - e) / e_star.max(f64::MIN_POSITIVE)).exp();
                    (c, *e, w)
                })
                .collect();
            let total: f64 = candidates.iter().map(|(_, _, w)| w).sum();
            let mut out: Vec<(NodeConfig, f64)> = Vec::new();
            for _ in 0..n {
                let mut t = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
                let mut chosen = candidates.last().map(|(c, e, _)| (*c, *e));
                for (c, e, w) in &candidates {
                    if t < *w {
                        chosen = Some((c, *e));
                        break;
                    }
                    t -= w;
                }
                if let Some((c, e)) = chosen {
                    if !out.iter().any(|(o, _)| o == c) {
                        out.push((c.clone(), e));
                    }
                }
            }
            out
        }
    }

    /// Both selections, compared as `(config, E bits)` lists.
    fn select_both(
        fast: &mut History,
        scan: &ScanHistory,
        n: usize,
        gamma: f64,
        rng_fast: &mut StdRng,
        rng_scan: &mut StdRng,
    ) {
        let bits = |v: Vec<(NodeConfig, f64)>| -> Vec<(NodeConfig, u64)> {
            v.into_iter().map(|(c, e)| (c, e.to_bits())).collect()
        };
        let got = bits(fast.select_starts_with_energy(n, gamma, rng_fast));
        let want = bits(scan.select_starts_with_energy(n, gamma, rng_scan));
        assert_eq!(got, want, "n {n}, gamma {gamma}, |H| {}", fast.len());
    }

    /// A pool of distinct-ish configs of one op: random points and their
    /// neighbours.
    fn config_pool(space: &Space, rng: &mut StdRng, points: usize) -> Vec<NodeConfig> {
        let mut pool = Vec::new();
        for _ in 0..points {
            let p = space.random_point(rng);
            for &d in space.directions().iter().take(4) {
                pool.extend(space.apply(&p, d));
            }
            pool.push(p);
        }
        pool
    }

    #[test]
    fn cached_selection_matches_the_scan_draw_for_draw() {
        let graphs = [ops::gemm(64, 48, 32), yolo_layer("C6").unwrap().graph(1)];
        for (gi, g) in graphs.iter().enumerate() {
            let space = Space::new(g, TargetKind::Gpu);
            for seed in 0..6u64 {
                let mut script = StdRng::seed_from_u64(seed * 31 + gi as u64);
                let pool = config_pool(&space, &mut script, 40);
                let mut fast = History::new();
                let mut scan = ScanHistory::default();
                let mut rng_fast = StdRng::seed_from_u64(seed);
                let mut rng_scan = rng_fast.clone();
                let mut recorded: Vec<(NodeConfig, f64)> = Vec::new();
                // Empty history: nothing chosen, no RNG drawn.
                select_both(&mut fast, &scan, 4, 2.0, &mut rng_fast, &mut rng_scan);
                // A single entry.
                let first = pool[0].clone();
                fast.record(first.clone(), 1.0);
                scan.record(first.clone(), 1.0);
                recorded.push((first, 1.0));
                select_both(&mut fast, &scan, 3, 2.0, &mut rng_fast, &mut rng_scan);
                for step in 0..300usize {
                    let (cfg, e) = match script.gen_range(0..12) {
                        // A new (or coincidentally repeated) point whose
                        // values grow with the step, so E* improves
                        // mid-run; one in four is infeasible.
                        0..=6 => {
                            let cfg = pool[script.gen_range(0..pool.len())].clone();
                            let e = if script.gen_range(0..4) == 0 {
                                0.0
                            } else {
                                script.gen_range(0.0..1.0) * (1 + step) as f64
                            };
                            (cfg, e)
                        }
                        // Re-record a known point with the same E.
                        7 => recorded[script.gen_range(0..recorded.len())].clone(),
                        // Re-record a known point with a different E.
                        8 => {
                            let (cfg, e) = &recorded[script.gen_range(0..recorded.len())];
                            (cfg.clone(), e * 0.5 + 0.25)
                        }
                        _ => {
                            let gamma = [0.0, 2.0, 50.0][script.gen_range(0..3)];
                            let n = script.gen_range(0..10);
                            select_both(&mut fast, &scan, n, gamma, &mut rng_fast, &mut rng_scan);
                            continue;
                        }
                    };
                    fast.record(cfg.clone(), e);
                    scan.record(cfg.clone(), e);
                    recorded.push((cfg, e));
                    assert_eq!(fast.len(), scan.entries.len());
                    assert_eq!(
                        fast.best().map(|(c, e)| (c.clone(), e.to_bits())),
                        scan.best.as_ref().map(|(c, e)| (c.clone(), e.to_bits()))
                    );
                }
                for gamma in [0.0, 2.0, 50.0] {
                    select_both(&mut fast, &scan, 8, gamma, &mut rng_fast, &mut rng_scan);
                }
                for (cfg, _) in &recorded {
                    let want = scan.entries.get(&cfg.encode()).map(|(_, e)| e.to_bits());
                    assert_eq!(fast.value(cfg).map(f64::to_bits), want);
                }
                assert_eq!(
                    rng_fast.next_u64(),
                    rng_scan.next_u64(),
                    "RNG states diverged"
                );
            }
        }
    }

    #[test]
    fn weights_are_evaluated_only_for_new_points_while_e_star_holds() {
        let space = Space::new(&ops::gemm(64, 48, 32), TargetKind::Gpu);
        let mut script = StdRng::seed_from_u64(5);
        let mut pool = config_pool(&space, &mut script, 60);
        pool.sort_by_key(NodeConfig::encode);
        pool.dedup();
        let mut rest = pool.into_iter();
        let mut h = History::new();
        let mut rng = StdRng::seed_from_u64(6);
        h.record(rest.next().unwrap(), 100.0);
        for _ in 0..19 {
            h.record(rest.next().unwrap(), 10.0);
        }
        h.select_starts(8, 2.0, &mut rng);
        assert_eq!(h.weight_evals, 20, "first select weighs all of H");

        // E* unchanged: k new points cost exactly k evaluations.
        for k in [1, 7, 30] {
            let before = h.weight_evals;
            for _ in 0..k {
                h.record(rest.next().unwrap(), 50.0);
            }
            h.select_starts(8, 2.0, &mut rng);
            assert_eq!(h.weight_evals - before, k);
        }

        // A repeat select with no new records evaluates nothing.
        let before = h.weight_evals;
        h.select_starts(8, 2.0, &mut rng);
        assert_eq!(h.weight_evals, before);

        // Re-recording a point with the same value keeps the cache.
        let known = h.best().unwrap().0.clone();
        h.record(known, 100.0);
        h.select_starts(8, 2.0, &mut rng);
        assert_eq!(h.weight_evals, before);

        // An E* improvement re-weighs all of H, new point included.
        h.record(rest.next().unwrap(), 200.0);
        h.select_starts(8, 2.0, &mut rng);
        assert_eq!(h.weight_evals - before, h.len());

        // So does a change of gamma.
        let before = h.weight_evals;
        h.select_starts(8, 50.0, &mut rng);
        assert_eq!(h.weight_evals - before, h.len());
    }

    #[test]
    fn certified_picks_equal_the_scan_even_on_partial_sums() {
        let space = Space::new(&ops::gemm(64, 48, 32), TargetKind::Gpu);
        let mut rng = StdRng::seed_from_u64(9);
        let pool = config_pool(&space, &mut rng, 60);
        let mut h = History::new();
        for (i, c) in pool.into_iter().enumerate() {
            h.record(
                c,
                if i % 5 == 0 {
                    0.0
                } else {
                    rng.gen_range(0.0..3.0)
                },
            );
        }
        // gamma 1000 makes the infeasible points' weights exactly 0.
        for gamma in [2.0, 1000.0] {
            h.select_starts(1, gamma, &mut rng);
            let total = *h.sums.last().unwrap();
            let mut fallbacks = 0;
            for &s in &h.sums {
                for t in [s, s.next_down(), s.next_up()] {
                    match h.certified_pick(t, total) {
                        Some(i) => assert_eq!(i, h.scan_pick(t), "t {t}"),
                        None => fallbacks += 1,
                    }
                }
            }
            assert!(fallbacks > 0, "partial sums must take the exact scan");
            // A draw the scan never stops for takes the last point.
            assert_eq!(h.scan_pick(f64::INFINITY), h.w.len() - 1);
            for _ in 0..5000 {
                let t = rng.gen_range(0.0..total);
                if let Some(i) = h.certified_pick(t, total) {
                    assert_eq!(i, h.scan_pick(t), "t {t}");
                }
            }
        }
    }

    #[test]
    fn merged_order_is_key_order_even_where_digests_clamp() {
        // Words straddling the digest's byte range (negative, 253..=300)
        // behind a shared prefix: equal digests must still merge in key
        // order.
        let (ns, nr) = (2, 1);
        let len = NodeConfig::encoded_len(ns, nr);
        let vals = [-2, -1, 0, 1, 2, 253, 254, 255, 300];
        let mut rng = StdRng::seed_from_u64(13);
        let mut fast = History::new();
        let mut scan = ScanHistory::default();
        let mut rng_fast = StdRng::seed_from_u64(14);
        let mut rng_scan = rng_fast.clone();
        for _ in 0..30 {
            for _ in 0..20 {
                let words: Vec<i64> = (0..len)
                    .map(|i| {
                        if i < 3 {
                            7
                        } else {
                            vals[rng.gen_range(0..vals.len())]
                        }
                    })
                    .collect();
                let cfg = NodeConfig::from_encoding(ns, nr, &words);
                let e = rng.gen_range(0.0..1.0);
                fast.record(cfg.clone(), e);
                scan.record(cfg, e);
            }
            select_both(&mut fast, &scan, 8, 2.0, &mut rng_fast, &mut rng_scan);
        }
        let merged: Vec<&[i64]> = fast.order.iter().map(|&s| fast.key(s as usize)).collect();
        let want: Vec<&[i64]> = scan.entries.keys().map(Vec::as_slice).collect();
        assert_eq!(merged, want);
    }

    /// Every operator / target combination the round-trip test covers.
    fn round_trip_spaces() -> Vec<Space> {
        let graphs: Vec<Graph> = std::iter::once(ops::gemm(256, 128, 64))
            .chain(["C1", "C6", "C13"].map(|l| yolo_layer(l).unwrap().graph(1)))
            .collect();
        let targets = [TargetKind::Cpu, TargetKind::Gpu, TargetKind::Fpga];
        graphs
            .iter()
            .flat_map(|g| targets.map(|t| Space::new(g, t)))
            .collect()
    }

    #[test]
    fn decode_inverts_encode_on_sampled_points_and_neighbours() {
        let mut rng = StdRng::seed_from_u64(11);
        for space in round_trip_spaces() {
            let op = space.op();
            let (ns, nr) = (op.spatial.len(), op.reduce.len());
            for _ in 0..25 {
                let p = space.random_point(&mut rng);
                let neighbours = space
                    .directions()
                    .iter()
                    .filter_map(|&d| space.apply(&p, d));
                for c in std::iter::once(p.clone()).chain(neighbours) {
                    let enc = c.encode();
                    assert_eq!(c.encode_iter().collect::<Vec<_>>(), enc);
                    assert_eq!(NodeConfig::decode(op, &enc).as_ref(), Ok(&c));
                    assert_eq!(NodeConfig::from_encoding(ns, nr, &enc), c);
                }
            }
        }
    }

    #[test]
    fn history_returns_the_configs_it_recorded() {
        let mut rng = StdRng::seed_from_u64(12);
        for space in round_trip_spaces() {
            let mut h = History::new();
            let points: Vec<NodeConfig> = (0..10).map(|_| space.random_point(&mut rng)).collect();
            for (i, p) in points.iter().enumerate() {
                h.record(p.clone(), 1.0 + i as f64);
            }
            for (c, e) in h.select_starts_with_energy(16, 0.0, &mut rng) {
                assert!(
                    points.contains(&c),
                    "decoded a config that was never recorded"
                );
                assert_eq!(h.value(&c), Some(e));
            }
        }
    }

    #[test]
    #[should_panic(expected = "History holds configs of one op")]
    fn recording_another_ops_config_panics() {
        let mut h = History::new();
        h.record(cfg_with_unroll(false, false), 1.0);
        let conv = yolo_layer("C1").unwrap().graph(1);
        h.record(NodeConfig::naive(conv.root_op()), 1.0);
    }

    #[test]
    #[should_panic(expected = "encoding to 21 words")]
    fn recording_a_malformed_split_panics() {
        let mut h = History::new();
        let mut c = cfg_with_unroll(false, false);
        c.spatial_splits[0].push(1);
        h.record(c, 1.0);
    }
}
