//! The TAGE branch predictor (Table 1: "TAGE (4KB, 5 tables)", after
//! Seznec & Michaud).
//!
//! A base bimodal table backs a set of tagged tables indexed by
//! geometrically growing global-history lengths; the longest-history
//! tagged hit provides the prediction, and allocation on mispredictions
//! migrates hard branches to longer histories.

/// Geometry of the TAGE predictor.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TageConfig {
    /// Entries in the base bimodal table.
    pub base_entries: usize,
    /// Per tagged table: `(history_bits, entries, tag_bits)`.
    pub tagged: Vec<(u32, usize, u32)>,
    /// Pipeline refill penalty on a misprediction, in cycles (Table 1:
    /// 14-stage minimum).
    pub mispredict_penalty: u64,
}

impl TageConfig {
    /// The paper's 4 KB, 5-table configuration: a 2-bit bimodal base plus
    /// four tagged tables on a geometric history series (5, 15, 44, 130),
    /// sized to ~4 KB of state total.
    pub fn penryn_4kb() -> TageConfig {
        TageConfig {
            base_entries: 4096, // 4096 x 2b = 1 KB
            tagged: vec![
                (5, 1024, 8), // ~1.4 KB across the
                (15, 512, 9), //  four tagged tables
                (44, 512, 10),
                (130, 256, 11),
            ],
            mispredict_penalty: 14,
        }
    }

    /// Validates the geometry.
    ///
    /// # Panics
    ///
    /// Panics if any table is empty, not a power of two, or history lengths
    /// are not strictly increasing.
    pub fn validate(&self) {
        assert!(
            self.base_entries.is_power_of_two() && self.base_entries > 0,
            "base table size"
        );
        let mut prev = 0;
        for &(hist, entries, tag) in &self.tagged {
            assert!(hist > prev, "history lengths must strictly increase");
            assert!(
                entries.is_power_of_two() && entries > 0,
                "tagged table size"
            );
            assert!(tag > 0 && tag <= 16, "tag width");
            prev = hist;
        }
    }
}

impl Default for TageConfig {
    fn default() -> Self {
        TageConfig::penryn_4kb()
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct TaggedEntry {
    tag: u16,
    /// 3-bit signed counter, taken when >= 0 is encoded as value >= 4.
    counter: u8,
    useful: u8,
}

/// An incrementally maintained XOR-fold of the global history: the value
/// equals folding the low `hist_bits` bits of the history register down to
/// `out_bits` by XOR, but each history shift updates it in O(1) (a rotate,
/// the incoming bit, and the outgoing bit re-injected at `hist_bits %
/// out_bits`) instead of re-walking the whole register. This is the
/// classic TAGE circular-shift-register construction; equivalence with the
/// direct fold is asserted by `incremental_fold_matches_direct`.
#[derive(Clone, Copy, Debug)]
struct FoldedHistory {
    value: u64,
    out_bits: u32,
    hist_bits: u32,
}

impl FoldedHistory {
    fn new(hist_bits: u32, out_bits: u32) -> FoldedHistory {
        FoldedHistory {
            value: 0,
            out_bits,
            hist_bits,
        }
    }

    /// Advances the fold for a history shift that inserts `inbit` at bit 0
    /// and drops `outbit` (bit `hist_bits - 1` of the pre-shift history).
    #[inline]
    fn push(&mut self, inbit: bool, outbit: bool) {
        let b = self.out_bits;
        let mask = (1u64 << b) - 1;
        let rotated = ((self.value << 1) | (self.value >> (b - 1))) & mask;
        self.value = rotated ^ u64::from(inbit) ^ (u64::from(outbit) << (self.hist_bits % b));
    }
}

/// The predictor state.
#[derive(Clone, Debug)]
pub struct Tage {
    config: TageConfig,
    base: Vec<u8>,
    tables: Vec<Vec<TaggedEntry>>,
    history: u128,
    /// Per tagged table: the folded history feeding its index hash.
    folded_index: Vec<FoldedHistory>,
    /// Per tagged table: the folded history feeding its tag hash.
    folded_tag: Vec<FoldedHistory>,
    // Statistics.
    predictions: u64,
    mispredictions: u64,
}

/// Which component provided a prediction (needed for the update).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// The predicted direction.
    pub taken: bool,
    /// Index of the providing tagged table, or `None` for the base table.
    provider: Option<usize>,
}

impl Tage {
    /// Creates a predictor.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`TageConfig::validate`]).
    pub fn new(config: TageConfig) -> Self {
        config.validate();
        // The direct fold masks history to at most 127 bits (the register
        // is a u128 shifted once per branch), so the incremental registers
        // use the same effective length.
        let folded_index = config
            .tagged
            .iter()
            .map(|&(hist, entries, _)| {
                FoldedHistory::new(hist.min(127), (entries.trailing_zeros()).max(1))
            })
            .collect();
        let folded_tag = config
            .tagged
            .iter()
            .map(|&(hist, _, tag_bits)| FoldedHistory::new(hist.min(127), tag_bits.max(1)))
            .collect();
        Tage {
            base: vec![1; config.base_entries], // weakly not-taken
            tables: config
                .tagged
                .iter()
                .map(|&(_, n, _)| vec![TaggedEntry::default(); n])
                .collect(),
            config,
            history: 0,
            folded_index,
            folded_tag,
            predictions: 0,
            mispredictions: 0,
        }
    }

    /// Folds `bits` of global history down to `out_bits` by XOR, walking
    /// the whole register. The hot path reads the incrementally maintained
    /// [`FoldedHistory`] registers instead; this direct version remains as
    /// the equivalence oracle for them.
    #[cfg(test)]
    fn fold_history(&self, bits: u32, out_bits: u32) -> u64 {
        let mut h = self.history & ((1u128 << bits.min(127)) - 1);
        let mut folded: u64 = 0;
        while h != 0 {
            folded ^= (h as u64) & ((1u64 << out_bits) - 1);
            h >>= out_bits;
        }
        folded
    }

    #[inline]
    fn tagged_index(&self, table: usize, pc: u64) -> (usize, u16) {
        let (_, entries, tag_bits) = self.config.tagged[table];
        let folded = self.folded_index[table].value;
        let index = ((pc >> 2) ^ (pc >> 7) ^ folded) as usize & (entries - 1);
        let tag_fold = self.folded_tag[table].value;
        let tag = (((pc >> 2) ^ (pc >> 11) ^ (tag_fold << 1)) & ((1 << tag_bits) - 1)) as u16;
        (index, tag)
    }

    fn base_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.config.base_entries - 1)
    }

    /// Shifts the resolved outcome into the global history, advancing every
    /// folded register in lockstep.
    fn push_history(&mut self, taken: bool) {
        for table in 0..self.folded_index.len() {
            let h_eff = self.folded_index[table].hist_bits;
            let outbit = (self.history >> (h_eff - 1)) & 1 == 1;
            self.folded_index[table].push(taken, outbit);
            self.folded_tag[table].push(taken, outbit);
        }
        self.history = (self.history << 1) | u128::from(taken);
    }

    /// The prediction walk without statistics: longest matching tagged
    /// table wins, the bimodal base backs everything.
    fn predict_quiet(&self, pc: u64) -> Prediction {
        for table in (0..self.tables.len()).rev() {
            let (index, tag) = self.tagged_index(table, pc);
            let e = &self.tables[table][index];
            if e.tag == tag && e.useful != u8::MAX {
                return Prediction {
                    taken: e.counter >= 4,
                    provider: Some(table),
                };
            }
        }
        Prediction {
            taken: self.base[self.base_index(pc)] >= 2,
            provider: None,
        }
    }

    /// The update walk without statistics: trains the provider, allocates
    /// on a misprediction, shifts the history. Returns whether the
    /// prediction was wrong.
    fn update_quiet(&mut self, pc: u64, prediction: Prediction, taken: bool) -> bool {
        let mispredicted = prediction.taken != taken;
        match prediction.provider {
            Some(table) => {
                let (index, tag) = self.tagged_index(table, pc);
                let e = &mut self.tables[table][index];
                if e.tag == tag {
                    e.counter = bump3(e.counter, taken);
                    if !mispredicted {
                        e.useful = e.useful.saturating_add(1).min(3);
                    } else if e.useful > 0 {
                        e.useful -= 1;
                    }
                }
            }
            None => {
                let i = self.base_index(pc);
                self.base[i] = bump2(self.base[i], taken);
            }
        }
        // On a misprediction, allocate in a longer-history table so the
        // branch can be captured with more context.
        if mispredicted {
            let start = prediction.provider.map_or(0, |t| t + 1);
            for table in start..self.tables.len() {
                let (index, tag) = self.tagged_index(table, pc);
                let e = &mut self.tables[table][index];
                if e.useful == 0 {
                    *e = TaggedEntry {
                        tag,
                        counter: if taken { 4 } else { 3 },
                        useful: 0,
                    };
                    break;
                }
                // Age the blocker so allocation eventually succeeds.
                e.useful -= 1;
            }
        }
        self.push_history(taken);
        mispredicted
    }

    /// Predicts the direction of the branch at `pc`.
    pub fn predict(&mut self, pc: u64) -> Prediction {
        self.predictions += 1;
        self.predict_quiet(pc)
    }

    /// Updates the predictor with the resolved outcome. Returns whether the
    /// earlier prediction was wrong.
    pub fn update(&mut self, pc: u64, prediction: Prediction, taken: bool) -> bool {
        let mispredicted = prediction.taken != taken;
        if mispredicted {
            self.mispredictions += 1;
        }
        self.update_quiet(pc, prediction, taken)
    }

    /// Runs one branch through the predictor — predict, train, history
    /// shift — without touching the prediction counters. The batched front
    /// end resolves whole blocks of branches ahead of issue with this, then
    /// charges statistics per *issued* branch via
    /// [`note_outcome`](Tage::note_outcome), so counts stay identical to
    /// the per-µop path no matter how far the block cursor has run ahead.
    pub fn process(&mut self, pc: u64, taken: bool) -> bool {
        let prediction = self.predict_quiet(pc);
        self.update_quiet(pc, prediction, taken)
    }

    /// Charges the statistics for one consumed branch outcome previously
    /// computed by [`process`](Tage::process).
    pub fn note_outcome(&mut self, mispredicted: bool) {
        self.predictions += 1;
        if mispredicted {
            self.mispredictions += 1;
        }
    }

    /// Refill penalty charged per misprediction.
    pub const fn penalty(&self) -> u64 {
        self.config.mispredict_penalty
    }

    /// Branches predicted so far.
    pub const fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Branches mispredicted so far.
    pub const fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Mispredictions per kilo-prediction so far.
    pub fn mpki(&self) -> Option<f64> {
        (self.predictions > 0)
            .then(|| self.mispredictions as f64 / self.predictions as f64 * 1000.0)
    }
}

fn bump2(counter: u8, up: bool) -> u8 {
    if up {
        (counter + 1).min(3)
    } else {
        counter.saturating_sub(1)
    }
}

fn bump3(counter: u8, up: bool) -> u8 {
    if up {
        (counter + 1).min(7)
    } else {
        counter.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train(tage: &mut Tage, pc: u64, outcomes: &[bool]) -> u64 {
        let mut wrong = 0;
        for &taken in outcomes {
            let p = tage.predict(pc);
            if tage.update(pc, p, taken) {
                wrong += 1;
            }
        }
        wrong
    }

    #[test]
    fn learns_strongly_biased_branches() {
        let mut tage = Tage::new(TageConfig::penryn_4kb());
        let outcomes = vec![true; 200];
        let wrong = train(&mut tage, 0x400, &outcomes);
        assert!(
            wrong <= 3,
            "always-taken should be learned quickly: {wrong} wrong"
        );
    }

    #[test]
    fn learns_periodic_patterns_through_history() {
        // taken,taken,taken,not — a loop of trip count 4. A bimodal
        // predictor mispredicts every 4th; TAGE's history tables learn it.
        let mut tage = Tage::new(TageConfig::penryn_4kb());
        let outcomes: Vec<bool> = (0..2000).map(|i| i % 4 != 3).collect();
        let early = train(&mut tage, 0x500, &outcomes[..1000]);
        let late = train(&mut tage, 0x500, &outcomes[1000..]);
        assert!(
            late * 2 < early.max(1) * 2,
            "accuracy must improve with training"
        );
        assert!(
            late < 60,
            "a period-4 loop should be nearly perfect after warmup: {late} wrong in 1000"
        );
    }

    #[test]
    fn random_branches_stay_hard() {
        let mut tage = Tage::new(TageConfig::penryn_4kb());
        // A fixed sequence with full avalanche mixing (splitmix64 finalizer)
        // — statistically random, unlike simple multiplicative patterns
        // which TAGE's history tables can actually learn.
        let outcomes: Vec<bool> = (0u64..1000)
            .map(|i| {
                let mut x = i;
                x ^= x >> 30;
                x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x ^= x >> 27;
                x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
                x ^= x >> 31;
                x & 1 == 1
            })
            .collect();
        let wrong = train(&mut tage, 0x600, &outcomes);
        assert!(
            wrong > 200,
            "near-random outcomes cannot be predicted: {wrong}"
        );
    }

    #[test]
    fn distinct_pcs_do_not_destroy_each_other() {
        let mut tage = Tage::new(TageConfig::penryn_4kb());
        for _ in 0..300 {
            let p = tage.predict(0x700);
            tage.update(0x700, p, true);
            let p = tage.predict(0x704);
            tage.update(0x704, p, false);
        }
        let p1 = tage.predict(0x700);
        let p2 = tage.predict(0x704);
        assert!(p1.taken);
        assert!(!p2.taken);
    }

    #[test]
    fn stats_track_rates() {
        let mut tage = Tage::new(TageConfig::penryn_4kb());
        train(&mut tage, 0x800, &[true, true, false, true]);
        assert_eq!(tage.predictions(), 4);
        assert!(tage.mpki().unwrap() > 0.0);
        assert_eq!(tage.penalty(), 14);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn bad_geometry_rejected() {
        let mut cfg = TageConfig::penryn_4kb();
        cfg.tagged[1].0 = 2;
        let _ = Tage::new(cfg);
    }

    #[test]
    fn incremental_fold_matches_direct() {
        // The O(1) circular-shift registers must track the direct
        // XOR-fold of the history at every step of a long, irregular
        // branch sequence — including after the history saturates its
        // 127-bit window.
        let mut tage = Tage::new(TageConfig::penryn_4kb());
        for i in 0u64..600 {
            let mut x = i;
            x ^= x >> 33;
            x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
            x ^= x >> 33;
            let p = tage.predict(0x900 + (x % 7) * 4);
            tage.update(0x900 + (x % 7) * 4, p, x & 2 == 2);
            for (t, &(hist, entries, tag_bits)) in tage.config.tagged.iter().enumerate() {
                let index_bits = entries.trailing_zeros().max(1);
                assert_eq!(
                    tage.folded_index[t].value,
                    tage.fold_history(hist, index_bits),
                    "index fold diverged at step {i}, table {t}"
                );
                assert_eq!(
                    tage.folded_tag[t].value,
                    tage.fold_history(hist, tag_bits.max(1)),
                    "tag fold diverged at step {i}, table {t}"
                );
            }
        }
    }

    #[test]
    fn process_matches_predict_update_bit_identically() {
        // The quiet batched path must leave the predictor in exactly the
        // state the counted path would, and report the same outcomes.
        let mut counted = Tage::new(TageConfig::penryn_4kb());
        let mut quiet = Tage::new(TageConfig::penryn_4kb());
        for i in 0u64..500 {
            let pc = 0xa00 + (i % 5) * 4;
            let taken = (i * 7) % 3 != 0;
            let p = counted.predict(pc);
            let wrong_counted = counted.update(pc, p, taken);
            let wrong_quiet = quiet.process(pc, taken);
            quiet.note_outcome(wrong_quiet);
            assert_eq!(wrong_counted, wrong_quiet, "outcome diverged at step {i}");
        }
        assert_eq!(counted.history, quiet.history);
        assert_eq!(counted.base, quiet.base);
        assert_eq!(counted.predictions, quiet.predictions);
        assert_eq!(counted.mispredictions, quiet.mispredictions);
        for t in 0..counted.tables.len() {
            assert_eq!(counted.tables[t], quiet.tables[t], "table {t} diverged");
        }
    }
}
