//! Fibers: sorted coordinate/value streams, and their intersection.
//!
//! In the terminology the paper adopts from Sze et al., a *fiber* is a
//! one-dimensional slice of a compressed tensor: a stream of
//! `(coordinate, value)` pairs with strictly increasing coordinates.
//! ExTensor's core compute primitive is the *intersection* of two coordinate
//! streams over the shared dimension, which this module implements both as a
//! lazy iterator and with explicit scan-cost accounting (the accelerator
//! model charges cycles for every coordinate scanned, not just for matches).

/// Length ratio beyond which [`Fiber::intersect_counted`] abandons the
/// linear two-finger merge for a galloping search over the longer operand.
/// Below this the merge's branch-predictable linear walk wins; above it the
/// `O(short · log long)` gallop does (the crossover sits near 8–32 on
/// current hardware, so 16 splits the difference).
pub const GALLOP_RATIO: usize = 16;

/// Where the two-finger merge's pointers stop for streams `a` and `b`:
/// the merge exhausts one stream; the other pointer has advanced past
/// every coordinate `<` the exhausted stream's last coordinate, plus one
/// more if that last coordinate matched. Together with the match count
/// this reconstructs the merge's scan cost exactly:
/// `scanned = ai_end + bi_end - matches` (each merge step advances one
/// pointer, or both on a match).
fn merge_endpoints(a: &[u32], b: &[u32]) -> (usize, usize) {
    let (a_last, b_last) = (a[a.len() - 1], b[b.len() - 1]);
    match a_last.cmp(&b_last) {
        core::cmp::Ordering::Equal => (a.len(), b.len()),
        core::cmp::Ordering::Less => {
            let below = b.partition_point(|&c| c < a_last);
            let matched = usize::from(b.get(below) == Some(&a_last));
            (a.len(), below + matched)
        }
        core::cmp::Ordering::Greater => {
            let below = a.partition_point(|&c| c < b_last);
            let matched = usize::from(a.get(below) == Some(&b_last));
            (below + matched, b.len())
        }
    }
}

/// Counts coordinates common to `short` and `long` (both strictly
/// increasing) by galloping: for each short coordinate, exponential search
/// from the previous position brackets the first long coordinate `>=` it,
/// then a binary search inside the bracket lands exactly.
fn gallop_matches(short: &[u32], long: &[u32]) -> usize {
    let mut matches = 0usize;
    let mut pos = 0usize;
    for &c in short {
        if pos >= long.len() {
            break;
        }
        // Exponential probe: find `hi` with long[hi] >= c (or the end).
        let mut step = 1usize;
        let mut lo = pos;
        let mut hi = pos;
        while hi < long.len() && long[hi] < c {
            lo = hi + 1;
            hi += step;
            step *= 2;
        }
        let hi = hi.min(long.len());
        // Binary search in [lo, hi): first index with long[i] >= c.
        pos = lo + long[lo..hi].partition_point(|&x| x < c);
        if long.get(pos) == Some(&c) {
            matches += 1;
            pos += 1;
        }
    }
    matches
}

/// A borrowed fiber: a sorted stream of `(coordinate, value)` pairs.
///
/// # Example
///
/// ```
/// use tailors_tensor::fiber::Fiber;
///
/// let a = Fiber::new(&[1, 3, 5], &[1.0, 2.0, 3.0]);
/// let b = Fiber::new(&[3, 4, 5], &[10.0, 20.0, 30.0]);
/// let matches: Vec<_> = a.intersect(&b).collect();
/// assert_eq!(matches, vec![(3, 2.0, 10.0), (5, 3.0, 30.0)]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fiber<'a> {
    coords: &'a [u32],
    vals: &'a [f64],
}

impl<'a> Fiber<'a> {
    /// Creates a fiber from parallel coordinate and value slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths. Coordinates are assumed
    /// strictly increasing (guaranteed when the fiber comes from a
    /// [`crate::CsrMatrix`] row); this is checked only in debug builds.
    pub fn new(coords: &'a [u32], vals: &'a [f64]) -> Self {
        assert_eq!(coords.len(), vals.len(), "coords and vals must be parallel");
        debug_assert!(
            coords.windows(2).all(|w| w[0] < w[1]),
            "fiber coordinates must be strictly increasing"
        );
        Fiber { coords, vals }
    }

    /// The coordinate stream.
    pub fn coords(&self) -> &'a [u32] {
        self.coords
    }

    /// The value stream.
    pub fn values(&self) -> &'a [f64] {
        self.vals
    }

    /// Number of nonzeros in the fiber.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// Whether the fiber holds no nonzeros.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Lazily intersects two fibers, yielding `(coord, self_val, other_val)`
    /// for every shared coordinate.
    pub fn intersect<'b>(&self, other: &Fiber<'b>) -> Intersect<'a, 'b> {
        Intersect {
            a: *self,
            b: Fiber {
                coords: other.coords,
                vals: other.vals,
            },
            ai: 0,
            bi: 0,
        }
    }

    /// Intersects two fibers while counting scan work, ExTensor-style.
    ///
    /// Returns `(matches, coords_scanned)`: the matching coordinate count and
    /// the total number of coordinate-stream elements the two-finger scan
    /// advanced past. The accelerator model charges intersection-unit cycles
    /// proportional to `coords_scanned`.
    ///
    /// When one operand is more than [`GALLOP_RATIO`] times longer than the
    /// other, the *implementation* switches to a galloping (exponential +
    /// binary search) walk over the longer stream — `O(short · log long)`
    /// instead of `O(short + long)`. In the balanced regime it uses the
    /// bitmask-blocked walk ([`Fiber::intersect_counted_blocked`]): both
    /// streams are consumed in 64-coordinate blocks whose membership masks
    /// are intersected with one `AND` + popcount, replacing the merge's
    /// per-coordinate unpredictable branch. Either way the *reported*
    /// counts are exactly what the linear two-finger scan would report
    /// (the model charges for the hardware's scan, not the software
    /// shortcut). All paths are public —
    /// [`Fiber::intersect_counted_linear`],
    /// [`Fiber::intersect_counted_blocked`], and
    /// [`Fiber::intersect_counted_galloping`] each always use one
    /// strategy — and the property tests pin them to identical results.
    pub fn intersect_counted(&self, other: &Fiber<'_>) -> (usize, usize) {
        let (short, long) = if self.len() <= other.len() {
            (self.len(), other.len())
        } else {
            (other.len(), self.len())
        };
        if long > short.saturating_mul(GALLOP_RATIO) {
            self.intersect_counted_galloping(other)
        } else {
            self.intersect_counted_blocked(other)
        }
    }

    /// [`Fiber::intersect_counted`] by the scalar two-finger merge,
    /// unconditionally. This is the cost model's definition of `scanned`
    /// and the baseline the `intersect` benchmarks compare the galloping
    /// path against.
    pub fn intersect_counted_linear(&self, other: &Fiber<'_>) -> (usize, usize) {
        let (mut ai, mut bi) = (0usize, 0usize);
        let (mut matches, mut scanned) = (0usize, 0usize);
        while ai < self.coords.len() && bi < other.coords.len() {
            scanned += 1;
            match self.coords[ai].cmp(&other.coords[bi]) {
                core::cmp::Ordering::Equal => {
                    matches += 1;
                    ai += 1;
                    bi += 1;
                }
                core::cmp::Ordering::Less => ai += 1,
                core::cmp::Ordering::Greater => bi += 1,
            }
        }
        (matches, scanned)
    }

    /// [`Fiber::intersect_counted`] by galloping search over the longer
    /// operand, unconditionally. Returns exactly what
    /// [`Fiber::intersect_counted_linear`] returns: `matches` is the true
    /// intersection size, and `scanned` is reconstructed in O(log) time
    /// from where the two-finger merge's pointers would have stopped
    /// (`scanned = ai_end + bi_end − matches`, with the non-exhausted
    /// pointer's final position given by a rank query against the other
    /// stream's last coordinate).
    pub fn intersect_counted_galloping(&self, other: &Fiber<'_>) -> (usize, usize) {
        let (a, b) = (self.coords, other.coords);
        if a.is_empty() || b.is_empty() {
            return (0, 0);
        }
        let matches = if a.len() <= b.len() {
            gallop_matches(a, b)
        } else {
            gallop_matches(b, a)
        };
        let (ai_end, bi_end) = merge_endpoints(a, b);
        (matches, ai_end + bi_end - matches)
    }

    /// [`Fiber::intersect_counted`] by the balanced-regime blocked walk.
    ///
    /// Dispatches once per process (see [`crate::simd::active_level`])
    /// between the AVX2 rotation-compare merge in [`crate::simd`] and the
    /// portable scalar superblock walk ([`Fiber::intersect_counted_blocked_scalar`]),
    /// which also serves non-x86_64 targets and the `TAILORS_SIMD=off`
    /// override. Dispatch is bit-invisible: every kernel produces the
    /// exact match count, and `scanned` is always reconstructed through
    /// the same `merge_endpoints` rank query, so the returned pair
    /// never depends on which kernel ran (the property tests pin both
    /// paths to [`Fiber::intersect_counted_linear`]).
    pub fn intersect_counted_blocked(&self, other: &Fiber<'_>) -> (usize, usize) {
        let (a, b) = (self.coords, other.coords);
        if a.is_empty() || b.is_empty() {
            return (0, 0);
        }
        match crate::simd::intersect_matches(a, b) {
            None => self.intersect_counted_blocked_scalar(other),
            Some(matches) => {
                let (ai_end, bi_end) = merge_endpoints(a, b);
                (matches, ai_end + bi_end - matches)
            }
        }
    }

    /// The portable scalar blocked walk,
    /// unconditionally: coordinates are grouped into 256-wide superblocks
    /// (`coord >> 8`, four `u64` occupancy words); for each superblock
    /// both streams touch, a `[u64; 4]` membership mask is built per
    /// stream with shift/OR (one branch-predictable pass per stream, the
    /// word picked by two middle coordinate bits) and the match count is
    /// four independent `AND` + popcounts — wide enough for the compiler
    /// to keep the reductions in flight, and a 4× coarser outer loop than
    /// the original one-word walk. Superblocks only one stream touches
    /// are skipped whole.
    ///
    /// Returns exactly what [`Fiber::intersect_counted_linear`] returns:
    /// `matches` is the true intersection size, and `scanned` is
    /// reconstructed from where the two-finger merge's pointers would
    /// have stopped (`scanned = ai_end + bi_end − matches`). This is
    /// the SIMD dispatch's fallback and the fixed baseline the
    /// `blocked_10k_x_10k` bench row measures regardless of what
    /// [`Fiber::intersect_counted_blocked`] dispatches to.
    pub fn intersect_counted_blocked_scalar(&self, other: &Fiber<'_>) -> (usize, usize) {
        let (a, b) = (self.coords, other.coords);
        if a.is_empty() || b.is_empty() {
            return (0, 0);
        }
        let (mut ai, mut bi) = (0usize, 0usize);
        let mut matches = 0usize;
        while ai < a.len() && bi < b.len() {
            let sa = a[ai] >> 8;
            let sb = b[bi] >> 8;
            if sa < sb {
                ai += 1;
                while ai < a.len() && a[ai] >> 8 < sb {
                    ai += 1;
                }
            } else if sb < sa {
                bi += 1;
                while bi < b.len() && b[bi] >> 8 < sa {
                    bi += 1;
                }
            } else {
                let mut mask_a = [0u64; 4];
                while ai < a.len() && a[ai] >> 8 == sa {
                    let c = a[ai];
                    mask_a[((c >> 6) & 3) as usize] |= 1u64 << (c & 63);
                    ai += 1;
                }
                let mut mask_b = [0u64; 4];
                while bi < b.len() && b[bi] >> 8 == sa {
                    let c = b[bi];
                    mask_b[((c >> 6) & 3) as usize] |= 1u64 << (c & 63);
                    bi += 1;
                }
                matches += (mask_a[0] & mask_b[0]).count_ones() as usize
                    + (mask_a[1] & mask_b[1]).count_ones() as usize
                    + (mask_a[2] & mask_b[2]).count_ones() as usize
                    + (mask_a[3] & mask_b[3]).count_ones() as usize;
            }
        }
        let (ai_end, bi_end) = merge_endpoints(a, b);
        (matches, ai_end + bi_end - matches)
    }

    /// Dot product of two fibers (sum over the intersection).
    pub fn dot(&self, other: &Fiber<'_>) -> f64 {
        self.intersect(other).map(|(_, a, b)| a * b).sum()
    }
}

/// Iterator over the intersection of two fibers.
///
/// Produced by [`Fiber::intersect`].
#[derive(Debug, Clone)]
pub struct Intersect<'a, 'b> {
    a: Fiber<'a>,
    b: Fiber<'b>,
    ai: usize,
    bi: usize,
}

impl Iterator for Intersect<'_, '_> {
    type Item = (u32, f64, f64);

    fn next(&mut self) -> Option<Self::Item> {
        while self.ai < self.a.len() && self.bi < self.b.len() {
            let (ca, cb) = (self.a.coords[self.ai], self.b.coords[self.bi]);
            match ca.cmp(&cb) {
                core::cmp::Ordering::Equal => {
                    let out = (ca, self.a.vals[self.ai], self.b.vals[self.bi]);
                    self.ai += 1;
                    self.bi += 1;
                    return Some(out);
                }
                core::cmp::Ordering::Less => self.ai += 1,
                core::cmp::Ordering::Greater => self.bi += 1,
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_finds_shared_coords() {
        let a = Fiber::new(&[0, 2, 4, 6], &[1.0, 2.0, 3.0, 4.0]);
        let b = Fiber::new(&[2, 3, 6], &[5.0, 6.0, 7.0]);
        let out: Vec<_> = a.intersect(&b).collect();
        assert_eq!(out, vec![(2, 2.0, 5.0), (6, 4.0, 7.0)]);
    }

    #[test]
    fn intersect_empty_is_empty() {
        let a = Fiber::new(&[], &[]);
        let b = Fiber::new(&[1], &[1.0]);
        assert_eq!(a.intersect(&b).count(), 0);
        assert_eq!(b.intersect(&a).count(), 0);
        assert!(a.is_empty());
    }

    #[test]
    fn intersect_disjoint_scans_everything() {
        let a = Fiber::new(&[0, 1, 2], &[1.0; 3]);
        let b = Fiber::new(&[10, 11], &[1.0; 2]);
        let (matches, scanned) = a.intersect_counted(&b);
        assert_eq!(matches, 0);
        // The two-finger scan advances through all of `a` before exhausting.
        assert_eq!(scanned, 3);
    }

    #[test]
    fn intersect_counted_matches_iterator() {
        let a = Fiber::new(&[1, 4, 9, 16], &[1.0; 4]);
        let b = Fiber::new(&[2, 4, 8, 16], &[1.0; 4]);
        let (matches, _) = a.intersect_counted(&b);
        assert_eq!(matches, a.intersect(&b).count());
    }

    /// Exhaustive small-case cross-check: both counting strategies agree
    /// with each other (and with the lazy iterator) on every structural
    /// corner — empty operands, disjoint ranges, full overlap, shared
    /// endpoints, extreme length ratios in both argument orders.
    #[test]
    fn galloping_equals_linear_on_corner_cases() {
        let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![], vec![]),
            (vec![], vec![1, 2, 3]),
            (vec![5], (0..100).collect()),
            (vec![100], (0..100).collect()),
            (vec![99], (0..100).collect()),
            (vec![0], (0..100).collect()),
            ((0..100).collect(), vec![50]),
            (vec![3, 50, 99], (0..100).collect()),
            (vec![7, 8, 9], (10..200).collect()),
            ((10..200).collect(), vec![7, 8, 9]),
            ((0..50).map(|i| i * 2).collect(), (0..1000).collect()),
            (vec![1, 2, 3], vec![1, 2, 3]),
        ];
        for (ca, cb) in &cases {
            let va = vec![1.0; ca.len()];
            let vb = vec![1.0; cb.len()];
            let a = Fiber::new(ca, &va);
            let b = Fiber::new(cb, &vb);
            let lin = a.intersect_counted_linear(&b);
            let gal = a.intersect_counted_galloping(&b);
            let blk = a.intersect_counted_blocked(&b);
            let scl = a.intersect_counted_blocked_scalar(&b);
            let auto = a.intersect_counted(&b);
            assert_eq!(gal, lin, "a={ca:?} b={cb:?}");
            assert_eq!(blk, lin, "a={ca:?} b={cb:?}");
            assert_eq!(scl, lin, "a={ca:?} b={cb:?}");
            assert_eq!(auto, lin, "a={ca:?} b={cb:?}");
            assert_eq!(lin.0, a.intersect(&b).count(), "a={ca:?} b={cb:?}");
        }
    }

    /// Word-boundary structure the blocked walk is sensitive to: shared
    /// and disjoint bits inside one word, runs crossing word boundaries,
    /// words only one stream touches, and coordinates at bit 0 / bit 63.
    #[test]
    fn blocked_handles_word_boundaries() {
        let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![0, 63, 64, 127, 128], vec![63, 64, 128]),
            (vec![0, 1, 2, 3], vec![4, 5, 6, 7]), // same word, disjoint
            (vec![62, 63], vec![64, 65]),         // adjacent words
            ((0..64).collect(), (0..64).collect()), // one full word
            ((0..256).collect(), (64..128).collect()), // word subset
            (vec![5, 200, 4000], vec![200, 4000, 100_000]), // sparse far words
        ];
        for (ca, cb) in &cases {
            let va = vec![1.0; ca.len()];
            let vb = vec![1.0; cb.len()];
            let a = Fiber::new(ca, &va);
            let b = Fiber::new(cb, &vb);
            assert_eq!(
                a.intersect_counted_blocked(&b),
                a.intersect_counted_linear(&b),
                "a={ca:?} b={cb:?}"
            );
            assert_eq!(
                b.intersect_counted_blocked(&a),
                b.intersect_counted_linear(&a),
                "swapped a={ca:?} b={cb:?}"
            );
            assert_eq!(
                a.intersect_counted_blocked_scalar(&b),
                a.intersect_counted_linear(&b),
                "scalar a={ca:?} b={cb:?}"
            );
            assert_eq!(
                b.intersect_counted_blocked_scalar(&a),
                b.intersect_counted_linear(&a),
                "scalar swapped a={ca:?} b={cb:?}"
            );
        }
    }

    #[test]
    fn dispatch_uses_galloping_only_past_the_ratio() {
        // 10 vs 100: ratio 10 < 16, uses the blocked walk; 10 vs 1000:
        // gallops. All strategies must report the same counts, so this
        // only pins the public contract that results never depend on the
        // strategy.
        let short: Vec<u32> = (0..10).map(|i| i * 7).collect();
        let long: Vec<u32> = (0..1000).collect();
        let vs = vec![1.0; short.len()];
        let vl = vec![1.0; long.len()];
        let s = Fiber::new(&short, &vs);
        let l = Fiber::new(&long, &vl);
        assert_eq!(s.intersect_counted(&l), s.intersect_counted_linear(&l));
        assert_eq!(l.intersect_counted(&s), l.intersect_counted_linear(&s));
    }

    #[test]
    fn dot_product() {
        let a = Fiber::new(&[1, 3], &[2.0, 3.0]);
        let b = Fiber::new(&[3, 5], &[4.0, 5.0]);
        assert_eq!(a.dot(&b), 12.0);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn mismatched_slices_panic() {
        let _ = Fiber::new(&[1, 2], &[1.0]);
    }
}
