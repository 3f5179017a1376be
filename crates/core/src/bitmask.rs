//! A packed 2-D bitmask.
//!
//! Bitmasks are the central bookkeeping structure of EXION: FFN-Reuse emits a
//! bitmask of "recompute" positions from the dense iteration (Fig. 6), the
//! CAU receives per-column 16-bit bitmasks (Fig. 13), and ConMerge's merging
//! operates entirely on bitmask algebra (Fig. 14).

use exion_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// A dense `rows × cols` bitmask packed into 64-bit words, row-major.
///
/// Bit convention follows the paper: `1` marks **non-sparse** data (must be
/// computed / kept), `0` marks **sparse** data (skipped / reused).
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bitmask2D {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl Bitmask2D {
    /// Creates an all-zero (all-sparse) bitmask.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64);
        Self {
            rows,
            cols,
            words_per_row,
            words: vec![0; rows * words_per_row],
        }
    }

    /// Creates an all-one (all-dense) bitmask.
    pub fn ones(rows: usize, cols: usize) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, true);
            }
        }
        m
    }

    /// Builds a bitmask from a predicate over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if f(r, c) {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    /// Builds the FFN-Reuse bitmask from a real matrix: bit = 1 where
    /// `|x| > threshold` (important, recompute every iteration), bit = 0 where
    /// `|x| <= threshold` (reused during sparse iterations).
    pub fn from_threshold(m: &Matrix, threshold: f32) -> Self {
        Self::from_fn(m.rows(), m.cols(), |r, c| m[(r, c)].abs() > threshold)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Reads bit `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(
            r < self.rows && c < self.cols,
            "bitmask index out of bounds"
        );
        let w = self.words[r * self.words_per_row + c / 64];
        (w >> (c % 64)) & 1 == 1
    }

    /// Writes bit `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        assert!(
            r < self.rows && c < self.cols,
            "bitmask index out of bounds"
        );
        let w = &mut self.words[r * self.words_per_row + c / 64];
        if value {
            *w |= 1 << (c % 64);
        } else {
            *w &= !(1 << (c % 64));
        }
    }

    /// Number of set bits in the whole mask.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of set bits in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_count_ones(&self, r: usize) -> usize {
        assert!(r < self.rows, "row out of bounds");
        self.words[r * self.words_per_row..(r + 1) * self.words_per_row]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Number of set bits in column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn col_count_ones(&self, c: usize) -> usize {
        self.col_bits(c).filter(|&bit| bit).count()
    }

    /// Whether column `c` is entirely zero — the *condensing* predicate
    /// (Fig. 8: "if every element in a column are 0, remove column").
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn col_is_zero(&self, c: usize) -> bool {
        !self.col_bits(c).any(|bit| bit)
    }

    /// Bit `c` of every row, top to bottom, read straight from the words.
    fn col_bits(&self, c: usize) -> impl Iterator<Item = bool> + '_ {
        assert!(c < self.cols, "bitmask index out of bounds");
        let (word, shift) = (c / 64, c % 64);
        (0..self.rows).map(move |r| self.words[r * self.words_per_row + word] >> shift & 1 == 1)
    }

    /// Fraction of zero bits (the paper's output-sparsity percentage).
    pub fn sparsity(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            return 0.0;
        }
        1.0 - self.count_ones() as f64 / total as f64
    }

    /// Extracts the column mask of column `c` restricted to rows
    /// `[row0, row0+height)` as a packed `u64` (bit `i` = row `row0+i`).
    ///
    /// This is exactly the per-column 16-bit bitmask the CAU receives from the
    /// DPU lanes (Fig. 13), generalized to heights up to 64.
    ///
    /// # Panics
    ///
    /// Panics if `height > 64` or the region exceeds the mask bounds.
    pub fn tile_col_mask(&self, row0: usize, height: usize, c: usize) -> u64 {
        assert!(height <= 64, "tile height above 64 unsupported");
        assert!(
            row0 + height <= self.rows && c < self.cols,
            "tile out of bounds"
        );
        let (word, shift) = (c / 64, c % 64);
        (0..height).fold(0, |m, i| {
            m | (self.words[(row0 + i) * self.words_per_row + word] >> shift & 1) << i
        })
    }

    /// Logical OR with another mask of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn or(&self, other: &Self) -> Self {
        assert_eq!(self.shape(), other.shape(), "bitmask OR shape mismatch");
        let mut out = self.clone();
        for (w, o) in out.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
        out
    }

    /// Logical AND with another mask of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn and(&self, other: &Self) -> Self {
        assert_eq!(self.shape(), other.shape(), "bitmask AND shape mismatch");
        let mut out = self.clone();
        for (w, o) in out.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
        out
    }

    /// Columns of the set bits in row `r`, ascending, read a word at a time.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_ones(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(r < self.rows, "row out of bounds");
        let words = &self.words[r * self.words_per_row..(r + 1) * self.words_per_row];
        words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    i * 64 + bit
                })
            })
        })
    }

    /// Iterator over the set-bit coordinates, row-major.
    pub fn iter_ones(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.rows).flat_map(move |r| self.row_ones(r).map(move |c| (r, c)))
    }
}

impl std::fmt::Debug for Bitmask2D {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Bitmask2D {}x{} ({} ones, sparsity {:.1}%)",
            self.rows,
            self.cols,
            self.count_ones(),
            self.sparsity() * 100.0
        )?;
        for r in 0..self.rows.min(8) {
            let bits: String = (0..self.cols.min(64))
                .map(|c| if self.get(r, c) { '1' } else { '0' })
                .collect();
            writeln!(f, "  {bits}{}", if self.cols > 64 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = Bitmask2D::zeros(4, 70);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(z.sparsity(), 1.0);
        let o = Bitmask2D::ones(4, 70);
        assert_eq!(o.count_ones(), 4 * 70);
        assert_eq!(o.sparsity(), 0.0);
    }

    #[test]
    fn set_get_across_word_boundary() {
        let mut m = Bitmask2D::zeros(2, 130);
        m.set(1, 63, true);
        m.set(1, 64, true);
        m.set(1, 129, true);
        assert!(m.get(1, 63) && m.get(1, 64) && m.get(1, 129));
        assert!(!m.get(0, 63));
        assert_eq!(m.count_ones(), 3);
        m.set(1, 64, false);
        assert!(!m.get(1, 64));
        assert_eq!(m.count_ones(), 2);
    }

    #[test]
    fn from_threshold_marks_large_values() {
        let mat = Matrix::from_vec(1, 4, vec![0.05, -0.5, 0.2, -0.05]);
        let m = Bitmask2D::from_threshold(&mat, 0.1);
        assert!(!m.get(0, 0));
        assert!(m.get(0, 1));
        assert!(m.get(0, 2));
        assert!(!m.get(0, 3));
    }

    #[test]
    fn row_and_col_counts() {
        let m = Bitmask2D::from_fn(3, 3, |r, c| r == c);
        for i in 0..3 {
            assert_eq!(m.row_count_ones(i), 1);
            assert_eq!(m.col_count_ones(i), 1);
        }
        assert!(!m.col_is_zero(0));
        let z = Bitmask2D::zeros(3, 3);
        assert!(z.col_is_zero(2));
    }

    #[test]
    fn tile_col_mask_packs_rows() {
        let m = Bitmask2D::from_fn(8, 2, |r, _| r % 2 == 0);
        // rows 2..6 of col 0: rows 2 (set), 3, 4 (set), 5 → bits 0 and 2.
        assert_eq!(m.tile_col_mask(2, 4, 0), 0b0101);
    }

    #[test]
    fn or_and() {
        let a = Bitmask2D::from_fn(2, 2, |r, _| r == 0);
        let b = Bitmask2D::from_fn(2, 2, |_, c| c == 0);
        assert_eq!(a.or(&b).count_ones(), 3);
        assert_eq!(a.and(&b).count_ones(), 1);
    }

    #[test]
    fn iter_ones_row_major() {
        let m = Bitmask2D::from_fn(2, 2, |r, c| r == c);
        let ones: Vec<_> = m.iter_ones().collect();
        assert_eq!(ones, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn row_ones_walks_set_bits_across_words() {
        let m = Bitmask2D::from_fn(5, 130, |r, c| (r * 31 + c * 7) % 5 == 0 || c == 129);
        for r in 0..5 {
            let want: Vec<usize> = (0..130).filter(|&c| m.get(r, c)).collect();
            assert_eq!(m.row_ones(r).collect::<Vec<_>>(), want, "row {r}");
        }
        assert_eq!(Bitmask2D::zeros(1, 70).row_ones(0).count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let m = Bitmask2D::zeros(2, 2);
        let _ = m.get(2, 0);
    }
}
