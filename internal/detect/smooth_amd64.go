package detect

// smoothRowAVX2 is smoothRow's loop over the output columns [3, n-1) of an
// n-column row, n = len(cur) >= 12, every slice n long: out[x] is |s| of
// the smoothed sample s of column x, and column x's mask bit, x+maskOff, is
// set when s > t || s < -t. mask must be zero on entry; it writes no bit
// outside those columns'. It returns the column sums of columns n-2 and
// n-1, the loop's last a and b.
//
//go:noescape
func smoothRowAVX2(out, cur, prev, next []float32, mask []uint64, inv3, t float32) (float32, float32)
