package detect

// smoothRowAVX2 is smoothRow's loop over len(out) columns, a multiple of 8:
// column i sums cur[i], prev[i] and next[i], out[i] is the output its
// iteration writes, a and b are the column sums before the first column,
// and it returns the last two.
//
//go:noescape
func smoothRowAVX2(out, cur, prev, next []float32, a, b, inv3 float32) (float32, float32)
