package raster

import (
	"bytes"
	"image"
	"image/png"
	"math"
	"testing"
)

// clone, fill, mean and boxBlur are the tests' whole-image helpers; the
// product works in place on scratch images and needs none of them.
func clone(m *Image) *Image {
	return &Image{W: m.W, H: m.H, Pix: append([]float32(nil), m.Pix...)}
}

func fill(m *Image, v float32) {
	for i := range m.Pix {
		m.Pix[i] = clamp01(v)
	}
}

func mean(m *Image) float64 {
	var sum float64
	for _, v := range m.Pix {
		sum += float64(v)
	}
	return sum / float64(len(m.Pix))
}

func boxBlur(src *Image, r int) *Image {
	dst := New(src.W, src.H)
	BoxBlurInto(dst, src, r)
	return dst
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 5) did not panic")
		}
	}()
	New(0, 5)
}

func TestAtSetBounds(t *testing.T) {
	m := New(4, 3)
	m.Set(1, 2, 0.5)
	if got := m.At(1, 2); got != 0.5 {
		t.Fatalf("At = %v", got)
	}
	if got := m.At(-1, 0); got != 0 {
		t.Fatalf("out-of-bounds At = %v", got)
	}
	if got := m.At(4, 0); got != 0 {
		t.Fatalf("out-of-bounds At = %v", got)
	}
	m.Set(99, 99, 1) // must not panic
	m.Set(0, 0, 2)
	if got := m.At(0, 0); got != 1 {
		t.Fatalf("Set did not clamp: %v", got)
	}
	m.Set(0, 0, -1)
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("Set did not clamp negative: %v", got)
	}
}

func TestRectOps(t *testing.T) {
	a := RectWH(0, 0, 10, 10)
	b := RectWH(5, 5, 10, 10)
	inter := a.Intersect(b)
	if inter.W() != 5 || inter.H() != 5 || inter.Area() != 25 {
		t.Fatalf("Intersect = %+v", inter)
	}
	u := a.Union(b)
	if u.MinX != 0 || u.MaxX != 15 || u.MinY != 0 || u.MaxY != 15 {
		t.Fatalf("Union = %+v", u)
	}
	if got := a.IoU(b); math.Abs(got-25.0/175.0) > 1e-12 {
		t.Fatalf("IoU = %v", got)
	}
	if got := a.IoU(RectWH(20, 20, 5, 5)); got != 0 {
		t.Fatalf("disjoint IoU = %v", got)
	}
	if got := a.IoU(a); got != 1 {
		t.Fatalf("self IoU = %v", got)
	}
}

func TestRectEmptyBehaviour(t *testing.T) {
	empty := Rect{}
	if !empty.Empty() || empty.Area() != 0 {
		t.Fatal("zero Rect should be empty")
	}
	a := RectWH(1, 1, 3, 3)
	if got := a.Union(empty); got != a {
		t.Fatalf("union with empty = %+v", got)
	}
	if got := empty.Union(a); got != a {
		t.Fatalf("empty union = %+v", got)
	}
	disjoint := a.Intersect(RectWH(10, 10, 2, 2))
	if !disjoint.Empty() {
		t.Fatalf("disjoint intersect not empty: %+v", disjoint)
	}
}

func TestRectCenter(t *testing.T) {
	cx, cy := RectWH(0, 0, 4, 2).Center()
	if cx != 2 || cy != 1 {
		t.Fatalf("Center = (%v, %v)", cx, cy)
	}
}

func TestFillRectRespectsBounds(t *testing.T) {
	m := New(4, 4)
	m.FillRect(RectWH(-2, -2, 10, 10), 0.7)
	for i, v := range m.Pix {
		if v != 0.7 {
			t.Fatalf("pixel %d = %v after clipped fill", i, v)
		}
	}
}

func TestFillEllipseCoverage(t *testing.T) {
	m := New(40, 40)
	m.FillEllipse(RectWH(10, 10, 20, 20), 1)
	// Center must be painted, corners of the bounding box must not.
	if m.At(20, 20) != 1 {
		t.Fatal("ellipse center not painted")
	}
	if m.At(10, 10) != 0 || m.At(29, 29) != 0 {
		t.Fatal("ellipse painted its bounding-box corners")
	}
	// Painted area should approximate pi*r^2.
	var painted float64
	for _, v := range m.Pix {
		painted += float64(v)
	}
	want := math.Pi * 10 * 10
	if math.Abs(painted-want)/want > 0.12 {
		t.Fatalf("ellipse area = %v, want ~%v", painted, want)
	}
}

func TestGradientV(t *testing.T) {
	m := New(3, 10)
	m.GradientV(0, 1)
	if m.At(0, 0) >= m.At(0, 9) {
		t.Fatal("gradient not increasing downward")
	}
	prev := float32(-1)
	for y := 0; y < 10; y++ {
		v := m.At(1, y)
		if v < prev {
			t.Fatalf("gradient not monotone at y=%d", y)
		}
		prev = v
	}
}

func TestTextureDeterministic(t *testing.T) {
	a := New(16, 16)
	fill(a, 0.5)
	a.Texture(123, 0.1)
	b := New(16, 16)
	fill(b, 0.5)
	b.Texture(123, 0.1)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("texture not deterministic")
		}
	}
	c := New(16, 16)
	fill(c, 0.5)
	c.Texture(124, 0.1)
	same := 0
	for i := range a.Pix {
		if a.Pix[i] == c.Pix[i] {
			same++
		}
	}
	if same == len(a.Pix) {
		t.Fatal("different seeds produced identical texture")
	}
}

func TestAddNoiseStatistics(t *testing.T) {
	m := New(200, 200)
	fill(m, 0.5)
	m.AddNoise(7, 0.05)
	var sum, sumSq float64
	for _, v := range m.Pix {
		d := float64(v) - 0.5
		sum += d
		sumSq += d * d
	}
	n := float64(len(m.Pix))
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.005 {
		t.Fatalf("noise mean = %v", mean)
	}
	if math.Abs(sd-0.05)/0.05 > 0.15 {
		t.Fatalf("noise sd = %v, want ~0.05", sd)
	}
}

func TestAddNoiseZeroSigmaNoop(t *testing.T) {
	m := New(8, 8)
	fill(m, 0.3)
	m.AddNoise(1, 0)
	for _, v := range m.Pix {
		if v != 0.3 {
			t.Fatal("zero-sigma noise modified pixels")
		}
	}
}

func TestDownsampleConservesMean(t *testing.T) {
	// Area averaging preserves total luminance (up to boundary rounding).
	m := New(64, 64)
	m.GradientV(0.1, 0.9)
	m.Texture(5, 0.2)
	for _, size := range []int{32, 16, 48, 7} {
		d := Downsample(m, size, size)
		if math.Abs(mean(d)-mean(m)) > 0.02 {
			t.Fatalf("mean not conserved at %d: %v vs %v", size, mean(d), mean(m))
		}
	}
}

func TestDownsampleIdentity(t *testing.T) {
	m := New(10, 10)
	m.Texture(1, 0.5)
	d := Downsample(m, 10, 10)
	for i := range m.Pix {
		if d.Pix[i] != m.Pix[i] {
			t.Fatal("identity downsample changed pixels")
		}
	}
	d.Set(0, 0, 1)
	if m.At(0, 0) == 1 {
		t.Fatal("identity downsample aliased storage")
	}
}

func TestDownsampleReducesSmallObjectContrast(t *testing.T) {
	// A 4x4 bright object on dark background: at 1/8 scale its peak
	// intensity must drop because the box filter averages it with
	// background — the physical mechanism behind resolution degradation.
	m := New(64, 64)
	fill(m, 0.1)
	m.FillRect(RectWH(30, 30, 4, 4), 0.9)
	d := Downsample(m, 8, 8)
	var peak float32
	for _, v := range d.Pix {
		if v > peak {
			peak = v
		}
	}
	if peak >= 0.5 {
		t.Fatalf("small object survived downsampling with peak %v", peak)
	}
	if peak <= 0.1 {
		t.Fatalf("small object vanished entirely: peak %v", peak)
	}
}

func TestDownsamplePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Downsample to zero did not panic")
		}
	}()
	Downsample(New(4, 4), 0, 4)
}

func TestUpsampleBilinear(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 0)
	m.Set(1, 0, 1)
	m.Set(0, 1, 0)
	m.Set(1, 1, 1)
	u := Downsample(m, 4, 4) // upsampling path
	if u.W != 4 || u.H != 4 {
		t.Fatalf("upsample size = %dx%d", u.W, u.H)
	}
	if u.At(0, 0) >= u.At(3, 0) {
		t.Fatal("bilinear upsample lost horizontal ramp")
	}
}

func TestBoxBlurFlatInvariant(t *testing.T) {
	m := New(16, 16)
	fill(m, 0.6)
	b := boxBlur(m, 2)
	for i, v := range b.Pix {
		if math.Abs(float64(v)-0.6) > 1e-6 {
			t.Fatalf("blur of flat image changed pixel %d to %v", i, v)
		}
	}
}

func TestBoxBlurSmooths(t *testing.T) {
	m := New(16, 16)
	m.Set(8, 8, 1)
	b := boxBlur(m, 1)
	if got := b.At(8, 8); math.Abs(float64(got)-1.0/9) > 1e-6 {
		t.Fatalf("blurred impulse = %v, want 1/9", got)
	}
	if got := b.At(7, 7); math.Abs(float64(got)-1.0/9) > 1e-6 {
		t.Fatalf("blurred neighbour = %v, want 1/9", got)
	}
	if got := b.At(6, 8); got != 0 {
		t.Fatalf("pixel outside kernel = %v", got)
	}
}

func TestBoxBlurZeroRadiusClone(t *testing.T) {
	m := New(4, 4)
	m.Texture(9, 0.3)
	b := boxBlur(m, 0)
	for i := range m.Pix {
		if b.Pix[i] != m.Pix[i] {
			t.Fatal("zero-radius blur changed pixels")
		}
	}
	b.Set(0, 0, 1)
	if m.At(0, 0) == 1 {
		t.Fatal("zero-radius blur aliased storage")
	}
}

func TestPNGRoundTrip(t *testing.T) {
	m := New(32, 24)
	m.GradientV(0.1, 0.9)
	m.Texture(5, 0.2)
	var buf bytes.Buffer
	if err := EncodePNG(&buf, m); err != nil {
		t.Fatal(err)
	}
	decoded, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, ok := decoded.(*image.Gray)
	if !ok || back.Rect.Dx() != 32 || back.Rect.Dy() != 24 {
		t.Fatalf("decoded %T %v, want 32x24 gray", decoded, decoded.Bounds())
	}
	for i := range m.Pix {
		got := float32(back.GrayAt(i%32, i/32).Y) / 255
		if math.Abs(float64(m.Pix[i]-got)) > 1.0/255+1e-6 {
			t.Fatalf("pixel %d drifted beyond quantisation: %v vs %v", i, m.Pix[i], got)
		}
	}
}

func TestDrawBox(t *testing.T) {
	m := New(10, 10)
	m.DrawBox(RectWH(2, 2, 5, 4), 1)
	if m.At(2, 2) != 1 || m.At(6, 2) != 1 || m.At(2, 5) != 1 || m.At(6, 5) != 1 {
		t.Fatal("box corners not stroked")
	}
	if m.At(4, 3) != 0 {
		t.Fatal("box interior filled")
	}
	// Boxes crossing the image edge must not panic.
	m.DrawBox(RectWH(-5, -5, 30, 30), 1)
}
