package scene

import (
	"slices"

	"smokescreen/internal/raster"
)

// Background returns the static native-resolution background raster: a
// vertical luminance gradient (sky-to-road), deterministic clutter texture,
// and painted lane markings — observed through the video's pixel view, so
// that detector background subtraction cancels everything static (blur
// smear of the markings, lens dirt, quantization bands) exactly as it
// cancels the raw background on a base corpus. The raster is rendered once
// per Video and cached; a static surveillance camera sees the same
// background every frame.
//
// A row of a rendered region is the row of Background() over that region,
// bit for bit, under every view, unless the bbox of an object drawn into the
// region's render spans it — an object that meets the region widened by the
// blur's reach, which may lie wholly outside the region: objects paint only
// inside their bbox, blur is horizontal and reads no farther than its reach,
// occlusion and quantization are per pixel (TestObjectFreeRowsAreBackground).
// ResampleObjectRowsInto renders and resamples only the other rows.
func (v *Video) Background() *raster.Image {
	if !v.view.PixelTransforms() {
		return v.rawBackground()
	}
	v.bgViewOnce.Do(func() {
		raw := v.rawBackground()
		img := raster.New(raw.W, raw.H)
		full := raster.RectWH(0, 0, raw.W, raw.H)
		v.applyViewInto(img, raw, full, full)
		v.bgView = img
		v.cachedBytes.Add(int64(len(img.Pix)) * 4)
	})
	return v.bgView
}

// rawBackground renders and caches the untransformed static background.
func (v *Video) rawBackground() *raster.Image {
	v.bgOnce.Do(func() {
		cfg := &v.Config
		img := raster.New(cfg.Width, cfg.Height)
		img.GradientV(cfg.Lighting.BackgroundTop, cfg.Lighting.BackgroundBottom)
		img.Texture(cfg.Seed^0xbac4615d, cfg.Lighting.TextureAmp)
		// Lane markings: thin bright dashes along each lane's lower edge.
		for _, lane := range cfg.LaneYs {
			y := lane + 18
			if y >= cfg.Height-1 {
				continue
			}
			mark := backgroundAt(cfg, y) + 0.12
			for x := 0; x < cfg.Width; x += 48 {
				img.FillRect(raster.RectWH(x, y, 24, 2), mark)
			}
		}
		v.bg = img
		v.cachedBytes.Add(int64(len(img.Pix)) * 4)
	})
	return v.bg
}

// RenderRegion renders the given native-coordinate region of frame i
// (background plus every intersecting object) into a fresh image whose
// origin is region.Min. Sensor noise is NOT applied here: noise is added
// after downsampling, by the detector, at the effective post-resample
// amplitude. The region is clipped to the frame bounds.
func (v *Video) RenderRegion(i int, region raster.Rect) *raster.Image {
	region = v.clipRegion(region, "RenderRegion")
	img := raster.New(region.W(), region.H())
	v.renderRegionInto(img, i, region)
	return img
}

// RenderRegionInto renders like RenderRegion but into dst, which must be
// sized region.W() x region.H() after clipping to the frame bounds. Every
// destination pixel is overwritten, so dst may come from raster.GetScratch
// — this is the allocation-free variant the detection hot path uses.
func (v *Video) RenderRegionInto(dst *raster.Image, i int, region raster.Rect) {
	region = v.clipRegion(region, "RenderRegionInto")
	if dst.W != region.W() || dst.H != region.H() {
		panic("scene: RenderRegionInto size mismatch")
	}
	v.renderRegionInto(dst, i, region)
}

func (v *Video) clipRegion(region raster.Rect, who string) raster.Rect {
	cfg := &v.Config
	region = region.Intersect(raster.RectWH(0, 0, cfg.Width, cfg.Height))
	if region.Empty() {
		panic("scene: " + who + " with empty region")
	}
	return region
}

func (v *Video) renderRegionInto(img *raster.Image, i int, region raster.Rect) {
	left, right := v.view.blurReach()
	if left+right == 0 {
		// No blur: the raw composite is rendered straight into img, and
		// occlusion and quantization, being per pixel, apply in place.
		v.rawRegionInto(img, i, region)
		v.applyViewInto(img, img, region, region)
		return
	}
	// Blur: render the raw composite over the region widened by the blur
	// window's reach (clipped to the frame), then apply the view transforms
	// into the destination. The pad carries exactly the out-of-region pixels
	// the blur can pull in, so the result is bit-identical however the frame
	// is decomposed into regions.
	src := v.blurSource(region)
	scratch := raster.GetScratch(src.W(), src.H())
	v.rawRegionInto(scratch, i, src)
	v.applyViewInto(img, scratch, region, src)
	raster.PutScratch(scratch)
}

// blurSource is the region widened by the blur window's reach and clipped to
// the frame: the raw pixels the view of region reads.
func (v *Video) blurSource(region raster.Rect) raster.Rect {
	left, right := v.view.blurReach()
	region.MinX = max(region.MinX-left, 0)
	region.MaxX = min(region.MaxX+right, v.Config.Width)
	return region
}

// rawRegionInto renders the untransformed composite (raw background plus
// objects) of frame i over region into img.
func (v *Video) rawRegionInto(img *raster.Image, i int, region raster.Rect) {
	copyRegionRows(img, v.rawBackground(), region)
	frame := v.Frame(i)
	for idx := range frame.Objects {
		obj := &frame.Objects[idx]
		if obj.BBox.Intersect(region).Empty() {
			continue
		}
		drawObject(img, obj, region.MinX, region.MinY)
	}
}

// ResampleObjectRowsInto turns dst from the resample of Background() over
// region — ResampleRegionInto(dst, v.Background(), region), which the caller
// has written — into the resample of frame i's render of region, rendering
// and resampling only the destination rows whose source rows an object's
// render reaches. Every other destination row reads only background rows
// (Background's object-free-row invariant), so it is already the frame's,
// bit for bit. The camera passes the whole frame; the detector a patch.
func (v *Video) ResampleObjectRowsInto(dst *raster.Image, i int, region raster.Rect) {
	region = v.clipRegion(region, "ResampleObjectRowsInto")
	native := raster.GetScratch(region.W(), region.H()) // only the bands' source rows are ever written
	defer raster.PutScratch(native)
	// The destination rows each object's rows reach, merged into bands:
	// maximal runs of rows that read an object row.
	var spans [16][2]int
	bands := spans[:0]
	reach := v.blurSource(region)
	for _, obj := range v.Frame(i).Objects {
		if obj.BBox.Intersect(reach).Empty() {
			continue
		}
		lo, hi := raster.DestinationRows(dst, native, max(obj.BBox.MinY, region.MinY)-region.MinY, min(obj.BBox.MaxY, region.MaxY)-region.MinY)
		if lo < hi {
			bands = append(bands, [2]int{lo, hi})
		}
	}
	slices.SortFunc(bands, func(a, b [2]int) int { return a[0] - b[0] })
	for k := 0; k < len(bands); {
		lo, hi := bands[k][0], bands[k][1]
		for k++; k < len(bands) && bands[k][0] <= hi; k++ {
			hi = max(hi, bands[k][1])
		}
		slo, shi := raster.SourceRows(dst, native, lo, hi)
		band := &raster.Image{W: native.W, H: shi - slo, Pix: native.Pix[slo*native.W : shi*native.W]}
		v.renderRegionInto(band, i, raster.Rect{MinX: region.MinX, MinY: region.MinY + slo, MaxX: region.MaxX, MaxY: region.MinY + shi})
		raster.ResampleRowsInto(dst, native, lo, hi)
	}
}

// copyRegionRows copies the native-coordinate region of src into img row
// by row; img must be sized region.W() x region.H().
func copyRegionRows(img, src *raster.Image, region raster.Rect) {
	for y := 0; y < img.H; y++ {
		srcRow := (region.MinY + y) * src.W
		copy(img.Pix[y*img.W:(y+1)*img.W], src.Pix[srcRow+region.MinX:srcRow+region.MaxX])
	}
}

// RenderNative renders the full frame i at native resolution. This is the
// reference path; the detector's fast path renders only object patches and
// is property-tested against this one.
func (v *Video) RenderNative(i int) *raster.Image {
	return v.RenderRegion(i, raster.RectWH(0, 0, v.Config.Width, v.Config.Height))
}

// drawObject paints one object into img, whose origin corresponds to
// native coordinates (offX, offY).
func drawObject(img *raster.Image, obj *Object, offX, offY int) {
	box := raster.Rect{
		MinX: obj.BBox.MinX - offX,
		MinY: obj.BBox.MinY - offY,
		MaxX: obj.BBox.MaxX - offX,
		MaxY: obj.BBox.MaxY - offY,
	}
	if obj.Elliptic {
		img.FillEllipse(box, obj.Intensity)
		return
	}
	// Cars: body box plus a darker cabin strip, giving the blob internal
	// structure like a real vehicle roofline. The cabin stays offset from
	// the body (rather than pulled toward a fixed gray) so it never
	// coincidentally matches the background and splits the blob.
	img.FillRect(box, obj.Intensity)
	cabinW := box.W() * 5 / 10
	cabinH := box.H() * 4 / 10
	if cabinW >= 2 && cabinH >= 2 {
		cabin := raster.RectWH(box.MinX+box.W()/4, box.MinY, cabinW, cabinH)
		cabinInt := obj.Intensity - 0.25
		if cabinInt < 0.02 {
			cabinInt = 0.02
		}
		img.FillRect(cabin, cabinInt)
	}
}
