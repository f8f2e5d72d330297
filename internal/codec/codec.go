// Package codec implements Smokescreen's binary frame record: ground-truth
// annotations and (optionally) a rasterised pixel plane, serialised to one
// self-contained block so that degraded frames can be shipped over the
// camera transport with realistic, resolution-dependent byte counts.
//
// Multi-byte integers are little-endian or varints. Pixel planes are
// quantised to 8 bits and DEFLATE-compressed; a darker, lower-resolution
// frame genuinely costs fewer bytes on the wire, which is what gives the
// bandwidth/energy experiments their numbers.
package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"smokescreen/internal/raster"
	"smokescreen/internal/scene"
)

// Format constants.
const (
	// maxSaneDimension guards decoders against corrupt headers.
	maxSaneDimension = 1 << 14
	// maxSaneObjects bounds per-frame object counts while decoding.
	maxSaneObjects = 1 << 16
	// maxDeflateRatio is DEFLATE's expansion limit: the longest match is
	// 258 bytes and costs at least two bits, so no stream inflates to more
	// than 1032 times its length.
	maxDeflateRatio = 1032
)

// FrameRecord is one serialised frame: annotations plus an optional pixel
// plane (present when the producer shipped rasters, e.g. camera payloads).
type FrameRecord struct {
	Index   int
	Objects []scene.Object
	Raster  *raster.Image
}

// EncodeFrame serialises a single frame record to a self-contained block
// (used directly by the camera transport). The block is the call's only
// allocation that scales with the frame: the quantised samples and the
// DEFLATE state come from a pool (see deflater).
func EncodeFrame(fr *FrameRecord) ([]byte, error) {
	if len(fr.Objects) > maxSaneObjects {
		return nil, fmt.Errorf("codec: %d objects exceeds limit", len(fr.Objects))
	}
	if fr.Raster == nil {
		return append(appendFrameHeader(make([]byte, 0, 16+len(fr.Objects)*16), fr), 0), nil
	}
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	compressed, err := d.compressPixels(fr.Raster.Pix)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 16+len(fr.Objects)*16+3*binary.MaxVarintLen32+len(compressed))
	buf = append(appendFrameHeader(buf, fr), 1)
	buf = binary.AppendUvarint(buf, uint64(fr.Raster.W))
	buf = binary.AppendUvarint(buf, uint64(fr.Raster.H))
	buf = binary.AppendUvarint(buf, uint64(len(compressed)))
	return append(buf, compressed...), nil
}

// appendFrameHeader appends the record's index and annotations: everything
// before the has-raster byte.
func appendFrameHeader(buf []byte, fr *FrameRecord) []byte {
	buf = binary.AppendUvarint(buf, uint64(fr.Index))
	buf = binary.AppendUvarint(buf, uint64(len(fr.Objects)))
	for i := range fr.Objects {
		o := &fr.Objects[i]
		buf = binary.AppendUvarint(buf, uint64(o.ID))
		buf = append(buf, byte(o.Class))
		buf = binary.AppendVarint(buf, int64(o.BBox.MinX))
		buf = binary.AppendVarint(buf, int64(o.BBox.MinY))
		buf = binary.AppendVarint(buf, int64(o.BBox.MaxX))
		buf = binary.AppendVarint(buf, int64(o.BBox.MaxY))
		buf = binary.LittleEndian.AppendUint16(buf, quantize16(o.Intensity))
		if o.Elliptic {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// DecodeFrame parses a block produced by EncodeFrame.
func DecodeFrame(block []byte) (*FrameRecord, error) {
	buf := bytes.NewBuffer(block)
	idx, err := binary.ReadUvarint(buf)
	if err != nil {
		return nil, fmt.Errorf("codec: frame index: %w", err)
	}
	count, err := binary.ReadUvarint(buf)
	if err != nil {
		return nil, fmt.Errorf("codec: object count: %w", err)
	}
	if count > maxSaneObjects {
		return nil, fmt.Errorf("codec: corrupt object count %d", count)
	}
	fr := &FrameRecord{Index: int(idx)}
	for i := uint64(0); i < count; i++ {
		var o scene.Object
		id, err := binary.ReadUvarint(buf)
		if err != nil {
			return nil, fmt.Errorf("codec: object id: %w", err)
		}
		o.ID = int(id)
		classByte, err := buf.ReadByte()
		if err != nil {
			return nil, err
		}
		if classByte >= scene.NumClasses {
			return nil, fmt.Errorf("codec: corrupt class %d", classByte)
		}
		o.Class = scene.Class(classByte)
		coords := [4]int64{}
		for j := range coords {
			if coords[j], err = binary.ReadVarint(buf); err != nil {
				return nil, fmt.Errorf("codec: bbox coord: %w", err)
			}
		}
		o.BBox = raster.Rect{MinX: int(coords[0]), MinY: int(coords[1]), MaxX: int(coords[2]), MaxY: int(coords[3])}
		var q [2]byte
		if _, err := io.ReadFull(buf, q[:]); err != nil {
			return nil, err
		}
		o.Intensity = dequantize16(binary.LittleEndian.Uint16(q[:]))
		flag, err := buf.ReadByte()
		if err != nil {
			return nil, err
		}
		o.Elliptic = flag == 1
		fr.Objects = append(fr.Objects, o)
	}
	hasRaster, err := buf.ReadByte()
	if err != nil {
		return nil, err
	}
	if hasRaster == 0 {
		if buf.Len() != 0 {
			return nil, errors.New("codec: trailing data after frame record")
		}
		return fr, nil
	}
	w64, err := binary.ReadUvarint(buf)
	if err != nil {
		return nil, err
	}
	h64, err := binary.ReadUvarint(buf)
	if err != nil {
		return nil, err
	}
	if w64 == 0 || h64 == 0 || w64 > maxSaneDimension || h64 > maxSaneDimension {
		return nil, fmt.Errorf("codec: corrupt raster size %dx%d", w64, h64)
	}
	clen, err := binary.ReadUvarint(buf)
	if err != nil {
		return nil, err
	}
	if clen > uint64(buf.Len()) {
		return nil, fmt.Errorf("codec: raster payload truncated")
	}
	if w64*h64 > clen*maxDeflateRatio {
		// Checked before the samples are allocated: a few hostile bytes
		// must not buy a gigabyte of zeroed raster.
		return nil, fmt.Errorf("codec: %d-byte payload cannot hold a %dx%d raster", clen, w64, h64)
	}
	img := raster.New(int(w64), int(h64))
	if err := decompressPixels(buf.Next(int(clen)), img.Pix); err != nil {
		return nil, err
	}
	if buf.Len() != 0 {
		return nil, errors.New("codec: trailing data after frame record")
	}
	fr.Raster = img
	return fr, nil
}

// deflater is the reusable state of one pixel-plane compression: the
// DEFLATE writer (~650 KB of tables a fresh flate.NewWriter would allocate
// and clear per frame), the quantised samples and the compressed bytes.
// flate.Writer.Reset makes the writer equivalent to a new one, so the
// output is byte-identical to compressing with fresh state.
type deflater struct {
	fw  *flate.Writer
	raw []byte
	out bytes.Buffer
}

var deflaters = sync.Pool{New: func() any {
	d := &deflater{}
	// The level is a valid constant; NewWriter fails only on a bad level.
	d.fw, _ = flate.NewWriter(&d.out, flate.DefaultCompression)
	return d
}}

// compressPixels quantises samples to 8 bits and DEFLATE-compresses them.
// The result aliases d and is valid until d goes back to the pool.
func (d *deflater) compressPixels(pix []float32) ([]byte, error) {
	d.raw = growBytes(d.raw, len(pix))
	for i, v := range pix {
		d.raw[i] = uint8(math.Round(float64(v) * 255))
	}
	d.out.Reset()
	d.fw.Reset(&d.out)
	if _, err := d.fw.Write(d.raw); err != nil {
		return nil, err
	}
	if err := d.fw.Close(); err != nil {
		return nil, err
	}
	return d.out.Bytes(), nil
}

// inflater is the decoding counterpart of deflater. Reset re-initialises
// the decompressor completely, so a stream that failed mid-way leaves
// nothing behind for the next frame decoded with the same state.
type inflater struct {
	fr   resettableReader
	src  bytes.Reader
	raw  []byte
	tail [1]byte
}

// resettableReader is what flate.NewReader returns, as used here.
type resettableReader interface {
	io.Reader
	flate.Resetter
}

var inflaters = sync.Pool{New: func() any {
	in := &inflater{}
	in.fr = flate.NewReader(&in.src).(resettableReader)
	return in
}}

func decompressPixels(compressed []byte, dst []float32) error {
	in := inflaters.Get().(*inflater)
	defer inflaters.Put(in)
	in.src.Reset(compressed)
	if err := in.fr.Reset(&in.src, nil); err != nil {
		return fmt.Errorf("codec: decompressing pixels: %w", err)
	}
	in.raw = growBytes(in.raw, len(dst))
	if _, err := io.ReadFull(in.fr, in.raw); err != nil {
		return fmt.Errorf("codec: decompressing pixels: %w", err)
	}
	// A well-formed payload ends exactly at the expected length.
	if n, _ := in.fr.Read(in.tail[:]); n != 0 {
		return errors.New("codec: raster payload has trailing data")
	}
	for i, b := range in.raw {
		dst[i] = float32(b) / 255
	}
	return nil
}

// growBytes returns a slice of length n, reusing buf's storage when it is
// large enough. The contents are undefined.
func growBytes(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

func quantize16(v float32) uint16 {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return uint16(math.Round(float64(v) * 65535))
}

func dequantize16(q uint16) float32 {
	return float32(q) / 65535
}
