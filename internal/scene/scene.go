// Package scene simulates the surveillance-video worlds that substitute for
// the paper's real corpora (night-street and UA-DETRAC). A static camera
// watches a road: cars arrive by a regime-modulated Poisson process and
// drive across lanes, pedestrians walk along sidewalks, and some
// pedestrians have a visible face. Object lifetimes span many frames, so
// per-frame detector outputs carry the temporal autocorrelation real video
// has; a two-state busy/quiet regime makes "person present" and "car count"
// statistically correlated, which is what gives the paper's image-removal
// intervention its systematic bias.
//
// Scenes render to real pixel rasters (package raster); detection runs on
// the pixels. The simulator is fully deterministic given Config.Seed.
package scene

import (
	"fmt"
	"sync"
	"sync/atomic"

	"smokescreen/internal/raster"
)

// Class identifies the kind of object a detector can report.
type Class uint8

// Object classes. Car is the analytical target in all of the paper's
// queries; Person and Face are the restricted classes of the image-removal
// intervention.
const (
	Car Class = iota
	Person
	Face
	NumClasses = 3
)

// String returns the lowercase class name used in queries and CLI flags.
func (c Class) String() string {
	switch c {
	case Car:
		return "car"
	case Person:
		return "person"
	case Face:
		return "face"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// ParseClass converts a class name to a Class.
func ParseClass(s string) (Class, error) {
	switch s {
	case "car":
		return Car, nil
	case "person":
		return Person, nil
	case "face":
		return Face, nil
	}
	return 0, fmt.Errorf("scene: unknown class %q", s)
}

// Object is one ground-truth object instance visible in a frame. BBox is in
// native-resolution pixel coordinates.
type Object struct {
	ID        int   // stable identity across the frames of one track
	Class     Class // car / person / face
	BBox      raster.Rect
	Intensity float32 // paint intensity in [0,1]
	Elliptic  bool    // persons and faces render as ellipses, cars as boxes
}

// Frame is the ground-truth annotation of one video frame.
type Frame struct {
	Index   int
	Objects []Object
}

// Count returns the number of objects of class c in the frame.
func (f *Frame) Count(c Class) int {
	n := 0
	for i := range f.Objects {
		if f.Objects[i].Class == c {
			n++
		}
	}
	return n
}

// Contains reports whether the frame has at least one object of class c.
func (f *Frame) Contains(c Class) bool {
	for i := range f.Objects {
		if f.Objects[i].Class == c {
			return true
		}
	}
	return false
}

// Lighting describes the scene's photometric conditions. Night scenes have
// a darker, lower-contrast background and stronger sensor noise, which is
// why the same detector degrades faster with resolution on night-street
// than on UA-DETRAC.
type Lighting struct {
	BackgroundTop    float32 // gradient intensity at the top of the frame
	BackgroundBottom float32 // gradient intensity at the bottom
	TextureAmp       float32 // static background clutter amplitude
	NoiseSigma       float32 // per-frame sensor noise at native resolution
}

// Config parameterises a synthetic video corpus.
type Config struct {
	Name      string
	Width     int // native frame width in pixels
	Height    int // native frame height in pixels
	NumFrames int
	Seed      uint64
	Lighting  Lighting

	// Cars.
	CarRate     float64 // mean car arrivals per frame, averaged over regimes
	CarLifetime int     // mean frames a car remains visible
	CarMinW     int     // minimum car width at native resolution
	CarMaxW     int     // maximum car width at native resolution
	CarContrast float32 // mean |car intensity - local background|

	// Pedestrians.
	PersonRate     float64 // mean person arrivals per frame
	PersonLifetime int     // mean frames a person remains visible
	PersonContrast float32
	FaceProb       float64 // fraction of persons that carry a visible face
	// FaceDuration limits how many frames (the middle of the track) a
	// carried face is actually visible — pedestrians only face the camera
	// briefly. Zero means the whole track.
	FaceDuration int

	// Regime switching couples car and person intensity over time.
	BusyFactor   float64 // rate multiplier in the busy regime (>= 1)
	RegimeLength int     // mean regime duration in frames

	// Geometry: y-centers of car lanes and pedestrian sidewalks.
	LaneYs     []int
	SidewalkYs []int
}

// Validate reports configuration errors before generation.
func (c *Config) Validate() error {
	switch {
	case c.Width <= 0 || c.Height <= 0:
		return fmt.Errorf("scene: invalid frame size %dx%d", c.Width, c.Height)
	case c.NumFrames <= 0:
		return fmt.Errorf("scene: NumFrames must be positive, got %d", c.NumFrames)
	case c.CarLifetime <= 0 || c.PersonLifetime <= 0:
		return fmt.Errorf("scene: lifetimes must be positive")
	case c.CarMinW <= 0 || c.CarMaxW < c.CarMinW:
		return fmt.Errorf("scene: invalid car width range [%d,%d]", c.CarMinW, c.CarMaxW)
	case c.BusyFactor < 1 || c.BusyFactor > 2:
		return fmt.Errorf("scene: BusyFactor must be in [1,2], got %v", c.BusyFactor)
	case c.RegimeLength <= 0:
		return fmt.Errorf("scene: RegimeLength must be positive")
	case len(c.LaneYs) == 0:
		return fmt.Errorf("scene: at least one lane required")
	case c.FaceProb < 0 || c.FaceProb > 1:
		return fmt.Errorf("scene: FaceProb out of [0,1]")
	}
	return nil
}

// Video is a generated corpus: per-frame ground-truth annotations plus a
// lazily rendered static background. Rendering individual frames is done
// on demand (RenderNative / RenderRegion) because materialising tens of
// thousands of full rasters would defeat the point of degradation.
type Video struct {
	Config Config

	frames []Frame

	// view is the pixel-space transform vector this Video is observed
	// through; the zero View for a base corpus. See view.go.
	view View

	bgOnce sync.Once
	bg     *raster.Image

	bgViewOnce sync.Once
	bgView     *raster.Image

	occOnce sync.Once
	occ     []bool

	// cachedBytes accounts the lazily materialized rasters above, read by
	// CachedRasterBytes for the detect cache statistics.
	cachedBytes atomic.Int64
}

// NumFrames returns the corpus length N, the paper's population size.
func (v *Video) NumFrames() int { return len(v.frames) }

// Frame returns the ground-truth annotation of frame i.
func (v *Video) Frame(i int) *Frame {
	return &v.frames[i]
}

// ClassFrameFraction returns the fraction of frames containing at least
// one object of class c — the statistic the paper reports for "person"
// and "face" (e.g. 14.18% of night-street frames contain a person).
func (v *Video) ClassFrameFraction(c Class) float64 {
	n := 0
	for i := range v.frames {
		if v.frames[i].Contains(c) {
			n++
		}
	}
	return float64(n) / float64(len(v.frames))
}

// MeanCount returns the mean per-frame ground-truth count of class c.
func (v *Video) MeanCount(c Class) float64 {
	var sum int
	for i := range v.frames {
		sum += v.frames[i].Count(c)
	}
	return float64(sum) / float64(len(v.frames))
}
