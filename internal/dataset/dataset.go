// Package dataset defines the synthetic corpora that stand in for the
// paper's video datasets. Each constructor returns a scene.Video whose
// corpus-level statistics are calibrated to the numbers the paper reports
// in Section 5.1:
//
//   - night-street (BlazeIt): 19 463 frames (1-in-50 selection of a 973k
//     frame 30 FPS stream), sparse night traffic, 14.18% of frames contain
//     a person and 4.02% contain a face.
//   - UA-DETRAC: 15 210 frames from 12 contiguous sequences, dense daytime
//     traffic at urban intersections, 65.86% person frames, 2.48% face
//     frames.
//
// Because night-street frames were selected 1-in-50, consecutive *selected*
// frames are 1.67 seconds apart and a car crossing survives only a few of
// them; UA-DETRAC sequences are contiguous, so their per-frame outputs are
// strongly autocorrelated. The configurations below encode exactly that
// difference, which is what makes the two corpora respond differently to
// frame sampling — the effect Figure 3 of the paper illustrates.
package dataset

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"smokescreen/internal/scene"
)

// Info documents a corpus and the paper statistics it is calibrated to.
type Info struct {
	Name        string
	Description string
	// Paper-reported calibration targets.
	PaperFrames         int
	PaperPersonFraction float64
	PaperFaceFraction   float64
}

// personRate solves the regime-adjusted M/G/infinity occupancy equation for
// the arrival rate that yields the target fraction of frames containing
// >= 1 object with the given mean lifetime. The scene alternates between a
// busy regime (rate x busyFactor) and a quiet regime (rate x (2-busyFactor))
// with equal stationary weight, so the occupancy is the average of the two
// regimes' 1 - exp(-rate*lifetime) terms; plain inversion of the unmixed
// equation undershoots by Jensen's inequality. Solved by bisection.
func personRate(targetFraction float64, lifetime int, busyFactor float64) float64 {
	occupancy := func(rate float64) float64 {
		l := float64(lifetime)
		busy := 1 - math.Exp(-rate*busyFactor*l)
		quiet := 1 - math.Exp(-rate*(2-busyFactor)*l)
		return (busy + quiet) / 2
	}
	lo, hi := 0.0, 1.0
	for occupancy(hi) < targetFraction {
		hi *= 2
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if occupancy(mid) < targetFraction {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// NightStreetConfig returns the generator configuration for the
// night-street corpus. Exposed so tests and ablations can perturb it.
func NightStreetConfig() scene.Config {
	const (
		frames         = 19463
		personLifetime = 12 // ~20s pedestrian visibility / 50-frame stride
		personTarget   = 0.1418
		faceTarget     = 0.0402
	)
	pr := personRate(personTarget, personLifetime, 1.5)
	fr := personRate(faceTarget, personLifetime, 1.5)
	return scene.Config{
		Name:      "night-street",
		Width:     640,
		Height:    640,
		NumFrames: frames,
		Seed:      0x515d_0001,
		Lighting: scene.Lighting{
			// Night: dark, compressed luminance range, strong sensor noise.
			BackgroundTop:    0.10,
			BackgroundBottom: 0.22,
			TextureAmp:       0.015,
			NoiseSigma:       0.045,
		},
		CarRate:     0.30, // x lifetime 4 => mean ~1.2 cars per frame
		CarLifetime: 4,    // a ~5s crossing survives few 1-in-50 frames
		CarMinW:     70,
		CarMaxW:     150,
		CarContrast: 0.16, // low-beam night contrast

		PersonRate:     pr,
		PersonLifetime: personLifetime,
		PersonContrast: 0.12,
		FaceProb:       fr / pr,

		BusyFactor:   1.5,
		RegimeLength: 120,
		LaneYs:       []int{300, 380},
		SidewalkYs:   []int{180, 500},
	}
}

// UADetracConfig returns the generator configuration for the UA-DETRAC
// corpus: contiguous daytime sequences at a busy intersection.
func UADetracConfig() scene.Config {
	const (
		frames         = 15210
		personLifetime = 300 // contiguous 25 FPS: a pedestrian spans ~12s
		// Scene-level targets are set slightly off the paper's numbers so
		// that the *detector-measured* fractions (what the paper reports:
		// YOLOv4 person at 0.7, MTCNN face at 0.8) land on 65.86% / 2.48%:
		// the detector adds a few person-frames (entering-vehicle slivers)
		// and track-life jitter plus frame clipping shave ~1/3 of the
		// nominal face-frame occupancy.
		personTarget = 0.723
		faceTarget   = 0.0433
		faceDuration = 50 // a face is camera-visible only briefly
	)
	pr := personRate(personTarget, personLifetime, 1.7)
	// Expected face frames = (#face persons) x faceDuration; #persons =
	// pr x frames, so the per-person face probability follows directly.
	// Error-diffusion assignment in the generator makes the count exact.
	faceProb := faceTarget / (float64(faceDuration) * pr)
	return scene.Config{
		Name:      "ua-detrac",
		Width:     640,
		Height:    640,
		NumFrames: frames,
		Seed:      0x515d_0002,
		Lighting: scene.Lighting{
			// Daylight: bright, wide luminance range, mild noise.
			BackgroundTop:    0.55,
			BackgroundBottom: 0.75,
			TextureAmp:       0.03,
			NoiseSigma:       0.015,
		},
		CarRate:     0.035, // x lifetime 200 => mean ~7 cars per frame
		CarLifetime: 200,   // congested intersection: cars linger
		CarMinW:     50,
		CarMaxW:     120,
		CarContrast: 0.30,

		PersonRate:     pr,
		PersonLifetime: personLifetime,
		PersonContrast: 0.22,
		FaceProb:       faceProb,
		FaceDuration:   faceDuration,

		BusyFactor:   1.7,
		RegimeLength: 900,
		LaneYs:       []int{260, 330, 400, 470},
		SidewalkYs:   []int{140, 560},
	}
}

// MVI40771Config returns video A of the profile-similarity experiment
// (Section 5.3.2): 1720 frames from a busy-intersection camera.
func MVI40771Config() scene.Config {
	cfg := UADetracConfig()
	cfg.Name = "mvi-40771"
	cfg.NumFrames = 1720
	cfg.Seed = 0x515d_0003
	return cfg
}

// MVI40775Config returns video B: the same camera at a different time —
// identical scene geometry and lighting, different traffic realisation.
func MVI40775Config() scene.Config {
	cfg := UADetracConfig()
	cfg.Name = "mvi-40775"
	cfg.NumFrames = 975
	cfg.Seed = 0x515d_0004
	return cfg
}

// SmallConfig returns a fast, low-frame-count corpus for tests, examples
// and the quickstart. It shares the UA-DETRAC look at a fraction of the
// cost.
func SmallConfig() scene.Config {
	cfg := UADetracConfig()
	cfg.Name = "small"
	cfg.NumFrames = 1200
	cfg.Seed = 0x515d_0005
	cfg.Width = 320
	cfg.Height = 320
	cfg.CarMinW = 30
	cfg.CarMaxW = 70
	cfg.LaneYs = []int{130, 180, 230}
	cfg.SidewalkYs = []int{70, 280}
	// With only ~1200 frames the corpus sees a handful of persons; raise
	// the face share so face-restricted interventions stay testable.
	cfg.FaceProb = 0.5
	cfg.FaceDuration = 40
	return cfg
}

// HighwayConfig returns a third scenario beyond the paper's two: a
// six-lane highway at dusk — fast, sparse traffic, long sight lines, few
// pedestrians. It exercises geometry the intersection corpora do not
// (high speeds mean short lifetimes even in contiguous footage), and
// gives examples and tests a corpus whose profiles differ visibly from
// both paper datasets.
func HighwayConfig() scene.Config {
	return scene.Config{
		Name:      "highway",
		Width:     640,
		Height:    640,
		NumFrames: 8000,
		Seed:      0x515d_0006,
		Lighting: scene.Lighting{
			// Dusk: mid luminance, moderate noise.
			BackgroundTop:    0.30,
			BackgroundBottom: 0.45,
			TextureAmp:       0.02,
			NoiseSigma:       0.03,
		},
		CarRate:     0.12, // x lifetime 25 => mean ~3 cars per frame
		CarLifetime: 25,   // highway speeds: quick crossings
		CarMinW:     60,
		CarMaxW:     130,
		CarContrast: 0.22,

		PersonRate:     0.0005, // breakdowns and maintenance only
		PersonLifetime: 40,
		PersonContrast: 0.18,
		FaceProb:       0.1,

		BusyFactor:   1.8, // rush-hour pulses
		RegimeLength: 400,
		LaneYs:       []int{220, 280, 340, 400, 460, 520},
		SidewalkYs:   []int{120},
	}
}

var registry = map[string]struct {
	cfg  func() scene.Config
	info Info
}{
	"night-street": {
		cfg: NightStreetConfig,
		info: Info{
			Name:                "night-street",
			Description:         "Sparse night traffic (BlazeIt night-street stand-in), 1-in-50 frame selection",
			PaperFrames:         19463,
			PaperPersonFraction: 0.1418,
			PaperFaceFraction:   0.0402,
		},
	},
	"ua-detrac": {
		cfg: UADetracConfig,
		info: Info{
			Name:                "ua-detrac",
			Description:         "Dense daytime intersection traffic (UA-DETRAC stand-in), contiguous sequences",
			PaperFrames:         15210,
			PaperPersonFraction: 0.6586,
			PaperFaceFraction:   0.0248,
		},
	},
	"mvi-40771": {
		cfg:  MVI40771Config,
		info: Info{Name: "mvi-40771", Description: "Video A of the profile-similarity pair", PaperFrames: 1720},
	},
	"mvi-40775": {
		cfg:  MVI40775Config,
		info: Info{Name: "mvi-40775", Description: "Video B: same camera, different time", PaperFrames: 975},
	},
	"small": {
		cfg:  SmallConfig,
		info: Info{Name: "small", Description: "Fast corpus for tests and examples", PaperFrames: 1200},
	},
	"highway": {
		cfg:  HighwayConfig,
		info: Info{Name: "highway", Description: "Six-lane highway at dusk (this reproduction's extra scenario)", PaperFrames: 8000},
	},
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*scene.Video{}
)

// Load generates (or returns the cached) corpus with the given name.
// Corpora are deterministic, so caching is safe; experiments that need
// tens of estimator trials over the same corpus share one generation.
func Load(name string) (*scene.Video, error) {
	entry, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("dataset: unknown dataset %q (have %v)", name, Names())
	}
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if v, ok := cache[name]; ok {
		return v, nil
	}
	v, err := scene.Generate(entry.cfg())
	if err != nil {
		return nil, fmt.Errorf("dataset: generating %q: %w", name, err)
	}
	cache[name] = v
	return v, nil
}

// MustLoad is Load for callers with static dataset names; it panics on
// error.
//
//smokevet:ignore reach: the fixture loader the package tests share; product code calls Load and handles the error
func MustLoad(name string) *scene.Video {
	v, err := Load(name)
	if err != nil {
		panic(err)
	}
	return v
}

// Describe returns the Info for a dataset name.
func Describe(name string) (Info, error) {
	entry, ok := registry[name]
	if !ok {
		return Info{}, fmt.Errorf("dataset: unknown dataset %q", name)
	}
	return entry.info, nil
}

// Names lists the registered dataset names in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
