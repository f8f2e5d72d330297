package degrade

import (
	"sync"

	"smokescreen/internal/detect"
	"smokescreen/internal/scene"
)

// The view cache interns the derived videos EffectiveVideo creates, one
// per (corpus, canonical view spec), so repeated estimator trials under
// the same pixel-axis setting share a single detector-output cache: every
// detect-side cache keys on the *scene.Video pointer, and interning makes
// the pointer canonical for the view. The cache registers with
// detect.RegisterViewCache so ResetCaches drops it and Stats
// byte-accounts the views' lazily materialized rasters.
var (
	viewMu    sync.Mutex
	viewCache = map[viewKey]*scene.Video{}
)

type viewKey struct {
	video *scene.Video
	spec  string
}

func init() {
	detect.RegisterViewCache(resetViews, fillViewStats)
}

// EffectiveVideo returns the corpus as the setting's capture pipeline sees
// it: the original video when no pixel axis is active, otherwise the
// interned view observed through the setting's transforms (noise, motion
// blur, quantization, occlusion).
func EffectiveVideo(v *scene.Video, s Setting) *scene.Video {
	vw := s.View()
	if vw.IsZero() {
		return v
	}
	key := viewKey{video: v, spec: s.ViewSpec()}
	viewMu.Lock()
	defer viewMu.Unlock()
	if nv, ok := viewCache[key]; ok {
		return nv
	}
	nv := v.WithView(vw)
	viewCache[key] = nv
	return nv
}

// resetViews drops every cached view. The views' own detector artifacts
// are dropped by the same ResetCaches sweep, so no recursion is needed.
func resetViews() {
	viewMu.Lock()
	defer viewMu.Unlock()
	viewCache = map[viewKey]*scene.Video{}
}

// fillViewStats populates the view-cache fields of a CacheStats report.
func fillViewStats(s *detect.CacheStats) {
	viewMu.Lock()
	defer viewMu.Unlock()
	s.ViewVideos = len(viewCache)
	for _, nv := range viewCache {
		s.ViewBytes += detect.PerEntryOverhead + nv.CachedRasterBytes()
	}
}
