// Command videogen writes per-frame grayscale PNG previews of a synthetic
// corpus for human inspection, optionally downsampled and with detection
// boxes overlaid.
//
// Usage:
//
//	videogen -dataset small -png previews/ -frames 10 -boxes
//	videogen -dataset night-street -png ns/ -resolution 128 -frames 200
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"smokescreen/internal/dataset"
	"smokescreen/internal/detect"
	"smokescreen/internal/raster"
	"smokescreen/internal/scene"
)

func main() {
	var (
		name       = flag.String("dataset", "small", "dataset to preview (see `smokescreen datasets`)")
		pngDir     = flag.String("png", "", "write per-frame PNG previews into this directory")
		boxes      = flag.Bool("boxes", false, "overlay YOLOv4Sim detections on the previews")
		resolution = flag.Int("resolution", 0, "preview resolution (0 = native)")
		frames     = flag.Int("frames", 0, "limit the number of frames (0 = all)")
	)
	flag.Parse()
	if *pngDir == "" {
		fmt.Fprintln(os.Stderr, "videogen: -png is required")
		os.Exit(2)
	}

	v, err := dataset.Load(*name)
	if err != nil {
		fatal(err)
	}
	total := v.NumFrames()
	if *frames > 0 && *frames < total {
		total = *frames
	}
	p := v.Config.Width
	if *resolution > 0 {
		p = *resolution
	}

	if err := writePNGs(v, *pngDir, total, p, *boxes); err != nil {
		fatal(err)
	}
}

// writePNGs exports per-frame grayscale previews, optionally with
// YOLOv4Sim detection boxes overlaid at the preview resolution.
func writePNGs(v *scene.Video, dir string, total, p int, boxes bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	model := detect.YOLOv4Sim()
	for i := 0; i < total; i++ {
		img := v.RenderNative(i)
		if p != v.Config.Width {
			img = raster.Downsample(img, p, p)
		}
		if boxes {
			if !model.ValidResolution(p) {
				return fmt.Errorf("videogen: -boxes requires a resolution %s accepts (multiple of %d <= %d)",
					model.Name, model.InputMultiple, model.NativeInput)
			}
			for _, d := range model.DetectFrame(v, i, p) {
				img.DrawBox(d.BBox, 1)
			}
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-%05d.png", v.Config.Name, i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := raster.EncodePNG(f, img); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d PNG previews to %s\n", total, dir)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "videogen:", err)
	os.Exit(1)
}
