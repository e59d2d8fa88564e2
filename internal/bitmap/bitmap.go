// Package bitmap is the real-time bitmap transmission experiment of
// paper §4.1: a processing node streams display frames to a
// workstation, which copies them from the HPC directly into its frame
// buffer. All flow control is done by the HPC hardware; the protocol
// overhead is "only the few statements needed to determine where to
// place the incoming bitmap data". The paper reports 3.2 Mbyte/sec —
// enough to refresh a 900×900 monochrome display 30 times per second
// from a remote processor.
package bitmap

import (
	"fmt"

	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/udo"
)

// Display geometry of the paper's experiment.
const (
	// Width and Height of the refreshed region, in pixels.
	Width  = 900
	Height = 900
)

// FrameBytes is the size of one monochrome (bi-level) frame.
func FrameBytes(w, h int) int { return w * h / 8 }

// ChunkBytes is the per-message payload streamed at the hardware.
const ChunkBytes = 1024

// PlaceCost is the receiver's per-chunk cost to decide where the data
// goes in the frame buffer ("the few statements").
const PlaceCost = 4 * sim.Microsecond

// SendOverhead is the sender's per-chunk cost beyond the raw copy
// (chunk bookkeeping and address arithmetic).
const SendOverhead = 17 * sim.Microsecond

// Result reports one streaming run.
type Result struct {
	Frames     int
	FrameBytes int
	Elapsed    sim.Duration
	// MBytesPerSec is the end-to-end delivered bandwidth.
	MBytesPerSec float64
	// FPS is the delivered frame rate.
	FPS float64
}

type chunk struct {
	frame  int
	offset int
	n      int
}

// Stream pushes frames of w×h monochrome pixels from a processing node
// to a host workstation's frame buffer and measures the delivered
// bandwidth. The sender writes at the hardware as fast as it can; the
// workstation polls the HPC and copies straight to the frame buffer;
// only hardware flow control paces them.
func Stream(sys *core.System, from, to *core.Machine, w, h, frames int) (*Result, error) {
	if frames <= 0 {
		return nil, fmt.Errorf("bitmap: need at least one frame")
	}
	fb := FrameBytes(w, h)
	chunksPerFrame := (fb + ChunkBytes - 1) / ChunkBytes
	name := fmt.Sprintf("fbstream.%d", to.EP)
	rx := udo.New(to.IF, name, true) // polled: interrupts off
	tx := udo.NewRemote(from.IF, name)

	res := &Result{Frames: frames, FrameBytes: fb}
	var start, end sim.Time
	started := false

	sys.Spawn(from, "framegen", 0, func(sp *kern.Subprocess) {
		for f := 0; f < frames; f++ {
			for off := 0; off < fb; off += ChunkBytes {
				n := ChunkBytes
				if fb-off < n {
					n = fb - off
				}
				sp.Compute(SendOverhead)
				if !started {
					started = true
					start = sp.Now()
				}
				if err := tx.Send(sp, to.EP, n, chunk{frame: f, offset: off, n: n}); err != nil {
					panic(err)
				}
			}
		}
	})
	sys.Spawn(to, "display", 0, func(sp *kern.Subprocess) {
		buf := make([]byte, fb) // the frame buffer region
		for f := 0; f < frames; f++ {
			for c := 0; c < chunksPerFrame; c++ {
				m := rx.Recv(sp)
				ck := m.Payload.(chunk)
				sp.Compute(PlaceCost)
				// The copy itself was charged by the polled Recv;
				// mark the region so the test can verify coverage.
				for i := ck.offset; i < ck.offset+ck.n; i++ {
					buf[i] = byte(ck.frame + 1)
				}
			}
		}
		end = sp.Now()
		for i, b := range buf {
			if b != byte(frames) {
				panic(fmt.Sprintf("bitmap: frame buffer byte %d = %d, want %d", i, b, frames))
			}
		}
	})
	if err := sys.Run(); err != nil {
		return nil, err
	}
	res.Elapsed = end.Sub(start)
	secs := res.Elapsed.Seconds()
	if secs > 0 {
		res.MBytesPerSec = float64(fb) * float64(frames) / secs / 1e6
		res.FPS = float64(frames) / secs
	}
	return res, nil
}
