package scenario

import (
	"context"

	"witrack/internal/core"
	"witrack/internal/trace"
)

// cellDevice is a compiled tracking cell's device, built and set up in
// one place for every path that runs a cell: live scenario cells,
// recording, and trace replay (and with it every served session). One
// body runs on a core.Device, k bodies on a core.MultiDevice; pipe
// reaches either one's knobs and reports.
type cellDevice struct {
	c      *Compiled
	pipe   *core.Pipeline
	single *core.Device      // one-body cells
	multi  *core.MultiDevice // k-body cells
}

// newCellDevice builds c's device and applies the cell's setup: the
// worker count (opts.Workers, else c.Workers), the shared Pool, Batch
// and FrameDeadline, background calibration, and the spec's fault
// schedule. Calibration consumes the simulation RNG exactly as the
// recording device did, so live, recorded and replayed runs stay
// bit-identical; k-person devices have no calibrated background.
func newCellDevice(c *Compiled, opts ReplayOptions) (*cellDevice, error) {
	d := &cellDevice{c: c}
	if len(c.Trajectories) >= 2 {
		dev, err := core.NewMultiDevice(c.Config, c.Subjects[1:]...)
		if err != nil {
			return nil, err
		}
		d.multi, d.pipe = dev, &dev.Pipeline
	} else {
		dev, err := core.NewDevice(c.Config)
		if err != nil {
			return nil, err
		}
		d.single, d.pipe = dev, &dev.Pipeline
		if c.CalibrateFrames > 0 {
			dev.CalibrateBackground(c.CalibrateFrames)
		}
	}
	d.pipe.Workers = c.Workers
	if opts.Workers > 0 {
		d.pipe.Workers = opts.Workers
	}
	d.pipe.Pool, d.pipe.Batch, d.pipe.FrameDeadline = opts.Pool, opts.Batch, opts.FrameDeadline
	if c.Faults != nil {
		if err := d.pipe.InjectFaults(*c.Faults); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// run streams the cell through the pipeline — the compiled trajectories
// when src is nil, else src's recorded frames — and scores every fused
// sample into out, reporting each to observe (when non-nil) in frame
// order first. It returns the run's RunError (a watchdog stall).
func (d *cellDevice) run(ctx context.Context, src core.FrameSource, out *cellOutcome, observe func(ReplayFix)) error {
	var err error
	if d.multi != nil {
		var ch <-chan core.MultiSample
		if src == nil {
			ch, err = d.multi.Stream(ctx, d.c.Trajectories...)
		} else {
			ch, err = d.multi.StreamFrom(ctx, src)
		}
		if err != nil {
			return err
		}
		scoreMultiStream(ch, out, observe)
	} else {
		var ch <-chan core.Sample
		if src == nil {
			ch = d.single.Stream(ctx, d.c.Trajectories[0])
		} else if ch, err = d.single.StreamFrom(ctx, src); err != nil {
			return err
		}
		scoreTrackingStream(ch, d.c, out, observe)
	}
	if d.c.Faults != nil {
		out.recordFaults(d.pipe.FaultStats())
	}
	return d.pipe.RunError()
}

// recorder returns the trace header the cell records under: per-antenna
// range bins, or with sweeps the raw time-domain sweeps the device
// digitizes (int16 ADC codes when the radio models an ADC). The header
// alone decides what record writes.
func (d *cellDevice) recorder(sweeps bool) trace.Header {
	if sweeps {
		return d.pipe.SweepTraceHeader()
	}
	return d.pipe.TraceHeader()
}

// record captures the cell's compiled trajectories into tw in the form
// tw's header picks.
func (d *cellDevice) record(tw *trace.Writer) (int, error) {
	if d.multi != nil {
		return d.multi.RecordTo(tw, d.c.Trajectories...)
	}
	return d.single.RecordTo(tw, d.c.Trajectories[0])
}
