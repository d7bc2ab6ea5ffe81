package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// tailSamples is how many samples must lie beyond a reported tail
// percentile: a p99 read from fewer than ten slower samples is noise.
const tailSamples = 10

// tail is a tail-latency reading: the value at the highest percentile
// (capped at Cap) that still has tailSamples samples beyond it, with the
// percentile actually used and the sample count behind it.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
}

// tailPercentile picks the reported tail of xs. With n samples sorted
// ascending, the r-th smallest has n-r samples beyond it, so the highest
// admissible rank is n-tailSamples, i.e. percentile 100·(n-10)/n; the
// result is that or capPct, whichever is lower. Fewer than
// tailSamples+1 samples support no tail and return an error.
func tailPercentile(xs []float64, capPct float64) (tail, error) {
	n := len(xs)
	if n <= tailSamples {
		return tail{Samples: n}, fmt.Errorf("%d samples support no tail percentile (need more than %d)", n, tailSamples)
	}
	p := 100 * float64(n-tailSamples) / float64(n)
	if p > capPct {
		p = capPct
	}
	return tail{Value: percentile(xs, p), Percentile: p, Samples: n}, nil
}

// percentile returns the p-th percentile of xs by the nearest-rank rule:
// the smallest sample with at least p% of the samples at or below it.
// xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps float error in p/100·n from bumping an exact
	// rank (990 of 1000 at p99) to the next sample.
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle value (mean of the two middle values for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// metricName is the grammar every reported metric name must follow.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func validMetricName(name string) bool { return metricName.MatchString(name) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects named metrics, refusing malformed, unpublished and
// duplicate names so a typo cannot silently publish a metric nobody
// gates on. Units come from the published table.
type metricSet map[string]metric

func (m metricSet) put(name string, v float64) error {
	if !validMetricName(name) {
		return fmt.Errorf("metric name %q does not match %s", name, metricName)
	}
	unit, ok := units[name]
	if !ok {
		return fmt.Errorf("metric %q is not published", name)
	}
	if _, dup := m[name]; dup {
		return fmt.Errorf("metric %q reported twice", name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %q is %v", name, v)
	}
	m[name] = metric{Value: v, Unit: unit}
	return nil
}
