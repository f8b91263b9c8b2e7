package obs

import (
	"math"
	"sort"
	"sync"
)

// Streaming aggregation instruments: a log-bucketed online histogram
// and a reservoir-sampled quantile estimator. Both ingest in O(1) time
// and hold O(1) memory per child, so deployment-scale metrics stay
// O(APs) instead of O(tags) however many observations flow through.

// Log-histogram bucket span: upper bounds 2^minExp .. 2^maxExp. The
// range covers sub-microsecond kernel stages up to minute-scale runs;
// values at or below zero land in the first bucket, values above the
// last bound in +Inf.
const (
	logHistMinExp = -20 // 2^-20 s ~ 0.95 us
	logHistMaxExp = 6   // 2^6 s = 64 s
)

// logBuckets is the shared bound slice every LogHistogram family uses.
var logBuckets = func() []float64 {
	out := make([]float64, logHistMaxExp-logHistMinExp+1)
	for i := range out {
		out[i] = math.Ldexp(1, logHistMinExp+i)
	}
	return out
}()

// logBucketIndex maps a value to its bucket in O(1) via the float's
// exponent — no binary search, no per-family bound slice walks.
func logBucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	if math.IsInf(v, 1) {
		return len(logBuckets) // Frexp(+Inf) reports exponent 0
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	k := exp
	if frac == 0.5 { // exactly a power of two: it IS its own bound
		k = exp - 1
	}
	switch {
	case k < logHistMinExp:
		return 0
	case k > logHistMaxExp:
		return len(logBuckets) // +Inf bucket
	default:
		return k - logHistMinExp
	}
}

// LogHistogram is an online histogram over fixed power-of-two buckets.
// It renders exactly like a fixed-bucket Histogram (same exposition,
// same snapshot shape) but Observe is exponent math instead of a
// binary search, and callers never choose bounds. Nil instances no-op.
type LogHistogram struct{ m *metric }

// Observe records one observation.
func (h *LogHistogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.m.counts[logBucketIndex(v)].Add(1)
	h.m.count.Add(1)
	for {
		old := h.m.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.m.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *LogHistogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.m.count.Load()
}

// LogHistogramVec is a labeled LogHistogram family. Nil vecs return
// nil histograms.
type LogHistogramVec struct{ fam *family }

// With resolves the child for the label values.
func (v *LogHistogramVec) With(values ...string) *LogHistogram {
	if v == nil {
		return nil
	}
	return &LogHistogram{m: v.fam.child(values)}
}

// LogHistogram registers (or fetches) an unlabeled log-bucketed
// histogram.
func (r *Registry) LogHistogram(name, help string) *LogHistogram {
	if r == nil {
		return nil
	}
	return &LogHistogram{m: r.family(name, help, KindHistogram, logBuckets, nil).child(nil)}
}

// LogHistogramVec registers (or fetches) a labeled log-bucketed
// histogram family.
func (r *Registry) LogHistogramVec(name, help string, labels ...string) *LogHistogramVec {
	if r == nil {
		return nil
	}
	return &LogHistogramVec{fam: r.family(name, help, KindHistogram, logBuckets, labels)}
}

// quantilePoints are the quantiles every summary family reports —
// Prometheus-style p50/p90/p99.
var quantilePoints = []float64{0.5, 0.9, 0.99}

// reservoirCap bounds the sample memory per summary child (algorithm R
// keeps a uniform sample of the stream in this many slots).
const reservoirCap = 512

// reservoir is a uniform sample of an observation stream (Vitter's
// algorithm R) with a deterministic splitmix64 replacement stream: the
// same observation sequence always yields the same sample.
type reservoir struct {
	mu   sync.Mutex
	vals []float64
	seen uint64
	rng  uint64
}

// add offers one value to the sample.
func (s *reservoir) add(v float64) {
	s.mu.Lock()
	if s.vals == nil {
		// Full capacity up front, but only once the first observation
		// arrives: never-observed children stay at zero bytes, observed
		// ones pay one allocation instead of repeated append growth.
		s.vals = make([]float64, 0, reservoirCap)
	}
	s.seen++
	if len(s.vals) < reservoirCap {
		s.vals = append(s.vals, v)
	} else if j := s.next() % s.seen; j < reservoirCap {
		s.vals[j] = v
	}
	s.mu.Unlock()
}

// next advances the splitmix64 stream.
func (s *reservoir) next() uint64 {
	s.rng += 0x9e3779b97f4a7c15
	z := s.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// snapshot returns a sorted copy of the current sample.
func (s *reservoir) snapshot() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.vals...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

// Quantile is a reservoir-sampled quantile estimator (a Prometheus
// summary family reporting p50/p90/p99 plus sum and count). Memory is
// bounded at reservoirCap samples however long the stream runs. Nil
// instances no-op.
type Quantile struct{ m *metric }

// Observe records one observation.
func (q *Quantile) Observe(v float64) {
	if q == nil {
		return
	}
	q.m.count.Add(1)
	for {
		old := q.m.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if q.m.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	q.m.res.add(v)
}

// Count returns the number of observations.
func (q *Quantile) Count() uint64 {
	if q == nil {
		return 0
	}
	return q.m.count.Load()
}

// Value estimates the p-quantile (0 < p <= 1) from the current sample;
// NaN before the first observation.
func (q *Quantile) Value(p float64) float64 {
	if q == nil {
		return math.NaN()
	}
	return nearestRank(q.m.res.snapshot(), p)
}

// nearestRank picks the nearest-rank quantile from sorted values.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// QuantileVec is a labeled Quantile family. Nil vecs return nil
// estimators.
type QuantileVec struct{ fam *family }

// With resolves the child for the label values.
func (v *QuantileVec) With(values ...string) *Quantile {
	if v == nil {
		return nil
	}
	return &Quantile{m: v.fam.child(values)}
}

// Quantile registers (or fetches) an unlabeled quantile summary.
func (r *Registry) Quantile(name, help string) *Quantile {
	if r == nil {
		return nil
	}
	return &Quantile{m: r.family(name, help, KindSummary, nil, nil).child(nil)}
}

// QuantileVec registers (or fetches) a labeled quantile summary family.
func (r *Registry) QuantileVec(name, help string, labels ...string) *QuantileVec {
	if r == nil {
		return nil
	}
	return &QuantileVec{fam: r.family(name, help, KindSummary, nil, labels)}
}
