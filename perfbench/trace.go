package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are
// recorded from this package only, around calls into the program's
// public API; the program itself is never instrumented.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the parent span, -1 for a root
	Req    int64  `json:"req"`    // request (or replay block) the span belongs to
}

// tracer keeps spans in memory until the run ends. It is not safe for
// concurrent use: each goroutine records into its own tracer and the
// tracers are merged afterwards. A nil *tracer records nothing, which is
// how the untraced twin of a traced run is measured.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// begin opens a span starting now and returns its id.
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), End: -1, Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

// end closes span id now.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// add records an already-finished span.
func (t *tracer) add(name string, parent int32, req int64, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
		Parent: parent, Req: req,
	})
	return int32(len(t.spans) - 1)
}

// merge appends other's spans, re-basing their parent links.
func (t *tracer) merge(other *tracer) {
	base := int32(len(t.spans))
	for _, s := range other.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// layerTime is the per-name aggregate the self-time derivation yields.
type layerTime struct {
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // sum of durations minus child-covered time
	Root  bool          // spans of this name have no parent
}

// selfTimes derives each span name's self time: a span's duration
// minus the part of its interval that its children cover (the union of
// the child intervals, clipped to the parent).
func (t *tracer) selfTimes() map[string]*layerTime {
	children := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	out := make(map[string]*layerTime)
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{Root: s.Parent < 0}
			out[s.Name] = lt
		}
		dur := time.Duration(s.End - s.Start)
		lt.Count++
		lt.Total += dur
		lt.Self += dur - covered(t.spans, children[i], s.Start, s.End)
	}
	return out
}

// covered returns how much of [lo, hi) the given spans cover.
func covered(spans []span, ids []int32, lo, hi int64) time.Duration {
	if len(ids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(ids))
	for _, id := range ids {
		a, b := max(spans[id].Start, lo), min(spans[id].End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB int64 = 0, -1, -1
	for _, v := range iv {
		if v[0] > curB {
			sum += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	sum += curB - curA
	return time.Duration(sum)
}

// printLayers writes the self-time table and the layer-sum line: the
// non-root spans' self time as a fraction of base, the wall time the
// spans describe. It returns that fraction.
func printLayers(w io.Writer, title string, lt map[string]*layerTime, base time.Duration) float64 {
	names := make([]string, 0, len(lt))
	for n := range lt {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "layers (%s): self time per span name\n", title)
	var layers time.Duration
	for _, n := range names {
		l := lt[n]
		kind := "layer"
		if l.Root {
			kind = "root"
		} else {
			layers += l.Self
		}
		fmt.Fprintf(w, "  %-24s %-5s spans=%-8d total=%-12s self=%-12s %5.1f%% of base\n",
			n, kind, l.Count, l.Total.Round(time.Microsecond), l.Self.Round(time.Microsecond),
			100*float64(l.Self)/float64(base))
	}
	frac := float64(layers) / float64(base)
	fmt.Fprintf(w, "layer sum (%s): %.2f%% of base %s (sum of layer self times %s)\n",
		title, 100*frac, base.Round(time.Microsecond), layers.Round(time.Microsecond))
	return frac
}

// spanDir is where traced runs write their spans, under the build
// directory run.sh uses.
const spanDir = ".bench_build/perfbench-trace"

// writeSpans writes the spans as JSON lines to spanDir/name.
func (t *tracer) writeSpans(name string) (string, error) {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(spanDir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
