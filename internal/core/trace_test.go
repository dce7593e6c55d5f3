package core

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"monarch/internal/obs"
	"monarch/internal/trace"
)

// readAll drives reads of every fixture file through the middleware,
// epochs times, marking trace epoch boundaries.
func readAll(t *testing.T, f *fixture, nfiles, fileSize, epochs int) {
	t.Helper()
	ctx := context.Background()
	buf := make([]byte, fileSize)
	for e := 1; e <= epochs; e++ {
		for i := 0; i < nfiles; i++ {
			name := fileName(i)
			if _, err := f.m.ReadAt(ctx, name, buf, 0); err != nil {
				t.Fatalf("read %s: %v", name, err)
			}
		}
		f.waitIdle(t)
		f.m.MarkEpoch(e)
	}
}

// fileName mirrors newFixture's naming.
func fileName(i int) string { return fmt.Sprintf("f%03d", i) }

func TestTraceCaptureRoundTrip(t *testing.T) {
	const nfiles, fileSize, epochs = 6, 4096, 2
	path := filepath.Join(t.TempDir(), "core.jsonl")
	f := newFixture(t, 0, nfiles, fileSize, func(c *Config) {
		c.TracePath = path
	})
	readAll(t, f, nfiles, fileSize, epochs)
	stats := f.m.Stats()
	f.m.Close()

	tr, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Complete() {
		t.Fatal("trace has no trailer")
	}
	if len(tr.Files) != nfiles {
		t.Fatalf("trace defines %d files, want %d", len(tr.Files), nfiles)
	}
	for _, fl := range tr.Files {
		if fl.Size != fileSize {
			t.Fatalf("file %q size %d, want %d (Init should register sizes)", fl.Name, fl.Size, fileSize)
		}
	}

	var reads, places, epochMarks int64
	for _, ev := range tr.Events {
		switch ev.Kind {
		case trace.KindRead:
			reads++
		case trace.KindPlacement:
			places++
		case trace.KindEpoch:
			epochMarks++
		}
	}
	var wantReads int64
	for _, v := range stats.ReadsServed {
		wantReads += v
	}
	if reads != wantReads {
		t.Fatalf("trace records %d reads, stats say %d", reads, wantReads)
	}
	if places != stats.Placements+stats.PlacementSkips+stats.PlacementErrors {
		t.Fatalf("trace records %d placements, stats say %d", places,
			stats.Placements+stats.PlacementSkips+stats.PlacementErrors)
	}
	if epochMarks != epochs {
		t.Fatalf("epoch markers = %d, want %d", epochMarks, epochs)
	}

	// The trailer summary is the Stats flattening the replayer verifies
	// against.
	for key, want := range map[string]int64{
		"placements":   stats.Placements,
		"placed_bytes": stats.PlacedBytes,
		"reads_tier_0": stats.ReadsServed[0],
		"reads_tier_1": stats.ReadsServed[1],
		"bytes_tier_0": stats.BytesServed[0],
		"bytes_tier_1": stats.BytesServed[1],
	} {
		if got := tr.Summary[key]; got != want {
			t.Fatalf("trailer %s = %d, want %d", key, got, want)
		}
	}
	if tr.Stats["dropped"] != 0 {
		t.Fatalf("capture dropped %d events", tr.Stats["dropped"])
	}
}

// eventsTotal reads a monarch_events_total series from the registry.
func eventsTotal(t *testing.T, m *Monarch, kind string) int64 {
	t.Helper()
	v, ok := m.Registry().Snapshot().Value("monarch_events_total", obs.L("kind", kind))
	if !ok {
		t.Fatalf("monarch_events_total{kind=%q} not registered", kind)
	}
	return int64(v)
}

// TestTraceSamplingParity is the lock-step regression test: with
// sampling enabled the trace may thin plain read hits, but every
// event-worthy record must still match monarch_events_total exactly,
// and the recorder's accounting must balance.
func TestTraceSamplingParity(t *testing.T) {
	const nfiles, fileSize, epochs = 8, 4096, 3
	for _, sample := range []int{1, 5} {
		path := filepath.Join(t.TempDir(), "parity.jsonl")
		// Quota fits half the files and LRU churns them, so placements,
		// skips and evictions all fire; chunked placement adds chunk
		// copies and possibly mid-copy partial hits.
		f := newFixture(t, int64(nfiles/2*fileSize), nfiles, fileSize, func(c *Config) {
			c.TracePath = path
			c.TraceSample = sample
			c.ChunkSize = 1024
			c.Eviction = NewLRU()
		})
		readAll(t, f, nfiles, fileSize, epochs)
		rst := f.m.Tracer().Stats()
		f.m.Close()

		if rst.Seen != rst.Recorded+rst.SampledOut+rst.Dropped {
			t.Fatalf("sample=%d: accounting broken: %+v", sample, rst)
		}
		if rst.Dropped != 0 {
			t.Fatalf("sample=%d: dropped %d events", sample, rst.Dropped)
		}
		if sample > 1 && rst.SampledOut == 0 {
			t.Fatalf("sample=%d thinned nothing over %d events", sample, rst.Seen)
		}
		if sample == 1 && rst.SampledOut != 0 {
			t.Fatalf("sample=1 thinned %d events", rst.SampledOut)
		}

		tr, err := trace.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[trace.Kind]int64{}
		classes := map[trace.Class]int64{}
		for _, ev := range tr.Events {
			kinds[ev.Kind]++
			if ev.Kind == trace.KindRead || ev.Kind == trace.KindState {
				classes[ev.Class]++
			}
		}

		placeEvents := eventsTotal(t, f.m, "placed") + eventsTotal(t, f.m, "skipped") + eventsTotal(t, f.m, "failed")
		if kinds[trace.KindPlacement] != placeEvents {
			t.Fatalf("sample=%d: trace has %d placement records, events_total says %d",
				sample, kinds[trace.KindPlacement], placeEvents)
		}
		if got, want := kinds[trace.KindChunkCopy], eventsTotal(t, f.m, "chunk-placed"); got != want {
			t.Fatalf("sample=%d: chunk copies %d vs events_total %d", sample, got, want)
		}
		if got, want := classes[trace.ClassPartial], eventsTotal(t, f.m, "partial-hit"); got != want {
			t.Fatalf("sample=%d: partial hits %d vs events_total %d", sample, got, want)
		}
		if got, want := classes[trace.ClassFallback], eventsTotal(t, f.m, "fallback"); got != want {
			t.Fatalf("sample=%d: fallbacks %d vs events_total %d", sample, got, want)
		}
		stateEvents := eventsTotal(t, f.m, "demoted") + eventsTotal(t, f.m, "evicted") +
			eventsTotal(t, f.m, "tier-down") + eventsTotal(t, f.m, "tier-up")
		if kinds[trace.KindState] != stateEvents {
			t.Fatalf("sample=%d: state records %d vs events_total %d", sample, kinds[trace.KindState], stateEvents)
		}
		if stateEvents == 0 {
			t.Fatalf("sample=%d: workload produced no evictions; parity test lost its teeth", sample)
		}

		// Sampling must account for exactly the plain hits it removed.
		stats := f.m.Stats()
		var totalReads int64
		for _, v := range stats.ReadsServed {
			totalReads += v
		}
		if got := kinds[trace.KindRead] + rst.SampledOut; got != totalReads {
			t.Fatalf("sample=%d: recorded %d + sampled-out %d != %d reads",
				sample, kinds[trace.KindRead], rst.SampledOut, totalReads)
		}

		// The registry view and the recorder agree.
		snap := f.m.Registry().Snapshot()
		if v, ok := snap.Value("monarch_trace_events_total", obs.L("disposition", "recorded")); !ok || int64(v) != rst.Recorded {
			t.Fatalf("sample=%d: registry recorded=%v ok=%v, recorder %d", sample, v, ok, rst.Recorded)
		}
		if v, ok := snap.Value("monarch_trace_events_total", obs.L("disposition", "sampled-out")); !ok || int64(v) != rst.SampledOut {
			t.Fatalf("sample=%d: registry sampled-out=%v ok=%v, recorder %d", sample, v, ok, rst.SampledOut)
		}
	}
}

// TestTraceOverheadPathUnconfigured locks the zero-cost default: no
// TracePath means no tracer, no span hook allocation beyond the
// configured one, and MarkEpoch/Tracer stay safe.
func TestTraceOverheadPathUnconfigured(t *testing.T) {
	f := newFixture(t, 0, 2, 128, nil)
	if f.m.Tracer() != nil {
		t.Fatal("tracer exists without TracePath")
	}
	f.m.MarkEpoch(1) // must not panic
	buf := make([]byte, 128)
	if _, err := f.m.ReadAt(context.Background(), "f000", buf, 0); err != nil {
		t.Fatal(err)
	}
}
