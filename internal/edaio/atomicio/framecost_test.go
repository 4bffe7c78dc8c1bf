package atomicio

import (
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// frameCostBound caps the median time of a framed append at this multiple
// of an unframed one, both synced per line: the CRC32C envelope must stay
// small next to the fsync every acknowledged journal record pays.
const frameCostBound = 1.15

// TestFrameCostOnSyncedAppend holds EncodeFrame + AppendLine to
// frameCostBound × a bare AppendLine of the same submit record on an
// fsync-per-line appender. The two alternate append by append on one
// file, so disk and host noise land on both sides of the ratio; timed in
// separate runs they spread too widely to compare.
func TestFrameCostOnSyncedAppend(t *testing.T) {
	payload := []byte(`{"seq":1,"kind":"submit","job":"j000001","spec":{"flow":"local","pairs":40}}`)
	g, err := OpenGroupAppender(filepath.Join(t.TempDir(), "jobs.journal"), GroupOptions{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	const rounds = 500
	bare := make([]time.Duration, rounds)
	framed := make([]time.Duration, rounds)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if err := g.AppendLine(payload); err != nil {
			t.Fatal(err)
		}
		bare[i] = time.Since(start)
		start = time.Now()
		line, err := EncodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.AppendLine(line); err != nil {
			t.Fatal(err)
		}
		framed[i] = time.Since(start)
	}
	b, f := medianDuration(bare), medianDuration(framed)
	ratio := float64(f) / float64(b)
	t.Logf("synced append: framed %v, bare %v (medians of %d): %.3f× (bound %.2f×)",
		f, b, rounds, ratio, frameCostBound)
	if ratio > frameCostBound {
		t.Fatalf("a framed synced append takes %.3f× a bare one; want ≤ %.2f×", ratio, frameCostBound)
	}
}

// medianDuration returns the median of ds, reordering ds.
func medianDuration(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}
