package clitest

import (
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// parseObsmetrics collects every "OBSMETRIC name=value ..." token from a
// tool's output into one map; a token's value follows its last '='.
func parseObsmetrics(t *testing.T, out string) map[string]float64 {
	t.Helper()
	m := map[string]float64{}
	for _, line := range strings.Split(out, "\n") {
		i := strings.Index(line, "OBSMETRIC ")
		if i < 0 {
			continue
		}
		for _, tok := range strings.Fields(line[i+len("OBSMETRIC "):]) {
			eq := strings.LastIndex(tok, "=")
			if eq <= 0 {
				continue
			}
			v, err := strconv.ParseFloat(tok[eq+1:], 64)
			if err != nil {
				t.Fatalf("unparseable OBSMETRIC token %q: %v", tok, err)
			}
			m[tok[:eq]] = v
		}
	}
	if len(m) == 0 {
		t.Fatalf("no OBSMETRIC lines in output:\n%s", out)
	}
	return m
}

// TestSkewload is the load-e2e gate: skewload drives a real skewd twice —
// fsync-per-line and group-commit — over HTTP, and the run doubles as a
// durability audit (every acked id fetched back). Group commit must
// amortize fsyncs without losing a single acknowledged job, and must not
// cost admission throughput.
func TestSkewload(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	root := repoRoot(t)
	tmp := t.TempDir()
	bin, model, _ := skewdFixture(t, tmp)
	design := filepath.Join(tmp, "d.json")
	loadBin := filepath.Join(tmp, "skewload")
	run(t, root, "build", "-o", loadBin, "./cmd/skewload")

	const jobs = 48
	drive := func(name string, daemonArgs ...string) map[string]float64 {
		t.Helper()
		args := append([]string{
			"-spool", filepath.Join(tmp, "spool-"+name),
			"-model", model, "-workers", "1", "-queue", "512",
		}, daemonArgs...)
		d := startSkewd(t, bin, args...)
		out, code := runBin(t, loadBin,
			"-addr", d.url, "-design", design,
			"-jobs", strconv.Itoa(jobs), "-clients", "8", "-seed", "1")
		if code != 0 {
			t.Fatalf("%s: skewload exit %d (want 0)\n%s\ndaemon stderr:\n%s",
				name, code, out, d.stderr)
		}
		m := parseObsmetrics(t, out)
		d.kill9(t)
		return m
	}

	perLine := drive("perline", "-journal-batch", "1")
	group := drive("group", "-journal-batch", "32", "-journal-window", "2ms")

	for name, m := range map[string]map[string]float64{"perline": perLine, "group": group} {
		if m["skewload.acked"] != jobs {
			t.Errorf("%s: acked %.0f jobs, want %d", name, m["skewload.acked"], jobs)
		}
		if m["skewload.lost"] != 0 {
			t.Errorf("%s: %0.f acked jobs lost", name, m["skewload.lost"])
		}
	}
	// Per-line discipline syncs once per admitted record; group commit must
	// amortize meaningfully under 8 concurrent clients.
	if perLine["skewload.fsyncs_per_job"] < 0.99 {
		t.Errorf("per-line run amortized fsyncs (%.3f per job); batch=1 must sync every record",
			perLine["skewload.fsyncs_per_job"])
	}
	if ratio := group["skewload.fsyncs_per_job"] / perLine["skewload.fsyncs_per_job"]; !(ratio <= 0.7) || math.IsNaN(ratio) {
		t.Errorf("group commit fsyncs/job ratio %.3f, want <= 0.7 (group %.3f vs per-line %.3f)",
			ratio, group["skewload.fsyncs_per_job"], perLine["skewload.fsyncs_per_job"])
	}
	// Throughput floor is deliberately loose (0.5x): the assertion is that
	// batching never tanks admission, not a benchmark.
	if ratio := group["skewload.jobs_per_sec"] / perLine["skewload.jobs_per_sec"]; !(ratio >= 0.5) || math.IsNaN(ratio) {
		t.Errorf("group commit throughput ratio %.3f, want >= 0.5 (group %.1f vs per-line %.1f jobs/s)",
			ratio, group["skewload.jobs_per_sec"], perLine["skewload.jobs_per_sec"])
	}

	// Rate-limited hotkey run: the hot tenant must hit 429s, skewload must
	// ride them out via Retry-After-guided retries, and still lose nothing.
	t.Run("ratelimited-hotkey", func(t *testing.T) {
		d := startSkewd(t, bin,
			"-spool", filepath.Join(tmp, "spool-rate"),
			"-model", model, "-workers", "1", "-queue", "512",
			"-journal-batch", "32", "-journal-window", "2ms",
			"-rate", "50", "-burst", "4")
		out, code := runBin(t, loadBin,
			"-addr", d.url, "-design", design,
			"-jobs", "32", "-clients", "8", "-seed", "7",
			"-pattern", "hotkey", "-tenants", "4", "-retries", "200")
		if code != 0 {
			t.Fatalf("skewload exit %d (want 0)\n%s\ndaemon stderr:\n%s", code, out, d.stderr)
		}
		m := parseObsmetrics(t, out)
		if m["skewload.acked"] != 32 || m["skewload.lost"] != 0 {
			t.Errorf("acked=%.0f lost=%.0f, want 32 acked and 0 lost", m["skewload.acked"], m["skewload.lost"])
		}
		if m["skewload.throttled_429s"] == 0 {
			t.Errorf("hot tenant at 8x the refill rate never saw a 429; limiter not engaged")
		}
		d.kill9(t)
	})
}
