package main

import (
	"bytes"
	"math"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestScheduleDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a := w.makeSchedule(7, w.rate, 2000, int32(w.nodes)).bytes()
		b := w.makeSchedule(7, w.rate, 2000, int32(w.nodes)).bytes()
		c := w.makeSchedule(8, w.rate, 2000, int32(w.nodes)).bytes()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: one seed gave two schedules", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: two seeds gave one schedule", w.name)
		}
	}
}

func TestSchedulePoissonMeanAndMix(t *testing.T) {
	const n = 20000
	for _, w := range workloads {
		s := w.makeSchedule(3, w.rate, n, int32(w.nodes))
		// n exponential gaps of mean 1/rate: the sum has relative standard
		// deviation 1/sqrt(n) (0.7%), so 4% is far outside chance.
		gotRate := n / s.ops[n-1].due.Seconds()
		if math.Abs(gotRate/w.rate-1) > 0.04 {
			t.Errorf("%s: arrival rate %.2f, want %.2f", w.name, gotRate, w.rate)
		}
		reads := float64(n - s.writes())
		if math.Abs(reads/n-w.readFrac) > 0.02 {
			t.Errorf("%s: read share %.3f, want %.3f", w.name, reads/n, w.readFrac)
		}
		wid := int32(w.nodes)
		for i, o := range s.ops {
			if i > 0 && o.due < s.ops[i-1].due {
				t.Fatalf("%s: op %d due before op %d", w.name, i, i-1)
			}
			if o.key < 0 || int(o.key) >= w.nodes {
				t.Fatalf("%s: key %d out of range", w.name, o.key)
			}
			if o.kind == opWrite {
				if o.wid != wid {
					t.Fatalf("%s: write id %d, want %d", w.name, o.wid, wid)
				}
				wid++
			}
		}
	}
}

// TestPhaseSizesGiveP99 checks that every phase whose p99 is reported is
// sized to hold at least 1010 samples (10 beyond the p99) by five binomial
// standard deviations, so no seed falls short.
func TestPhaseSizesGiveP99(t *testing.T) {
	enough := func(n int, p float64) bool {
		return float64(n)*p-5*math.Sqrt(float64(n)*p*(1-p)) >= 100*minBeyond+minBeyond
	}
	for _, w := range workloads {
		if !enough(w.ops, 1-w.readFrac) || !enough(w.ops, w.readFrac) {
			t.Errorf("%s: %d measured ops may leave too few reads or writes", w.name, w.ops)
		}
		if !enough(w.ladderOps, 1-w.readFrac) {
			t.Errorf("%s: %d ops per ladder step may leave too few writes", w.name, w.ladderOps)
		}
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	p := payload(12345, 128)
	if wid, ok := payloadID(p, 128); !ok || wid != 12345 {
		t.Fatalf("payloadID = %d, %v", wid, ok)
	}
	p[77] ^= 1
	if _, ok := payloadID(p, 128); ok {
		t.Fatal("a corrupted payload passed")
	}
	if _, ok := payloadID(payload(1, 64), 128); ok {
		t.Fatal("a payload of the wrong size passed")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	if _, ok := percentile(xs(999), 99); ok {
		t.Error("p99 of 999 samples has 9 beyond it, reported anyway")
	}
	if v, ok := percentile(xs(1000), 99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if v, ok := percentile(xs(100), 50); !ok || v != 50 {
		t.Errorf("p50 of 1..100 = %v, %v; want 50, true", v, ok)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported")
	}
	m := metrics{}
	if err := m.setPct("x_p99_ms", xs(500), 99, false); err == nil {
		t.Error("setPct accepted p99 of 500 samples")
	}
	if err := m.setPct("x_p50_ms", xs(500), 50, false); err != nil || m["x_p50_ms"].n != 500 {
		t.Errorf("setPct p50: %v, n=%d", err, m["x_p50_ms"].n)
	}
}

func TestLayerAttribution(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.chansend1", "faaskeeper/internal/sim.(*Kernel).park", "faaskeeper/internal/core.(*Deployment).leaderHandler"}, "sim"},
		{[]string{"runtime.mallocgc", "faaskeeper/internal/cloud/kv.(*Table).Update", "faaskeeper/internal/core.x"}, "kv"},
		{[]string{"encoding/gob.(*Encoder).Encode", "faaskeeper/internal/core.Request.Encode"}, "gob"},
		{[]string{"reflect.Value.Field", "encoding/gob.(*Decoder).decodeStruct", "faaskeeper/internal/core.DecodeRequest"}, "gob"},
		{[]string{"faaskeeper/internal/cloud.(*Env).Charge", "faaskeeper/internal/cloud/queue.(*Queue).Send"}, "cloud"},
		{[]string{"faaskeeper/internal/fkclient.(*Client).fetch.func1", "faaskeeper/internal/sim.(*Kernel).Go.func1"}, "fkclient"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "sim"},
		{[]string{"main.(*bench).report", "main.main"}, ""},
		{nil, ""},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

var sink float64

//go:noinline
func burn(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink += math.Sqrt(float64(i))
		}
	}
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Frames run leaf first: burn's caller follows it.
	for _, s := range samples {
		for i, f := range s.frames {
			if f == "faaskeeper/fkbench.burn" && i+1 < len(s.frames) &&
				s.frames[i+1] == "faaskeeper/fkbench.TestParseCPUProfile" && s.ns > 0 {
				return
			}
		}
	}
	t.Fatalf("no sample of %d shows burn called from the test", len(samples))
}

// TestRepMetricsAndDeterminism runs a scaled-down copy of every workload
// traced and untraced: the virtual metrics must agree exactly, and every
// metric name must be well formed.
func TestRepMetricsAndDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs deployments")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, full := range workloads {
		w := *full
		w.ops, w.warmOps = 400, 40
		w.nodes = min(w.nodes, 256)
		w.watched = min(w.watched, w.nodes)
		b := newBench(&w, 5, 0)
		plain := b.runRep(false, false)
		traced := b.runRep(true, true)
		for _, e := range b.errs {
			// Small runs cannot report every percentile; every other
			// check must hold.
			if !strings.Contains(e, "samples leave fewer than") {
				t.Errorf("%s: %s", w.name, e)
			}
		}
		for n, m := range plain.virtual {
			if traced.virtual[n].Value != m.Value {
				t.Errorf("%s: %s traced %v, untraced %v", w.name, n, traced.virtual[n].Value, m.Value)
			}
		}
		cpu := metrics{}
		for _, l := range cpuLayers {
			cpu.set(l+".cpu_us_per_op", 1, "us")
		}
		for _, set := range []metrics{plain.virtual, plain.layer, traced.layer, cpu} {
			for n, m := range set {
				if !name.MatchString(n) || m.Unit == "" {
					t.Errorf("%s: bad metric %q unit %q", w.name, n, m.Unit)
				}
			}
		}
		if plain.heapMB <= 0 || plain.allocs <= 0 || plain.allocKB <= 0 {
			t.Errorf("%s: heap %v MB, %v allocs and %v kB per op; want all positive", w.name, plain.heapMB, plain.allocs, plain.allocKB)
		}
		if _, ok := traced.layer["stage.leader.commit_ms"]; !ok {
			t.Errorf("%s: traced run reports no stage metrics", w.name)
		}
		if _, err := parseCPUProfile(traced.profile); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}
