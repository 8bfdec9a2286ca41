package experiments

import (
	"hash/fnv"
	"testing"
)

// pinnedReports lists seed-42 quick report sets whose rendered text is
// pinned by an FNV-64a digest.
//
// The first set is every experiment that prints per-phase function
// timings (Figures 9-13, Table 3, the Section 5.3.2 ablations, batching).
// A phase that stops being recorded makes appendPhaseRows print no rows
// rather than fail, so the rendered text is the check.
//
// The second set is the multi-session experiments that run on the
// scenario driver (batching is already in the first set): moving a
// runner onto the driver must not change a session connect or a process
// spawn, so their reports stay byte-identical.
var pinnedReports = []struct {
	ids    []string
	digest uint64
}{
	{[]string{"fig9", "fig10", "tab3", "fig11", "fig12", "sec532x", "fig13", "batching"}, 0x24d87a28e20518e8},
	{[]string{"sharding", "caching", "cost", "telemetry", "reshard", "txn"}, 0x643184e108591246},
}

func TestPhaseTablesPinned(t *testing.T) {
	for _, pin := range pinnedReports {
		h := fnv.New64a()
		for _, id := range pin.ids {
			h.Write([]byte(runQuick(t, id).Render()))
		}
		if got := h.Sum64(); got != pin.digest {
			t.Errorf("%v digest = %#x, want %#x", pin.ids, got, pin.digest)
		}
	}
}
