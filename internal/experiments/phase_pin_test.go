package experiments

import (
	"hash/fnv"
	"testing"
)

// phaseTablesDigest pins the seed-42 quick reports of every experiment
// that prints per-phase function timings (Figures 9-13, Table 3, the
// Section 5.3.2 ablations, batching). A phase that stops being recorded
// makes appendPhaseRows print no rows rather than fail, so the rendered
// text is the check.
const phaseTablesDigest = 0x24d87a28e20518e8

func TestPhaseTablesPinned(t *testing.T) {
	h := fnv.New64a()
	for _, id := range []string{"fig9", "fig10", "tab3", "fig11", "fig12", "sec532x", "fig13", "batching"} {
		h.Write([]byte(runQuick(t, id).Render()))
	}
	if got := h.Sum64(); got != phaseTablesDigest {
		t.Errorf("phase tables digest = %#x, want %#x", got, phaseTablesDigest)
	}
}
