package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/runner"
)

// TestLatchPolicySpecHash: the new latch_policy spec field must react to
// the sweep axis without disturbing the identity of pre-elision specs
// (LatchPlain is omitted from the JSON, so journaled hashes stay valid).
func TestLatchPolicySpecHash(t *testing.T) {
	base := DefaultScale
	h := runner.SpecHash(base.Spec("fig2a"))
	elided := base
	elided.LatchPolicy = config.LatchHTM
	if runner.SpecHash(elided.Spec("fig2a")) == h {
		t.Error("latch policy change did not change the spec hash")
	}
	b, err := base.SpecJSON("fig2a")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("latch_policy")) {
		t.Errorf("plain-policy spec mentions latch_policy (breaks journaled hashes): %s", b)
	}
}

// TestLatchElisionExperiment runs the ext-htm figure at test scale and
// checks the arms behave like their policies: elision arms speculate,
// plain arms do not, and the stall-attribution table reconciles.
func TestLatchElisionExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res, err := LatchElision(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 6 {
		t.Fatalf("want 6 arms, got %d", len(res.Reports))
	}
	oltpHTM := res.Reports[2]
	if oltpHTM.HTMBegins == 0 {
		t.Error("OLTP elision arm never started a transaction")
	}
	if oltpHTM.HTMCommits+oltpHTM.HTMFallbacks == 0 {
		t.Error("OLTP elision arm neither committed nor fell back")
	}
	for _, i := range []int{0, 1, 3, 4} { // plain and hints arms
		r := res.Reports[i]
		if r.HTMBegins != 0 || r.HTMAborts() != 0 {
			t.Errorf("non-elision arm %s shows HTM activity", r.Label)
		}
	}
	joined := strings.Join(res.Tables, "\n")
	if !strings.Contains(joined, "htm latch elision:") {
		t.Error("attribution table missing the HTM lifecycle report")
	}
	if !strings.Contains(joined, "reconcile error") {
		t.Error("attribution table missing the reconciliation line")
	}
}

// TestLatchCapacityExperiment checks the acceptance criterion that the
// capacity-abort rate responds to the configured write-set bound: a
// 1-line bound must see at least as many capacity aborts as a 32-line
// bound, and widening the bound must not lose commits.
func TestLatchCapacityExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res, err := LatchCapacity(testScale())
	if err != nil {
		t.Fatal(err)
	}
	tight, roomy := res.Reports[0], res.Reports[len(res.Reports)-1]
	if tight.HTMBegins == 0 || roomy.HTMBegins == 0 {
		t.Fatal("capacity sweep arms never speculated")
	}
	if tight.HTMCapacityAborts < roomy.HTMCapacityAborts {
		t.Errorf("capacity aborts did not respond to the bound: wset-1 %d < wset-32 %d",
			tight.HTMCapacityAborts, roomy.HTMCapacityAborts)
	}
	if tight.HTMCapacityAborts == 0 {
		t.Error("1-line write-set bound produced no capacity aborts")
	}
	if roomy.HTMCommits < tight.HTMCommits {
		t.Errorf("widening the bound lost commits: wset-32 %d < wset-1 %d",
			roomy.HTMCommits, tight.HTMCommits)
	}
}
