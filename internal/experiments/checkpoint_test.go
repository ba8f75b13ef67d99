package experiments

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/core"
)

// TestCheckpointRestoreFallback: a missing, truncated, corrupted, or
// spec-mismatched checkpoint must not poison the run — it is rejected
// with a classified error and the run completes from scratch, matching
// the DSS/plain identity cell's production arm byte for byte.
func TestCheckpointRestoreFallback(t *testing.T) {
	t.Parallel()
	c := cellNamed("DSS/plain")
	on := get(t, c, "on")
	valid := get(t, c, "interrupted").image
	corrupted := append([]byte(nil), valid...)
	corrupted[len(corrupted)-20] ^= 0xff // flip a payload byte under the hash

	for _, tc := range []struct {
		name  string
		image []byte // nil leaves the file missing
		spec  string
		is    func(error) bool
	}{
		{"missing", nil, "", func(err error) bool { return errors.Is(err, os.ErrNotExist) }},
		{"truncated", valid[:len(valid)/2], "", checkpoint.IsCorrupt},
		{"corrupted", corrupted, "", checkpoint.IsCorrupt},
		{"spec-mismatch", valid, "some-other-spec", func(err error) bool { return errors.Is(err, core.ErrSpecMismatch) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.ckpt")
			if tc.image != nil {
				if err := os.WriteFile(path, tc.image, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got := simulate(t, c, arm{every: captureEvery, restore: path, spec: tc.spec})
			if got.err != nil {
				t.Fatal(got.err)
			}
			if got.fallback == nil {
				t.Fatal("restore did not fall back")
			}
			if !tc.is(got.fallback) {
				t.Errorf("fallback error is not classified: %v", got.fallback)
			}
			same(t, on, got, "on", tc.name)
		})
	}
}

// TestCheckpointRequiresFactory: Restore without a Checkpoint factory is
// a caller error, not a silent from-scratch run.
func TestCheckpointRequiresFactory(t *testing.T) {
	sc := testScale()
	sc.Restore = filepath.Join(t.TempDir(), "nope.ckpt")
	if _, err := RunDSS(config.Default(), sc, "ck-misuse"); err == nil {
		t.Fatal("Restore without Checkpoint factory did not error")
	}
}
