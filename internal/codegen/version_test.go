package codegen_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"livesim/internal/codegen"
	"livesim/internal/pgas"
)

// What Compile emits for the one-node PGAS design, both styles, at the
// Version it was recorded under. Object directories outlive the binary that
// filled them and are keyed on Version alone, so a lowering change has to
// come with a bump; this is what fails when it does not.
const (
	pinnedVersion = 2
	pinnedCode    = "a1587136a1dcfa52"
)

func TestVersionNamesWhatCompileEmits(t *testing.T) {
	d := elaborate(t, pgas.DesignSource(1), pgas.TopName(1))
	h := sha256.New()
	for _, style := range []codegen.Style{codegen.StyleGrouped, codegen.StyleMux} {
		for _, key := range d.Order {
			obj, err := codegen.Compile(d.Modules[key], codegen.Options{Style: style})
			if err != nil {
				t.Fatal(err)
			}
			h.Write([]byte(obj.Hash()))
		}
	}
	code := hex.EncodeToString(h.Sum(nil)[:8])
	switch {
	case code == pinnedCode && codegen.Version == pinnedVersion:
	case code != pinnedCode && codegen.Version == pinnedVersion:
		t.Errorf("Compile emits other code for PGAS (%s, pinned %s) under the same codegen.Version %d: bump Version, then pin both here",
			code, pinnedCode, pinnedVersion)
	default:
		t.Errorf("codegen.Version is %d: pin (%d, %q) here", codegen.Version, codegen.Version, code)
	}
}
