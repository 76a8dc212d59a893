package bench

import (
	"strings"
	"testing"
)

func TestBackendsAgreeAndCompress(t *testing.T) {
	cases, err := DefaultBackendCases()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunBackends(cases)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cases) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MaxDiff > 1e-8 {
			t.Errorf("%s: backends disagree by %g", r.Name, r.MaxDiff)
		}
	}
	// The GHZ case must show DD compression: far fewer nodes than amplitudes.
	ghz := rows[0]
	if ghz.DDNodes*16 > ghz.ArrayAmps {
		t.Errorf("ghz: DD nodes %d show no compression vs %d amplitudes", ghz.DDNodes, ghz.ArrayAmps)
	}
	out := RenderBackends(rows)
	if !strings.Contains(out, "ghz-14") || !strings.Contains(out, "DD nodes") {
		t.Fatalf("render missing content:\n%s", out)
	}
}
