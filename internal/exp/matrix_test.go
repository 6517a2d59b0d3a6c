package exp

import (
	"reflect"
	"testing"

	"abw/internal/runner"
)

// TestMatrixDeterminism is the runner contract applied to the matrix:
// identical results at every worker count, because each (scenario, tool)
// cell derives everything from the config seed and its own indices.
func TestMatrixDeterminism(t *testing.T) {
	defer runner.SetWorkers(0)
	cfg := MatrixConfig{
		Tools:     []string{"delphi", "spruce"},
		Scenarios: []string{"canonical", "narrowtight", "bursty", "multibottleneck"},
		Quick:     true,
		Seed:      7,
	}
	runner.SetWorkers(1)
	serial, err := Matrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		runner.SetWorkers(workers)
		parallel, err := Matrix(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("matrix results differ between -parallel 1 and -parallel %d", workers)
		}
	}
}

// TestMatrixGroundTruth checks the matrix against the catalog's known
// conditions: sane estimates on the canonical path, and the
// narrow≠tight flag raised exactly where the catalog says so.
func TestMatrixGroundTruth(t *testing.T) {
	res, err := Matrix(MatrixConfig{
		Tools:     []string{"delphi"},
		Scenarios: []string{"canonical", "narrowtight"},
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(res.Cells))
	}
	for _, cell := range res.Cells {
		if cell.Err != nil {
			t.Fatalf("%s/%s: %v", cell.Scenario, cell.Tool, cell.Err)
		}
	}
	canon, _ := res.Cell("canonical", "delphi")
	if got := canon.Report.Point.MbpsOf(); got < 15 || got > 35 {
		t.Errorf("delphi on canonical = %.2f Mbps, want ~25", got)
	}
	for _, sc := range res.Scenarios {
		wantSplit := sc.Name == "narrowtight"
		if (sc.TightLink != sc.NarrowLink) != wantSplit {
			t.Errorf("%s: tight %d narrow %d, split=%v unexpected", sc.Name, sc.TightLink, sc.NarrowLink, wantSplit)
		}
	}
	tab := res.Table()
	if len(tab.Rows) != 2 || len(tab.Header) != 5 {
		t.Errorf("table shape %dx%d, want 2 rows x 5 cols", len(tab.Rows), len(tab.Header))
	}
}
