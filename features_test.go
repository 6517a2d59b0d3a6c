package abw_test

import (
	"encoding/json"
	"math"
	"testing"

	"abw"
)

// weightFileWithStd returns the embedded weight file with std[0]
// replaced, as a hand edit would leave it.
func weightFileWithStd(t *testing.T, std float64) []byte {
	t.Helper()
	w, err := abw.DefaultLearnedWeights()
	if err != nil {
		t.Fatal(err)
	}
	edited := *w
	edited.Std = append([]float64(nil), w.Std...)
	edited.Std[0] = std
	data, err := json.Marshal(&edited)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestParseLearnedWeightsRejectsNonPositiveStd(t *testing.T) {
	for _, std := range []float64{0, -0.5} {
		if _, err := abw.ParseLearnedWeights(weightFileWithStd(t, std)); err == nil {
			t.Errorf("weight file with std %g accepted; standardizing would divide by it", std)
		}
	}
	if _, err := abw.ParseLearnedWeights(weightFileWithStd(t, 0.5)); err != nil {
		t.Errorf("weight file with std 0.5 rejected: %v", err)
	}
}

func TestLearnedPredictRejectsNonFiniteInput(t *testing.T) {
	w, err := abw.ParseLearnedWeights(weightFileWithStd(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, len(w.Mean))
	if _, err := w.Predict(x); err != nil {
		t.Fatalf("finite input rejected: %v", err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		x[len(x)-1] = v
		if y, err := w.Predict(x); err == nil {
			t.Errorf("input with %g predicted %g, want an error", v, y)
		}
	}
}
