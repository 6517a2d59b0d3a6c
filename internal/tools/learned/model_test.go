package learned

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// trainCase builds a noiseless linear problem y = 0.5 + 0.2·x0 − 0.1·x1
// plus a constant column, the degenerate case standardization must
// survive.
func trainCase() ([][]float64, []float64) {
	var X [][]float64
	var y []float64
	for i := 0; i < 40; i++ {
		x0 := float64(i) / 40
		x1 := float64(i%7) / 7
		X = append(X, []float64{x0, x1, 1})
		y = append(y, 0.5+0.2*x0-0.1*x1)
	}
	return X, y
}

func testPlan() ProbePlan {
	return ProbePlan{RateFracs: []float64{0.5}, StreamLen: 20, PktSize: 1000, StreamsPerFrac: 1}
}

func TestTrainRecoversLinearMap(t *testing.T) {
	X, y := trainCase()
	w, err := Train(X, y, TrainConfig{
		Lambda: 1e-6, Blend: 1, // pure ridge, negligible penalty
		Plan: testPlan(), FeatureNames: []string{"x0", "x1", "const"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		got, err := w.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-y[i]) > 1e-3 {
			t.Fatalf("row %d: predict %.5f, want %.5f", i, got, y[i])
		}
	}
	// The constant column must carry no weight.
	if c := w.Ridge.Coef[2]; math.Abs(c) > 1e-9 {
		t.Errorf("constant column coefficient = %g, want 0", c)
	}
}

func TestTrainDeterministic(t *testing.T) {
	X, y := trainCase()
	cfg := TrainConfig{Plan: testPlan(), FeatureNames: []string{"x0", "x1", "const"}}
	a, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two trainings on identical data differ")
	}
}

// TestWeightsJSONRoundTrip pins the round6 contract: serializing the
// trained weights and parsing them back must reproduce bit-identical
// predictions — the committed weight file IS the model.
func TestWeightsJSONRoundTrip(t *testing.T) {
	X, y := trainCase()
	w, err := Train(X, y, TrainConfig{Plan: testPlan(), FeatureNames: []string{"x0", "x1", "const"}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range X {
		a, _ := w.Predict(x)
		b, _ := back.Predict(x)
		if a != b {
			t.Fatalf("prediction changed across JSON round-trip: %v vs %v", a, b)
		}
	}
}

func TestPredictClampsToUnitInterval(t *testing.T) {
	w := &Weights{
		Schema: WeightsSchema, Plan: testPlan(),
		FeatureNames: []string{"x"},
		Mean:         []float64{0}, Std: []float64{1},
		Ridge: Ridge{Intercept: 0, Coef: []float64{10}},
		Blend: 1,
	}
	if err := w.validate(); err != nil {
		t.Fatal(err)
	}
	if y, _ := w.Predict([]float64{5}); y != 1 {
		t.Errorf("predict(5) = %g, want clamp to 1", y)
	}
	if y, _ := w.Predict([]float64{-5}); y != 0 {
		t.Errorf("predict(-5) = %g, want clamp to 0", y)
	}
}

func TestKNNInterpolatesAndBreaksTiesDeterministically(t *testing.T) {
	w := &Weights{
		Schema: WeightsSchema, Plan: testPlan(),
		FeatureNames: []string{"x"},
		Mean:         []float64{0}, Std: []float64{1},
		Ridge: Ridge{Intercept: 0, Coef: []float64{0}},
		KNN: KNN{
			K: 2,
			X: [][]float64{{-1}, {1}, {3}},
			Y: []float64{0.2, 0.4, 0.9},
		},
		Blend: 0, // pure kNN
	}
	if err := w.validate(); err != nil {
		t.Fatal(err)
	}
	// Query at 0: equidistant from −1 and 1 → equal weights → mean.
	y, err := w.Predict([]float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y-0.3) > 1e-9 {
		t.Errorf("equidistant kNN = %g, want 0.3", y)
	}
	// Query exactly on a memory row: that row dominates.
	y, _ = w.Predict([]float64{3})
	if math.Abs(y-0.9) > 1e-6 {
		t.Errorf("on-row kNN = %g, want ≈0.9", y)
	}
}

func TestTrainThinsKNNMemory(t *testing.T) {
	var X [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		X = append(X, []float64{float64(i)})
		y = append(y, float64(i)/100)
	}
	w, err := Train(X, y, TrainConfig{MaxKNNRows: 10, Plan: testPlan(), FeatureNames: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.KNN.X) > 10 {
		t.Errorf("kNN memory %d rows, budget 10", len(w.KNN.X))
	}
}

func TestValidateRejectsBadWeights(t *testing.T) {
	base := func() *Weights {
		return &Weights{
			Schema: WeightsSchema, Plan: testPlan(),
			FeatureNames: []string{"x"},
			Mean:         []float64{0}, Std: []float64{1},
			Ridge: Ridge{Coef: []float64{0}},
			Blend: 0.5,
		}
	}
	cases := []struct {
		name   string
		break_ func(*Weights)
	}{
		{"schema", func(w *Weights) { w.Schema = "nope" }},
		{"dims", func(w *Weights) { w.Std = nil }},
		{"blend", func(w *Weights) { w.Blend = 2 }},
		{"knn-shape", func(w *Weights) { w.KNN = KNN{K: 1, X: [][]float64{{1, 2}}, Y: []float64{0}} }},
		{"knn-k", func(w *Weights) { w.KNN = KNN{K: 0, X: [][]float64{{1}}, Y: []float64{0}} }},
		{"plan", func(w *Weights) { w.Plan.RateFracs = []float64{2} }},
		{"std-zero", func(w *Weights) { w.Std[0] = 0 }},
		{"std-negative", func(w *Weights) { w.Std[0] = -1 }},
		{"std-nan", func(w *Weights) { w.Std[0] = math.NaN() }},
		{"std-inf", func(w *Weights) { w.Std[0] = math.Inf(1) }},
		{"mean-nan", func(w *Weights) { w.Mean[0] = math.NaN() }},
		{"mean-inf", func(w *Weights) { w.Mean[0] = math.Inf(-1) }},
	}
	for _, tc := range cases {
		w := base()
		tc.break_(w)
		if err := w.validate(); err == nil {
			t.Errorf("%s: bad weights accepted", tc.name)
		}
	}
}

func TestPredictRejectsNonFiniteInput(t *testing.T) {
	X, y := trainCase()
	w, err := Train(X, y, TrainConfig{Plan: testPlan(), FeatureNames: []string{"x0", "x1", "const"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, err := w.Predict([]float64{0.5, v, 1}); err == nil {
			t.Errorf("Predict with input %g = %g, want an error", v, got)
		}
	}
}

func TestTrainRejectsBadShapes(t *testing.T) {
	plan := testPlan()
	if _, err := Train(nil, nil, TrainConfig{Plan: plan}); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := Train([][]float64{{1}, {1, 2}}, []float64{0, 1}, TrainConfig{Plan: plan, FeatureNames: []string{"x"}}); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := Train([][]float64{{1}}, []float64{0}, TrainConfig{Plan: plan, FeatureNames: []string{"a", "b"}}); err == nil {
		t.Error("name/dim mismatch accepted")
	}
}

func TestRound6(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{1.23456789, 1.23457},
		{-1.23456789, -1.23457},
		{0.000123456789, 0.000123457},
		{123456789, 123457000},
	}
	for _, tc := range cases {
		if got := round6(tc.in); got != tc.want {
			t.Errorf("round6(%g) = %g, want %g", tc.in, got, tc.want)
		}
	}
}

func TestDefaultWeightsParse(t *testing.T) {
	w, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Mean) != len(w.FeatureNames) {
		t.Errorf("embedded weights: %d means, %d names", len(w.Mean), len(w.FeatureNames))
	}
}
