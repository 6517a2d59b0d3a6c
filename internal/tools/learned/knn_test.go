package learned

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// knnSorted is the reference knnPredict is held to: sort every stored
// row by (d², idx) and keep the first K.
func knnSorted(w *Weights, z []float64) float64 {
	type cand struct {
		d2  float64
		idx int
	}
	cands := make([]cand, len(w.KNN.X))
	for i, row := range w.KNN.X {
		var d2 float64
		for j := range row {
			d := z[j] - row[j]
			d2 += d * d
		}
		cands[i] = cand{d2, i}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].d2 != cands[b].d2 {
			return cands[a].d2 < cands[b].d2
		}
		return cands[a].idx < cands[b].idx
	})
	k := w.KNN.K
	if k > len(cands) {
		k = len(cands)
	}
	var num, den float64
	for _, c := range cands[:k] {
		wt := 1 / (math.Sqrt(c.d2) + 1e-9)
		num += wt * w.KNN.Y[c.idx]
		den += wt
	}
	return num / den
}

// TestKNNTopKMatchesSort compares the selection against the sorting
// reference bit for bit. Rows and queries sit on a coarse integer grid,
// and many rows are duplicated, so equal distances are the rule rather
// than the exception; K ranges past the row count and past the stack
// buffer.
func TestKNNTopKMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	grid := func() float64 { return float64(r.Intn(5) - 2) }
	for trial := 0; trial < 2000; trial++ {
		dim := 1 + r.Intn(4)
		rows := 1 + r.Intn(60)
		w := &Weights{KNN: KNN{K: 1 + r.Intn(rows+knnStackK/2)}}
		if trial%50 == 0 {
			w.KNN.K = knnStackK + 1 + r.Intn(8)
		}
		for i := 0; i < rows; i++ {
			var row []float64
			if i > 0 && r.Intn(4) == 0 {
				row = w.KNN.X[r.Intn(i)]
			} else {
				for j := 0; j < dim; j++ {
					row = append(row, grid())
				}
			}
			w.KNN.X = append(w.KNN.X, row)
			w.KNN.Y = append(w.KNN.Y, r.Float64())
		}
		z := make([]float64, dim)
		for j := range z {
			z[j] = grid()
			if r.Intn(3) == 0 {
				z[j] += r.Float64()
			}
		}
		got, want := w.knnPredict(z), knnSorted(w, z)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (rows %d, K %d): top-k %v, sorted %v", trial, rows, w.KNN.K, got, want)
		}
	}
}

func TestKNNPredictDoesNotAllocate(t *testing.T) {
	w, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float64, len(w.Mean))
	for j := range z {
		z[j] = 0.1 * float64(j)
	}
	if allocs := testing.AllocsPerRun(100, func() { knnSink = w.knnPredict(z) }); allocs != 0 {
		t.Errorf("knnPredict allocates %.1f times per call, want 0", allocs)
	}
}

var knnSink float64

// BenchmarkKNNPredict times one neighbour search over the embedded
// weights' full kNN memory.
func BenchmarkKNNPredict(b *testing.B) {
	w, err := Default()
	if err != nil {
		b.Fatal(err)
	}
	z := make([]float64, len(w.Mean))
	for j := range z {
		z[j] = 0.1 * float64(j)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		knnSink = w.knnPredict(z)
	}
}
