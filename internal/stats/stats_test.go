package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestErrExact(t *testing.T) {
	if Err(5, 5) != 0 {
		t.Fatal("exact estimate should have zero error")
	}
	if Err(0, 0) != 0 {
		t.Fatal("0/0 should be zero error")
	}
}

func TestErrDirection(t *testing.T) {
	// Over-estimate → positive, under-estimate → negative.
	if got := Err(10, 5); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Err(10,5) = %v, want 0.5", got)
	}
	if got := Err(5, 10); math.Abs(got+0.5) > 1e-12 {
		t.Fatalf("Err(5,10) = %v, want -0.5", got)
	}
	if got := Err(0, 10); got != -1 {
		t.Fatalf("Err(0,10) = %v, want -1", got)
	}
	if got := Err(10, 0); got != 1 {
		t.Fatalf("Err(10,0) = %v, want 1", got)
	}
}

func TestErrBounded(t *testing.T) {
	f := func(e, fr uint16) bool {
		v := Err(float64(e), float64(fr))
		return v >= -1 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestErrAntisymmetric(t *testing.T) {
	f := func(a, b uint16) bool {
		return math.Abs(Err(float64(a), float64(b))+Err(float64(b), float64(a))) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQError(t *testing.T) {
	cases := []struct{ e, f, want float64 }{
		{10, 10, 1}, {20, 10, 2}, {10, 20, 2}, {0, 0, 1}, {0, 5, 5}, {100, 1, 100},
	}
	for _, c := range cases {
		if got := QError(c.e, c.f); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("QError(%v,%v) = %v, want %v", c.e, c.f, got, c.want)
		}
	}
}

func TestQErrorNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative q-error input should panic")
		}
	}()
	QError(-1, 5)
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("Summary = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("Std = %v, want √2", s.Std)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Std != 0 || s.Median != 7 || s.P99 != 7 {
		t.Fatalf("Summary = %+v", s)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty sample should panic")
		}
	}()
	Summarize(nil)
}

func TestQuantile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3, 20},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantilePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty": func() { Quantile(nil, 0.5) },
		"q > 1": func() { Quantile([]float64{1}, 1.5) },
		"q < 0": func() { Quantile([]float64{1}, -0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}
