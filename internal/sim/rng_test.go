package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/64 identical values", same)
	}
}

func TestForkIndependence(t *testing.T) {
	root := NewRNG(7)
	a := root.Fork("alpha")
	root2 := NewRNG(7)
	b := root2.Fork("alpha")
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("forks with identical lineage diverged")
		}
	}
	c := NewRNG(7).Fork("beta")
	d := NewRNG(7).Fork("alpha")
	diff := false
	for i := 0; i < 16; i++ {
		if c.Uint64() != d.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("differently named forks produced identical streams")
	}
}

func TestForkIndexed(t *testing.T) {
	a := NewRNG(3).ForkIndexed("sub", 1)
	b := NewRNG(3).ForkIndexed("sub", 2)
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("indexed forks look identical")
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(11)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnRoughlyUniform(t *testing.T) {
	r := NewRNG(99)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := trials / n
	for i, c := range counts {
		if math.Abs(float64(c-want)) > float64(want)/5 {
			t.Fatalf("bucket %d count %d too far from %d", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(17)
	const mean, trials = 4.0, 200000
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += r.Exp(mean)
	}
	got := sum / trials
	if math.Abs(got-mean) > 0.1 {
		t.Fatalf("empirical mean %v, want ~%v", got, mean)
	}
	if r.Exp(0) != 0 || r.Exp(-1) != 0 {
		t.Fatal("non-positive mean should return 0")
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(23)
	const p, trials = 0.3, 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bool(p) {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-p) > 0.02 {
		t.Fatalf("empirical p = %v, want ~%v", got, p)
	}
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
}

func TestUniformInt(t *testing.T) {
	r := NewRNG(31)
	for i := 0; i < 1000; i++ {
		v := r.UniformInt(40, 500)
		if v < 40 || v > 500 {
			t.Fatalf("UniformInt out of range: %d", v)
		}
	}
	if r.UniformInt(5, 5) != 5 {
		t.Fatal("degenerate range should return lo")
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := NewRNG(41)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool, len(xs))
	for _, x := range xs {
		seen[x] = true
	}
	if len(seen) != 10 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

// Property: Intn stays in range for arbitrary seeds and bounds.
func TestPropertyIntnInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 32; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: forked generators with different indices disagree quickly.
func TestPropertyForkSeparation(t *testing.T) {
	f := func(seed uint64, i, j uint8) bool {
		if i == j {
			return true
		}
		a := NewRNG(seed).ForkIndexed("s", int(i))
		b := NewRNG(seed).ForkIndexed("s", int(j))
		for k := 0; k < 8; k++ {
			if a.Uint64() != b.Uint64() {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformIntPanicsOnInvertedRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("UniformInt(5,4) did not panic")
		}
	}()
	NewRNG(1).UniformInt(5, 4)
}

func TestExpGuardsAgainstLogZero(t *testing.T) {
	r := NewRNG(13)
	for i := 0; i < 100000; i++ {
		v := r.Exp(1.0)
		if math.IsInf(v, 0) || math.IsNaN(v) || v < 0 {
			t.Fatalf("Exp produced %v", v)
		}
	}
}

func TestShuffledIsPermutation(t *testing.T) {
	r := NewRNG(21)
	perm := r.Shuffled(20)
	if len(perm) != 20 {
		t.Fatalf("length %d", len(perm))
	}
	seen := make([]bool, 20)
	for _, v := range perm {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", perm)
		}
		seen[v] = true
	}
	if len(r.Shuffled(0)) != 0 {
		t.Fatal("Shuffled(0) should be empty")
	}
}

// refShuffled is the closure-based Shuffled that ShuffledInto replaced,
// kept as the differential reference.
func refShuffled(r *RNG, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func TestShuffledIntoMatchesShuffled(t *testing.T) {
	for _, n := range []int{0, 1, 2, 64, 128, 255} {
		for seed := uint64(0); seed < 8; seed++ {
			want, ref := NewRNG(seed), NewRNG(seed)
			into := NewRNG(seed)
			wantPerm := refShuffled(ref, n)
			var stack [255]int
			gotInto := into.ShuffledInto(stack[:n])
			gotShuffled := want.Shuffled(n)
			for i := range wantPerm {
				if gotInto[i] != wantPerm[i] || gotShuffled[i] != wantPerm[i] {
					t.Fatalf("n=%d seed=%d: permutations differ at %d: into %d, Shuffled %d, reference %d",
						n, seed, i, gotInto[i], gotShuffled[i], wantPerm[i])
				}
			}
			if len(gotInto) != n || len(gotShuffled) != n {
				t.Fatalf("n=%d: lengths %d, %d", n, len(gotInto), len(gotShuffled))
			}
			if into.state != ref.state || want.state != ref.state {
				t.Fatalf("n=%d seed=%d: generator states diverged after the shuffle", n, seed)
			}
		}
	}
}
