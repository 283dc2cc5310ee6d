package place

import (
	"strings"
	"testing"

	"mtier/internal/flow"
)

func TestLinear(t *testing.T) {
	m, err := Mapping(Linear, 8, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, ep := range m {
		if int(ep) != i {
			t.Fatalf("linear mapping[%d] = %d", i, ep)
		}
	}
}

func TestStrided(t *testing.T) {
	m, err := Mapping(Strided, 8, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, ep := range m {
		if int(ep) != i*8 {
			t.Fatalf("strided mapping[%d] = %d, want %d", i, ep, i*8)
		}
	}
}

func TestRandomDistinctAndDeterministic(t *testing.T) {
	a, err := Mapping(Random, 32, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int32]bool{}
	for _, ep := range a {
		if ep < 0 || ep >= 64 {
			t.Fatalf("endpoint out of range: %d", ep)
		}
		if seen[ep] {
			t.Fatalf("duplicate endpoint %d", ep)
		}
		seen[ep] = true
	}
	b, _ := Mapping(Random, 32, 64, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different mapping")
		}
	}
	c, _ := Mapping(Random, 32, 64, 8)
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds gave identical mapping")
	}
}

func TestMappingValidation(t *testing.T) {
	if _, err := Mapping(Linear, 0, 8, 0); err == nil {
		t.Fatal("zero tasks accepted")
	}
	if _, err := Mapping(Linear, 9, 8, 0); err == nil {
		t.Fatal("too many tasks accepted")
	}
	if _, err := Mapping(Policy("bogus"), 4, 8, 0); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestApply(t *testing.T) {
	spec := &flow.Spec{}
	a := spec.AddAt(0, 1, 100, 0.5)
	spec.Add(1, 2, 200, a)
	m := []int32{10, 20, 30}
	out, err := Apply(spec, m)
	if err != nil {
		t.Fatal(err)
	}
	if out.Flows[0].Src != 10 || out.Flows[0].Dst != 20 {
		t.Fatalf("flow 0 mapped to %d->%d", out.Flows[0].Src, out.Flows[0].Dst)
	}
	if out.Flows[1].Src != 20 || out.Flows[1].Dst != 30 {
		t.Fatalf("flow 1 mapped to %d->%d", out.Flows[1].Src, out.Flows[1].Dst)
	}
	if out.Flows[0].Bytes != 100 || out.Flows[0].Start != 0.5 || out.Flows[1].Start != 0 {
		t.Fatalf("sizes or release times lost in mapping: %+v", out.Flows)
	}
	if len(out.Flows[1].Deps) != 1 || out.Flows[1].Deps[0] != a {
		t.Fatal("deps lost in mapping")
	}
	// Original spec untouched.
	if spec.Flows[0].Src != 0 {
		t.Fatal("Apply mutated input")
	}
}

func TestApplyRejectsOutOfRange(t *testing.T) {
	spec := &flow.Spec{}
	spec.Add(0, 5, 100)
	if _, err := Apply(spec, []int32{1, 2}); err == nil {
		t.Fatal("out-of-mapping task accepted")
	}
}

func TestPoliciesList(t *testing.T) {
	if len(Policies()) != 3 {
		t.Fatal("expected 3 policies")
	}
}

func TestParsePolicy(t *testing.T) {
	p, err := ParsePolicy("Strided")
	if err != nil || p != Strided {
		t.Fatalf("ParsePolicy(Strided) = %v, %v", p, err)
	}
	// Empty means auto-select and must pass through.
	if p, err := ParsePolicy(""); err != nil || p != "" {
		t.Fatalf("ParsePolicy(\"\") = %q, %v", p, err)
	}
	if _, err := ParsePolicy("diagonal"); err == nil {
		t.Fatal("unknown policy accepted")
	} else if !strings.Contains(err.Error(), "linear") {
		t.Fatalf("error %q does not list valid policies", err)
	}
}
