package wisp

import (
	"math"
	"reflect"
	"testing"

	"wisp/internal/serve"
	"wisp/internal/ssl"
)

// TestBakedCostsMatchCharacterization pins the cost model wispd prices
// transactions with (serve.DefaultBaseCosts/DefaultOptCosts) to a fresh
// characterization of the default platform, field by field, so a kernel
// or model change that moves Platform.SSLCosts cannot leave the daemon's
// baked constants stale.
func TestBakedCostsMatchCharacterization(t *testing.T) {
	p, err := New(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, opt, err := p.SSLCosts()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		baked, got ssl.Costs
	}{
		{"base", serve.DefaultBaseCosts, base},
		{"optimized", serve.DefaultOptCosts, opt},
	} {
		if err := c.baked.Validate(); err != nil {
			t.Errorf("baked %s costs: %v", c.name, err)
		}
		bv, gv := reflect.ValueOf(c.baked), reflect.ValueOf(c.got)
		for i := 0; i < bv.NumField(); i++ {
			b, g := bv.Field(i).Float(), gv.Field(i).Float()
			if math.Abs(b-g) > 1e-12*math.Abs(g) {
				t.Errorf("%s %s: baked %v, characterized %v", c.name, bv.Type().Field(i).Name, b, g)
			}
		}
	}
}
