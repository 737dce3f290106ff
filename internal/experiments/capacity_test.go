package experiments

import (
	"math"
	"testing"
)

// capacityCurve is a synthetic sweep over mults whose every row admits
// frac of its requests.
func capacityCurve(mults []float64, frac float64) []CapacityRow {
	var rows []CapacityRow
	for i, m := range mults {
		rows = append(rows, CapacityRow{Multiplier: m, Requests: 100 + 50*i, GoodputFrac: frac})
	}
	return rows
}

// TestCapacityGoodputFloor: the floor is 90% of the recorded curve's
// request-weighted goodput_frac over the sweep's own multipliers, the
// same arithmetic CI's goodput gate applied to BENCH_PR10.json (0.833
// quick, 0.821 full), and a curve just under it fails while one just
// over it passes.
func TestCapacityGoodputFloor(t *testing.T) {
	for _, tc := range []struct {
		name        string
		mults       []float64
		floor       float64
		under, over float64
	}{
		{"quick", capacityQuickMultipliers, 0.83307962529274004, 0.832, 0.834},
		{"full", capacityMultipliers, 0.82140845070422541, 0.820, 0.822},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frac, floor, err := capacityGoodput(capacityCurve(tc.mults, tc.over))
			if err != nil {
				t.Errorf("a curve at %v: %v", tc.over, err)
			}
			if math.Abs(floor-tc.floor) > 1e-12 {
				t.Errorf("floor %.17g, want %.17g", floor, tc.floor)
			}
			if math.Abs(frac-tc.over) > 1e-12 {
				t.Errorf("weighted goodput_frac of a flat %v curve is %v", tc.over, frac)
			}
			if _, _, err := capacityGoodput(capacityCurve(tc.mults, tc.under)); err == nil {
				t.Errorf("a curve at %v passed its %.3f floor", tc.under, tc.floor)
			}
		})
	}
	if _, _, err := capacityGoodput(capacityCurve([]float64{1, 3}, 1)); err == nil {
		t.Error("a curve with no recorded multiplier passed")
	}
}
