package scenario

import "testing"

// TestCutsComposeLikeTheModel: a partition followed by a regional outage
// and a regional heal. The engine's model knows one cut — the outage
// replaces the partition, the heal reconnects everyone — so every
// runtime must enforce exactly that. When the live runtime kept the
// outage in a second mechanism (shaper region tags beside the fault
// layer's partition groups) it enforced both cuts from round 8 and kept
// the partition after the round-12 heal, while the model required
// cross-side delivery: eventual-delivery read 0.62–0.70 on both live
// columns at every seed here, 1 on sim.
func TestCutsComposeLikeTheModel(t *testing.T) {
	sc := Scenario{
		Name: "cuts-compose",
		Steps: []Step{
			{Round: 4, Action: SplitRandomHalf()},
			{Round: 8, Action: RegionalOutage(0, 2)},
			{Round: 12, Action: HealAll()},
		},
	}
	for _, col := range Columns {
		for seed := int64(1); seed <= 3; seed++ {
			rt, err := NewRuntime(col, sc, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", col, seed, err)
			}
			res := Execute(rt, sc, seed)
			if !res.Ok() || res.DeliveryRatio != 1 {
				t.Errorf("%s seed %d: delivery ratio %g\n%s", col, seed, res.DeliveryRatio, res.String())
			}
		}
	}
}

// TestRegionalOutageCountsFaultDrops: on the live columns the outage's
// boundary is the fault layer's partition, so its losses land in
// Traffic().FaultDrops (they used to be ShaperDrops).
func TestRegionalOutageCountsFaultDrops(t *testing.T) {
	sc, ok := ByName("regional-outage")
	if !ok {
		t.Fatal("regional-outage builtin missing")
	}
	rt := NewLiveRuntime(sc, 1)
	if res := Execute(rt, sc, 1); !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	// The schedule has no shaper loss, no fault loss and no crash: every
	// fault drop is the boundary's.
	if tr := rt.Cluster.Traffic(); tr.FaultDrops == 0 {
		t.Fatalf("outage boundary dropped nothing into the fault bucket: %+v", tr)
	}
}
