package sirius

// Cross-module integration tests: properties that only hold when the
// schedule, the optics, the lasers and the timing budgets agree with
// each other.

import (
	"testing"

	"sirius/internal/laser"
	"sirius/internal/optics"
	"sirius/internal/phy"
	"sirius/internal/schedule"
	"sirius/internal/simtime"
	"sirius/internal/timesync"
)

// TestScheduleTuningFitsGuardband walks the grouped schedule's actual
// per-slot wavelength transitions and checks each laser design against
// the guardband that the paper pairs it with: the SOA bank fits the
// 10 ns (and even the 3.84 ns) guardband; the damped DSDBR needs v1's
// 100 ns; the stock DSDBR fits neither.
func TestScheduleTuningFitsGuardband(t *testing.T) {
	worstTransition := func(gratingPorts int, l laser.Tuner) simtime.Duration {
		g, err := schedule.NewGrouped(2*gratingPorts, gratingPorts, 1)
		if err != nil {
			t.Fatal(err)
		}
		var worst simtime.Duration
		for node := 0; node < 2; node++ { // transitions repeat per group
			for u := 0; u < g.Uplinks(); u++ {
				prev := g.Wavelength(node, u, g.SlotsPerEpoch()-1)
				for s := 0; s < g.SlotsPerEpoch(); s++ {
					w := g.Wavelength(node, u, s)
					if d := l.TuneTime(prev, w); d > worst {
						worst = d
					}
					prev = w
				}
			}
		}
		return worst
	}

	// The SOA bank covers a 19-port grating within even the v2 budget.
	soa := worstTransition(19, laser.NewFixedBank(19, 1))
	if v2 := phy.SiriusV2Budget(); soa > v2.LaserTuning {
		t.Errorf("SOA bank worst transition %v exceeds the v2 tuning budget %v", soa, v2.LaserTuning)
	}
	// A full 112-port grating sweeps the laser across its whole range;
	// the cyclic sequence is mostly ±1-channel hops but the epoch wrap
	// jumps the entire band — that transition is what sizes the
	// guardband. The damped DSDBR needs v1's 100 ns; it cannot meet the
	// 10 ns target (the reason the custom chip exists).
	damped := worstTransition(112, laser.NewDampedDSDBR())
	if damped > 100*simtime.Nanosecond {
		t.Errorf("damped DSDBR worst transition %v exceeds the v1 guardband", damped)
	}
	if damped <= 10*simtime.Nanosecond {
		t.Errorf("damped DSDBR (%v) should not fit the 10 ns guardband across the full band", damped)
	}
	stock := worstTransition(112, laser.NewDSDBR())
	if stock <= 100*simtime.Nanosecond {
		t.Error("stock DSDBR should not fit any slot-scale guardband")
	}
}

// TestLaserSharingFeasible ties §4.5's laser sharing to the schedule and
// the link budget: all of a node's transceivers use one wavelength per
// slot (schedule property), and the optical budget lets one laser feed
// at least that many transceivers.
func TestLaserSharingFeasible(t *testing.T) {
	g, err := schedule.NewGrouped(64, 8, 1) // 8 uplinks per node
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < g.SlotsPerEpoch(); s++ {
		w0 := g.Wavelength(0, 0, s)
		for u := 1; u < g.Uplinks(); u++ {
			if g.Wavelength(0, u, s) != w0 {
				t.Fatalf("slot %d: uplinks disagree on wavelength; sharing impossible", s)
			}
		}
	}
	b := optics.DefaultLinkBudget()
	if b.MaxSplit() < g.Uplinks() {
		t.Errorf("budget shares a laser %d ways, topology needs %d", b.MaxSplit(), g.Uplinks())
	}
}

// TestEndToEndReconfigurationBudget assembles the full v2 guardband from
// the live component models — laser bank and measured sync spread — plus
// the v2 budget's phase-cached CDR lock and preamble, and checks it
// against the 10 ns target.
func TestEndToEndReconfigurationBudget(t *testing.T) {
	bank := laser.NewFixedBank(19, 1)
	tuning := bank.WorstCase()

	nw, err := timesync.NewNetwork(timesync.DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	sync := nw.Run(50_000, 1_000)
	syncErr := simtime.Duration(sync.MaxSpreadPS * float64(simtime.Picosecond))

	v2 := phy.SiriusV2Budget()
	total := tuning + syncErr + v2.CDRLock + v2.Preamble
	if total > 10*simtime.Nanosecond {
		t.Errorf("assembled reconfiguration budget %v misses the 10 ns target "+
			"(tuning %v, sync %v, cdr %v, preamble %v)",
			total, tuning, syncErr, v2.CDRLock, v2.Preamble)
	}
}
