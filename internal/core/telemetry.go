package core

import (
	"strconv"

	"sirius/internal/telemetry"
)

// flushTelemetry publishes the run's accumulated plain-int counters
// into the process-wide telemetry registry. It runs once per Run —
// never on the hot path — so the GetOrCreate map lookups and the
// strconv label rendering are off the zero-alloc slot loop entirely;
// the loop itself only bumps plain int64 fields/slices.
//
// Instrumentation is observe-only: nothing here feeds back into
// simulation state, so fixed-seed outputs are byte-identical with or
// without a telemetry consumer (pinned by the golden fixtures).
func (s *sim) flushTelemetry(slots int64) {
	reg := telemetry.Default
	reg.Counter("sirius_core_runs_total").Inc()
	cellsDelivered.Add(s.delivered)
	slotsSimulated.Add(slots)
	reg.Counter("sirius_core_direct_cells_total").Add(s.direct)
	reg.Counter("sirius_core_epochs_total").Add(s.epoch)
	if s.grantsIssued > 0 {
		reg.Counter("sirius_core_grants_total").Add(s.grantsIssued)
		reg.Counter("sirius_core_grants_unused_total").Add(s.grantsUnused)
	}
	if s.localStalls > 0 {
		reg.Counter("sirius_core_guardband_stalls_total").Add(s.localStalls)
	}
	if s.reconfigSlots > 0 {
		reg.Counter("sirius_core_reconfig_linkslots_total").Add(s.reconfigSlots)
	}
	for u := 0; u < s.uplinks; u++ {
		lbl := strconv.Itoa(u)
		if s.upTx[u] > 0 {
			reg.Counter("sirius_core_uplink_cells_total", "uplink", lbl).Add(s.upTx[u])
		}
		if s.upIdle[u] > 0 {
			reg.Counter("sirius_core_uplink_idle_slots_total", "uplink", lbl).Add(s.upIdle[u])
		}
	}
	if s.reorder != nil {
		reg.Gauge("sirius_core_peak_reorder_bytes").SetInt(int64(s.peakReorder))
	}
	// FCT histogram: observed at flush (the per-flow fct slice already
	// exists), keeping even histogram CAS traffic off the slot loop.
	h := reg.Histogram("sirius_core_fct_ms")
	for i := range s.fct {
		if s.fct[i] >= 0 {
			h.Observe(s.fct[i].Seconds() * 1e3)
		}
	}
}
