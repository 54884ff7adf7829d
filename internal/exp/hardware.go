package exp

import (
	"fmt"
	"math"

	"sirius/internal/laser"
	"sirius/internal/metrics"
	"sirius/internal/optics"
	"sirius/internal/phy"
	"sirius/internal/power"
	"sirius/internal/simtime"
	"sirius/internal/timesync"
	"sirius/internal/wire"
	"sirius/internal/workload"
)

// Fig2a reproduces the scale-tax curve (network power per unit bandwidth
// vs. network scale).
func Fig2a() *Table {
	t := &Table{
		Title:  "Fig 2a: scale tax — network power per bisection bandwidth",
		Note:   "paper anchors: 50 W/Tbps direct, 487 W/Tbps at 4 switch layers",
		Header: []string{"hosts", "layers", "W/Tbps"},
	}
	for _, pt := range power.DefaultParams().Fig2a() {
		t.Add(pt.Hosts, pt.Layers, pt.WattsTbps)
	}
	return t
}

// Fig6a reproduces the power-ratio sweep over the tunable/fixed laser
// power ratio.
func Fig6a() *Table {
	t := &Table{
		Title:  "Fig 6a: Sirius/ESN power vs tunable-to-fixed laser power ratio",
		Note:   "paper: 23-26% at 3-5x laser power",
		Header: []string{"laser_ratio", "sirius/esn_power"},
	}
	for _, pt := range power.DefaultParams().Fig6a([]float64{1, 3, 5, 7, 10, 20}) {
		t.Add(pt.X, pt.Ratio)
	}
	return t
}

// Fig6b reproduces the cost-ratio sweep over the grating cost fraction.
func Fig6b() *Table {
	t := &Table{
		Title:  "Fig 6b: Sirius/ESN cost vs grating cost (fraction of switch cost)",
		Note:   "paper: 28% vs non-blocking and 53% vs 3:1 oversubscribed at 25%",
		Header: []string{"grating_frac", "vs_nonblocking", "vs_oversub_3to1"},
	}
	nb, os := power.DefaultParams().Fig6b([]float64{0.05, 0.10, 0.25, 0.50, 0.75, 1.0})
	for i := range nb {
		t.Add(nb[i].X, nb[i].Ratio, os[i].Ratio)
	}
	return t
}

// Tuning reproduces the §3.2 damped-DSDBR statistics over all 12,432
// ordered wavelength pairs, and the disaggregated designs' worst cases.
func Tuning() *Table {
	t := &Table{
		Title:  "§3.2/§6: laser tuning latency",
		Note:   "paper: damped DSDBR median 14 ns / worst 92 ns; SOA chip < 912 ps",
		Header: []string{"laser", "channels", "pairs", "median", "mean", "worst"},
	}
	add := func(name string, l laser.Tuner) {
		s := laser.MeasurePairs(l)
		t.Add(name, l.Channels(), s.Pairs, s.Median.String(), s.Mean.String(), s.Worst.String())
	}
	add("DSDBR (stock drive)", laser.NewDSDBR())
	add("DSDBR (damped drive)", laser.NewDampedDSDBR())
	add("fixed laser bank (SOA)", laser.NewFixedBank(19, 1))
	add("comb + SOA", laser.NewComb(100, 3))
	bank := laser.NewTunableBank(2)
	s := laser.MeasurePairs(bank)
	t.Add("tunable bank (pipelined)", bank.Channels(), s.Pairs, s.Median.String(), s.Mean.String(), s.Worst.String())
	return t
}

// Fig8a reproduces the SOA rise/fall-time CDF of the 19-gate chip.
func Fig8a() *Table {
	t := &Table{
		Title:  "Fig 8a: CDF of SOA rise and fall times",
		Note:   "paper worst cases: rise 527 ps, fall 912 ps",
		Header: []string{"percentile", "rise_ps", "fall_ps"},
	}
	bank := laser.NewFixedBank(19, 1)
	var rise, fall metrics.Sample
	for _, soa := range bank.SOAs() {
		rise.Add(float64(soa.Rise.Picoseconds()))
		fall.Add(float64(soa.Fall.Picoseconds()))
	}
	for _, p := range []float64{10, 25, 50, 75, 90, 100} {
		t.Add(p, rise.Percentile(p), fall.Percentile(p))
	}
	return t
}

// Fig8b reproduces the adjacent-vs-distant wavelength switching traces.
func Fig8b() *Table {
	t := &Table{
		Title:  "Fig 8b: switching between adjacent and distant wavelengths",
		Note:   "tuning latency is distance-independent with the SOA bank (< 900 ps both)",
		Header: []string{"pair", "from_nm", "to_nm", "channels_apart", "tune_time"},
	}
	grid := optics.DefaultGrid()
	bank := laser.NewFixedBank(grid.Channels, 1)
	report := func(name string, fromNM, toNM float64) {
		from, to := grid.Nearest(fromNM), grid.Nearest(toNM)
		d := int(to) - int(from)
		if d < 0 {
			d = -d
		}
		tune := bank.TuneTime(from, to)
		t.Add(name, fmt.Sprintf("%.3f", grid.NM(from)), fmt.Sprintf("%.3f", grid.NM(to)), d, tune.String())
	}
	report("adjacent", 1552.524, 1552.926)
	report("distant", 1550.116, 1559.389)
	return t
}

// Fig8c reproduces the burst waveform: consecutive cell slots with the
// 3.84 ns guardband.
func Fig8c() *Table {
	t := &Table{
		Title:  "Fig 8c: burst waveform over consecutive cell slots",
		Note:   "Sirius v2 guardband: 3.84 ns (laser tuning + sync + CDR + preamble)",
		Header: []string{"metric", "value"},
	}
	budget := phy.SiriusV2Budget()
	slot := phy.Slot{LineRate: 50 * simtime.Gbps, CellBytes: 562, Guardband: budget.Total()}
	trace := phy.BurstWaveform(slot, 3, 100*simtime.Picosecond)
	low := 0
	for _, w := range trace {
		if w.Intensity == 0 {
			low++
		}
	}
	t.Add("guardband", budget.Total().String())
	t.Add("laser tuning", budget.LaserTuning.String())
	t.Add("sync error", budget.SyncError.String())
	t.Add("CDR lock", budget.CDRLock.String())
	t.Add("preamble", budget.Preamble.String())
	t.Add("slot", slot.Duration().String())
	t.Add("guard fraction of slot", fmt.Sprintf("%.3f", slot.Overhead()))
	t.Add("trace samples (3 slots)", len(trace))
	t.Add("dark samples", low)
	return t
}

// Fig8d reproduces the BER-vs-received-power waterfall for four
// wavelengths.
func Fig8d() *Table {
	t := &Table{
		Title:  "Fig 8d: BER vs received power for four switching wavelengths",
		Note:   "paper: post-FEC error-free at -8 dBm on all channels",
		Header: []string{"power_dBm", "ch1_log10BER", "ch2_log10BER", "ch3_log10BER", "ch4_log10BER"},
	}
	m := optics.DefaultBERModel()
	m.ChannelPenaltyDB = map[optics.Wavelength]float64{0: 0, 1: 0.3, 2: 0.55, 3: 0.8}
	for p := -10.0; p <= -2; p += 1 {
		row := []interface{}{p}
		for ch := optics.Wavelength(0); ch < 4; ch++ {
			row = append(row, math.Log10(m.BER(p, ch)))
		}
		t.Add(row...)
	}
	return t
}

// Timesync reproduces the §6 synchronization experiment: maximum phase
// deviation across a long run with rotating leaders. The last row, nodes
// "8→7", is §4.4's failover: 8 nodes whose current leader fails at
// epochs/2; from then on the spread covers the 7 survivors.
func Timesync(epochs int) *Table {
	t := &Table{
		Title:  "§6: time-synchronization accuracy",
		Note:   "paper: maximum deviation ±5 ps over 24 h (prototype)",
		Header: []string{"nodes", "epochs", "max_spread_ps", "end_spread_ps"},
	}
	for _, n := range []int{2, 8, 32} {
		nw, err := timesync.NewNetwork(timesync.DefaultConfig(n))
		if err != nil {
			panic(err)
		}
		s := nw.Run(epochs, epochs/20)
		t.Add(n, epochs, fmt.Sprintf("±%.1f", s.MaxSpreadPS/2), fmt.Sprintf("±%.1f", s.EndSpreadPS/2))
	}
	nw, err := timesync.NewNetwork(timesync.DefaultConfig(8))
	if err != nil {
		panic(err)
	}
	before := nw.Run(epochs/2, epochs/20)
	nw.Fail(nw.Leader())
	after := nw.Run(epochs-epochs/2, 0)
	t.Add("8→7", epochs, fmt.Sprintf("±%.1f", max(before.MaxSpreadPS, after.MaxSpreadPS)/2),
		fmt.Sprintf("±%.1f", after.EndSpreadPS/2))
	return t
}

// LinkBudget reproduces the §4.5 optical budget arithmetic.
func LinkBudget() *Table {
	t := &Table{
		Title:  "§4.5: link budget and laser sharing",
		Header: []string{"metric", "value"},
	}
	b := optics.DefaultLinkBudget()
	t.Add("laser output", fmt.Sprintf("%.0f dBm (%.0f mW)", b.LaserOutputDBm, optics.DBmToMilliwatts(b.LaserOutputDBm)))
	t.Add("grating insertion loss", fmt.Sprintf("%.0f dB", b.GratingLossDB))
	t.Add("coupling+modulator loss", fmt.Sprintf("%.0f dB", b.CouplingModLossDB))
	t.Add("margin", fmt.Sprintf("%.0f dB", b.MarginDB))
	t.Add("receiver sensitivity", fmt.Sprintf("%.0f dBm (%.2f mW)", b.ReceiverSensDBm, optics.DBmToMilliwatts(b.ReceiverSensDBm)))
	t.Add("required laser power", fmt.Sprintf("%.1f dBm", b.RequiredLaserDBm()))
	t.Add("max transceivers per laser", b.MaxSplit())
	return t
}

// Burst reproduces the §2.2 burstiness analysis: the production
// packet-size mixture and the guardband target it implies.
func Burst() *Table {
	t := &Table{
		Title:  "§2.2: packet-size mixture and the 10 ns guardband target",
		Note:   "paper: 34% of packets < 128 B, 97.8% <= 576 B; <10% overhead needs <~10 ns",
		Header: []string{"metric", "value"},
	}
	mix := workload.NewPacketMix(1)
	s := mix.MeasureMix(500_000)
	t.Add("packets sampled", s.N)
	t.Add("fraction < 128 B", fmt.Sprintf("%.3f", s.FracUnder128))
	t.Add("fraction <= 576 B", fmt.Sprintf("%.3f", s.FracUpTo576))
	t.Add("mean size", fmt.Sprintf("%.0f B", s.MeanBytes))
	g := phy.MaxGuardbandForOverhead(50*simtime.Gbps, 576, 0.10)
	t.Add("576B @50G slot", (50 * simtime.Gbps).TimeToSend(576).String())
	t.Add("max guardband (10% overhead)", g.String())
	t.Add("v1 guardband", phy.SiriusV1Budget().Total().String())
	t.Add("v2 guardband", phy.SiriusV2Budget().Total().String())
	return t
}

// Prototype reproduces the §6 four-node system experiment over the TCP
// AWGR emulator: cyclic schedule, PRBS exchange, BER measurement.
func Prototype(nodes, epochs int) (*Table, error) {
	t := &Table{
		Title:  "§6: prototype emulation — cyclic schedule + PRBS over TCP AWGR",
		Note:   "paper: post-FEC error-free operation (BER < 1e-12) over 24 h",
		Header: []string{"node", "sent", "received", "misrouted", "bit_errors", "BER"},
	}
	st, err := wire.RunPrototype(nodes, epochs, 64, 0)
	if err != nil {
		return nil, err
	}
	for _, n := range st.Nodes {
		t.Add(n.Node, n.Sent, n.Received, n.Misrouted, n.BitErrors, n.BER())
	}
	t.Add("total", st.Cells, "routed:", st.Routed, "error-free:", st.ErrFree)
	return t, nil
}
