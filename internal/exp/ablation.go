package exp

import (
	"context"
	"fmt"

	"sirius/internal/core"
	"sirius/internal/sweep"
)

// Ablation prices the design choices of DESIGN.md §5 on one workload:
// the request/grant protocol against its oracle variants, the direct-path
// shortcut, and routing disciplines. Each variant is one sweep point —
// they execute in parallel on the runner's pool — but every variant keeps
// the scale seed for both the workload and the simulator, because a fair
// ablation must change exactly one knob and share all randomness.
func Ablation(ctx context.Context, rn *sweep.Runner, s Scale, load float64) (*Table, error) {
	t := &Table{
		Title: "ablations: pricing the design choices",
		Note: "each row changes exactly one thing relative to SIRIUS " +
			"(request/grant, piggybacked control, direct path allowed, VLB)",
		Header: []string{"variant", "goodput", "short_p99_fct_ms", "direct_frac"},
	}
	variants := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"SIRIUS (baseline)", func(c *core.Config) {}},
		{"no direct path", func(c *core.Config) { c.NoDirect = true }},
		{"instant control plane", func(c *core.Config) { c.InstantControl = true }},
		{"oracle back-pressure", func(c *core.Config) { c.Mode = core.ModeIdeal }},
		{"direct-only (no VLB)", func(c *core.Config) { c.Mode = core.ModeDirect }},
	}
	pts := make([]sweep.Point, len(variants))
	for i, v := range variants {
		v := v
		pts[i] = sweep.Point{
			Key: fmt.Sprintf("ablation|%s|load=%g|variant=%s", s.keyID(), load, v.name),
			Run: func(ctx context.Context, _ uint64) ([][]string, error) {
				flows, err := s.flows(load, 100e3, 0, s.Seed)
				if err != nil {
					return nil, err
				}
				cfg := siriusDefaults()
				v.mutate(&cfg)
				res, err := s.runSirius(ctx, flows, cfg, defaultUplinks)
				if err != nil {
					return nil, err
				}
				return [][]string{row(v.name, res.GoodputNorm,
					fmtMS(res.FCTShort.Percentile(99)), res.DirectFraction)}, nil
			},
		}
	}
	if err := t.collect(runOn(ctx, rn, s, "ablation", pts)); err != nil {
		return nil, err
	}
	return t, nil
}
