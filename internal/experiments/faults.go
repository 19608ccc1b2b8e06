package experiments

import (
	"fmt"

	"webslice/internal/analysis"
	"webslice/internal/report"
	"webslice/internal/sites"
)

// FaultPair is one benchmark executed twice: a clean load and the same load
// under the seeded degraded-network profile (sites.FaultyVariant).
type FaultPair struct {
	Name          string
	Clean, Faulty *Run
	CleanWaste    analysis.FaultWasteResult
	FaultyWaste   analysis.FaultWasteResult
}

// ExecuteFaultsWith runs the fault-injection experiment: for each selected
// site, a clean load is the baseline, then the same site loads through a
// fault plan derived from the seed. Both runs are pixel-sliced and the
// error-path (net/error namespace) instruction counts are split by slice
// membership. Each site's clean and faulty sessions are independent units
// on cfg's worker pool, collected into pairs in site-list order.
func ExecuteFaultsWith(cfg Config, seed uint64) ([]FaultPair, error) {
	benches := []sites.Benchmark{
		sites.AmazonDesktop(sites.Options{Scale: cfg.Scale}),
		sites.Bing(sites.Options{Scale: cfg.Scale}),
	}
	runs := make([]*Run, 2*len(benches))
	wastes := make([]analysis.FaultWasteResult, 2*len(benches))
	err := forEach(cfg.Workers, 2*len(benches), func(i int) error {
		b, label := benches[i/2], "clean"
		if i%2 == 1 {
			b, label = sites.FaultyVariant(b, seed), "faulty"
		}
		r, err := Execute(b)
		if err != nil {
			return fmt.Errorf("faults: %s %s: %w", benches[i/2].Name, label, err)
		}
		runs[i] = r
		wastes[i] = analysis.FaultWaste(r.Trace, r.Pixel)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]FaultPair, len(benches))
	for i, b := range benches {
		out[i] = FaultPair{
			Name:        b.Name,
			Clean:       runs[2*i],
			Faulty:      runs[2*i+1],
			CleanWaste:  wastes[2*i],
			FaultyWaste: wastes[2*i+1],
		}
	}
	return out, nil
}

// FaultsTable renders the experiment: error-path instruction counts with
// their in-slice/out-of-slice split, loader retry statistics, and the pixel
// slice percentage, clean versus faulty.
func FaultsTable(pairs []FaultPair, seed uint64) *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Fault injection (seed %d): error-path instructions vs the pixel slice", seed),
		Headers: []string{"Benchmark", "Variant", "Err-path", "In slice", "Out of slice",
			"Wasted", "Of trace", "Retries", "Timeouts", "Failed", "Degraded", "Pixel slice"},
	}
	for _, p := range pairs {
		for _, v := range []struct {
			label string
			run   *Run
			w     analysis.FaultWasteResult
		}{
			{"clean", p.Clean, p.CleanWaste},
			{"faulty", p.Faulty, p.FaultyWaste},
		} {
			l := v.run.Browser.Loader
			t.AddRow(p.Name, v.label,
				fmt.Sprint(v.w.ErrorPathInstr),
				fmt.Sprint(v.w.InSlice),
				fmt.Sprint(v.w.OutOfSlice),
				report.Pct1(v.w.WastedPct()),
				report.Pct1(v.w.ErrorPathPct()),
				fmt.Sprint(l.Retries),
				fmt.Sprint(l.Timeouts),
				fmt.Sprint(l.Failures),
				fmt.Sprint(len(v.run.Browser.Degraded)),
				report.Pct1(v.run.Pixel.Percent()))
		}
	}
	return t
}
