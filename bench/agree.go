package main

import (
	"fmt"
	"sort"
)

// runAgree answers the question a benchmark must answer before any
// change is measured with it: do two sets of runs of the same code agree?
// It makes two sets of n runs of every workload, each run in a fresh
// process with its own seed, alternating which set goes first (the host
// drifts, so the sets must interleave), and prints for every workload ×
// end-to-end metric both medians, each set's quartile spread as a share
// of its median, how much worse the second median is than the first, and
// the metric's bound — flagging a spread or a difference beyond it.
func runAgree(n int, seed int64, seconds int) error {
	type sample map[string][]float64 // metric → values
	sets := [2]map[string]sample{{}, {}}
	for _, w := range workloads {
		sets[0][w.name], sets[1][w.name] = sample{}, sample{}
	}
	failed := 0
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			for j := 0; j < 2; j++ {
				set := (i + j) % 2
				res, err := runChild(w.name, seed+int64(2*i+set), seconds, 0)
				if err != nil {
					return err
				}
				failed += res.Failed
				for name, v := range res.Metrics {
					sets[set][w.name][name] = append(sets[set][w.name][name], v.Value)
				}
			}
		}
		fmt.Printf("agree: %d of %d runs per set done\n", i+1, n)
	}

	fmt.Printf("\n%-13s %-22s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "iqr A", "iqr B", "B worse", "bound")
	flagged := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := sets[0][w.name][m.name], sets[1][w.name][m.name]
			ma, mb := median(a), median(b)
			worse, reverse := (mb-ma)/ma, (ma-mb)/mb
			if m.better == "higher" {
				worse, reverse = (ma-mb)/ma, (mb-ma)/mb
			}
			sa, sb := spread(a), spread(b)
			flag := ""
			if m.name != "setup_s" && (sa > m.bound || sb > m.bound) {
				flag += " SPREAD"
			}
			// Either set may be the one that runs first.
			if worse > m.bound || reverse > m.bound {
				flag += " DISAGREE"
			}
			if flag != "" {
				flagged++
			}
			fmt.Printf("%-13s %-22s %12.4f %12.4f %7.2f%% %7.2f%% %+7.2f%% %5.0f%%%s\n",
				w.name, m.name, ma, mb, 100*sa, 100*sb, 100*worse, 100*m.bound, flag)
		}
	}
	fmt.Printf("\n%d pairs outside their bound, %d failed operations\n", flagged, failed)
	return nil
}

// spread is the distance between the first and third quartile of xs as a
// share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the benchmark driver's measure).
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / median(s)
}
