// Command camc-model prints the analytical cost model's parameters as
// estimated on each simulated architecture (Table IV), with the fitted
// contention-factor curve γ(c) (Fig 5). The model experiments themselves
// (tab3, tab4, fig5, fig12) run through camc-bench -run.
//
// Usage:
//
//	camc-model -params
//	camc-model -params -arch broadwell
package main

import (
	"flag"
	"fmt"
	"os"

	"camc/internal/arch"
	"camc/internal/model"
)

func main() {
	var (
		params = flag.Bool("params", false, "print estimated parameters with fitted gamma curves")
		archF  = flag.String("arch", "", "restrict to one architecture")
	)
	flag.Parse()
	if *archF != "" {
		if _, err := arch.ByName(*archF); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if !*params {
		flag.Usage()
		os.Exit(2)
	}
	for _, a := range arch.All() {
		if *archF != "" && a.Name != *archF {
			continue
		}
		p := model.Estimate(a)
		samples := model.MeasureGammaCurve(a, []int{50}, []int{2, 4, 8, a.DefaultProcs / 2, a.DefaultProcs - 1})
		ssr, err := p.FitGamma(samples)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%-10s alpha=%.3fus  beta=%.3f GB/s  l=%.3fus/page  s=%d B\n",
			a.Name, p.Alpha, 1e-3/p.Beta, p.L, p.PageSize)
		fmt.Printf("%-10s gamma(c) ~ %.3f + %.3f c + %.4f c^2", "", p.GammaCoef[0], p.GammaCoef[1], p.GammaCoef[2])
		if p.Boundary > 0 {
			fmt.Printf(" + %.2f max(0, c-%d)", p.GammaJump, p.Boundary)
		}
		fmt.Printf("   (fit SSR %.3g)\n", ssr)
	}
}
