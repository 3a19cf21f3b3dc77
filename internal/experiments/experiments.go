// Package experiments regenerates every table and figure of the paper's
// evaluation (§3 preliminaries and §8). Each experiment returns a structured
// result with a Render method that prints the same rows/series the paper
// reports; cmd/optimus-bench exposes them on the command line and
// bench_test.go as testing.B benchmarks.
package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/cost"
	"repro/internal/model"
	"repro/internal/zoo"
)

// Options configures experiment runs.
type Options struct {
	// Profile is the hardware profile (default cost.CPU()).
	Profile *cost.Profile
	// Seed drives every stochastic choice (default 1).
	Seed int64
	// Quick shrinks sample sizes for fast test runs.
	Quick bool
}

func (o Options) withDefaults() Options {
	if o.Profile == nil {
		o.Profile = cost.CPU()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// table renders rows with aligned columns.
func table(header []string, rows [][]string) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	return b.String()
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", msF(d))
}

func msF(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func secs(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// reweight returns a clone of g whose weighted operations carry fresh weight
// identities from the given scope — "the same model with different weights"
// used on the Fig 11 diagonal and in the strawman Case 1.
func reweight(g *model.Graph, scope string) *model.Graph {
	c := g.Clone()
	c.Name = g.Name + "@" + scope
	for _, op := range c.Ops() {
		if op.HasWeights() {
			op.WeightsID = model.WeightsIDFor(scope, op.Name)
		}
	}
	return c
}

// zooCache shares built registries across experiments in one process.
var (
	imgZoo  = zoo.Imgclsmob()
	bertZoo = zoo.BERTZoo()
)

// ImgclsmobZoo returns the process-wide Imgclsmob registry.
func ImgclsmobZoo() *zoo.Registry { return imgZoo }

// BERTRegistry returns the process-wide BERT registry.
func BERTRegistry() *zoo.Registry { return bertZoo }
