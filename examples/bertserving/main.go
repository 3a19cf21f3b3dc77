// BERT serving: the §5.2 transformer scenario. A tenant deploys several
// BERT variants — different sizes and different downstream-task heads over
// the same pre-trained base — and Optimus turns cross-function cold starts
// into cheap transformations (head swap ≈ free, size change ≈ reshape).
package main

import (
	"fmt"
	"time"

	optimus "repro"
)

func main() {
	bert := optimus.BERTZoo()
	tf := optimus.NewTransformer(optimus.CPU, optimus.AlgoGroup)

	// How cheap are the §5.2 example transformations?
	fmt.Println("inter-function transformer transformations (§5.2):")
	cases := [][2]string{
		{"bert-base-sc", "bert-base-qa"},         // Example 2: downstream-task swap
		{"bert-base-uncased", "bert-mini"},       // Example 1: size ladder down
		{"bert-mini", "bert-base-uncased"},       // size ladder up
		{"bert-base-cased", "bert-base-uncased"}, // input casing (embedding reshape)
	}
	for _, c := range cases {
		src, dst := bert.MustGet(c[0]), bert.MustGet(c[1])
		plan := tf.Plan(src, dst)
		_, took, err := tf.Transform(src, dst)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %-18s → %-18s transform %8v vs load %8v (%.1f%% saved)\n",
			c[0], c[1], took.Round(time.Millisecond), tf.LoadCost(dst).Round(time.Millisecond),
			100*(1-float64(took)/float64(tf.LoadCost(dst))))
		_ = plan
	}

	// A serving cluster with task-head churn: SC, QA, TC, NSP and MC
	// variants of the same base receive bursty, alternating traffic.
	fmt.Println("\nserving all 10 BERT variants on 2 nodes (task-head churn):")
	sys := optimus.NewSystem(optimus.SystemConfig{
		Nodes:             2,
		ContainersPerNode: 3,
		Policy:            optimus.PolicyOptimus,
		VerifyTransforms:  true,
	})
	names := bert.SortedByParams()
	for _, n := range names {
		sys.MustRegister(n, bert.MustGet(n))
	}
	trace := optimus.MixedPoissonTrace(names, 24*time.Hour, 11)
	rep, err := sys.Run(trace)
	if err != nil {
		panic(err)
	}
	fmt.Println("optimus  :", rep.Summary())

	base := optimus.NewSystem(optimus.SystemConfig{
		Nodes: 2, ContainersPerNode: 3, Policy: optimus.PolicyOpenWhisk,
	})
	for _, n := range names {
		base.MustRegister(n, bert.MustGet(n))
	}
	brep, err := base.Run(trace)
	if err != nil {
		panic(err)
	}
	fmt.Println("openwhisk:", brep.Summary())
	fmt.Printf("mean service time reduced by %.1f%%; %d transformations executed and verified\n",
		100*(1-float64(rep.Metrics.MeanLatency())/float64(brep.Metrics.MeanLatency())), rep.Verified)
}
