// Quickstart: plan and execute an inter-function model transformation, then
// serve a small workload through an Optimus cluster.
package main

import (
	"fmt"
	"time"

	optimus "repro"
)

func main() {
	// --- The transformation core ------------------------------------------
	img := optimus.Imgclsmob()
	src := img.MustGet("resnet50-imagenet")
	dst := img.MustGet("resnet101-imagenet")

	tf := optimus.NewTransformer(optimus.CPU, optimus.AlgoGroup)
	plan := tf.Plan(src, dst)
	fmt.Printf("plan %s → %s: %d steps, est %v (loading from scratch would take %v)\n",
		src.Name, dst.Name, len(plan.Steps), plan.EstCost, plan.ScratchCost)

	got, took, err := tf.Transform(src, dst)
	if err != nil {
		panic(err)
	}
	fmt.Printf("transformed in %v; result verified identical to %s (%d ops)\n\n",
		took, dst.Name, got.NumOps())

	// --- A small serverless cluster ---------------------------------------
	sys := optimus.NewSystem(optimus.SystemConfig{
		Nodes:             2,
		ContainersPerNode: 2,
		Policy:            optimus.PolicyOptimus,
		VerifyTransforms:  true,
	})
	for _, n := range []string{"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet", "vgg16-imagenet"} {
		sys.MustRegister(n, img.MustGet(n))
	}
	trace := optimus.MixedPoissonTrace(sys.Functions(), 12*time.Hour, 42)
	rep, err := sys.Run(trace)
	if err != nil {
		panic(err)
	}
	fmt.Println("optimus :", rep.Summary())

	// The OpenWhisk baseline on the same trace, for contrast.
	base := optimus.NewSystem(optimus.SystemConfig{
		Nodes: 2, ContainersPerNode: 2, Policy: optimus.PolicyOpenWhisk,
	})
	for _, n := range sys.Functions() {
		base.MustRegister(n, img.MustGet(n))
	}
	brep, err := base.Run(trace)
	if err != nil {
		panic(err)
	}
	fmt.Println("baseline:", brep.Summary())
	red := 1 - float64(rep.Metrics.MeanLatency())/float64(brep.Metrics.MeanLatency())
	fmt.Printf("optimus reduces mean service time by %.1f%% (%d transformations verified)\n",
		100*red, rep.Verified)
}
