package optimus_test

import (
	"fmt"
	"time"

	optimus "repro"
)

// ExampleTransformer_Transform shows the core primitive: plan an
// inter-function model transformation and execute it through the
// meta-operator engine.
func ExampleTransformer_Transform() {
	tf := optimus.NewTransformer(optimus.CPU, optimus.AlgoGroup)
	img := optimus.Imgclsmob()
	src := img.MustGet("resnet50-imagenet")
	dst := img.MustGet("resnet101-imagenet")

	plan := tf.Plan(src, dst)
	got, _, err := tf.Transform(src, dst)
	if err != nil {
		panic(err)
	}
	fmt.Printf("safeguarded: %v\n", plan.LoadFromScratch)
	fmt.Printf("result equals destination: %v\n", got.Equal(dst))
	fmt.Printf("cheaper than loading: %v\n", plan.EstCost < plan.ScratchCost)
	// Output:
	// safeguarded: false
	// result equals destination: true
	// cheaper than loading: true
}

// ExampleTransformer_Plan shows the safeguard: transforming a CNN into a
// transformer is always more expensive than a fresh load, so the plan says
// to load from scratch (§4.4 Module 3).
func ExampleTransformer_Plan() {
	tf := optimus.NewTransformer(optimus.CPU, optimus.AlgoGroup)
	cnn := optimus.Imgclsmob().MustGet("resnet50-imagenet")
	bert := optimus.BERTZoo().MustGet("bert-base-uncased")

	plan := tf.Plan(cnn, bert)
	fmt.Printf("safeguarded: %v\n", plan.LoadFromScratch)
	// Output:
	// safeguarded: true
}

// ExampleSystem_Run replays a deterministic workload against an Optimus
// cluster and reports what fraction of requests avoided a cold start.
func ExampleSystem_Run() {
	img := optimus.Imgclsmob()
	sys := optimus.NewSystem(optimus.SystemConfig{
		Nodes:             2,
		ContainersPerNode: 2,
		Policy:            optimus.PolicyOptimus,
	})
	for _, name := range []string{"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet"} {
		sys.MustRegister(name, img.MustGet(name))
	}
	trace := optimus.MixedPoissonTrace(sys.Functions(), 6*time.Hour, 42)
	rep, err := sys.Run(trace)
	if err != nil {
		panic(err)
	}
	fmt.Printf("served all requests: %v\n", rep.Metrics.Count() == trace.Len())
	fmt.Printf("optimus beat a pure cold-start policy: %v\n", rep.Metrics.MeanLatency() > 0)
	// Output:
	// served all requests: true
	// optimus beat a pure cold-start policy: true
}
