// Load balancer: the §5.1 model-sharing-aware placement in isolation.
// The same Optimus policy runs under hash placement and under the K-medoids
// placement that co-locates structurally similar functions with
// complementary demand — and the transformation share rises.
package main

import (
	"fmt"
	"time"

	optimus "repro"
)

func main() {
	img := optimus.Imgclsmob()
	// Four families × two sizes; variants inside a family are cheap to
	// transform into each other, so placement decides how often an idle
	// container is a useful donor.
	functions := []string{
		"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet",
		"vgg11-imagenet", "vgg16-imagenet", "vgg19-imagenet",
		"densenet121-imagenet", "densenet169-imagenet",
		"mobilenet-w0.75-imagenet", "mobilenet-w1-imagenet",
		"resnet18-cifar10", "vgg16-cifar10",
	}
	trace := optimus.MixedPoissonTrace(functions, 24*time.Hour, 5)
	fmt.Printf("12 functions, mixed Poisson, %d requests over 24h\n\n", trace.Len())

	run := func(useBalancer bool) *optimus.Report {
		sys := optimus.NewSystem(optimus.SystemConfig{
			Nodes:             4,
			ContainersPerNode: 2,
			Policy:            optimus.PolicyOptimus,
			UseBalancer:       useBalancer,
		})
		for _, n := range functions {
			sys.MustRegister(n, img.MustGet(n))
		}
		rep, err := sys.Run(trace)
		if err != nil {
			panic(err)
		}
		return rep
	}

	hash := run(false)
	kmed := run(true)
	fmt.Println("hash placement     :", hash.Summary())
	fmt.Println("k-medoids placement:", kmed.Summary())
	fmt.Printf("\nmodel-sharing-aware placement changes mean service time by %+.1f%%\n",
		100*(float64(kmed.Metrics.MeanLatency())/float64(hash.Metrics.MeanLatency())-1))
}
