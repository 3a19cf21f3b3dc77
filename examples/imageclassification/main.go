// Image-classification serving: a multi-tenant cluster hosting 16 CNN
// functions from five architecture families under the production-like Azure
// workload, comparing all four container-management policies.
//
// This is the workload class the paper's introduction motivates: many
// structurally similar vision models, sporadic per-function demand, and not
// enough container slots to keep every model warm.
package main

import (
	"fmt"
	"time"

	optimus "repro"
)

func main() {
	img := optimus.Imgclsmob()
	functions := []string{
		"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet", "resnet101-imagenet",
		"vgg11-imagenet", "vgg16-imagenet", "vgg19-imagenet",
		"densenet121-imagenet", "densenet169-imagenet",
		"mobilenet-w1-imagenet", "mobilenetv2-w1-imagenet",
		"squeezenet-v1.1-imagenet", "shufflenetv2-w1-imagenet",
		"resnet50-cifar10", "vgg16-cifar10", "densenet121-cifar100",
	}
	trace := optimus.AzureTrace(functions, 24*time.Hour, 7)
	fmt.Printf("16 CNN functions, Azure-like workload: %d requests over 24h\n\n", trace.Len())

	var baseline time.Duration
	for _, pol := range []optimus.PolicyName{
		optimus.PolicyOpenWhisk, optimus.PolicyPagurus, optimus.PolicyTetris, optimus.PolicyOptimus,
	} {
		// 8 container slots for 16 functions: the capacity-limited regime the
		// paper evaluates, where warm containers cannot be kept for every
		// model (§4.1).
		sys := optimus.NewSystem(optimus.SystemConfig{
			Nodes:             4,
			ContainersPerNode: 2,
			Policy:            pol,
			UseBalancer:       pol == optimus.PolicyOptimus, // §5.1 is part of Optimus
		})
		for _, n := range functions {
			sys.MustRegister(n, img.MustGet(n))
		}
		rep, err := sys.Run(trace)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-10s %s\n", pol, rep.Summary())
		if pol == optimus.PolicyOpenWhisk {
			baseline = rep.Metrics.MeanLatency()
		} else {
			red := 1 - float64(rep.Metrics.MeanLatency())/float64(baseline)
			fmt.Printf("           → %.1f%% lower mean service time than OpenWhisk\n", 100*red)
		}
	}
}
