"""One module per workload; ``bench.harness.workload_classes`` lists them."""
