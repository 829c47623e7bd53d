package workloads

import "testing"

// BenchmarkBuild times one Build of every builtin workload at the paper's
// 32 threads. B/op is dominated by the memory image's backing, so it
// records the host bytes a build lays out rather than the image's
// logical size.
func BenchmarkBuild(b *testing.B) {
	for _, w := range Builtins() {
		b.Run(w.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				w.Build(32, 1)
			}
		})
	}
}
